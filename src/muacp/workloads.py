"""Traffic generators for the scaling simulations.

Two workloads run side by side:

  * request/response: every node periodically asks a uniformly chosen
    peer to perform an action (QoS 1, so the ask retransmits until the
    answer or an acknowledgement lands).  The verb semantics produce
    the done() answer without any extra node logic.  Scale agents keep
    no done() facts: a node forgets each one when the delivery that
    asserted it has been accepted (see `ScaleNode`), so an agent's
    knowledge base does not grow with the length of the run.

  * negotiation: a fixed-size pool of initiators runs contract-net
    rounds against seeded committees (call for proposals, propose or
    refuse, award, completion report).  Pool and committee sizes do
    not grow with the network, so this contributes a size-independent
    hotspot while the request/response load scales with n.

Every initiated conversation is tracked to termination; a run is clean
when started == completed for both kinds, which is what the acceptance
checks assert under one percent message loss.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace

from . import wire
from .agent import CT_LITERAL, Agent, done
from .schema import Config
from .simnet import BasicNode, MetricsReport, Network, SimConfig
from .wire import Message, Option, OptionType, U32_MAX, Verb

# From wire, not fipa: a scale run never loads the FIPA layer.
_PROC_CFP = bytes((wire.PROC_CFP,))
_PROC_PROPOSE = bytes((wire.PROC_PROPOSE,))
_PROC_REFUSE = bytes((wire.PROC_REFUSE,))
_PROC_ACCEPT = bytes((wire.PROC_ACCEPT_PROPOSAL,))
_PROC_REJECT = bytes((wire.PROC_REJECT_PROPOSAL,))
# Read once: enum member lookups are slow on the per-message path.
_TELL, _ASK = Verb.TELL, Verb.ASK
_PROC, _CONTENT_TYPE, _CID = (
    OptionType.PROC, OptionType.CONTENT_TYPE, OptionType.CID)


@dataclass(frozen=True)
class ScaleConfig(Config):
    n: int = 100
    until: int = 900
    drain: int = 250             # quiet period before the end
    seed: int = 1
    rr_period: int = 40          # ticks between asks per node
    rr_deadline: int = 400
    cnet_initiators: int = 8
    committee: int = 4
    proposal_wait: int = 40
    round_pause: int = 30
    refusal_modulus: int = 5     # member refuses when (id+round) % m == 0
    tick_ms: float = 1.0
    sim: SimConfig = field(
        default_factory=lambda: SimConfig(
            seed=1,
            gst=10**9,           # loss persists for the whole run
            drop_rate=0.01,
            delay_min=1,
            delay_max=10,
        )
    )

    def __post_init__(self) -> None:
        self.check_seed(self.seed)
        for name in ("drain", "cnet_initiators", "committee",
                     "proposal_wait", "round_pause"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.n < max(10, self.cnet_initiators + self.committee):
            raise ValueError("network too small for the configured pool")
        if self.until <= self.drain:
            raise ValueError("run must be longer than the drain period")
        for name in ("rr_period", "refusal_modulus"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 <= self.rr_deadline <= U32_MAX:
            raise ValueError(f"rr_deadline must be in 0..{U32_MAX}")
        if not self.tick_ms > 0:
            raise ValueError("tick_ms must be positive")
        # Reports give latencies in ms, and JSON has no infinity.
        try:
            finite = math.isfinite(
                self.tick_ms * float(max(self.sim.delay_max, self.sim.delta)))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(
                "tick_ms is too large: tick_ms * max(sim.delay_max, "
                "sim.delta) must be a finite number of ms")


class WorkloadStats:
    """Shared conversation ledger for one run."""

    def __init__(self) -> None:
        self.started: Counter = Counter()
        self.completed: Counter = Counter()
        self.failed: Counter = Counter()

    def clean(self) -> bool:
        return (
            sum(self.failed.values()) == 0
            and all(
                self.completed[k] == self.started[k] for k in self.started
            )
        )

    def snapshot(self) -> dict:
        return {
            "started": dict(sorted(self.started.items())),
            "completed": dict(sorted(self.completed.items())),
            "failed": dict(sorted(self.failed.items())),
            "clean": self.clean(),
        }


@dataclass
class _Round:
    cid: int
    task: str
    committee: list[int]
    deadline: int
    proposals: set[int] = field(default_factory=set)
    refusals: set[int] = field(default_factory=set)
    awarded: int | None = None


class ScaleNode(BasicNode):
    """Combined workload behavior: every node answers requests and
    serves on committees; initiator nodes additionally run rounds.

    The agent's knowledge base is empty between deliveries: once the
    agent has accepted a message, `on_deliver` forgets the one fact it
    may have asserted (a performer's or an asker's `done(job_...)`, or
    an initiator's `done(task_...)`).  No scale conversation queries a
    fact, and job names carry their tick, so none is asked twice.  The
    agent's verb semantics still assert it; only this embedding drops
    it, so a long run holds no more facts than a short one."""

    def __init__(
        self,
        agent: Agent,
        cfg: ScaleConfig,
        stats: WorkloadStats,
        *,
        initiator: bool,
    ):
        super().__init__(agent)
        self.cfg = cfg
        self.stats = stats
        self.initiator = initiator
        self.rng = random.Random((cfg.seed << 20) ^ (agent.id * 2654435761))
        self.stop_at = cfg.until - cfg.drain
        # The tick of this node's next ask, or None once that tick would
        # fall at or past stop_at.
        first = (agent.id * 17) % cfg.rr_period
        self.next_ask = first if first < self.stop_at else None

        self.round: _Round | None = None
        self.round_counter = 0
        self.next_round_at = 5 + (agent.id % 7)
        self.proposed_convs: set[tuple[int, int]] = set()
        self.done_sent: set[tuple[int, int]] = set()

    # -- request/response ----------------------------------------------

    def _maybe_ask(self, net: Network, now: int) -> None:
        if now != self.next_ask:
            return
        after = now + self.cfg.rr_period
        self.next_ask = after if after < self.stop_at else None
        # A uniform peer other than this node, in one draw: k skips our id.
        k = self.rng.randrange(self.cfg.n - 1)
        peer = k + (k >= self.id)
        msg = self.agent.make_ask(
            f"job_{self.id}_{now}()",
            kind=wire.CONTENT_ACTION,
            qos=1,
            deadline=self.cfg.rr_deadline,
        )
        if self.emit(net, peer, msg, now):
            self.stats.started["request"] += 1

    # -- contract rounds --------------------------------------------------

    def _frame(self, verb: Verb, code: bytes, cid: int,
               payload: bytes) -> Message:
        """A QoS-1 contract-net frame: procedure `code` of round `cid`."""
        return self.agent.build(
            verb, options=(Option(_PROC, code), wire.opt_cid(cid)),
            payload=payload, qos=1)

    def _start_round(self, net: Network, now: int) -> None:
        self.round_counter += 1
        task = f"task_{self.id}_{self.round_counter}"
        committee = sorted(
            self.rng.sample(
                [p for p in range(self.cfg.cnet_initiators, self.cfg.n)
                 if p != self.id],
                self.cfg.committee,
            )
        )
        cid = self.agent.fresh_cid()
        self.round = _Round(
            cid=cid,
            task=task,
            committee=committee,
            deadline=now + self.cfg.proposal_wait,
        )
        self.stats.started["negotiation"] += 1
        # Each copy gets its own header correlation id so its QoS-1
        # retransmission is tracked independently; the CID option holds
        # the round id that groups the conversation.
        payload = task.encode()
        for member in committee:
            self.emit(net, member,
                      self._frame(_ASK, _PROC_CFP, cid, payload), now)

    def _advance_round(self, net: Network, now: int) -> None:
        r = self.round
        if r is None:
            if self.initiator and self.next_round_at <= now < self.stop_at:
                self._start_round(net, now)
            return
        if r.awarded is None:
            responded = len(r.proposals) + len(r.refusals)
            if responded < len(r.committee) and now < r.deadline:
                return
            if not r.proposals:
                # Every member refused (or nothing arrived in time):
                # the round terminates cleanly with no award.
                self._complete_round(now)
                return
            winner = min(r.proposals)
            r.awarded = winner
            payload = r.task.encode()
            for member in sorted(r.proposals):
                code = _PROC_ACCEPT if member == winner else _PROC_REJECT
                self.emit(net, member,
                          self._frame(_TELL, code, r.cid, payload), now)

    def _complete_round(self, now: int) -> None:
        self.stats.completed["negotiation"] += 1
        self.round = None
        self.next_round_at = now + self.cfg.round_pause

    # -- node hooks ---------------------------------------------------------

    def next_wake(self, now: int) -> int | None:
        """The earliest of the agent's next timer, this node's next ask
        tick and an initiator's next round step."""
        soon = now + 1
        at = super().next_wake(now)
        ask = self.next_ask
        if ask is not None and (at is None or ask < at):
            at = ask
        if self.initiator:
            step = self._round_wake(soon)
            if step is not None and (at is None or step < at):
                at = step
        return at

    def _round_wake(self, soon: int) -> int | None:
        """When `_advance_round` next has work (see its conditions)."""
        r = self.round
        if r is None:
            at = max(soon, self.next_round_at)
            return at if at < self.stop_at else None
        if r.awarded is not None:
            return None  # only the winner's done report, a delivery, is left
        if len(r.proposals) + len(r.refusals) >= len(r.committee):
            return soon
        return max(soon, r.deadline)

    # Every ask the agent has pending is a request this node started: a
    # CFP carries no content type, so it registers no pending ask.  So
    # each expiry fails a request and each answer completes one.

    def on_tick(self, net: Network, now: int) -> None:
        expired = super().on_tick(net, now)
        if expired:
            self.stats.failed["request"] += expired
        self._maybe_ask(net, now)
        if self.initiator:
            self._advance_round(net, now)

    def on_deliver(self, net: Network, label, now: int) -> None:
        if not super().on_deliver(net, label, now):
            return
        # Forget what this delivery asserted: at most one fact, the only
        # one held (see the class docstring).
        self.agent.kb.clear()
        answers = self.agent.answers
        if answers:
            self.stats.completed["request"] += len(answers)
            answers.clear()
        sender, _, msg = label
        proc = msg.find(_PROC)
        if proc is not None:
            self._on_proc(net, proc.value, msg, sender, now)
            return
        r = self.round
        if (r is not None and sender == r.awarded
                and msg.header.verb == _TELL
                and msg.find(_CONTENT_TYPE) == CT_LITERAL
                and msg.payload == done(r.task).text().encode()):
            self._complete_round(now)

    def _on_proc(
        self, net: Network, code: bytes, msg: Message, sender: int, now: int
    ) -> None:
        cid_opt = msg.find(_CID)
        if cid_opt is None or len(cid_opt.value) != 4:
            return
        conv = wire.decode_u32(cid_opt.value)  # round id
        if code == _PROC_CFP:
            key = (sender, conv)
            if key in self.proposed_convs:
                return
            task = msg.payload.decode("utf-8", "replace")
            try:
                round_no = int(task.rsplit("_", 1)[-1])
            except ValueError:
                return  # names no round; the agent has acknowledged it
            self.proposed_convs.add(key)
            refuse = (self.id + round_no) % self.cfg.refusal_modulus == 0
            reply_code = _PROC_REFUSE if refuse else _PROC_PROPOSE
            # A refusal echoes the CFP's own bytes, which always fit.
            payload = msg.payload if refuse else f"bid({self.id})".encode()
            self.emit(net, sender,
                      self._frame(_TELL, reply_code, conv, payload), now)
            return
        if code in (_PROC_PROPOSE, _PROC_REFUSE):
            r = self.round
            if r is None or conv != r.cid or sender not in r.committee:
                return
            if code == _PROC_PROPOSE:
                r.proposals.add(sender)
            else:
                r.refusals.add(sender)
            if r.awarded is None:
                self._advance_round(net, now)
            return
        if code == _PROC_ACCEPT:
            key = (sender, conv)
            if key in self.done_sent:
                return
            self.done_sent.add(key)
            task = msg.payload.decode("utf-8", "replace")
            try:
                report = self.agent._tell(done(task), None, qos=1)
            except wire.WireError:
                return  # a task too long to report on
            self.emit(net, sender, report, now)
            return
        # rejections need no action beyond the automatic acknowledgement


@dataclass
class ScaleReport:
    config: ScaleConfig
    metrics: MetricsReport
    workload: dict
    infeasible_events: int

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "metrics": self.metrics.summary(),
            "workload": self.workload,
            "infeasible_events": self.infeasible_events,
        }


def build_scale(
    cfg: ScaleConfig, *, events: bool = False
) -> tuple[Network, WorkloadStats]:
    """The scale network and its shared stats.  The network keeps event
    records only with `events` (see `simnet.Network`)."""
    stats = WorkloadStats()
    nodes = [
        ScaleNode(
            Agent(i),
            cfg,
            stats,
            initiator=i < cfg.cnet_initiators,
        )
        for i in range(cfg.n)
    ]
    return Network(cfg.sim, nodes, events=events), stats


def run_scale(
    cfg: ScaleConfig, *, events: bool = False
) -> tuple[ScaleReport, Network]:
    net, stats = build_scale(cfg, events=events)
    net.run(cfg.until)
    infeasible = sum(
        node.agent.infeasible_count for node in net.nodes.values()
    )
    report = ScaleReport(
        config=cfg,
        metrics=net.metrics(cfg.tick_ms),
        workload=stats.snapshot(),
        infeasible_events=infeasible,
    )
    return report, net
