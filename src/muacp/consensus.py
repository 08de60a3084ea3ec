"""Single-decree consensus over the four-verb protocol.

Phase-1 solicitations ride ASK, everything else rides TELL; ballots
and values travel as options, so no new verbs or header fields are
needed:

    prepare   ASK   BALLOT(b) CONV(k)                  fresh cid
    promise   TELL  response, BALLOT(b echo)           prepare's cid
              [+ BALLOT(accepted b') VALUE(v')]  if something was
                                                 accepted earlier
    nack      TELL  response, ERR(promised ballot)     echoed cid
    accept    TELL  BALLOT(b) VALUE(v) CONV(k)         fresh cid
    accepted  TELL  response, BALLOT(b) VALUE(v)       accept's cid
    decide    TELL  VALUE(v) CONV(k), QoS 1            fresh cid/peer

Every participant is an acceptor; a configurable subset also propose.
A proposer acts only while it believes it is the leader (the lowest
proposer id it does not suspect); suspicion comes from a ping-based
eventually-perfect failure detector whose per-peer timeout doubles
whenever a suspicion proves wrong.  A message a participant addresses
to itself never touches the network: it is applied locally in the same
tick, but still counts as one protocol message.

The acceptor and proposer rules are written once, as transition
functions that do no I/O (`step`, `start_attempt`).  `Participant`
adapts them to the network, and the exhaustive checker at the bottom
drives the same functions; both build each node's `NodeConfig` with
`DecreeConfig.node_config`.  Safety needs no synchrony: with any
majority quorum, two different values can never both be chosen.  The
checker verifies that claim over every interleaving of deliveries and
retries, up to two ballot rounds, in the constant decree
`EXPLORED_DECREE` (three nodes, two proposers), not just sampled
schedules.
"""

from __future__ import annotations

import random
import struct
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import schema, wire
from .agent import Agent
from .simnet import BasicNode, Network, SimConfig
from .wire import FLAG_RESPONSE, Message, Option, OptionType, Verb

_U32_PAIR = struct.Struct(">II")
# Read once: enum member lookups are slow on the per-message path.
_PING, _TELL, _ASK = Verb.PING, Verb.TELL, Verb.ASK
_BALLOT, _VALUE, _CONV, _ERR = (
    OptionType.BALLOT, OptionType.VALUE, OptionType.CONV, OptionType.ERR)


class Ballot(NamedTuple):
    """Totally ordered by (round, proposer); proposer ids break ties so
    distinct proposers can never mint equal ballots.  An immutable
    tuple, so order, equality and hashing are those of the plain
    `(round, proposer)` tuple."""

    round: int
    proposer: int

    def encode(self) -> bytes:
        return _U32_PAIR.pack(*self)

    @classmethod
    def decode(cls, data: bytes) -> "Ballot":
        if len(data) != 8:
            raise wire.WireError(f"ballot must be 8 bytes, got {len(data)}")
        return cls._make(_U32_PAIR.unpack(data))


def opt_ballot(b: Ballot) -> Option:
    return Option(_BALLOT, b.encode())


def opt_value(v: bytes) -> Option:
    return Option(_VALUE, v)


class Classified(NamedTuple):
    """One consensus message by meaning, an immutable tuple."""

    kind: str  # prepare | promise | nack | accept | accepted | decide
    ballot: Ballot | None = None
    prior: tuple[Ballot, bytes] | None = None  # promise's accepted pair
    value: bytes | None = None
    instance: int | None = None


def classify(msg: Message) -> Classified | None:
    """Recognize a consensus message purely from its shape.  The six
    kinds have pairwise distinct verb/flag/option profiles, so no
    conversation state is needed.  A ballot or instance option of the
    wrong length makes a message not a consensus message."""
    h = msg.header
    verb, response = h.verb, h.flags & FLAG_RESPONSE
    value = msg.find(_VALUE)
    conv = msg.find(_CONV)
    err = msg.find(_ERR)
    try:
        ballots = [Ballot.decode(o.value) for o in msg.options
                   if o.code == _BALLOT]
        instance = wire.decode_u32(conv.value) if conv is not None else None
    except wire.WireError:
        return None

    if verb == _ASK and len(ballots) == 1 and not response:
        return Classified("prepare", ballot=ballots[0], instance=instance)
    if verb != _TELL:
        return None
    if response and err is not None and len(err.value) == 8:
        return Classified("nack", ballot=Ballot.decode(err.value))
    if response and len(ballots) == 2 and value is not None:
        return Classified(
            "promise", ballot=ballots[0], prior=(ballots[1], value.value),
        )
    if response and len(ballots) == 1 and value is None:
        return Classified("promise", ballot=ballots[0])
    if response and len(ballots) == 1 and value is not None:
        return Classified("accepted", ballot=ballots[0], value=value.value)
    if (
        not response
        and len(ballots) == 1
        and value is not None
    ):
        return Classified(
            "accept", ballot=ballots[0], value=value.value, instance=instance,
        )
    if (
        not response
        and not ballots
        and value is not None
        and conv is not None
    ):
        return Classified("decide", value=value.value, instance=instance)
    return None


# -- failure detection ----------------------------------------------------


@dataclass
class _Monitor:
    timeout: int
    suspected: bool = False
    sent_at: int | None = None  # tick of the probe still unanswered
    next_ping_at: int = 0


@dataclass(frozen=True)
class SuspicionEvent:
    tick: int
    peer: int
    event: str  # "suspect" | "restore"
    timeout: int


class FailureDetector:
    """Ping-based eventually-perfect detector.

    One probe per peer is outstanding at a time.  A probe unanswered
    for the peer's current timeout marks the peer suspected and a new
    probe goes out immediately; any pong from a suspected peer clears
    the suspicion and doubles that peer's timeout (up to a cap), which
    is what makes wrong suspicions die out after stabilization."""

    def __init__(
        self,
        peers: list[int],
        *,
        ping_interval: int,
        timeout: int,
        timeout_cap: int,
    ):
        self.ping_interval = ping_interval
        self.timeout_cap = timeout_cap
        # Built in peer order, so `step` reports due peers sorted.
        self.monitors = {
            p: _Monitor(timeout=timeout, next_ping_at=i)
            for i, p in enumerate(sorted(peers))
        }
        self.history: list[SuspicionEvent] = []

    def step(self, now: int) -> list[int]:
        """Peers that need a fresh probe this tick.  The caller must
        follow up with note_ping for each."""
        due = []
        for peer, m in self.monitors.items():
            if m.sent_at is not None and now - m.sent_at >= m.timeout:
                if not m.suspected:
                    m.suspected = True
                    self.history.append(
                        SuspicionEvent(now, peer, "suspect", m.timeout)
                    )
                m.sent_at = None
                m.next_ping_at = now
            if m.sent_at is None and now >= m.next_ping_at:
                due.append(peer)
        return due

    def note_ping(self, peer: int, now: int) -> None:
        m = self.monitors[peer]
        m.sent_at = now
        m.next_ping_at = now + self.ping_interval

    def on_pong(self, peer: int, now: int) -> None:
        if peer not in self.monitors:
            return
        m = self.monitors[peer]
        m.sent_at = None
        if m.suspected:
            m.suspected = False
            m.timeout = min(m.timeout * 2, self.timeout_cap)
            self.history.append(
                SuspicionEvent(now, peer, "restore", m.timeout)
            )


# -- consensus rules ---------------------------------------------------------
#
# The rules are plain functions (config, state, input) -> (state, sent)
# that do no I/O.  `sent` lists every message the input caused, in send
# order, as (receiver, Classified) pairs; messages a node addresses to
# itself appear too, already applied.  `Participant` puts them on the
# network and `exhaustive_interleaving_check` explores them.

_IDLE, _PREPARING, _ACCEPTING = "idle", "preparing", "accepting"

Sent = list[tuple[int, Classified]]

#: Base of a nacked proposer's cooldown; node `id` waits
#: RETRY_BACKOFF + id % (RETRY_BACKOFF + 1) ticks before it retries.
RETRY_BACKOFF = 3


@dataclass(frozen=True)
class NodeConfig:
    """What a node's rules read but never change; a decree's nodes
    get theirs from `DecreeConfig.node_config`."""

    id: int
    peers: tuple[int, ...]  # sorted, including id
    value: bytes            # what this node proposes when free to choose
    retry_timeout: int = 30

    @property
    def quorum(self) -> int:
        return len(self.peers) // 2 + 1


class NodeState(NamedTuple):
    """Everything the rules read and write; hashable, so the exhaustive
    checker can tell states apart."""

    # acceptor
    promised: Ballot | None = None
    accepted: tuple[Ballot, bytes] | None = None
    max_round_seen: int = 0
    # proposer
    phase: str = _IDLE
    ballot: Ballot | None = None
    proposal: bytes | None = None
    # (sender, prior accepted pair) per promise, ordered by sender
    promises: tuple[tuple[int, tuple[Ballot, bytes] | None], ...] = ()
    acks: frozenset[int] = frozenset()
    deadline: int | None = None
    cooldown_until: int = 0
    decided: bytes | None = None
    decided_tick: int | None = None


def acceptor_prepare(s: NodeState, b: Ballot) -> tuple[NodeState, Classified]:
    s = s._replace(max_round_seen=max(s.max_round_seen, b.round))
    if s.promised is None or b > s.promised:
        reply = Classified("promise", ballot=b, prior=s.accepted)
        return s._replace(promised=b), reply
    return s, Classified("nack", ballot=s.promised)


def acceptor_accept(
    s: NodeState, b: Ballot, v: bytes
) -> tuple[NodeState, Classified]:
    s = s._replace(max_round_seen=max(s.max_round_seen, b.round))
    if s.promised is None or b >= s.promised:
        reply = Classified("accepted", ballot=b, value=v)
        return s._replace(promised=b, accepted=(b, v)), reply
    return s, Classified("nack", ballot=s.promised)


def choose_value(
    promises: tuple[tuple[int, tuple[Ballot, bytes] | None], ...],
    own: bytes,
) -> bytes:
    """The value of the highest-ballot prior among the promises, else
    the proposer's own (P2c in "Paxos Made Simple")."""
    best: tuple[Ballot, bytes] | None = None
    for _sender, pair in promises:
        if pair is not None and (best is None or pair[0] > best[0]):
            best = pair
    return best[1] if best is not None else own


def start_attempt(
    cfg: NodeConfig, s: NodeState, now: int
) -> tuple[NodeState, Sent]:
    """Open a fresh ballot above every round seen and prepare it."""
    ballot = Ballot(s.max_round_seen + 1, cfg.id)
    s = s._replace(
        max_round_seen=ballot.round, ballot=ballot, phase=_PREPARING,
        promises=(), acks=frozenset(), deadline=now + cfg.retry_timeout,
    )
    prepare = Classified("prepare", ballot=ballot)
    return _apply_local(cfg, s, [(p, prepare) for p in cfg.peers], now)


def step(
    cfg: NodeConfig, s: NodeState, sender: int, c: Classified, now: int
) -> tuple[NodeState, Sent]:
    """Apply one consensus message from `sender`."""
    s, out = _rules(cfg, s, sender, c, now)
    return _apply_local(cfg, s, out, now)


def _apply_local(
    cfg: NodeConfig, s: NodeState, out: Sent, now: int
) -> tuple[NodeState, Sent]:
    """A message a node addresses to itself never touches the network:
    it is applied at once, depth first, so send order is kept."""
    sent: Sent = []
    for to, c in out:
        sent.append((to, c))
        if to == cfg.id:
            s, more = step(cfg, s, cfg.id, c, now)
            sent += more
    return s, sent


def _rules(
    cfg: NodeConfig, s: NodeState, sender: int, c: Classified, now: int
) -> tuple[NodeState, Sent]:
    kind = c.kind
    if kind == "prepare":
        s, reply = acceptor_prepare(s, c.ballot)
        return s, [(sender, reply)]
    if kind == "accept":
        s, reply = acceptor_accept(s, c.ballot, c.value)
        return s, [(sender, reply)]
    if kind == "promise":
        if s.phase != _PREPARING or c.ballot != s.ballot:
            return s, []
        promises = tuple(sorted({**dict(s.promises), sender: c.prior}.items()))
        if len(promises) < cfg.quorum:
            return s._replace(promises=promises), []
        proposal = choose_value(promises, cfg.value)
        s = s._replace(
            promises=promises, phase=_ACCEPTING, proposal=proposal,
            deadline=now + cfg.retry_timeout,
        )
        accept = Classified("accept", ballot=s.ballot, value=proposal)
        return s, [(p, accept) for p in cfg.peers]
    if kind == "accepted":
        if s.phase != _ACCEPTING or c.ballot != s.ballot:
            return s, []
        s = s._replace(acks=s.acks | {sender})
        if len(s.acks) < cfg.quorum:
            return s, []
        return _decide(cfg, s, s.proposal, now)
    if kind == "nack":
        s = s._replace(max_round_seen=max(s.max_round_seen, c.ballot.round))
        if s.phase == _IDLE:
            return s, []
        # Deterministic per-id backoff so dueling proposers
        # desynchronize instead of nacking each other forever.
        backoff = RETRY_BACKOFF + cfg.id % (RETRY_BACKOFF + 1)
        return s._replace(phase=_IDLE, cooldown_until=now + backoff), []
    if kind == "decide":
        return _decide(cfg, s, c.value, now)
    return s, []


def _decide(
    cfg: NodeConfig, s: NodeState, v: bytes, now: int
) -> tuple[NodeState, Sent]:
    if s.decided is not None:
        return s, []
    s = s._replace(decided=v, decided_tick=now, phase=_IDLE)
    decide = Classified("decide", value=v)
    return s, [(p, decide) for p in cfg.peers if p != cfg.id]


# -- participant -------------------------------------------------------------


class Participant(BasicNode):
    """One node of a decree: always an acceptor, a proposer when the
    decree names it.

    An adapter onto the network: it classifies inbound messages, feeds
    them to the rules above, builds and emits what they send, counts
    every logical message, and runs the failure detector that decides
    who leads.  Everything it is configured with comes from `decree`:
    its rules' `NodeConfig` (`decree.node_config`), the proposers, the
    instance and the detector settings."""

    def __init__(self, agent: Agent, decree: DecreeConfig):
        super().__init__(agent)
        self.proposer_ids = decree.proposer_ids()
        self.config = decree.node_config(self.id)
        self.state = NodeState()
        self.is_proposer = self.id in self.proposer_ids
        self.instance = decree.instance
        self.counts: Counter = Counter()
        self.fd = FailureDetector(
            [p for p in self.config.peers if p != self.id],
            ping_interval=decree.ping_interval,
            timeout=decree.fd_timeout,
            timeout_cap=decree.fd_timeout_cap,
        )

    # -- node hooks ---------------------------------------------------

    def next_wake(self, now: int) -> int | None:
        """Every tick, though most ticks have no work: on consensus_n5
        seeds 1-100, 10,546 of 15,874 `on_tick` calls send nothing and
        change nothing.  Exact wake-ups still cost more than they save.
        A prototype that woke at the detector's, the agent's and the
        proposer's next deadline kept all 21 consensus pins but ran
        3-4% slower in an in-process A/B (2 vCPU, Python 3.11.7),
        because `next_wake` runs after every delivery."""
        return now + 1

    def on_tick(self, net: Network, now: int) -> None:
        super().on_tick(net, now)
        for peer in self.fd.step(now):
            if self.emit(net, peer, self.agent.make_ping(), now):
                self.fd.note_ping(peer, now)
        s = self.state
        if s.decided is not None or not self.is_proposer:
            return
        expired = s.deadline is not None and now >= s.deadline
        if self._leader() != self.id:
            if s.phase != _IDLE and expired:
                self.state = s._replace(phase=_IDLE)
            return
        if (s.phase == _IDLE and now >= s.cooldown_until) or (
            s.phase != _IDLE and expired
        ):
            self._send(net, now, *start_attempt(self.config, s, now))

    def on_deliver(self, net: Network, label, now: int) -> None:
        if not super().on_deliver(net, label, now):
            return
        sender, _, msg = label
        h = msg.header
        if h.verb == _PING:
            # Most deliveries are the detector's; `classify` takes only
            # ASK and TELL, so a ping never reaches it.
            if h.flags & FLAG_RESPONSE:
                self.fd.on_pong(sender, now)
            return
        c = classify(msg)
        if c is not None:
            self._send(
                net, now, *step(self.config, self.state, sender, c, now),
            )

    def _leader(self) -> int:
        """The lowest proposer that is this node or not suspected; this
        node when every other proposer is suspected."""
        monitors = self.fd.monitors
        for p in self.proposer_ids:
            if p == self.id or not monitors[p].suspected:
                return p
        return self.id

    def _send(
        self, net: Network, now: int, state: NodeState, sent: Sent
    ) -> None:
        """Adopt the rules' new state, count every message they sent and
        emit the ones addressed to other nodes."""
        self.state = state
        for to, c in sent:
            self.counts[c.kind] += 1
            if to != self.id:
                self.emit(net, to, self._build(c), now)

    def _build(self, c: Classified) -> Message:
        """The wire form of one consensus message (table at the top)."""
        if c.kind == "nack":
            return self.agent.build(
                _TELL, options=(wire.opt_err(c.ballot.encode()),),
                flags=FLAG_RESPONSE,
            )
        opts = [opt_ballot(c.ballot)] if c.ballot is not None else []
        if c.prior is not None:
            opts += (opt_ballot(c.prior[0]), opt_value(c.prior[1]))
        if c.value is not None:
            opts.append(opt_value(c.value))
        if c.kind in ("promise", "accepted"):
            return self.agent.build(
                _TELL, options=tuple(opts), flags=FLAG_RESPONSE
            )
        opts.append(wire.opt_conv(self.instance))
        return self.agent.build(
            _ASK if c.kind == "prepare" else _TELL,
            options=tuple(opts),
            qos=1 if c.kind == "decide" else 0,
        )


# -- seeded runs -------------------------------------------------------------


@dataclass(frozen=True)
class DecreeConfig(schema.Config):
    n: int = 3
    proposers: tuple[int, ...] | None = None  # default: every node
    values: tuple[str, ...] | None = None     # per proposer, default v<id>
    sim: SimConfig = field(default_factory=SimConfig)
    until: int = 600
    instance: int = 1
    retry_timeout: int = 30
    ping_interval: int = 5
    fd_timeout: int = 25
    fd_timeout_cap: int = 200

    def proposer_ids(self) -> list[int]:
        if self.proposers is None:
            return list(range(self.n))
        return sorted(self.proposers)

    def node_config(self, node: int) -> NodeConfig:
        """What node `node`'s rules read: every node below `n` is a peer,
        and it proposes its entry of `values` when it has one, else
        `v<node>`."""
        value = dict(zip(self.proposer_ids(), self.values or ())).get(
            node, f"v{node}")
        return NodeConfig(
            id=node,
            peers=tuple(range(self.n)),
            value=value.encode(),
            retry_timeout=self.retry_timeout,
        )

    def retry_warning(self) -> str | None:
        """Why `retry_timeout` may be too short to decide, or None.

        After stabilization each delay is 1..`sim.delta` ticks, so a round
        trip takes at most `2 * sim.delta`.  A node's `on_tick` runs before
        the tick's deliveries, so a promise arriving at exactly the
        deadline comes after its attempt has restarted: the timeout must
        exceed the round trip.  Safety does not depend on it, so the
        config stays valid."""
        if self.retry_timeout > 2 * self.sim.delta:
            return None
        return (f"retry_timeout {self.retry_timeout} is not above 2 * "
                f"sim.delta {self.sim.delta}, the worst-case "
                f"post-stabilization round trip; a node ticks before it "
                f"takes the tick's deliveries, so an attempt may restart "
                f"before its slowest promises arrive")

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.proposers is not None and not self.proposers:
            raise ValueError("proposers must name at least one node")
        if not all(0 <= p < self.n for p in self.proposers or ()):
            raise ValueError(f"proposers must be node ids below n={self.n}")
        if self.proposers is not None and (
            len(set(self.proposers)) != len(self.proposers)
        ):
            raise ValueError("proposers must not repeat a node id")
        if self.values is not None and (
            len(self.values) != len(self.proposer_ids())
        ):
            raise ValueError("values must match proposers one to one")


@dataclass
class DecreeOutcome:
    config: DecreeConfig
    decided: dict[int, bytes]
    decided_tick: dict[int, int]
    crashed: set[int]
    counts: Counter
    proposed: set[bytes]
    ticks: int
    log: object

    @property
    def decided_values(self) -> set[bytes]:
        return set(self.decided.values())

    @property
    def safety_ok(self) -> bool:
        vals = self.decided_values
        return len(vals) <= 1 and vals <= self.proposed

    @property
    def survivors(self) -> set[int]:
        return set(range(self.config.n)) - self.crashed

    @property
    def all_survivors_decided(self) -> bool:
        return all(i in self.decided for i in self.survivors)

    def core_message_count(self) -> int:
        return sum(
            self.counts[k] for k in ("prepare", "promise", "accept", "accepted")
        )


def run_decree(
    config: DecreeConfig, *, events: bool = False
) -> DecreeOutcome:
    """Execute one seeded decree to completion or the tick budget.  Its
    network records events in `log` only with `events` (see
    `simnet.Network`); the outcome is the same either way."""
    participants = [Participant(Agent(i), config) for i in range(config.n)]
    net = Network(config.sim, participants, events=events)
    while net.now < config.until:
        net.step()
        if all(
            p.state.decided is not None
            for p in participants
            if p.id not in net.crashed
        ):
            break
    counts: Counter = Counter()
    for p in participants:
        counts.update(p.counts)
    done = [p for p in participants if p.state.decided is not None]
    return DecreeOutcome(
        config=config,
        decided={p.id: p.state.decided for p in done},
        decided_tick={p.id: p.state.decided_tick for p in done},
        crashed=set(net.crashed),
        counts=counts,
        proposed={
            participants[pid].config.value for pid in config.proposer_ids()
        },
        ticks=net.now,
        log=net.log,
    )


# -- seeded campaigns ---------------------------------------------------------

#: Most seeds one campaign runs, from a config's `seed_count` or from
#: `sim-consensus --seeds`; a larger count is refused before its list
#: of seeds is built.
MAX_SEEDS = 1_000_000


@dataclass(frozen=True)
class CampaignConfig(schema.Config):
    """A batch of decree runs differing only in seed and in the crash
    schedule derived from each seed."""

    base: DecreeConfig
    seeds: tuple[int, ...]
    crash_count: int = 0
    crash_window: tuple[int, int] = (5, 40)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        for seed in self.seeds:
            self.check_seed(seed)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must not repeat a seed")
        if self.crash_count < 0:
            raise ValueError("crash_count must not be negative")
        if not 0 <= self.crash_window[0] <= self.crash_window[1]:
            raise ValueError("need 0 <= crash_window[0] <= crash_window[1]")

    @classmethod
    def from_json(cls, obj) -> "CampaignConfig":
        """Also reads `seed_count` seeds up from `seed_base` for `seeds`."""
        if isinstance(obj, dict) and "seeds" not in obj:
            obj = dict(obj)
            start = schema.read(int, obj.pop("seed_base", 0), "seed_base")
            count = schema.read(int, obj.pop("seed_count", 1), "seed_count")
            obj["seeds"] = seed_range(start, count, "seed_count")
        return schema.from_json(cls, obj)


def seed_range(start: int, count: int, source: str) -> list[int]:
    """The `count` seeds from `start` up.  A count above MAX_SEEDS is a
    ConfigError naming `source`, raised before its seeds are built."""
    if count > MAX_SEEDS:
        raise schema.ConfigError(
            f"{source}: at most {MAX_SEEDS} seeds, got {count}")
    return list(range(start, start + count))


def derive_fault_schedule(
    seed: int, n: int, crash_count: int, window: tuple[int, int]
) -> tuple[tuple[int, int], ...]:
    """Deterministic per-seed crash schedule: which agents fail and when."""
    if crash_count <= 0:
        return ()
    rng = random.Random((seed * 0x9E3779B1) & 0xFFFFFFFF)
    victims = rng.sample(range(n), min(crash_count, n))
    lo, hi = window
    return tuple(
        sorted((v, rng.randint(lo, hi)) for v in sorted(victims))
    )


@dataclass
class CampaignRun:
    seed: int
    outcome: DecreeOutcome

    def row(self) -> dict:
        o = self.outcome
        ticks = sorted(o.decided_tick.values())
        return {
            "seed": self.seed,
            "n": o.config.n,
            "crashed": len(o.crashed),
            "decided": len(o.decided),
            "survivors": len(o.survivors),
            "all_survivors_decided": o.all_survivors_decided,
            "safety_ok": o.safety_ok,
            "core_messages": o.core_message_count(),
            "prepares": o.counts["prepare"],
            "promises": o.counts["promise"],
            "accepts": o.counts["accept"],
            "accepteds": o.counts["accepted"],
            "nacks": o.counts["nack"],
            "decides": o.counts["decide"],
            "first_decision_tick": ticks[0] if ticks else None,
            "last_decision_tick": ticks[-1] if ticks else None,
            "ticks": o.ticks,
        }


def run_campaign(
    cfg: CampaignConfig, *, collect_corpus: bool = False
) -> tuple[list[CampaignRun], Counter]:
    """Run every seed.  Returns the runs plus (optionally) a corpus of
    message-shape counts harvested from every transmitted message.  The
    first run keeps its event log only with `collect_corpus`, which
    reads every run's; no later run keeps one."""
    from .compression import symbol_of

    runs: list[CampaignRun] = []
    corpus: Counter = Counter()
    for seed in cfg.seeds:
        schedule = derive_fault_schedule(
            seed, cfg.base.n, cfg.crash_count, cfg.crash_window
        )
        sim = replace(cfg.base.sim, seed=seed, fault_schedule=schedule)
        outcome = run_decree(
            replace(cfg.base, sim=sim), events=collect_corpus)
        runs.append(CampaignRun(seed=seed, outcome=outcome))
        if collect_corpus:
            records = outcome.log.records
            for rec in records:
                if rec.kind == "send":
                    corpus[symbol_of(rec.message)] += 1
            if len(runs) > 1:
                records.clear()
    return runs, corpus


# -- exhaustive interleaving safety check ------------------------------------

#: Highest ballot round the exhaustive check lets a proposer open: round
#: 2 is where a nacked proposer retries and must adopt accepted values.
EXPLORE_ROUNDS = 2

#: The decree the exhaustive check explores: three nodes, of which
#: nodes 0 and 1 propose "x" and "y".
EXPLORED_DECREE = DecreeConfig(n=3, proposers=(0, 1), values=("x", "y"))


@dataclass(frozen=True)
class ExhaustiveReport:
    explored_states: int
    delivered_bound: int
    violations: tuple[str, ...]
    opened_ballots: frozenset[Ballot]  # every ballot a timer opened

    @property
    def ok(self) -> bool:
        return not self.violations


def exhaustive_interleaving_check(
    max_deliveries: int = 14,
) -> ExhaustiveReport:
    """Explore every interleaving of EXPLORED_DECREE up to a bounded
    number of steps and assert no two nodes ever decide different
    values.

    Each node's `NodeConfig` comes from `DecreeConfig.node_config`, as a
    `Participant`'s does.  A state is every node's `NodeState` plus the
    multiset of messages in flight, and it moves by the rules
    `Participant` runs.  One step either delivers any message
    in flight (`step`) or fires the timer of an idle, undecided proposer
    that has seen fewer than EXPLORE_ROUNDS rounds (`start_attempt`, the
    restart branch of `Participant.on_tick`).  Time stays at tick 0: no
    rule needs it for safety.  Every node starts fresh.

    Message loss needs no separate branching: a lost message is one
    that is simply never delivered, and every such schedule is a prefix
    of an explored one.  For the same reason a delivery that changes
    nothing and sends nothing is not explored.
    """
    decree = EXPLORED_DECREE
    configs = [decree.node_config(i) for i in range(decree.n)]
    proposers = decree.proposer_ids()
    # Node states and (sender, receiver, message) triples are interned as
    # ints; the rules are pure, so each (node, state, event) move is
    # computed once.
    ids: dict = {}
    objs: list = []
    moves: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {}
    opened: set[Ballot] = set()

    def intern(x) -> int:
        if x not in ids:
            ids[x] = len(objs)
            objs.append(x)
        return ids[x]

    def move(i: int, sid: int, mid: int) -> tuple[int, tuple[int, ...]]:
        """Node i in state sid takes message mid, or fires its timer
        (mid < 0)."""
        if (i, sid, mid) not in moves:
            if mid < 0:
                s, sent = start_attempt(configs[i], objs[sid], 0)
                opened.add(s.ballot)
            else:
                sender, _, c = objs[mid]
                s, sent = step(configs[i], objs[sid], sender, c, 0)
            moves[i, sid, mid] = intern(s), tuple(
                intern((i, to, c)) for to, c in sent if to != i
            )
        return moves[i, sid, mid]

    violations: list[str] = []
    seen: set = set()
    # Breadth-first so each state is first visited at its minimal
    # depth; exploring from there subsumes any deeper revisit, which
    # makes the seen-set pruning sound under the depth cap.
    queue = deque([((intern(NodeState()),) * decree.n, (), 0)])
    while queue:
        nodes, inflight, depth = queue.popleft()
        if (nodes, inflight) in seen:
            continue
        seen.add((nodes, inflight))
        states = [objs[sid] for sid in nodes]

        decided = {s.decided for s in states} - {None}
        if len(decided) > 1:
            violations.append(
                f"divergent decisions {sorted(decided)} after "
                f"{depth} steps"
            )
            continue
        if depth >= max_deliveries:
            continue
        events = [
            (i, -1, inflight)
            for i, s in enumerate(states)
            if i in proposers and s.decided is None and s.phase == _IDLE
            and s.max_round_seen < EXPLORE_ROUNDS
        ]
        for k, mid in enumerate(inflight):
            if k == 0 or inflight[k - 1] != mid:
                events.append(
                    (objs[mid][1], mid, inflight[:k] + inflight[k + 1:])
                )
        for i, mid, rest in events:
            sid, sent = move(i, nodes[i], mid)
            if sid == nodes[i] and not sent:
                continue
            queue.append((
                nodes[:i] + (sid,) + nodes[i + 1:],
                tuple(sorted(rest + sent)),
                depth + 1,
            ))

    return ExhaustiveReport(
        explored_states=len(seen),
        delivered_bound=max_deliveries,
        violations=tuple(sorted(violations)),
        opened_ballots=frozenset(opened),
    )
