"""Seeded discrete-event network simulation with partial synchrony.

Time is an integer tick counter.  Before a global stabilization time
(gst) the network may drop and duplicate, and delays are drawn from a
configured range; from gst onward every transmission between live
agents is delivered within delta ticks and never dropped (duplication
may persist).  Loss is fair: a bounded number of consecutive drops of
the same (channel, message_id) forces the next copy through, so a
retransmitting sender always gets through eventually.

Each tick proceeds in a fixed order: scheduled crashes, then on_tick of
every live node due this tick in ascending id order, then every delivery
due this tick in insertion order.  All randomness flows from one seeded
generator, so a run is a pure function of (config, node behavior) and
the event log is byte-identical across reruns.

Nodes are woken by deadline, not polled (Varghese and Lauck's timing
wheels, with one slot per tick).  `next_wake(now)` names the earliest
tick above `now` at which a node's on_tick could do anything, or None
for never; the network asks again after each of the node's on_tick and
on_deliver calls and after each transmission it sends, so sends made
from outside the loop are covered too.  A node must therefore report
every tick at which on_tick has work: on any other tick on_tick must be
a no-op, and a node that is not sure returns `now + 1` and is polled.

Every event passes through `Network.note`: the network's own sends,
loss and crashed-receiver drops, duplicates and deliveries, and the
crashes, timers and refusals that nodes report.  It is the one place
that counts an event by kind (`Network.counts`, read by `metrics()`)
and the one place that builds its `EventRecord`, which it does only when
the network was made with `events=True`, the default; with
`events=False` `net.log` stays empty.  A send record holds its
`Message`, so a run that keeps records keeps every message it sent; the
scale workload therefore keeps none unless its event log is asked for.
Counts, gauges, latencies and the seeded outputs built from them are the
same either way.  Latencies are kept as an exact histogram (delivery
delay in ticks -> count), so their memory grows with the number of
distinct delays, not with the deliveries.

Each `step` appends one `TickGauge`.  Its `sent` and `delivered` are the
tick's growth in `counts`, and its `dropped` counts only the copies the
network drops in the tick (loss and crashed receivers); the report's
`drops` also counts the rate-cap and budget refusals of nodes, so the
gauges' dropped column can sum to less.  A send made between two `step`
calls (from outside the loop), and its loss, is counted in the report
but in no tick's gauge.

A transmission travels as its `TransitionLabel`, an immutable
`(sender, receiver, message)` tuple; the queue holds a plain
`(uid, label, send_tick)` tuple per copy in flight.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from .agent import Agent, Infeasible, TransitionLabel
from .schema import Config
from .wire import Message, Verb, encode

#: Every event kind, each counted by `Network.counts`.
KINDS = ("send", "deliver", "drop", "dup", "crash", "timer")
#: Each verb's name, indexed by the verb: cheaper than `Verb.name`.
_VERB_NAMES = tuple(v.name for v in Verb)


@dataclass(frozen=True)
class SimConfig(Config):
    seed: int = 0
    gst: int = 0                 # tick from which synchrony holds
    delta: int = 5               # post-gst delivery bound (ticks)
    delay_min: int = 1           # pre-gst delay range
    delay_max: int = 10
    drop_rate: float = 0.0       # pre-gst loss probability
    dup_rate: float = 0.0        # duplication probability (both regimes)
    rate_cap: int | None = None  # max sends per agent per tick
    max_consecutive_drops: int = 20
    fault_schedule: tuple[tuple[int, int], ...] = ()  # (agent_id, tick)

    def __post_init__(self) -> None:
        self.check_seed(self.seed)
        if self.delay_min < 1 or self.delay_max < self.delay_min:
            raise ValueError("need 1 <= delay_min <= delay_max")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        # 1.0 is allowed: the consecutive-drop cap still forces
        # deliveries through, so even total loss stays fair-loss.
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if not 0.0 <= self.dup_rate <= 1.0:
            raise ValueError("dup_rate must be in [0, 1]")
        if self.max_consecutive_drops < 1:
            raise ValueError("max_consecutive_drops must be at least 1")


class EventRecord(NamedTuple):
    tick: int
    kind: str  # send | deliver | drop | dup | crash | timer
    sender: int | None = None
    receiver: int | None = None
    uid: int | None = None
    size: int | None = None
    verb: str | None = None
    reason: str | None = None
    message: Message | None = None  # the message sent (send records)

    @property
    def wire(self) -> str | None:
        """Hex of the encoded message (send records), made on demand."""
        return None if self.message is None else encode(self.message).hex()

    def to_json(self) -> dict:
        return {
            k: v
            for k, v in zip(_JSON_KEYS, (*self[:8], self.wire))
            if v is not None
        }


_JSON_KEYS = EventRecord._fields[:8] + ("wire",)


class SimEventLog:
    """Append-only record of everything observable in a run."""

    def __init__(self) -> None:
        self.records: list[EventRecord] = []
        self.append = self.records.append

    def __len__(self) -> int:
        return len(self.records)

    def of_kind(self, kind: str) -> list[EventRecord]:
        return [r for r in self.records if r.kind == kind]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
            + "\n"
            for r in self.records
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_jsonl())

    def sent_messages(self) -> list[bytes]:
        """Wire bytes of every send, in order (one entry per fresh
        transmission, including retransmissions)."""
        return [
            encode(r.message)
            for r in self.records
            if r.kind == "send" and r.message is not None
        ]


class TickGauge(NamedTuple):
    tick: int
    in_flight: int       # copies scheduled but not yet delivered/dropped
    max_backlog: int     # largest per-receiver pending count this tick
    sent: int
    delivered: int
    dropped: int


def _rank(n: int, percent: int) -> int:
    """The 1-based nearest rank ceil(percent * n / 100), clamped to 1..n
    and computed in integers, so float rounding never moves it."""
    return max(1, min(n, -(-percent * n // 100)))


def nearest_rank(hist: dict[int, int], percent: int) -> float:
    """Nearest-rank percentile of the values a histogram (value -> count)
    counts: the value at `_rank(n, percent)` in ascending order, where n
    is the total count (Hyndman and Fan 1996, definition 1).  NaN when
    the histogram counts nothing."""
    n = sum(hist.values())
    if not n:
        return float("nan")
    rank = _rank(n, percent)
    for value in sorted(hist):
        rank -= hist[value]
        if rank <= 0:
            break
    return float(value)


@dataclass
class MetricsReport:
    ticks: int
    sends: int
    delivers: int
    drops: int
    dups: int
    crashes: int
    max_in_flight: int
    max_queue_depth: int   # max per-receiver pending over the whole run
    latencies: dict[int, int]  # delivery delay in ticks -> deliveries
    gauges: list[TickGauge]
    tick_ms: float = 1.0

    def latency_summary(self) -> dict:
        hist = self.latencies
        if not hist:
            return {
                "count": 0,
                "median": None,
                "p95": None,
                "p99": None,
                "max": None,
            }
        return {
            "count": sum(hist.values()),
            "median": nearest_rank(hist, 50),
            "p95": nearest_rank(hist, 95),
            "p99": nearest_rank(hist, 99),
            "max": float(max(hist)),
        }

    def summary(self) -> dict:
        lat = self.latency_summary()
        lat_ms = {
            k: (v * self.tick_ms if isinstance(v, float) else v)
            for k, v in lat.items()
            if k != "count"
        }
        return {
            "ticks": self.ticks,
            "sends": self.sends,
            "delivers": self.delivers,
            "drops": self.drops,
            "dups": self.dups,
            "crashes": self.crashes,
            "max_in_flight": self.max_in_flight,
            "max_queue_depth": self.max_queue_depth,
            "latency_ticks": lat,
            "latency_ms": lat_ms,
            "tick_ms": self.tick_ms,
        }

    def gauges_csv(self) -> str:
        lines = [
            "tick,in_flight_msgs,max_backlog_msgs,"
            "sent_msgs,delivered_msgs,dropped_msgs"
        ]
        for g in self.gauges:
            lines.append(
                f"{g.tick},{g.in_flight},{g.max_backlog},"
                f"{g.sent},{g.delivered},{g.dropped}"
            )
        return "\n".join(lines) + "\n"


class Network:
    """The event loop: routes labels between nodes under the configured
    failure model, counts every event by kind and, with `events`, records
    each one in `log`."""

    def __init__(
        self,
        config: SimConfig,
        nodes: list["BasicNode"],
        *,
        events: bool = True,
    ):
        self.config = config
        self.rng = random.Random(config.seed)
        self.nodes: dict[int, BasicNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id}")
            self.nodes[node.id] = node
        self.events = events
        self.log = SimEventLog()
        self.counts: dict[str, int] = dict.fromkeys(KINDS, 0)
        self.now = 0
        self.crashed: set[int] = set()
        # due tick -> (uid, label, send tick) of each copy, in send order
        self._queue: dict[int, list[tuple[int, TransitionLabel, int]]] = {}
        self._faults: dict[int, list[int]] = {}
        for aid, tick in config.fault_schedule:
            self._faults.setdefault(tick, []).append(aid)
        self._uid = 0
        self._sends_this_tick: dict[int, int] = {}
        self._drop_streak: dict[tuple[int, int, int], int] = {}
        self._pending_total = 0
        self._pending_per_receiver: dict[int, int] = {}
        # Copies the network dropped this tick.  `counts["drop"]` cannot
        # stand in for it: it also counts the rate-cap and budget
        # refusals nodes note, which never reach the wire.
        self._tick_dropped = 0
        self._latencies: dict[int, int] = {}  # delay -> deliveries
        self._gauges: list[TickGauge] = []
        # Wake-ups: tick -> ids of the nodes due then, and each scheduled
        # node's tick, so a node can be moved when it is asked again.
        self._wakes: dict[int, set[int]] = {}
        self._wake_at: dict[int, int] = {}
        self._ticked = -1     # latest tick whose node phase has begun
        self._running = None  # id of the node whose hook is running
        for aid in self.nodes:
            self._requery(aid)

    # -- sending ---------------------------------------------------------

    def may_send(self, sender: int) -> bool:
        cap = self.config.rate_cap
        if cap is None:
            return True
        return self._sends_this_tick.get(sender, 0) < cap

    def note(
        self,
        kind: str,
        sender: int | None = None,
        receiver: int | None = None,
        *,
        uid: int | None = None,
        size: int | None = None,
        verb: Verb | None = None,
        reason: str | None = None,
        message: Message | None = None,
    ) -> None:
        """Count one event by kind and, with `events`, record it at the
        current tick: every event of a run, the network's own included,
        is counted and recorded here and nowhere else."""
        self.counts[kind] += 1
        if self.events:
            self.log.append(EventRecord(
                self.now, kind, sender, receiver, uid, size,
                None if verb is None else _VERB_NAMES[verb], reason, message,
            ))

    def transmit(self, label: TransitionLabel) -> None:
        """Schedule one transmission (plus a possible duplicate) at the
        current tick and note the send."""
        sender, receiver, msg = label
        if sender in self.crashed:
            raise RuntimeError(f"crashed agent {sender} cannot send")
        cfg = self.config
        self._sends_this_tick[sender] = self._sends_this_tick.get(sender, 0) + 1
        uid = self._uid
        self._uid += 1
        self.note(
            "send", sender, receiver, uid=uid, size=msg.wire_size,
            verb=msg.header.verb, message=msg,
        )

        synchronous = self.now >= cfg.gst
        streak_key = (sender, receiver, msg.header.message_id)
        if synchronous:
            dropped = False
        else:
            dropped = self.rng.random() < cfg.drop_rate
            if dropped and (
                self._drop_streak.get(streak_key, 0)
                >= cfg.max_consecutive_drops
            ):
                dropped = False  # fair loss: force this copy through
        if dropped:
            self._drop_streak[streak_key] = (
                self._drop_streak.get(streak_key, 0) + 1
            )
            self.note("drop", sender, receiver, uid=uid, reason="loss")
            self._tick_dropped += 1
        else:
            self._drop_streak.pop(streak_key, None)
            self._schedule(uid, label, synchronous)

        if self.rng.random() < cfg.dup_rate:
            # At most one duplicate per transmission; duplicates are
            # never dropped (they model late copies already in flight).
            self.note("dup", sender, receiver, uid=uid)
            self._schedule(uid, label, synchronous)
        # A node sending from its own hook is asked again after it.
        if sender != self._running and sender in self.nodes:
            self._requery(sender)

    def _schedule(
        self, uid: int, label: TransitionLabel, synchronous: bool
    ) -> None:
        cfg, now = self.config, self.now
        if synchronous:
            delay = self.rng.randint(1, cfg.delta)
        else:
            delay = self.rng.randint(cfg.delay_min, cfg.delay_max)
        self._queue.setdefault(now + delay, []).append((uid, label, now))
        self._pending_total += 1
        r = label.receiver
        self._pending_per_receiver[r] = self._pending_per_receiver.get(r, 0) + 1

    # -- the loop ----------------------------------------------------------

    def _requery(self, aid: int) -> None:
        """Ask node `aid` for its next wake-up and move it there."""
        at = self.nodes[aid].next_wake(self._ticked)
        old = self._wake_at.get(aid)
        if at == old:
            return
        bucket = self._wakes.get(old)
        if bucket is not None:
            bucket.discard(aid)
        if at is None:
            del self._wake_at[aid]
            return
        if at <= self._ticked:
            raise ValueError(
                f"node {aid} asked to wake at tick {at}, "
                f"not after tick {self._ticked}"
            )
        self._wake_at[aid] = at
        self._wakes.setdefault(at, set()).add(aid)

    def step(self) -> None:
        """Advance one tick."""
        now = self.now
        self._ticked = now
        self._sends_this_tick = {}
        counts = self.counts
        sent, delivered = counts["send"], counts["deliver"]
        self._tick_dropped = 0

        for aid in sorted(self._faults.get(now, ())):
            if aid not in self.crashed:
                self.crashed.add(aid)
                self.note("crash", aid)

        for aid in sorted(self._wakes.pop(now, ())):
            if aid not in self.crashed:
                self._running = aid
                self.nodes[aid].on_tick(self, now)
                self._running = None
                self._requery(aid)

        note, crashed = self.note, self.crashed
        pending, latencies = self._pending_per_receiver, self._latencies
        for uid, label, send_tick in self._queue.pop(now, ()):
            sender, receiver, msg = label
            self._pending_total -= 1
            pending[receiver] -= 1
            if receiver in crashed:
                note("drop", sender, receiver, uid=uid,
                     reason="receiver-crashed")
                self._tick_dropped += 1
                continue
            note("deliver", sender, receiver, uid=uid, size=msg.wire_size,
                 verb=msg.header.verb)
            delay = now - send_tick
            latencies[delay] = latencies.get(delay, 0) + 1
            self._running = receiver
            self.nodes[receiver].on_deliver(self, label, now)
            self._running = None
            self._requery(receiver)

        self._gauges.append(TickGauge(
            now, self._pending_total, max(pending.values(), default=0),
            counts["send"] - sent, counts["deliver"] - delivered,
            self._tick_dropped,
        ))
        self.now = now + 1

    def run(self, until: int) -> SimEventLog:
        while self.now < until:
            self.step()
        return self.log

    def run_until_quiescent(self, max_ticks: int, settle: int = 2) -> bool:
        """Run until no deliveries are in flight for `settle` consecutive
        ticks (or the tick budget runs out).  Returns True if quiescent."""
        idle = 0
        while self.now < max_ticks:
            self.step()
            idle = idle + 1 if self._pending_total == 0 else 0
            if idle >= settle:
                return True
        return self._pending_total == 0

    def metrics(self, tick_ms: float = 1.0) -> MetricsReport:
        counts, gauges = self.counts, self._gauges
        return MetricsReport(
            ticks=self.now,
            sends=counts["send"],
            delivers=counts["deliver"],
            drops=counts["drop"],
            dups=counts["dup"],
            crashes=counts["crash"],
            max_in_flight=max((g.in_flight for g in gauges), default=0),
            max_queue_depth=max((g.max_backlog for g in gauges), default=0),
            latencies=self._latencies,
            gauges=gauges,
            tick_ms=tick_ms,
        )


class BasicNode:
    """Wraps an Agent into the network: delivers inbound messages to it,
    ships its replies, runs its timers, and logs refusals."""

    def __init__(self, agent: Agent):
        self.agent = agent
        self.id = agent.id

    def next_wake(self, now: int) -> int | None:
        """The earliest tick above `now` at which on_tick could do
        anything, or None: here, when the agent's next timer is due."""
        at = self.agent.next_timer()
        return None if at is None else max(at, now + 1)

    def on_tick(self, net: Network, now: int) -> int:
        """Run the agent's timers: note each ask that expired and empty
        the agent's timeouts inbox, then note and resend each due
        retransmission.  Returns how many asks expired."""
        resends = self.agent.fire_timers(now)
        timeouts = self.agent.timeouts
        expired = len(timeouts)
        if expired:
            for _cid, peer, _query in timeouts:
                net.note(
                    kind="timer", sender=self.id, receiver=peer,
                    reason="ask-timeout",
                )
            timeouts.clear()
        for to, msg in resends:
            net.note(
                kind="timer", sender=self.id, receiver=to,
                reason="retransmit",
            )
            self.emit(net, to, msg, now, fresh=False)
        return expired

    def on_deliver(self, net: Network, label: TransitionLabel, now: int) -> bool:
        """Let the agent receive the message and emit its replies.
        Returns whether the agent accepted it: a receive its budget
        cannot pay for is dropped and noted."""
        sender, _, msg = label
        try:
            replies = self.agent.receive(msg, sender, now)
        except Infeasible:
            net.note(
                kind="drop", sender=sender, receiver=self.id,
                reason="infeasible-receive",
            )
            return False
        for to, msg in replies:
            self.emit(net, to, msg, now)
        return True

    def emit(
        self,
        net: Network,
        to: int,
        msg: Message,
        now: int,
        *,
        fresh: bool = True,
    ) -> bool:
        """Send one message through the network, honoring the rate cap
        and the agent's budget.  Returns True if it was transmitted."""
        if not net.may_send(self.id):
            net.note(
                kind="drop", sender=self.id, receiver=to,
                verb=msg.verb, reason="rate-cap",
            )
            return False
        try:
            label = self.agent.send(msg, to, now, fresh=fresh)
        except Infeasible:
            net.note(
                kind="drop", sender=self.id, receiver=to,
                verb=msg.verb, reason="infeasible-send",
            )
            return False
        net.transmit(label)
        return True
