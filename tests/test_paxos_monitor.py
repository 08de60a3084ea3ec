"""Paxos invariants checked after every step of live decree runs.

The release gate judges a seeded decree by its final `decided` map, and
the exhaustive checker never duplicates a message, keeps time at tick 0
and fires a proposer's timer only while it is idle.  The monitor here
reads every `Participant.state` after each `Network.step` of
`run_decree` and asserts the invariants of "Paxos Made Simple"
(Lamport, 2001) on runs with duplicates, crashes, false suspicions and
short retry timeouts.
"""

from muacp.consensus import (
    Ballot,
    DecreeConfig,
    NodeState,
    derive_fault_schedule,
    run_decree,
)
from muacp.simnet import Network, SimConfig

_STEP = Network.step


class PaxosMonitor:
    """Step-wise invariants over a decree's node states.

    What a node did inside one step is seen only through its state after
    that step, so an acceptance superseded within the same tick is not
    counted; nothing seen is ever forgotten."""

    def __init__(self) -> None:
        self.prev: dict[int, NodeState] = {}
        self.value_at: dict[Ballot, bytes] = {}       # one value per ballot
        self.acceptors: dict[Ballot, set[int]] = {}   # who ever accepted it
        self.chosen: set[tuple[Ballot, bytes]] = set()  # a quorum accepted
        self.proposals: set[tuple[Ballot, bytes]] = set()
        self.give_ups = 0

    def check(self, net: Network) -> None:
        now = net.now
        for p in net.nodes.values():
            s = p.state
            old = self.prev.get(p.id, NodeState())
            self.prev[p.id] = s
            where = (now, p.id)
            if old.promised is not None:
                assert s.promised is not None and s.promised >= old.promised, (
                    "promised ballot decreased", where, old.promised,
                    s.promised)
            if old.decided is not None:
                assert s.decided == old.decided, (
                    "decision changed", where, old.decided, s.decided)
            if s.accepted is not None:
                b, v = s.accepted
                assert b <= s.promised, (
                    "accepted above promised", where, b, s.promised)
                assert self.value_at.setdefault(b, v) == v, (
                    "two values accepted under one ballot", where, b,
                    self.value_at[b], v)
                self.proposals.add((b, v))
                self.acceptors.setdefault(b, set()).add(p.id)
                if len(self.acceptors[b]) >= p.config.quorum:
                    self.chosen.add((b, v))
            if s.phase == "accepting":
                self.proposals.add((s.ballot, s.proposal))
            # Only the non-leader branch of `Participant.on_tick` ends an
            # attempt with neither a decision nor a nack's new cooldown.
            if (old.phase != "idle" and s.phase == "idle"
                    and s.decided is None
                    and s.cooldown_until == old.cooldown_until):
                self.give_ups += 1
        # P2c: a proposal above a chosen ballot carries the chosen value.
        for b, v in self.chosen:
            for pb, pv in self.proposals:
                assert pb <= b or pv == v, (
                    "proposal above a chosen ballot changed value", now,
                    (b, v), (pb, pv))


def run_monitored(cfg: DecreeConfig, monkeypatch):
    monitor = PaxosMonitor()

    def monitored_step(net: Network) -> None:
        _STEP(net)
        monitor.check(net)

    monkeypatch.setattr(Network, "step", monitored_step)
    return run_decree(cfg), monitor


def grid():
    """Lossy, duplicating, crashing decrees whose detectors time out
    before pre-GST pongs can arrive, so leaders change mid-attempt."""
    for n in (3, 5):
        for retry_timeout in (3, 8):
            for seed in range(12):
                sim = SimConfig(
                    seed=seed, gst=80, delta=5, delay_min=1, delay_max=14,
                    drop_rate=0.05, dup_rate=0.1,
                    fault_schedule=derive_fault_schedule(
                        seed, n, (n - 1) // 2, (5, 60)),
                )
                yield DecreeConfig(
                    n=n, sim=sim, until=400, retry_timeout=retry_timeout,
                    ping_interval=2, fd_timeout=4, fd_timeout_cap=32,
                )


def test_paxos_invariants_hold_at_every_step(monkeypatch):
    runs = chosen = give_ups = 0
    for cfg in grid():
        out, monitor = run_monitored(cfg, monkeypatch)
        assert out.safety_ok, cfg
        runs += 1
        chosen += bool(monitor.chosen)
        give_ups += monitor.give_ups
    # Not vacuous: most runs choose a value (a retry timeout of 3 is
    # shorter than a round trip, so those runs rarely decide), and
    # leaders lose attempts to the non-leader give-up.
    assert runs == 48
    assert chosen >= 24
    assert give_ups > 0
