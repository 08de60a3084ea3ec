"""Event loop: determinism, loss, duplication, delays, crashes, metrics,
deadline wake-ups."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from muacp import schema, workloads
from muacp.agent import Agent, TransitionLabel
from muacp.resources import CostModel, ResourceBudget, ResourceVector
from muacp.simnet import (
    KINDS, BasicNode, Network, SimConfig, _rank, nearest_rank,
)
from muacp.fipa import PROC_CODES, Performative
from muacp.wire import Option, OptionType, Verb, encode, opt_cid
from muacp.workloads import ScaleConfig, ScaleNode, run_scale

ROOT = Path(__file__).resolve().parent.parent


def make_net(*, events: bool = True, **overrides) -> Network:
    cfg = SimConfig(**{"seed": 7, **overrides})
    nodes = [BasicNode(Agent(i)) for i in range(overrides.pop("n", 0) or 3)]
    return Network(cfg, nodes, events=events)


def lossless(**overrides) -> Network:
    base = {"gst": 0, "delta": 5, "drop_rate": 0.0, "dup_rate": 0.0}
    return make_net(**{**base, **overrides})


# -- config -------------------------------------------------------------------


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SimConfig(seed=0, drop_rate=1.5)
    with pytest.raises(ValueError):
        SimConfig(seed=0, delay_min=5, delay_max=2)
    with pytest.raises(ValueError):
        SimConfig(seed=0, delta=0)


# -- determinism ----------------------------------------------------------------


def _scripted_run(seed: int) -> str:
    net = make_net(seed=seed, gst=20, delta=3, drop_rate=0.3, dup_rate=0.2)
    agents = {n.id: n.agent for n in net.nodes.values()}
    for t in range(40):
        if t % 3 == 0:
            src = agents[t % 3]
            dst = (t + 1) % 3
            net.nodes[src.id].emit(
                net, dst, src.make_tell(f"v({t})", qos=1), net.now
            )
        net.step()
    return net.log.to_jsonl()


def test_same_seed_same_bytes():
    assert _scripted_run(11) == _scripted_run(11)


def test_different_seed_diverges():
    # not a semantic requirement, but a sanity check that the rng is used
    assert _scripted_run(11) != _scripted_run(12)


# -- delays -----------------------------------------------------------------


def _delays(net: Network) -> dict[int, list[int]]:
    sent = {}
    out = {}
    for rec in net.log.records:
        if rec.kind == "send":
            sent[rec.uid] = rec.tick
        elif rec.kind == "deliver":
            out.setdefault(rec.uid, []).append(rec.tick - sent[rec.uid])
    return out


def test_post_gst_delay_bounded_by_delta():
    net = lossless(seed=5, delta=4)
    a = net.nodes[0].agent
    for t in range(30):
        net.nodes[0].emit(net, 1, a.make_tell(f"x({t})"), net.now)
        net.step()
    net.run_until_quiescent(200)
    delays = [d for ds in _delays(net).values() for d in ds]
    assert delays and all(1 <= d <= 4 for d in delays)


def test_pre_gst_delay_within_configured_window():
    net = make_net(seed=5, gst=10**9, delay_min=2, delay_max=7,
                   drop_rate=0.0, dup_rate=0.0)
    a = net.nodes[0].agent
    for t in range(30):
        net.nodes[0].emit(net, 1, a.make_tell(f"x({t})"), net.now)
        net.step()
    net.run_until_quiescent(200)
    delays = [d for ds in _delays(net).values() for d in ds]
    assert delays and all(2 <= d <= 7 for d in delays)
    assert min(delays) >= 1  # delivery is never same-tick


#: (delay_min, delay_max) per width: pre-gst copies draw from the range,
#: post-gst ones from 1..delta with delta set to the same width.
_WINDOWS = {1: (3, 3), 2: (1, 2), 5: (2, 6), 10: (1, 10), 16: (5, 20)}


@pytest.mark.parametrize("seed", [0, 1, 7, 4242])
@pytest.mark.parametrize("width", sorted(_WINDOWS))
def test_delay_draw_matches_randint(seed, width):
    # The network draws each delay without calling randint; every
    # seeded output depends on it taking the same bits and values.
    lo, hi = _WINDOWS[width]
    cfg = SimConfig(seed=seed, gst=20, delta=width, delay_min=lo,
                    delay_max=hi, drop_rate=0.3, dup_rate=0.4)
    net = Network(cfg, [BasicNode(Agent(i)) for i in range(2)])
    a = net.nodes[0].agent
    ref = random.Random(seed)
    for now in range(40):
        net.now = now
        net._queue.clear()
        net.transmit(a.send(a.make_tell(f"x({now})"), to=1, now=now))
        drawn = [due - now for due, q in net._queue.items() for _ in q]
        sync = now >= cfg.gst
        window = (1, cfg.delta) if sync else (lo, hi)
        expected = []
        if sync or ref.random() >= cfg.drop_rate:
            expected.append(ref.randint(*window))
        if ref.random() < cfg.dup_rate:
            expected.append(ref.randint(*window))
        assert drawn == expected, now
    assert net.rng.random() == ref.random()


# -- loss and fair loss ---------------------------------------------------------


def test_no_drops_after_gst():
    net = lossless(seed=1)
    a = net.nodes[0].agent
    for t in range(50):
        net.nodes[0].emit(net, 1, a.make_tell(f"x({t})"), net.now)
        net.step()
    net.run_until_quiescent(300)
    assert net.log.of_kind("drop") == []
    assert len(net.log.of_kind("deliver")) == 50


def test_fair_loss_forces_delivery_eventually():
    # total loss pre-GST, same message retransmitted forever: the
    # consecutive-drop cap turns the stream into a guaranteed delivery
    net = make_net(seed=3, gst=10**9, drop_rate=1.0, dup_rate=0.0,
                   max_consecutive_drops=20)
    a = net.nodes[0].agent
    msg = a.make_tell("fact")
    label = a.send(msg, to=1, now=0)
    for _ in range(21):
        net.transmit(label)
        net.step()
    net.run_until_quiescent(100)
    drops = net.log.of_kind("drop")
    delivers = net.log.of_kind("deliver")
    assert len(drops) == 20
    assert len(delivers) == 1


def test_drop_streaks_tracked_per_message():
    net = make_net(seed=3, gst=10**9, drop_rate=1.0, dup_rate=0.0,
                   max_consecutive_drops=5)
    a = net.nodes[0].agent
    m1 = a.make_tell("one")
    m2 = a.make_tell("two")
    l1 = a.send(m1, to=1, now=0)
    l2 = a.send(m2, to=1, now=0)
    for _ in range(6):
        net.transmit(l1)
        net.transmit(l2)
        net.step()
    net.run_until_quiescent(100)
    assert len(net.log.of_kind("deliver")) == 2


# -- duplication ------------------------------------------------------------


def test_duplicates_delivered_twice_and_never_dropped():
    net = make_net(seed=9, gst=0, delta=3, drop_rate=0.0, dup_rate=1.0)
    a = net.nodes[0].agent
    net.nodes[0].emit(net, 1, a.make_tell("x"), net.now)
    net.run_until_quiescent(100)
    per_uid = _delays(net)
    send_uid = min(per_uid)           # replies get their own uids
    assert len(per_uid[send_uid]) == 2
    assert len(net.log.of_kind("dup")) >= 1


# -- crashes ---------------------------------------------------------------


def test_crashed_node_stops_and_inbound_is_dropped():
    net = lossless(seed=2, fault_schedule=((1, 3),))
    a = net.nodes[0].agent
    for _ in range(10):
        net.nodes[0].emit(net, 1, a.make_tell("x", qos=0), net.now)
        net.step()
    net.run_until_quiescent(100)
    assert len(net.log.of_kind("crash")) == 1
    reasons = {r.reason for r in net.log.of_kind("drop")}
    assert reasons == {"receiver-crashed"}
    late = [r for r in net.log.of_kind("deliver") if r.receiver == 1]
    assert all(r.tick < 3 + 5 for r in late)   # nothing past crash+delta


def test_crashed_sender_rejected():
    net = lossless(seed=2, fault_schedule=((0, 0),))
    a = net.nodes[0].agent
    label = TransitionLabel(0, 1, a.make_ping())
    net.step()
    with pytest.raises(RuntimeError):
        net.transmit(label)


# -- rate cap -----------------------------------------------------------------


def test_rate_cap_refuses_excess_sends_without_charging():
    net = lossless(seed=4, rate_cap=2)
    node = net.nodes[0]
    a = node.agent
    assert node.emit(net, 1, a.make_tell("a"), net.now)
    assert node.emit(net, 1, a.make_tell("b"), net.now)
    spent_before = a.budget.spent
    assert not node.emit(net, 1, a.make_tell("c"), net.now)
    assert a.budget.spent == spent_before
    assert [r.reason for r in net.log.of_kind("drop")] == ["rate-cap"]
    net.step()
    assert node.emit(net, 1, a.make_tell("d"), net.now)  # cap is per tick


def test_infeasible_send_logged_not_raised():
    tiny = ResourceBudget.full(ResourceVector.of(10**6, 12, 10**6, 10**6))
    node = BasicNode(Agent(0, budget=tiny))
    net = Network(SimConfig(seed=0, gst=0, drop_rate=0.0), [node, BasicNode(Agent(1))])
    assert node.emit(net, 1, node.agent.make_ping(), 0)
    assert not node.emit(net, 1, node.agent.make_ping(), 0)
    assert [r.reason for r in net.log.of_kind("drop")] == ["infeasible-send"]


def test_refused_delivery_is_noted_and_not_acted_on():
    # a bandwidth budget too small to receive a call for proposals: the
    # node notes the drop and neither records nor answers the call
    tiny = ResourceBudget.full(ResourceVector.of(10**6, 12, 10**6, 10**6))
    node = ScaleNode(Agent(1, budget=tiny), workloads.ScaleConfig(),
                     workloads.WorkloadStats(), initiator=False)
    net = Network(SimConfig(seed=0, gst=0, drop_rate=0.0),
                  [BasicNode(Agent(0)), node])
    cfp = Agent(0).build(Verb.ASK, options=(
        Option(OptionType.PROC, bytes((PROC_CODES[Performative.CFP],))),
        opt_cid(7)), payload=b"task_3")
    node.on_deliver(net, TransitionLabel(0, 1, cfp), 0)
    assert node.proposed_convs == set()
    assert [r.reason for r in net.log.of_kind("drop")] == [
        "infeasible-receive"]
    assert not BasicNode.on_deliver(node, net, TransitionLabel(0, 1, cfp), 0)


# -- timers through the loop --------------------------------------------------


def test_ask_timeout_and_retransmits_recorded():
    # ask a peer that crashed immediately: no answer will ever come
    net = lossless(seed=6, fault_schedule=((1, 0),))
    node = net.nodes[0]
    node.agent.retransmit_interval = 3
    node.emit(net, 1, node.agent.make_ask("p", qos=1, deadline=9), net.now)
    net.run(40)
    reasons = [r.reason for r in net.log.of_kind("timer")]
    assert reasons.count("retransmit") == 2      # at ticks 3 and 6
    assert "ask-timeout" in reasons
    assert node.agent.timeouts == []  # the node emptied the inbox


def test_qos1_exchange_reaches_quiescence():
    net = lossless(seed=8)
    node = net.nodes[0]
    node.emit(net, 1, node.agent.make_tell("fact", qos=1), net.now)
    assert net.run_until_quiescent(200)
    # the ack cancelled retransmission; nothing further happens
    assert node.agent.retransmits == {}


# -- metrics -----------------------------------------------------------------


def test_nearest_rank():
    hist = Counter([10, 20, 30, 40])
    assert nearest_rank(hist, 50) == 20
    assert nearest_rank(hist, 75) == 30
    assert nearest_rank(hist, 99) == 40
    assert nearest_rank({5: 1}, 50) == 5
    # oracle: rank ceil(pct * n / 100) in integers; n = 2099 is the first
    # size where a truncated float product puts p99 one rank low
    assert nearest_rank(Counter(range(2099)), 99) == 2078
    for n in range(1, 100_001):
        for pct in (50, 95, 99):
            assert _rank(n, pct) == -(-pct * n // 100), (n, pct)


@given(st.lists(st.integers(0, 30), max_size=300))
def test_nearest_rank_of_a_histogram_matches_the_sorted_list(xs):
    hist = Counter(xs)
    data = sorted(xs)
    for pct in (50, 95, 99):
        got = nearest_rank(hist, pct)
        if not data:
            assert got != got  # NaN: nothing was counted
        else:
            assert got == data[-(-pct * len(data) // 100) - 1], pct


def test_metrics_summary_shape():
    net = lossless(seed=1)
    node = net.nodes[0]
    node.emit(net, 1, node.agent.make_tell("x", qos=1), net.now)
    net.run_until_quiescent(100)
    m = net.metrics(tick_ms=2.0).summary()
    assert m["sends"] >= 2                       # tell + ack
    assert m["delivers"] == m["sends"]
    assert m["latency_ms"]["median"] == m["latency_ticks"]["median"] * 2.0
    assert m["tick_ms"] == 2.0


def test_gauges_csv_has_unit_headers():
    net = lossless(seed=1)
    net.run(3)
    lines = net.metrics().gauges_csv().splitlines()
    assert lines[0] == (
        "tick,in_flight_msgs,max_backlog_msgs,sent_msgs,"
        "delivered_msgs,dropped_msgs"
    )
    assert len(lines) == 4


def _lossy_run(events: bool) -> Network:
    """Sends from outside the loop under loss, duplication and a crash."""
    net = make_net(seed=4, gst=30, drop_rate=0.3, dup_rate=0.3,
                   fault_schedule=((2, 20),), events=events)
    node = net.nodes[0]
    for t in range(40):
        node.emit(net, 1 + t % 2, node.agent.make_tell(f"x({t})", qos=1),
                  net.now)
        net.step()
    return net


class _Sender(BasicNode):
    """Every fourth tick, from its own on_tick: a tell to one of nodes
    1-3, an ask of node 3 and a ping of node 1, so the three sends of a
    tick meet a rate cap of two."""

    def next_wake(self, now: int) -> int:
        return now + 1

    def on_tick(self, net: Network, now: int) -> None:
        super().on_tick(net, now)
        if now % 4 == 0:
            a = self.agent
            self.emit(net, 1 + now // 4 % 3,
                      a.make_tell(f"x({now})", qos=1), now)
            self.emit(net, 3, a.make_ask("p", qos=1, deadline=now + 9), now)
            self.emit(net, 1, a.make_ping(), now)


def _budgeted_run(events: bool) -> Network:
    """Sends from inside the loop under a rate cap, a sender budget that
    runs out, a receiver too poor to receive, loss, duplication and a
    crash: every event kind, drop reason and timer reason."""
    sender = ResourceBudget.full(ResourceVector.of(10**6, 1200, 10**6, 10**6))
    tiny = ResourceBudget.full(ResourceVector.of(10**6, 12, 10**6, 10**6))
    nodes = [_Sender(Agent(0, budget=sender, retransmit_interval=3)),
             BasicNode(Agent(1)), BasicNode(Agent(2)),
             BasicNode(Agent(3, budget=tiny))]
    cfg = SimConfig(seed=5, gst=30, drop_rate=0.3, dup_rate=0.3, rate_cap=2,
                    fault_schedule=((2, 20),))
    net = Network(cfg, nodes, events=events)
    net.run(60)
    return net


def _run_digest(net: Network) -> str:
    m = net.metrics()
    out = (net.log.to_jsonl() + m.gauges_csv()
           + json.dumps(m.summary(), sort_keys=True))
    return hashlib.sha256(out.encode()).hexdigest()


#: SHA-256 of each run's event log JSONL, gauges CSV and summary JSON.
LOSSY_RUN_SHA256 = (
    "930828690c34960e9ac8c01b49ff48ef0f885b1d4f3fa30fe50ff30657f0199c"
)
BUDGETED_RUN_SHA256 = (
    "11ef7c9d14e41761c904258fdde9abbdb5ac6462553ca1ef56966b1f431582e0"
)
_WIRE_DROPS = {"loss", "receiver-crashed"}
_REFUSALS = {"rate-cap", "infeasible-send", "infeasible-receive"}


def test_network_counts_kinds_as_records_are_appended():
    for run, reasons, digest in (
        (_lossy_run, _WIRE_DROPS | {"retransmit"}, LOSSY_RUN_SHA256),
        (_budgeted_run,
         _WIRE_DROPS | _REFUSALS | {"retransmit", "ask-timeout"},
         BUDGETED_RUN_SHA256),
    ):
        net = run(events=True)
        kinds = Counter(r.kind for r in net.log.records)
        assert net.counts == dict(kinds)
        assert set(kinds) == set(KINDS)
        assert {r.reason for r in net.log.records} - {None} == reasons
        m = net.metrics()
        assert (m.sends, m.delivers, m.drops, m.dups, m.crashes) == tuple(
            kinds[k] for k in ("send", "deliver", "drop", "dup", "crash"))
        assert _run_digest(net) == digest, run.__name__
        # Without records the counts, gauges and summary are the same.
        bare = run(events=False)
        assert len(bare.log) == 0
        assert bare.counts == net.counts
        assert bare.metrics().gauges == m.gauges
        assert bare.metrics().summary() == m.summary()


def test_gauges_count_every_event_of_the_loop_and_only_wire_drops():
    net = _budgeted_run(events=True)
    m = net.metrics()
    drops = Counter(r.reason for r in net.log.records if r.kind == "drop")
    # Every send here is made in the loop, so every one is in a gauge.
    assert sum(g.sent for g in m.gauges) == m.sends
    assert sum(g.delivered for g in m.gauges) == m.delivers
    assert sum(g.dropped for g in m.gauges) == sum(
        drops[r] for r in _WIRE_DROPS)
    assert sum(g.dropped for g in m.gauges) < m.drops
    assert m.max_in_flight == max(g.in_flight for g in m.gauges)
    assert m.max_queue_depth == max(g.max_backlog for g in m.gauges)


def test_send_record_holds_the_message_and_serializes_its_bytes():
    net = lossless(seed=1)
    node = net.nodes[0]
    msg = node.agent.make_ask("q", qos=1)
    node.emit(net, 1, msg, net.now)
    (rec,) = net.log.of_kind("send")
    data = encode(msg)
    assert rec.message is msg
    assert rec.size == len(data)
    assert rec.wire == data.hex()
    assert rec.to_json()["wire"] == data.hex()
    assert net.log.sent_messages() == [data]


# -- deadline wake-ups ------------------------------------------------------


class _Polled:
    """Test-only mixin: a node that asks to be woken every tick, as every
    node was before wake-ups were driven by deadlines."""

    def next_wake(self, now: int) -> int:
        return now + 1


class PolledScaleNode(_Polled, ScaleNode):
    pass


def _scale_outputs(cfg) -> tuple[str, str, str]:
    report, net = run_scale(cfg, events=True)
    return (
        net.log.to_jsonl(),
        net.metrics(cfg.tick_ms).gauges_csv(),
        json.dumps(report.to_json(), sort_keys=True),
    )


#: SHA-256 of `_scale_outputs` on scale_n100 (event log, gauges and
#: report, concatenated), as written before the per-message records
#: became tuples.  The woken-versus-polled tests below compare two
#: variants of the same code; this pin also catches a drift both share.
SCALE_N100_SHA256 = (
    "87214bb6b2f01286b387c264b8a3f5b8d59c8943bd82cfb207244d3fae31a899"
)


def test_scale_n100_outputs_are_pinned():
    cfg = schema.load(str(ROOT / "configs" / "scale_n100.json"), ScaleConfig)
    outputs = "".join(_scale_outputs(cfg)).encode()
    assert hashlib.sha256(outputs).hexdigest() == SCALE_N100_SHA256


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_woken_nodes_match_nodes_polled_every_tick(monkeypatch, seed):
    cfg = schema.load(str(ROOT / "configs" / "scale_n100.json"), ScaleConfig)
    cfg = replace(cfg, seed=seed, sim=replace(cfg.sim, seed=seed))
    woken = _scale_outputs(cfg)
    monkeypatch.setattr(workloads, "ScaleNode", PolledScaleNode)
    assert _scale_outputs(cfg) == woken


def _small_scale(**edit) -> ScaleConfig:
    return ScaleConfig(
        **{"n": 20, "until": 200, "drain": 60, "cnet_initiators": 4, **edit})


_SMALL_SCALE_EDITS = pytest.mark.parametrize("edit", [
    dict(),
    dict(committee=0),        # a round with no members ends next tick
    dict(rr_deadline=0),      # asks time out on the tick they are sent
    dict(rr_period=1, round_pause=0, proposal_wait=0, until=100, drain=40),
], ids=["plain", "committee-0", "rr_deadline-0", "every-tick"])


@_SMALL_SCALE_EDITS
def test_woken_nodes_match_polled_on_edge_configs(monkeypatch, edit):
    cfg = _small_scale(**edit)
    woken = _scale_outputs(cfg)
    monkeypatch.setattr(workloads, "ScaleNode", PolledScaleNode)
    assert _scale_outputs(cfg) == woken


@_SMALL_SCALE_EDITS
def test_scale_agents_hold_no_facts_between_steps(monkeypatch, edit):
    step, kb_insert = Network.step, Agent.kb_insert
    steps = inserts = 0

    def checked_step(net):
        nonlocal steps
        step(net)
        steps += 1
        assert not any(node.agent.kb for node in net.nodes.values())

    def counted_insert(agent, lit):
        nonlocal inserts
        inserts += 1
        kb_insert(agent, lit)

    monkeypatch.setattr(Network, "step", checked_step)
    monkeypatch.setattr(Agent, "kb_insert", counted_insert)
    cfg = _small_scale(**edit)
    run_scale(cfg)
    assert steps == cfg.until
    assert inserts > 0  # facts were asserted, and each was forgotten


def test_scale_kb_facts_do_not_grow_with_run_length():
    facts, requests = [], []
    for until in (200, 600):
        report, net = run_scale(_small_scale(until=until))
        facts.append(sum(len(node.agent.kb) for node in net.nodes.values()))
        requests.append(report.workload["completed"]["request"])
    assert requests[0] < requests[1]
    assert facts[0] == facts[1]


def test_most_woken_nodes_transmit(monkeypatch):
    sends = ticks = useful = 0
    transmit, on_tick = Network.transmit, ScaleNode.on_tick

    def counting_transmit(self, label):
        nonlocal sends
        sends += 1
        return transmit(self, label)

    def counting_on_tick(self, net, now):
        nonlocal ticks, useful
        before = sends
        on_tick(self, net, now)
        ticks += 1
        useful += sends > before

    monkeypatch.setattr(Network, "transmit", counting_transmit)
    monkeypatch.setattr(ScaleNode, "on_tick", counting_on_tick)
    cfg = schema.load(str(ROOT / "configs" / "scale_n100.json"), ScaleConfig)
    run_scale(cfg)
    assert 0 < ticks < cfg.n * cfg.until
    assert useful / ticks >= 0.5


def test_a_scale_run_keeps_no_resolved_ask():
    cfg = schema.load(str(ROOT / "configs" / "scale_n100.json"), ScaleConfig)
    report, net = run_scale(cfg)
    assert report.workload["clean"]
    for node in net.nodes.values():
        assert node.agent.answers == []
        assert node.agent.pending_asks == {}


def test_an_answer_completes_its_ask_in_the_tick_it_is_delivered():
    cfg = workloads.ScaleConfig(n=20, until=300, drain=60, cnet_initiators=4)
    net, stats = workloads.build_scale(cfg)
    while net.now < cfg.until:
        net.step()
        # An ask the agent no longer waits on is no longer outstanding.
        outstanding = sum(
            len(node.agent.pending_asks) for node in net.nodes.values())
        assert (stats.completed["request"] + stats.failed["request"]
                + outstanding == stats.started["request"])
    assert stats.completed["request"] > 0


def test_an_ask_to_a_crashed_peer_fails_and_leaves_no_timeout_behind():
    # Node 5 crashes at tick 10, so every ask sent to it from then on
    # expires after its deadline of 50 ticks.
    sim = replace(ScaleConfig().sim, fault_schedule=((5, 10),))
    cfg = ScaleConfig(n=20, until=300, drain=60, cnet_initiators=4,
                      rr_deadline=50, sim=sim)
    net, stats = workloads.build_scale(cfg)
    while net.now < cfg.until:
        net.step()
        outstanding = sum(
            len(node.agent.pending_asks) for node in net.nodes.values())
        assert (stats.completed["request"] + stats.failed["request"]
                + outstanding == stats.started["request"])
        for aid, node in net.nodes.items():
            if aid not in net.crashed:
                assert node.agent.timeouts == []
    assert stats.failed["request"] > 0
    assert net.counts["crash"] == 1


#: SHA-256 of the event log of the run below, as written when every node
#: was still polled every tick.
OUT_OF_LOOP_LOG_SHA256 = (
    "31d9267fcd5d597afeeaaec3a9d0b7f536f4593a05c6e6add5434a7cd94eee42"
)


def test_send_from_outside_the_loop_wakes_its_sender():
    # The QoS-1 tell is sent between two runs, not from a node hook; its
    # retransmissions are due only if transmit asks the sender again.
    net = Network(SimConfig(seed=3, gst=10**9, drop_rate=0.5),
                  [BasicNode(Agent(0)), BasicNode(Agent(1))])
    net.run(5)
    node = net.nodes[0]
    node.emit(net, 1, node.agent.make_tell("fact", qos=1), net.now)
    net.run(200)
    reasons = [r.reason for r in net.log.of_kind("timer")]
    assert reasons.count("retransmit") == 3
    log = net.log.to_jsonl()
    assert hashlib.sha256(log.encode()).hexdigest() == OUT_OF_LOOP_LOG_SHA256


def test_wake_in_the_past_is_rejected():
    class Stale(BasicNode):
        def next_wake(self, now):
            return now

    with pytest.raises(ValueError, match="wake at tick"):
        Network(SimConfig(seed=0), [Stale(Agent(0))])
