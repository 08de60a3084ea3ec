"""Release gate.

Thirteen checks, one test each, run in order.  Every test ends by
printing a single verdict line through _verdict(); an assertion failure
upstream of that call is the FAIL case and pytest reports it as such.
Numeric tolerances and runtime budgets are pinned as constants below so
a regression has to change a named number, not a buried literal.
"""

import glob
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from muacp import compression as cz
from muacp import schema, wire
from muacp.agent import Agent
from muacp.cli import _bench_messages, main
from muacp.compression import MessageDistribution, build_tables, check_bound
from muacp.consensus import (
    CampaignConfig,
    DecreeConfig,
    Participant,
    exhaustive_interleaving_check,
    run_campaign,
    run_decree,
)
from muacp.fipa import (
    check_trace_inclusion,
    ConversationAutomaton,
    procedural_bound_check,
)
from muacp.resources import CostModel, ResourceBudget, ResourceVector
from muacp.simnet import Network, SimConfig
from muacp.workloads import ScaleConfig, run_scale
from oracles import kraft_sum, mutated_translate, suspicion_bound

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = sorted(glob.glob(str(ROOT / "protocols" / "*.json")))
DIST_FIXTURES = sorted(glob.glob(str(ROOT / "configs" / "distributions" / "*.json")))

# pinned tolerances and recorded ceilings
EMPTY_WIRE_BYTES = 11
ONE_OPTION_WIRE_BYTES = 23
BOUND_TOL_BITS = 1e-6          # compression bound comparison
ENTROPY_ORACLE_TOL = 1e-9      # chain rule vs direct summation
SPEED_CEILING_US = 10.0        # mean encode / decode
LIVENESS_CEILING_TICKS = 60    # decide lag after GST; observed max 39
GST, DELTA = 50, 5
CRASH_WINDOW = (5, 40)         # strictly before GST
LOSS_GRID = (0.01, 0.02, 0.03, 0.04, 0.05)

BUDGET_S = {1: 1, 2: 10, 3: 1, 4: 30, 5: 60, 6: 10, 7: 300, 8: 120,
            9: 60, 10: 30, 11: 300, 12: 30, 13: 60}

_t0 = 0.0


def _start() -> None:
    global _t0
    _t0 = time.perf_counter()


def _verdict(num: int, name: str, detail: str = "") -> None:
    dur = time.perf_counter() - _t0
    extra = f" ({detail})" if detail else ""
    print(f"gate {num:02d} {name}: PASS in {dur:.2f}s{extra}")
    assert dur < BUDGET_S[num], f"gate {num} exceeded {BUDGET_S[num]}s budget"


# -- 1: wire sizes ---------------------------------------------------------------


def test_c01_wire_sizes_exact():
    _start()
    empty = wire.encode(wire.message(wire.Verb.PING))
    assert len(empty) == EMPTY_WIRE_BYTES

    one_option = wire.encode(_bench_messages(0)["tell_one_option"][0])
    assert len(one_option) == ONE_OPTION_WIRE_BYTES
    _verdict(1, "wire sizes", f"{len(empty)} and {len(one_option)} bytes")


# -- 2: codec roundtrip and crash safety -----------------------------------------


def _random_message(rng: random.Random) -> wire.Message:
    options = tuple(
        wire.Option(rng.randrange(256),
                    rng.randbytes(rng.randrange(16)))
        for _ in range(rng.randrange(5))
    )
    return wire.message(
        wire.Verb(rng.randrange(4)),
        qos=rng.randrange(4),
        flags=rng.randrange(256),
        message_id=rng.randrange(1 << 16),
        sequence=rng.randrange(1 << 16),
        correlation_id=rng.randrange(1 << 16),
        options=options,
        payload=rng.randbytes(rng.randrange(80)),
    )


def test_c02_roundtrip_and_decode_never_crashes():
    _start()
    rng = random.Random(0xC0DEC)
    for _ in range(10_000):
        m = _random_message(rng)
        assert wire.decode(wire.encode(m)) == m

    survived = 0
    for i in range(10_000):
        if i % 2:
            blob = rng.randbytes(rng.randrange(64))
        else:
            # mutations of valid frames probe deeper decoder paths
            blob = bytearray(wire.encode(_random_message(rng)))
            if blob:
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                blob = bytes(blob[: rng.randrange(len(blob) + 1)])
        try:
            wire.decode(bytes(blob))
        except wire.WireError:
            pass
        survived += 1
    assert survived == 10_000
    _verdict(2, "codec roundtrip", "10000 roundtrips, 10000 hostile inputs")


# -- 3: well-formedness clauses --------------------------------------------------


def _raw(b0, *, count=0, options=b"", payload=b"", plen=None):
    head = bytes([b0, 0]) + b"\x00" * 6
    plen = len(payload) if plen is None else plen
    return head + bytes([count]) + options + plen.to_bytes(2, "big") + payload


def _fields(**over):
    base = dict(version=1, verb=0, qos=0, flags=0, message_id=0,
                sequence=0, correlation_id=0, options=[], payload=b"")
    base.update(over)
    return base


def test_c03_wellformedness_clause_fixtures():
    _start()
    ok_blob = wire.encode(wire.message(wire.Verb.PING))
    big = bytes(600)
    opt600 = bytes([5]) + (600).to_bytes(2, "big") + big
    byte_fixtures = {
        "header": (ok_blob, bytes([0x20]) + ok_blob[1:]),        # version 2
        "option": (wire.encode(_bench_messages(0)["tell_one_option"][0]),
                   _raw(0x14, count=1,
                        options=bytes([5]) + (9).to_bytes(2, "big") + b"abc")),
        "options-size": (
            wire.encode(wire.message(
                wire.Verb.TELL,
                options=(wire.Option(1, bytes(509)), wire.Option(2, bytes(509))),
            )),                                                   # exactly 1024
            _raw(0x14, count=2, options=opt600 * 2),              # 1206 > 1024
        ),
        "payload": (wire.encode(wire.message(wire.Verb.TELL, payload=b"xy")),
                    _raw(0x14, payload=b"xy", plen=5)),
    }
    for clause, (good, bad) in byte_fixtures.items():
        assert wire.validate(good) == [], clause
        flagged = {v.clause for v in wire.validate(bad)}
        assert flagged == {clause}, (clause, flagged)

    # the verb field is total on the wire (any 2-bit pattern decodes), so
    # its fixtures run at the field level, like every other clause's twin
    field_fixtures = {
        "header": (_fields(), _fields(version=2)),
        "verb": (_fields(verb=3), _fields(verb=5)),
        "option": (_fields(options=[(5, b"ok")]),
                   _fields(options=[(300, b"ok")])),   # code exceeds one byte
        "options-size": (_fields(options=[(1, bytes(509)), (2, bytes(509))]),
                         _fields(options=[(1, bytes(600)), (2, bytes(600))])),
        "payload": (_fields(payload=bytes(wire.PAYLOAD_LIMIT)),
                    _fields(payload=bytes(wire.PAYLOAD_LIMIT + 1))),
    }
    for clause, (good, bad) in field_fixtures.items():
        assert wire.check_wellformed(**good) == [], clause
        flagged = {v.clause for v in wire.check_wellformed(**bad)}
        assert flagged == {clause}, (clause, flagged)
    _verdict(3, "well-formedness clauses",
             "5 clauses, byte and field fixtures")


# -- 4: resource boundedness -----------------------------------------------------


def _assert_budget_nonnegative(budget: ResourceBudget) -> None:
    assert all(c >= 0 for c in budget.remaining.as_tuple())
    assert all(c >= 0 for c in budget.spent.as_tuple())


def test_c04_no_budget_component_goes_negative():
    _start()
    rng = random.Random(0xB0D9E7)
    for _ in range(1000):
        limit = ResourceVector.of(*(rng.randrange(50, 400) for _ in range(4)))
        budget = ResourceBudget.full(limit)
        charged = []
        for _ in range(rng.randrange(10, 60)):
            if charged and rng.random() < 0.25:
                budget = budget.refund(charged.pop())
            else:
                cost = ResourceVector.of(
                    *(Fraction(rng.randrange(0, 60), rng.choice((1, 2, 3)))
                      for _ in range(4))
                )
                if budget.feasible(cost):
                    budget = budget.charge(cost)
                    charged.append(cost)
                else:
                    with pytest.raises(Exception):
                        budget.charge(cost)
            _assert_budget_nonnegative(budget)

    # full runs: a decree whose every budget is checked after each
    # step, and a desk-scale workload.  (A refund past what was spent
    # raises in the ledger itself, and resource vectors reject negative
    # components at creation.)
    n = 5
    decree = DecreeConfig(n=n, proposers=(0,))
    parts = [Participant(Agent(i), decree) for i in range(n)]
    net = Network(
        SimConfig(seed=11, gst=GST, delta=DELTA, drop_rate=0.03,
                  dup_rate=0.02, fault_schedule=((3, 20),)),
        parts,
    )
    while net.now < 300:
        net.step()
        for p in parts:
            _assert_budget_nonnegative(p.agent.budget)

    cfg = schema.load(str(ROOT / "configs" / "scale_n100.json"), ScaleConfig)
    _, scale_net = run_scale(cfg)
    for node in scale_net.nodes.values():
        _assert_budget_nonnegative(node.agent.budget)
    _verdict(4, "resource boundedness",
             "1000 charge sequences, decree stepwise, scale run")


# -- 5: trace inclusion ----------------------------------------------------------


def test_c05_fipa_traces_covered_and_mutation_caught():
    _start()
    assert {Path(p).stem for p in PROTOCOLS} >= {
        "inform", "request_response", "query", "contract_net"
    }
    checked = 0
    for path in PROTOCOLS:
        auto = schema.load(path, ConversationAutomaton)
        rep = check_trace_inclusion(auto, max_len=8)
        assert rep.traces_checked > 0, path
        assert rep.covered == rep.traces_checked, (path, rep.uncovered)
        checked += rep.traces_checked
    contract_net = str(ROOT / "protocols" / "contract_net.json")
    assert schema.load(contract_net, ConversationAutomaton).nesting_depth == 2

    bad = check_trace_inclusion(
        schema.load(str(ROOT / "protocols" / "request_response.json"),
                    ConversationAutomaton),
        max_len=8,
        translate_fn=mutated_translate,
    )
    assert bad.covered < bad.traces_checked
    _verdict(5, "trace inclusion",
             f"{checked} traces over {len(PROTOCOLS)} protocols, mutation caught")


# -- 6: procedural bound ---------------------------------------------------------


def test_c06_runs_bounded_by_state_count():
    _start()
    for path in PROTOCOLS:
        rep = procedural_bound_check(schema.load(path, ConversationAutomaton))
        assert rep.runs_executed > 0, path
        assert rep.ok, (path, rep.max_semantic_messages, rep.state_count)
    _verdict(6, "procedural bound", f"{len(PROTOCOLS)} automata")


# -- 7: consensus safety ---------------------------------------------------------


def _campaign(n: int, drop: float, seeds: tuple) -> CampaignConfig:
    base = DecreeConfig(
        n=n,
        sim=SimConfig(seed=0, gst=GST, delta=DELTA, delay_min=1,
                      delay_max=10, drop_rate=drop, dup_rate=0.02),
    )
    return CampaignConfig(base=base, seeds=seeds,
                          crash_count=(n - 1) // 2, crash_window=CRASH_WINDOW)


def test_c07_consensus_safety():
    _start()
    total = 0
    for n in (3, 5, 7):
        for i, drop in enumerate(LOSS_GRID):
            seeds = tuple(range(i * 200, (i + 1) * 200))
            runs, _ = run_campaign(_campaign(n, drop, seeds))
            for r in runs:
                assert r.outcome.safety_ok, (n, drop, r.seed)
            total += len(runs)
    assert total == 3000

    exh = exhaustive_interleaving_check()
    assert exh.ok, exh.violations
    assert exh.delivered_bound == 14
    assert exh.explored_states > 100

    lossless = run_decree(DecreeConfig(
        n=3, proposers=(0,),
        sim=SimConfig(seed=1, gst=0, delta=1, drop_rate=0.0, dup_rate=0.0),
    ))
    assert lossless.core_message_count() == 4 * 3 == 12
    _verdict(7, "consensus safety",
             f"3000 seeded runs, {exh.explored_states} exhaustive states, 4n lossless")


# -- 8: consensus liveness -------------------------------------------------------


def _stable_leader_config(n: int, seed: int) -> DecreeConfig:
    rng = random.Random(seed * 1009 + n)
    f = (n - 1) // 2
    sched = tuple(sorted(
        (v, rng.randint(*CRASH_WINDOW)) for v in rng.sample(range(1, n), f)
    ))
    return DecreeConfig(
        n=n, proposers=(0,),
        sim=SimConfig(seed=seed, gst=GST, delta=DELTA, delay_min=1,
                      delay_max=10, drop_rate=LOSS_GRID[seed % 5],
                      dup_rate=0.02, fault_schedule=sched),
    )


def test_c08_survivors_decide_soon_after_gst():
    _start()
    worst = 0
    for n in (3, 5, 7):
        for seed in range(150):
            out = run_decree(_stable_leader_config(n, seed))
            assert out.all_survivors_decided, (n, seed)
            worst = max(worst, max(out.decided_tick.values()) - GST)
    assert worst <= LIVENESS_CEILING_TICKS
    _verdict(8, "consensus liveness",
             f"450 runs, worst decide lag {worst} ticks after GST")


# -- 9: failure detector ---------------------------------------------------------


def test_c09_detector_completeness_and_accuracy():
    _start()
    n, horizon, delay_max = 5, 400, 10
    for seed in range(40):
        rng = random.Random(7000 + seed)
        sched = tuple(sorted(
            (v, rng.randint(*CRASH_WINDOW)) for v in rng.sample(range(1, n), 2)
        ))
        crash_at = dict(sched)
        decree = DecreeConfig(n=n, proposers=(0,))
        parts = [Participant(Agent(i), decree) for i in range(n)]
        net = Network(
            SimConfig(seed=seed, gst=GST, delta=DELTA, delay_min=1,
                      delay_max=delay_max, drop_rate=LOSS_GRID[seed % 5],
                      dup_rate=0.02, fault_schedule=sched),
            parts,
        )
        net.run(horizon)
        for p in parts:
            if p.id in crash_at:
                continue
            for peer, t_crash in crash_at.items():
                evs = [e for e in p.fd.history if e.peer == peer]
                restores = [e.tick for e in evs if e.event == "restore"]
                last_restore = max(restores, default=-1)
                assert last_restore <= t_crash + 2 * delay_max, "cleared after crash"
                stable = [e for e in evs
                          if e.event == "suspect" and e.tick > last_restore]
                assert stable, (seed, p.id, peer, "never suspected")
                ev = stable[0]
                assert ev.tick <= suspicion_bound(
                    t_crash, p.fd.ping_interval, ev.timeout, delay_max
                ), (seed, p.id, peer, ev)
            for e in p.fd.history:
                if e.peer not in crash_at and e.event == "suspect":
                    # a probe sent at or after GST is always answered in
                    # time, so late false suspicions are impossible
                    assert e.tick < GST + e.timeout, (seed, p.id, e)
    _verdict(9, "failure detector", "40 runs, n=5, 2 crashes each")


# -- 10: compression bound -------------------------------------------------------


def _random_distribution(seed: int) -> MessageDistribution:
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    weights = [rng.random() + 1e-9 for _ in range(n)]
    total = sum(weights)
    entries, used = [], set()
    for w in weights:
        while True:
            sym = (
                rng.randrange(4),
                tuple((rng.randrange(1, 10), rng.randrange(10))
                      for _ in range(rng.randrange(3))),
                rng.randbytes(rng.randrange(6)),
            )
            if sym not in used:
                used.add(sym)
                break
        entries.append(cz.DistEntry(sym[0], sym[1], sym[2], w / total))
    return MessageDistribution(entries)


def _check_one_distribution(dist: MessageDistribution, label: str) -> None:
    oracle_h = -sum(e.prob * math.log2(e.prob) for e in dist.entries if e.prob)
    rep = check_bound(dist)
    assert abs(rep.entropy_bits - oracle_h) < ENTROPY_ORACLE_TOL, label
    assert rep.expected_total_bits <= oracle_h + 88 + 4 + 3 + BOUND_TOL_BITS, label
    assert rep.ok, label

    verb_t, profile_ts, payload_ts = build_tables(dist)
    for table in [verb_t, *profile_ts.values(), *payload_ts.values()]:
        assert kraft_sum(table) <= 1, label
        assert table.expected_length >= table.entropy - ENTROPY_ORACLE_TOL, label
        assert table.expected_length < table.entropy + 1, label


def test_c10_semantic_compression_bound():
    _start()
    assert len(DIST_FIXTURES) >= 5
    for path in DIST_FIXTURES:
        _check_one_distribution(schema.load(path, MessageDistribution), path)
    for seed in range(2000, 2005):
        _check_one_distribution(_random_distribution(seed), f"random-{seed}")

    _, corpus = run_campaign(_campaign(3, 0.03, tuple(range(10))),
                             collect_corpus=True)
    _check_one_distribution(MessageDistribution.from_counts(corpus), "corpus")
    _verdict(10, "compression bound",
             f"{len(DIST_FIXTURES)} fixtures, 5 random, 1 corpus")


# -- 11: scaling shape -----------------------------------------------------------


def test_c11_scaling_shape():
    _start()
    depth = {}
    for n in (100, 200, 400):
        cfg = schema.load(
            str(ROOT / "configs" / f"scale_n{n}.json"), ScaleConfig)
        assert cfg.sim.drop_rate == 0.01
        report, _ = run_scale(cfg)
        s = report.metrics.summary()
        w = report.workload
        assert w["clean"], (n, w)
        assert w["completed"] == w["started"] and not w["failed"], n
        p99 = s["latency_ticks"]["p99"]
        assert p99 is not None and math.isfinite(p99), n
        assert s["delivers"] > s["drops"] > 0, n  # lossy but transient
        depth[n] = s["max_queue_depth"]
    assert depth[400] / depth[100] < 4, depth
    _verdict(11, "scaling shape",
             f"queue depth {depth[100]}/{depth[200]}/{depth[400]}, all clean")


# -- 12: codec speed -------------------------------------------------------------


def test_c12_codec_speed():
    _start()
    pool = [m for msgs in _bench_messages(0).values() for m in msgs]
    blobs = [wire.encode(m) for m in pool]
    iterations = 40

    t0 = time.perf_counter_ns()
    for _ in range(iterations):
        for m in pool:
            wire.encode(m)
    encode_us = (time.perf_counter_ns() - t0) / (iterations * len(pool)) / 1000

    t0 = time.perf_counter_ns()
    for _ in range(iterations):
        for b in blobs:
            wire.decode(b)
    decode_us = (time.perf_counter_ns() - t0) / (iterations * len(pool)) / 1000

    assert encode_us < SPEED_CEILING_US
    assert decode_us < SPEED_CEILING_US
    _verdict(12, "codec speed",
             f"encode {encode_us:.2f}us decode {decode_us:.2f}us mean")


# -- 13: determinism -------------------------------------------------------------


def test_c13_reruns_are_byte_identical(tmp_path):
    _start()
    ccfg = json.loads((ROOT / "configs" / "consensus_n3.json").read_text())
    ccfg["seed_count"] = 3
    ccfg["base"]["until"] = 300
    (tmp_path / "c.json").write_text(json.dumps(ccfg))
    scfg = json.loads((ROOT / "configs" / "scale_n100.json").read_text())
    scfg.update(n=12, cnet_initiators=2, committee=3, until=500)
    (tmp_path / "s.json").write_text(json.dumps(scfg))

    jobs = {
        "sim-consensus": (
            ["sim-consensus", "--config", str(tmp_path / "c.json"), "--log-first"],
            ["runs.csv", "summary.json", "corpus_dist.json",
             "events_first_seed.jsonl"],
        ),
        "sim-scale": (
            ["sim-scale", "--config", str(tmp_path / "s.json")],
            ["report.json", "gauges.csv"],
        ),
        "bench-codec": (
            ["bench-codec", "--iterations", "2"],
            ["sizes.csv"],  # timing.json is wall-clock by nature
        ),
    }
    compared = 0
    for name, (args, files) in jobs.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)
            compared += 1
    _verdict(13, "determinism", f"{compared} files byte-identical")
