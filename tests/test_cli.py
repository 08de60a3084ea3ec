"""Command-line surface: exit codes, emitted files, run-to-run determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muacp import schema
from muacp.cli import main
from muacp.consensus import MAX_SEEDS
from muacp.workloads import ScaleConfig, run_scale

ROOT = Path(__file__).resolve().parent.parent


def small_consensus_config(tmp_path: Path, seeds: int = 2) -> Path:
    cfg = json.loads((ROOT / "configs" / "consensus_n3.json").read_text())
    cfg["seed_count"] = seeds
    cfg["base"]["until"] = 300
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    return p


def test_no_arguments_is_a_usage_error(capsys):
    # argparse itself rejects the missing subcommand
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["sim-consensus", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_bench_codec_outputs(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench-codec", "--iterations", "3", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"sizes.csv", "timing.json", "manifest.json"}
    timing = json.loads((out / "timing.json").read_text())
    assert timing["encode_us_mean"] > 0
    assert timing["decode_us_mean"] > 0
    assert timing["iterations"] == 3
    # one timing per class of sizes.csv
    classes = [row.split(",")[0] for row in
               (out / "sizes.csv").read_text().strip().splitlines()[1:]]
    assert sorted(timing["per_class"]) == sorted(classes) == [
        "ask_query", "empty_ping", "random_mix", "tell_one_option"]
    for t in timing["per_class"].values():
        assert set(t) == {"encode_us", "decode_us"}
        assert t["encode_us"] > 0 and t["decode_us"] > 0
    printed = capsys.readouterr().out
    for name in classes:
        assert any(line.startswith(f"  {name}: ") and " us, decode " in line
                   for line in printed.splitlines()), printed


def test_bench_codec_refuses_a_negative_seed(tmp_path, capsys):
    # random.Random(-5) seeds like Random(5): the pool would repeat seed 5's.
    rc = main(["bench-codec", "--seed=-5", "--out", str(tmp_path / "o")])
    _assert_usage_error(rc, capsys,
                        "--seed: seed must not be negative, got -5")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("iterations", ["0", "-1"])
def test_bench_codec_iterations_must_be_positive(tmp_path, capsys, iterations):
    rc = main(["bench-codec", "--iterations", iterations,
               "--out", str(tmp_path / "bench")])
    _assert_usage_error(rc, capsys, "--iterations must be at least 1")
    assert not (tmp_path / "bench").exists()


def test_sim_consensus_outputs_and_seed_override(tmp_path):
    cfg = small_consensus_config(tmp_path)
    out = tmp_path / "runs"
    rc = main(["sim-consensus", "--config", str(cfg),
               "--seeds", "7:2", "--out", str(out), "--log-first"])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"runs.csv", "summary.json", "corpus_dist.json",
                     "events_first_seed.jsonl", "manifest.json"}
    rows = (out / "runs.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 seeds
    assert rows[1].startswith("7,") and rows[2].startswith("8,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 2
    assert summary["safety_violations"] == 0


def test_sim_consensus_explicit_seed_list(tmp_path):
    cfg = small_consensus_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["sim-consensus", "--config", str(cfg),
                 "--seeds", "3,11", "--out", str(out)]) == 0
    rows = (out / "runs.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["3", "11"]


def _consensus_with_retry(tmp_path, retry_timeout: int) -> Path:
    cfg = json.loads(small_consensus_config(tmp_path).read_text())
    cfg["base"]["retry_timeout"] = retry_timeout
    p = tmp_path / f"retry{retry_timeout}.json"
    p.write_text(json.dumps(cfg))
    return p


def test_sim_consensus_warns_once_when_retry_is_below_a_round_trip(
        tmp_path, capsys):
    # delta 5: a post-stabilization round trip takes up to 10 ticks
    cfg = _consensus_with_retry(tmp_path, 9)
    out = tmp_path / "runs"
    assert main(["sim-consensus", "--config", str(cfg), "--seeds", "0:2",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: "), captured.err
    assert "retry_timeout 9" in lines[0] and "delta 5" in lines[0]
    assert captured.out.startswith("sim-consensus: 2 runs at n=3")
    assert {p.name for p in out.iterdir()} == {
        "runs.csv", "summary.json", "corpus_dist.json", "manifest.json"}


@pytest.mark.parametrize("config", [
    "consensus_n3.json", "consensus_n5.json", "consensus_n7.json"])
def test_sim_consensus_shipped_configs_do_not_warn(tmp_path, capsys, config):
    assert main(["sim-consensus", "--config", str(ROOT / "configs" / config),
                 "--seeds", "0:1", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_check_traces_pass_and_fail(tmp_path):
    ok = main(["check-traces", str(ROOT / "protocols" / "inform.json"),
               "--out", str(tmp_path / "a")])
    assert ok == 0
    report = json.loads((tmp_path / "a" / "traces.json").read_text())
    assert report[0]["covered"] == report[0]["traces"]
    assert report[0]["uncovered"] == []
    assert report[0]["bound_ok"] is True
    assert "bound_failed" not in report[0]

    # one state, but a request draws a reply: two semantic messages
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "nag", "roles": ["a", "b"], "states": ["s0"],
        "initial": "s0", "accepting": ["s0"], "nesting_depth": 1,
        "knowledge": {},
        "transitions": [{"from": "s0", "to": "s0", "performative": "request",
                         "sender": "a", "receiver": "b", "content": "poke()"}],
    }))
    assert main(["check-traces", str(bad), "--out", str(tmp_path / "b")]) == 1
    report = json.loads((tmp_path / "b" / "traces.json").read_text())
    assert report[0]["bound_ok"] is False
    assert "bound_failed" not in report[0]     # every run executed


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_check_traces_refuses_a_max_len_below_1(tmp_path, capsys, max_len):
    # No trace is that short, so every protocol would pass vacuously.
    rc = main(["check-traces", str(ROOT / "protocols" / "inform.json"),
               f"--max-len={max_len}", "--out", str(tmp_path / "o")])
    _assert_usage_error(rc, capsys,
                        f"--max-len must be at least 1, got {max_len}")
    assert not (tmp_path / "o").exists()


def test_check_bound_over_fixtures(tmp_path):
    fixtures = sorted(str(p) for p in (ROOT / "configs" / "distributions").glob("*.json"))
    assert main(["check-bound", *fixtures, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bounds.json").read_text())
    assert len(report) == len(fixtures)
    assert all(entry["bound_holds"] for entry in report)


def test_validate_vectors_and_sidecar_mismatch(tmp_path):
    vectors = sorted(str(p) for p in (ROOT / "vectors").glob("*.hex"))
    assert main(["validate", *vectors]) == 0

    v = tmp_path / "m.hex"
    v.write_text((ROOT / "vectors" / "ping_min.hex").read_text())
    side = {"expect": "ok", "verb": "TELL"}  # actually a PING
    (tmp_path / "m.json").write_text(json.dumps(side))
    assert main(["validate", str(v)]) == 1


def small_scale_config(tmp_path: Path) -> Path:
    cfg = json.loads((ROOT / "configs" / "scale_n100.json").read_text())
    cfg["n"] = 12
    cfg["cnet_initiators"] = 2
    cfg["committee"] = 3
    cfg["until"] = 500
    p = tmp_path / "s.json"
    p.write_text(json.dumps(cfg))
    return p


def test_sim_scale_smoke(tmp_path):
    p = small_scale_config(tmp_path)
    out = tmp_path / "scale"
    assert main(["sim-scale", "--config", str(p), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["workload"]["clean"] is True
    assert report["workload"]["completed"] == report["workload"]["started"]
    assert report["infeasible_events"] == 0
    gauges = (out / "gauges.csv").read_text().splitlines()
    assert gauges[0] == "tick,in_flight_msgs,max_backlog_msgs,sent_msgs,delivered_msgs,dropped_msgs"


def test_sim_scale_events_log_is_the_runs_log(tmp_path):
    p = small_scale_config(tmp_path)
    obj = json.loads(p.read_text())
    obj["sim"].update(drop_rate=0.05, dup_rate=0.05)
    p.write_text(json.dumps(obj))
    out = tmp_path / "scale"
    assert main(["sim-scale", "--config", str(p), "--out", str(out),
                 "--events"]) == 0
    data = (out / "events.jsonl").read_bytes()
    assert data
    cfg = schema.load(str(p), ScaleConfig)
    report, net = run_scale(cfg, events=True)
    assert data == net.log.to_jsonl().encode("utf-8")
    kinds = Counter(json.loads(line)["kind"] for line in data.splitlines())
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert all(kinds[k] > 0 for k in ("send", "deliver", "drop", "dup"))
    assert (kinds["send"], kinds["deliver"], kinds["drop"], kinds["dup"]) == (
        metrics["sends"], metrics["delivers"], metrics["drops"],
        metrics["dups"])
    # Without records the run is the same run: same report and gauges.
    quiet_report, quiet = run_scale(cfg)
    assert quiet.log.records == []
    assert quiet_report.to_json() == report.to_json()
    assert quiet_report.metrics.gauges_csv() == report.metrics.gauges_csv()


@pytest.mark.parametrize(
    "raw", ["junk", "", "nan", "inf", "-inf", "0", "-0.5", "1e999", "1e308"]
)
def test_bad_tick_ms_is_a_usage_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("MUACP_TICK_MS", raw)
    rc = main(["sim-scale", "--config", str(small_scale_config(tmp_path)),
               "--out", str(tmp_path / "scale")])
    assert rc == 2
    assert "MUACP_TICK_MS" in capsys.readouterr().err
    assert not (tmp_path / "scale").exists()


def test_tick_ms_scales_reported_latencies(tmp_path, monkeypatch):
    monkeypatch.setenv("MUACP_TICK_MS", "2.5")
    out = tmp_path / "scale"
    assert main(["sim-scale", "--config", str(small_scale_config(tmp_path)),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["tick_ms"] == 2.5
    lat, lat_ms = metrics["latency_ticks"], metrics["latency_ms"]
    assert lat_ms["p99"] == lat["p99"] * 2.5


def _run_cli(args, out: Path, hashseed: str):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    subprocess.run([sys.executable, "-m", "muacp.cli", *args, "--out", str(out)],
                   check=True, env=env, cwd=ROOT, capture_output=True)


def test_outputs_reproducible_across_hash_seeds(tmp_path):
    cfg = small_consensus_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    _run_cli(["sim-consensus", "--config", str(cfg), "--log-first"], a, "1")
    _run_cli(["sim-consensus", "--config", str(cfg), "--log-first"], b, "77")
    for name in ("runs.csv", "summary.json", "corpus_dist.json",
                 "events_first_seed.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the manifest is the one file allowed to differ: wall-clock time and the
    # literal argv (the two runs name different --out directories)
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    for m in (ma, mb):
        m.pop("wall_clock_unix")
        m.pop("argv")
    assert ma == mb


def _assert_usage_error(rc, capsys, expected: str) -> None:
    """Exit 2 with one `error:` line naming the problem, no traceback."""
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert expected in lines[0]


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return cfg

    return edit


CONSENSUS_REPROS = {
    "n_string": (_set("base", "n", "3"), "base.n: expected int, got str"),
    "n_fractional": (_set("base", "n", 12.5),
                     "base.n: expected int, got float"),
    "delay_min_zero": (_set("base", "sim", "delay_min", 0),
                       "base.sim: need 1 <= delay_min"),
    "top_level_list": (lambda cfg: [cfg], "expected an object, got list"),
    "missing_base": (lambda cfg: {k: v for k, v in cfg.items()
                                  if k != "base"}, "base: missing"),
    "short_crash_window": (_set("crash_window", [5]),
                           "crash_window: expected 2 items, got 1"),
    "reversed_crash_window": (_set("crash_window", [40, 5]),
                              "need 0 <= crash_window[0] <= crash_window[1]"),
    "negative_crash_count": (_set("crash_count", -1),
                             "crash_count must not be negative"),
    "no_seeds": (_set("seed_count", 0), "a campaign needs at least one seed"),
    "negative_seed_base": (_set("seed_base", -1),
                           "seed must not be negative, got -1"),
    "repeated_seed": (
        lambda cfg: {**{k: v for k, v in cfg.items()
                        if k not in ("seed_base", "seed_count")},
                     "seeds": [4, 2, 4]},
        "seeds must not repeat a seed"),
    "negative_sim_seed": (_set("base", "sim", "seed", -1),
                          "base.sim: seed must not be negative, got -1"),
    "short_fault_entry": (
        _set("base", "sim", "fault_schedule", [[1]]),
        "base.sim.fault_schedule[0]: expected 2 items, got 1",
    ),
    "empty_proposers": (_set("base", "proposers", []),
                        "base: proposers must name at least one node"),
    "proposer_out_of_range": (_set("base", "proposers", [9]),
                              "base: proposers must be node ids below n=5"),
    "values_not_one_per_proposer": (_set("base", "values", ["a"]),
                                    "base: values must match proposers"),
    "repeated_proposer": (
        lambda cfg: _set("base", "values", ["a", "b"])(
            _set("base", "proposers", [0, 0])(cfg)),
        "base: proposers must not repeat a node id",
    ),
    "sim_not_an_object": (_set("base", "sim", 5),
                          "base.sim: expected an object, got int"),
    "unknown_field": (_set("base", "sim", "sprocket", 1),
                      "base.sim.sprocket: unknown field"),
}


@pytest.mark.parametrize("case", sorted(CONSENSUS_REPROS))
def test_malformed_consensus_config_exits_2(tmp_path, capsys, case):
    edit, expected = CONSENSUS_REPROS[case]
    cfg = json.loads((ROOT / "configs" / "consensus_n5.json").read_text())
    p = tmp_path / "c.json"
    p.write_text(json.dumps(edit(cfg)))
    rc = main(["sim-consensus", "--config", str(p),
               "--out", str(tmp_path / "out")])
    _assert_usage_error(rc, capsys, f"{p}: {expected}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, expected", [
    (_set("n", 5), "network too small"),
    (_set("n", 12.5), "n: expected int, got float"),
    (_set("tick_ms", "1"), "tick_ms: expected float, got str"),
    pytest.param(_set("rr_period", 0), "rr_period must be at least 1",
                 id="rr_period-0"),
    pytest.param(_set("refusal_modulus", 0),
                 "refusal_modulus must be at least 1", id="refusal_modulus-0"),
    pytest.param(_set("rr_deadline", -1),
                 "rr_deadline must be in 0..4294967295", id="rr_deadline--1"),
    pytest.param(_set("rr_deadline", 2**32),
                 "rr_deadline must be in 0..4294967295", id="rr_deadline-2^32"),
    pytest.param(_set("tick_ms", 0), "tick_ms must be positive",
                 id="tick_ms-0"),
    pytest.param(_set("tick_ms", -1.5), "tick_ms must be positive",
                 id="tick_ms--1.5"),
    # Finite, but latencies in ms would overflow to Infinity in the report.
    pytest.param(_set("tick_ms", 1e308), "tick_ms is too large",
                 id="tick_ms-1e308"),
    pytest.param(_set("tick_ms", 10**400), "tick_ms is too large",
                 id="tick_ms-10^400"),
    *(pytest.param(_set(name, -1), f"{name} must not be negative",
                   id=f"{name}--1")
      for name in ("committee", "cnet_initiators", "proposal_wait",
                   "round_pause", "drain")),
    pytest.param(_set("sim", "seed", -1),
                 "sim: seed must not be negative, got -1", id="sim.seed--1"),
    # Node 0's RNG under seed -1 would be its RNG under seed 1.
    pytest.param(_set("seed", -1), "seed must not be negative, got -1",
                 id="seed--1"),
])
def test_malformed_scale_config_exits_2(tmp_path, capsys, edit, expected):
    p = small_scale_config(tmp_path)
    p.write_text(json.dumps(edit(json.loads(p.read_text()))))
    rc = main(["sim-scale", "--config", str(p)])
    _assert_usage_error(rc, capsys, expected)


@pytest.mark.parametrize("spec", ["abc", "1:x", "x:1", "0:-1", "0:0", ",", "",
                                  "0:1000000000000000000000"])
def test_bad_seeds_spec_exits_2(tmp_path, capsys, spec):
    cfg = small_consensus_config(tmp_path)
    rc = main(["sim-consensus", "--config", str(cfg), "--seeds", spec])
    _assert_usage_error(rc, capsys, "--seeds")


@pytest.mark.parametrize("spec", ["-1:3", "2,-1"])
def test_a_negative_seed_exits_2(tmp_path, capsys, spec):
    # random.Random(-1) seeds like Random(1): seed -1 would silently
    # rerun seed 1 and report the pair as two runs.
    cfg = small_consensus_config(tmp_path)
    rc = main(["sim-consensus", "--config", str(cfg), f"--seeds={spec}"])
    _assert_usage_error(rc, capsys,
                        "--seeds: seed must not be negative, got -1")


@pytest.mark.parametrize("spec", ["1,1,1", "3,2,3"])
def test_a_repeated_seed_exits_2(tmp_path, capsys, spec):
    # A repeated seed reruns one run and reports it as several.
    cfg = small_consensus_config(tmp_path)
    rc = main(["sim-consensus", "--config", str(cfg), "--seeds", spec])
    _assert_usage_error(rc, capsys, "--seeds: seeds must not repeat a seed")


@pytest.mark.parametrize("where", ["--seeds", "seed_count"])
def test_a_huge_seed_count_exits_2_before_building_it(tmp_path, capsys,
                                                       where):
    count = 10**12
    cfg = small_consensus_config(tmp_path)
    argv = ["sim-consensus", "--config", str(cfg)]
    if where == "--seeds":
        argv += ["--seeds", f"0:{count}"]
    else:
        obj = json.loads(cfg.read_text())
        obj["seed_count"] = count
        cfg.write_text(json.dumps(obj))
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_usage_error(rc, capsys,
                        f"{where}: at most {MAX_SEEDS} seeds, got {count}")
    assert peak < 1 << 20


_PROTOCOL = {
    "name": "p", "roles": ["a", "b"], "states": ["s0"], "initial": "s0",
    "accepting": ["s0"],
}
_TRANSITION = {"from": "s0", "to": "s0", "performative": "inform",
               "sender": "a", "receiver": "b", "content": "p"}


def _protocol(transition=(), **fields) -> str:
    """One-transition protocol file text; `transition` overrides fields
    of the transition, `fields` the top-level fields."""
    return json.dumps({**_PROTOCOL, "transitions": [
        {**_TRANSITION, **dict(transition)}], **fields})


def _dist(prob: str = "1.0", options: str = "[]",
          payload: str = '""', verb: str = '"PING"', more: str = "") -> str:
    """One-entry distribution file text with raw JSON for its fields;
    `more` adds raw `"key": value` text to the entry."""
    return ('{"entries": [{"verb": %s, "prob": %s, "options": %s, '
            '"payload_hex": %s%s}]}' % (verb, prob, options, payload, more))


@pytest.mark.parametrize("command, text, expected", [
    pytest.param("check-traces", "{not json", "cannot read",
                 id="protocol-not-json"),
    pytest.param("check-traces", "\udcff", "cannot read",
                 id="protocol-not-utf8"),
    pytest.param("check-traces", json.dumps(_PROTOCOL),
                 "input.json: transitions: missing",
                 id="protocol-no-transitions"),
    pytest.param("check-traces", json.dumps({**_PROTOCOL, "transitions": 5}),
                 "transitions: expected a list, got int",
                 id="protocol-transitions-int"),
    pytest.param("check-traces", json.dumps([_PROTOCOL]),
                 "input.json: expected an object, got list",
                 id="protocol-top-level-list"),
    *(pytest.param("check-traces", _protocol({"content": value}),
                   f"transitions[0].content: expected str, got {name}",
                   id=f"protocol-content-{name}")
      for value, name in ((5, "int"), (None, "NoneType"), (1.5, "float"))),
    pytest.param("check-traces", _protocol({"topic": ["t"]}),
                 "transitions[0].topic: expected str, got list",
                 id="protocol-topic-list"),
    pytest.param("check-traces", _protocol(knowledge={"b": [5]}),
                 "knowledge.b[0]: expected str, got int",
                 id="protocol-knowledge-int"),
    pytest.param("check-traces", _protocol(nesting_depth="2"),
                 "nesting_depth: expected int, got str",
                 id="protocol-nesting-depth-str"),
    pytest.param("check-traces", _protocol(roles="ab"),
                 "roles: expected a list, got str", id="protocol-roles-str"),
    pytest.param("check-traces", _protocol(colour=1),
                 "input.json: colour: unknown field",
                 id="protocol-unknown-key"),
    pytest.param("check-traces", _protocol({"colour": 1}),
                 "transitions[0].colour: unknown field",
                 id="protocol-transition-unknown-key"),
    pytest.param("check-traces", _protocol({"performative": "shout"}),
                 "transitions[0].performative: expected one of 'inform',",
                 id="protocol-performative-unknown"),
    pytest.param("check-traces", _protocol({"content": "\udcff"}),
                 "transitions[0].content: expected valid Unicode",
                 id="protocol-content-lone-surrogate"),
    pytest.param("check-traces", _protocol({"to": "s9"}),
                 "transitions[0].to: 's9' is not declared",
                 id="protocol-unknown-state"),
    pytest.param("check-traces",
                 _protocol({"performative": "not-understood",
                            "content": "x" * 2000}),
                 "transitions[0]: option value of 2000 bytes cannot fit",
                 id="protocol-not-understood-oversized"),
    pytest.param("check-traces",
                 _protocol({"performative": "subscribe", "topic": "x" * 2000}),
                 "transitions[0]: option value of 2000 bytes cannot fit",
                 id="protocol-subscribe-topic-oversized"),
    *(pytest.param("check-traces",
                   _protocol({"performative": p, "content": "x" * 70_000}),
                   "transitions[0]: payload is 70000 bytes, limit 65535",
                   id=f"protocol-{p}-oversized")
      for p in ("inform", "cfp")),
    pytest.param("check-traces",
                 _protocol({"performative": "request",
                            "content": "x" * 65_530}),
                 "transitions[0]: payload is 65536 bytes",
                 id="protocol-request-done-template-oversized"),
    *(pytest.param("check-traces", _protocol(knowledge={"b": [lit]}),
                   "knowledge.b[0]: empty literal",
                   id=f"protocol-knowledge-{lit or 'empty'}")
      for lit in ("", "!!")),
    pytest.param("check-traces", _protocol({"topic": "t", "content": ""}),
                 "transitions[0]: empty literal",
                 id="protocol-published-inform-not-a-literal"),
    pytest.param("check-traces", json.dumps({**_PROTOCOL, "transitions": [
        {**_TRANSITION, "content": f"p{i}"} for i in range(5)]}),
                 "more than 100000 actions", id="protocol-too-many-traces"),
    pytest.param("check-bound", "{not json", "cannot read",
                 id="dist-not-json"),
    pytest.param("check-bound", "[" * 100_000, "cannot read",
                 id="dist-nested-too-deep"),
    pytest.param("check-bound", _dist(prob="NaN"),
                 "entries[0].prob: expected a finite number, got nan",
                 id="dist-prob-nan"),
    pytest.param("check-bound", _dist(options="[[Infinity, 1]]"),
                 "entries[0].options[0][0]: expected int, got float",
                 id="dist-code-infinity"),
    pytest.param("check-bound", _dist(prob='"0.5"'),
                 "entries[0].prob: expected float, got str",
                 id="dist-prob-str"),
    pytest.param("check-bound", _dist(options="[[3.9, true]]"),
                 "entries[0].options[0][0]: expected int, got float",
                 id="dist-code-float"),
    pytest.param("check-bound", _dist(options="[[3, true]]"),
                 "entries[0].options[0][1]: expected int, got bool",
                 id="dist-length-bool"),
    pytest.param("check-bound", _dist(more=', "weight": 1'),
                 "entries[0].weight: unknown field", id="dist-unknown-key"),
    pytest.param("check-bound", _dist(verb='"SHOUT"'),
                 "entries[0].verb: expected one of 'PING', 'TELL'",
                 id="dist-verb-unknown"),
    pytest.param("check-bound", _dist(payload='"zz"'),
                 "entries[0].payload_hex: expected a hex string",
                 id="dist-payload-not-hex"),
    pytest.param("check-bound", _dist(options="[[3, -5]]"),
                 "entries[0]: option 0: option length -5 is negative",
                 id="dist-length-negative"),
    pytest.param("check-bound", _dist(options="[[256, 1]]"),
                 "entries[0]: option 0: option code 256 not in 0..255",
                 id="dist-code-256"),
    pytest.param("check-bound", _dist(payload='"%s"' % ("00" * 65536)),
                 "entries[0]: payload is 65536 bytes, limit 65535",
                 id="dist-payload-too-long"),
    pytest.param("check-bound", _dist(options=json.dumps([[5, 0]] * 256)),
                 "entries[0]: 256 options exceed count limit 255",
                 id="dist-too-many-options"),
    pytest.param("check-bound", _dist(options="[[5, 1000], [5, 1000]]"),
                 "entries[0]: options section is 2006 bytes, limit 1024",
                 id="dist-options-section-too-long"),
])
def test_malformed_protocol_or_distribution_exits_2(
    tmp_path, capsys, command, text, expected
):
    p = tmp_path / "input.json"
    p.write_text(text, encoding="utf-8", errors="surrogateescape")
    _assert_usage_error(main([command, str(p)]), capsys, expected)


def test_unexecutable_accepting_run_fails_the_protocol(tmp_path, capsys):
    # make_tell strips the leading space, so the published notification
    # never matches the action and its accepting runs cannot execute
    text = (ROOT / "protocols" / "subscribe_notify.json").read_text()
    p = tmp_path / "input.json"
    p.write_text(text.replace('"alert(smoke)"', '" alert(x)"'))
    assert main(["check-traces", str(p), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    reason = "INFORM source->listener ' alert(x)' not observed"
    assert out == (
        "check-traces: subscribe_notify: 1/3 traces covered to length 8, "
        f"bound 0<=4: FAIL (an accepting run fails at step 1: {reason})\n")
    assert err == ""
    report = json.loads((tmp_path / "o" / "traces.json").read_text())
    assert report[0]["bound_ok"] is False
    assert report[0]["bound_failed"] == {"failed_at": 1, "reason": reason}


def test_validate_sidecar_must_be_an_object(tmp_path, capsys):
    v = tmp_path / "m.hex"
    v.write_text((ROOT / "vectors" / "ping_min.hex").read_text())
    (tmp_path / "m.json").write_text(json.dumps(["expect", "ok"]))
    _assert_usage_error(main(["validate", str(v)]), capsys,
                        "m.json: expected an object, got list")


@pytest.mark.parametrize("vector, sidecar, expected", [
    ("truncated", {"expect": "error", "eror": "BadVersion"},
     "m.json: eror: unknown field"),
    ("truncated", {"expect": "eror"},
     "m.json: expect: expected one of 'ok', 'error', got 'eror'"),
    ("truncated", {"expect": "error", "error": 5},
     "m.json: error: expected str, got int"),
    ("truncated", {"expect": "error", "qos": 0},
     "m.json: qos: not checked under expect: error"),
    ("ping_min", {"expect": "ok", "error": "Truncated"},
     "m.json: error: not checked under expect: ok"),
    ("ping_min", {"expect": "ok", "qos": "0"},
     "m.json: qos: expected int, got str"),
    ("ping_min", {"verb": "SHOUT"},
     "m.json: verb: expected one of 'PING', 'TELL', 'ASK', 'OBSERVE'"),
    ("ping_min", {"options": [[1, "zz"]]},
     "m.json: options[0][1]: expected a hex string"),
], ids=["unknown-key", "expect-unknown", "error-int", "pinned-under-error",
        "error-under-ok", "qos-str", "verb-unknown", "option-not-hex"])
def test_malformed_sidecar_exits_2(tmp_path, capsys, vector, sidecar,
                                   expected):
    v = tmp_path / "m.hex"
    v.write_text((ROOT / "vectors" / f"{vector}.hex").read_text())
    (tmp_path / "m.json").write_text(json.dumps(sidecar))
    _assert_usage_error(main(["validate", str(v)]), capsys, expected)


def test_sidecar_mismatch_names_each_field(tmp_path, capsys):
    v = tmp_path / "m.hex"
    v.write_text((ROOT / "vectors" / "ping_min.hex").read_text())
    (tmp_path / "m.json").write_text(json.dumps(
        {"expect": "ok", "options": [[1, "00"]], "verb": "TELL"}))
    assert main(["validate", str(v)]) == 1
    assert capsys.readouterr().out == (
        f"validate: {v}: FAIL (options: got [], expected [[1, '00']]; "
        "verb: got 'PING', expected 'TELL')\n")


def test_validate_without_sidecar_reports_each_vector(tmp_path, capsys):
    good, bad = tmp_path / "good.hex", tmp_path / "bad.hex"
    good.write_text((ROOT / "vectors" / "ping_min.hex").read_text())
    bad.write_text((ROOT / "vectors" / "truncated.hex").read_text())
    assert main(["validate", str(good)]) == 0
    assert capsys.readouterr().out == f"validate: {good}: well-formed\n"
    assert main(["validate", str(good), str(bad)]) == 1
    assert capsys.readouterr().out == (
        f"validate: {good}: well-formed\n"
        f"validate: {bad}: malformed: [header] 6 bytes, minimum message "
        "is 11\n")


# SHA-256 of the checker reports over the shipped inputs, named by
# relative paths from the repository root.
TRACES_SHA256 = (
    "fd174a2d95d6f5607a3e9e48e9beee842a8cb1ddd7097adf4c932152f8dbd652")
BOUNDS_SHA256 = (
    "818d2b276324685ac7c41cbc332d975a32c6366b656ab2a37d765795afea9017")


@pytest.mark.parametrize("command, inputs, report, digest", [
    ("check-traces", "protocols", "traces.json", TRACES_SHA256),
    ("check-bound", "configs/distributions", "bounds.json", BOUNDS_SHA256),
], ids=["traces", "bounds"])
def test_checker_reports_are_pinned(tmp_path, monkeypatch, command, inputs,
                                    report, digest):
    monkeypatch.chdir(ROOT)
    paths = sorted(str(p.relative_to(ROOT))
                   for p in (ROOT / inputs).glob("*.json"))
    assert main([command, *paths, "--out", str(tmp_path)]) == 0
    data = (tmp_path / report).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


#: SHA-256 of each `sim-consensus` output on consensus_n5 over seeds
#: 0:20 with --log-first.  `corpus_dist.json` is written through
#: `MessageDistribution`, so its grouping and sort order show here too.
CONSENSUS_N5_SHA256 = {
    "runs.csv":
        "376a316aeb04338596a17d34effeacdf6ccafd48e9c913021464a2729bfdf962",
    "summary.json":
        "5f51dec0f8fca25f50a85e7abc2dbcb70eb6a5ab103165a1d6b057cee51b13dc",
    "corpus_dist.json":
        "a916a7b40f5186f74da66d096fcb6501f2d219c1a4bce4b137e6114ff40fd7b1",
    "events_first_seed.jsonl":
        "1b0b6b0fdaa7160a92f30c94dc5103ba32e64f2b00df1d59025a07c3976a8436",
}


def test_sim_consensus_outputs_are_pinned(tmp_path):
    config = str(ROOT / "configs" / "consensus_n5.json")
    assert main(["sim-consensus", "--config", config, "--seeds", "0:20",
                 "--log-first", "--out", str(tmp_path)]) == 0
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in CONSENSUS_N5_SHA256
    } == CONSENSUS_N5_SHA256


# -- what each entry point loads ----------------------------------------------

# Each check runs in a fresh interpreter: this process has already
# imported every layer.
_LOADED = """
import contextlib, io, sys
{code}
print(" ".join(sorted(m[6:] for m in sys.modules if m.startswith("muacp."))))
"""

_RUN_CLI = """
from muacp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def _layers_loaded(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _LOADED.format(code=code)], check=True,
        env=env, cwd=ROOT, capture_output=True, text=True).stdout
    return set(out.split())


def test_a_scale_run_never_loads_fipa():
    loaded = _layers_loaded(
        "from muacp import schema\n"
        "from muacp.workloads import ScaleConfig, build_scale\n"
        "net, _ = build_scale(\n"
        "    schema.load('configs/scale_n100.json', ScaleConfig))\n"
        "net.run(50)")
    assert {"workloads", "simnet"} <= loaded
    assert "fipa" not in loaded


@pytest.mark.parametrize("argv, absent", [
    (["validate", "vectors/ping_min.hex", "vectors/truncated.hex"],
     {"simnet", "consensus", "fipa", "workloads", "compression"}),
    (["check-bound", "configs/distributions/dyadic.json"],
     {"simnet", "consensus", "fipa", "workloads"}),
], ids=["validate", "check-bound"])
def test_a_command_loads_only_its_layers(argv, absent):
    loaded = _layers_loaded(_RUN_CLI.format(argv=argv))
    assert "cli" in loaded
    assert not loaded & absent, loaded & absent


# -- hostile input, CLI-wide ----------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_SIDECAR_KEYS = ["correlation_id", "error", "expect", "flags", "message_id",
                 "options", "payload_hex", "qos", "sequence", "size", "verb"]
_VECTORS = sorted(p.stem for p in (ROOT / "vectors").glob("*.hex"))
_ENV_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"), max_size=12)


def _main_in_process(argv, env=None) -> tuple[int, str]:
    """Run `main`; a traceback fails the test by raising.  Returns the
    exit code and stderr, which on exit 2 is one `error:` line."""
    err = io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert rc in (0, 1, 2), rc
    if rc == 2:
        lines = text.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), text
    else:
        assert "error:" not in text, text
    return rc, text


@settings(max_examples=150, deadline=None)
@given(vector=st.sampled_from(_VECTORS),
       edits=st.lists(st.tuples(st.sampled_from(_SIDECAR_KEYS + ["junk"]),
                                st.none() | _JSON), max_size=3),
       whole=st.none() | _JSON,
       flips=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)),
                      max_size=2))
def test_hostile_vectors_and_sidecars_get_a_diagnosis(vector, edits, whole,
                                                      flips):
    blob = bytearray.fromhex(
        (ROOT / "vectors" / f"{vector}.hex").read_text())
    for at, byte in flips:
        if blob:
            blob[at % len(blob)] = byte
    sidecar = json.loads((ROOT / "vectors" / f"{vector}.json").read_text())
    for key, value in edits:
        if value is None:
            sidecar.pop(key, None)
        else:
            sidecar[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.hex"
        path.write_text(blob.hex())
        (Path(tmp) / "v.json").write_text(
            json.dumps(sidecar if whole is None else whole))
        _main_in_process(["validate", str(path)])


_SEED = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
_SEEDS_SPEC = st.one_of(
    # At most three seeds run, so each example stays cheap.
    st.builds("{}:{}".format, _SEED, st.integers(-2, 3)),
    st.builds("{}:{}".format, _SEED,
              st.integers(MAX_SEEDS + 1, 10**30)),
    st.lists(_SEED.map(str), max_size=3).map(",".join),
    # No ':' here: 'a:b' text could name thousands of seeds.
    st.text("0123456789,-+ x_", max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(spec=_SEEDS_SPEC, seed_count=st.none() | st.integers(-2, 3)
       | st.integers(MAX_SEEDS + 1, 10**30) | _JSON)
def test_hostile_seeds_get_a_diagnosis(spec, seed_count):
    obj = json.loads((ROOT / "configs" / "consensus_n3.json").read_text())
    obj["base"]["until"] = 150
    obj.pop("seed_count")   # the shipped file names 100 seeds
    if seed_count is not None:
        obj["seed_count"] = seed_count
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(obj))
        for argv in ([f"--seeds={spec}"], []):
            rc, err = _main_in_process(
                ["sim-consensus", "--config", str(cfg), *argv])
            if rc == 2 and argv:
                assert "--seeds" in err or str(cfg) in err, err


def _tiny_scale_config(tmp: Path) -> Path:
    p = small_scale_config(tmp)
    obj = json.loads(p.read_text())
    obj.update(until=60, drain=20)
    p.write_text(json.dumps(obj))
    return p


@settings(max_examples=40, deadline=None)
@given(raw=_ENV_TEXT | st.floats().map(repr) | st.integers().map(str))
def test_hostile_tick_ms_gets_a_diagnosis(raw):
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _main_in_process(
            ["sim-scale", "--config", str(_tiny_scale_config(Path(tmp)))],
            env={"MUACP_TICK_MS": raw})
    if rc == 2:
        assert "MUACP_TICK_MS" in err, err
