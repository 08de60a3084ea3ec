"""Command-line surface: exit codes, emitted files, run-to-run determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from muacp.cli import main

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


def test_bench_codec_outputs(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench-codec", "--iterations", "3", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"sizes.csv", "timing.json", "manifest.json"}
    timing = json.loads((out / "timing.json").read_text())
    assert timing["encode_us_mean"] > 0
    assert timing["decode_us_mean"] > 0
    assert timing["iterations"] == 3


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


def test_check_traces_pass_and_fail(tmp_path):
    ok = main(["check-traces", str(ROOT / "protocols" / "inform.json"),
               "--out", str(tmp_path / "a")])
    assert ok == 0
    report = json.loads((tmp_path / "a" / "traces.json").read_text())
    assert report[0]["covered"] == report[0]["traces"]
    assert report[0]["uncovered"] == []
    assert report[0]["bound_ok"] is True

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


@pytest.mark.parametrize(
    "raw", ["junk", "", "nan", "inf", "-inf", "0", "-0.5", "1e999"]
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
