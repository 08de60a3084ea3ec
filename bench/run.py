"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.
Set-up (a fresh import, config load and input or network build) runs
SETUP_REPEATS times before the first pass.

An untraced run (`--trace 0`) then repeats whole passes over the
seeded inputs until `--seconds` have passed and reports every
end-to-end metric of BENCHMARK.json.  It sets up afresh before any pass
that starts SETUP_EVERY_S or more after the last set-up, so the samples
behind `setup_s`, their median, spread over the whole run.

A traced run (`--trace 1`) wraps every layer's public functions, makes
the workload's fixed number of traced passes, unwraps, and reports
every per-layer metric, with the tracing overhead measured against
untraced passes of the same process.

Every reported time is calibrated against a reference loop timed
throughout the same run (see calibrate.py); the plain wall-clock values
are in the line before the result.

Outputs are checked on every pass: each pass must reproduce the first
byte for byte, and for seeds pinned in bench/digests.json the first
pass must match the pin.  A mismatch fails every operation of the run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment, input sizes and checks of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import deque

import cases
import layers
from calibrate import REF_NOMINAL_NS, Calibrator
from percentile import nearest_rank
from spans import Tracer, span_cost_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
SETUP_EVERY_S = 1.0
SAMPLE_CAP = 200_000   # latest tick and run samples kept for percentiles


def _purge_program() -> None:
    """Forget the imported program so the next set-up imports it anew."""
    for name in [n for n in sys.modules
                 if n == "muacp" or n.startswith("muacp.")]:
        del sys.modules[name]


def _setup(workload, seed: int, samples: list[float]):
    _purge_program()
    t0 = time.perf_counter()
    state = workload.setup(ROOT, seed)
    samples.append(time.perf_counter() - t0)
    return state


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


class Totals:
    """Running totals over passes; samples are bounded so that the
    benchmark's own memory does not grow with the program's speed."""

    def __init__(self) -> None:
        self.pass_ns: list[int] = []
        self.rates: dict[str, list[float]] = {
            "sends": [], "frames": [], "runs": []}
        self.ticks: deque[int] = deque(maxlen=SAMPLE_CAP)
        self.runs: deque[int] = deque(maxlen=SAMPLE_CAP)
        self.attempted = self.failed = 0
        self.digests: set[str] = set()
        self.first_digest: str | None = None

    def add(self, p) -> None:
        self.pass_ns.append(p.ns)
        for key, count in (("sends", p.sends), ("frames", p.frames),
                           ("runs", len(p.run_ns))):
            self.rates[key].append(count * 1e9 / p.ns)
        self.ticks.extend(p.tick_ns)
        self.runs.extend(p.run_ns)
        self.attempted += p.attempted
        self.failed += p.failed
        self.digests.add(p.digest)
        if self.first_digest is None:
            self.first_digest = p.digest


def _end_to_end(totals: Totals, setups: list[float], f: float) -> dict:
    """End-to-end metrics, with every wall time multiplied by `f`."""
    ticks, runs = sorted(totals.ticks), sorted(totals.runs)
    med = statistics.median
    return {
        "setup_s": (med(setups) * f, "s"),
        "sends_per_s": (med(totals.rates["sends"]) / f, "1/s"),
        "runs_per_s": (med(totals.rates["runs"]) / f, "1/s"),
        "frames_per_s": (med(totals.rates["frames"]) / f, "1/s"),
        "tick_ms_p50": (nearest_rank(ticks, 50) * f / 1e6, "ms"),
        "tick_ms_p98": (nearest_rank(ticks, 98) * f / 1e6, "ms"),
        "run_ms_p50": (nearest_rank(runs, 50) * f / 1e6, "ms"),
        "run_ms_p95": (nearest_rank(runs, 95) * f / 1e6, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _traced(workload, state, totals: Totals, info: dict,
            cal: Calibrator) -> dict:
    untraced = []
    p = workload.run(state, cal)
    totals.add(p)
    untraced.append(p.ns)

    tracer = Tracer()
    networks = layers.install(tracer)
    traced, observed = [], {}
    try:
        for _ in range(workload.TRACE_PASSES):
            workload.reset(state)
            p = workload.run(state, cal)
            totals.add(p)
            traced.append(p.ns)
            observed = p.observed
    finally:
        tracer.unwrap()
    metrics = layers.metrics(tracer, networks, observed)
    spans = len(tracer)
    del tracer, networks

    # Untraced passes after the unwrap must run at untraced cost.
    for _ in range(workload.TRACE_PASSES):
        workload.reset(state)
        p = workload.run(state, cal)
        totals.add(p)
        untraced.append(p.ns)

    base = statistics.median(untraced)
    ratio = statistics.median(traced) / base - 1
    cost = span_cost_ns()
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    metrics["trace.span_cost_ns"] = (cost, "ns")
    info["trace"] = {
        "spans": spans,
        "traced_passes": len(traced),
        "traced_pass_s_median": statistics.median(traced) / 1e9,
        "untraced_pass_s_median": base / 1e9,
        "overhead_ratio": ratio,
        "overhead_base": "median wall time of the untraced passes "
                         "of the same inputs in the same process",
        "span_cost_ns": cost,
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "muacp", "__init__.py")):
        print("bench: src/muacp not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = cases.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fp:
        pins = json.load(fp)["workloads"].get(args.workload, {})

    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        state = _setup(workload, args.seed, setups)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "input_sizes": workload.sizes(state),
        "setup_s_samples": setups,
    }
    totals = Totals()
    cal = Calibrator()
    if args.trace:
        metrics = _traced(workload, state, totals, info, cal)
        wanted = spec["per_layer"]
    else:
        deadline = time.perf_counter() + args.seconds
        last_setup = time.perf_counter()
        while True:
            totals.add(workload.run(state, cal))
            now = time.perf_counter()
            if now >= deadline:
                break
            if now - last_setup >= SETUP_EVERY_S:
                state = None   # let the old inputs go before building anew
                state = _setup(workload, args.seed, setups)
                last_setup = time.perf_counter()
            else:
                workload.reset(state)
        f = cal.factor()
        metrics = _end_to_end(totals, setups, f)
        info["wall_clock"] = {
            k: v for k, (v, _u) in _end_to_end(totals, setups, 1.0).items()}
        info["calibration"] = {
            "factor": f,
            "reference_ns_median": REF_NOMINAL_NS / f,
            "reference_ns_nominal": REF_NOMINAL_NS,
            "samples": len(cal.samples),
        }
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: u for k, (_v, u) in metrics.items()}
    if got != units:
        print(f"bench: metrics {sorted(set(got) ^ set(units))} or their "
              "units differ from BENCHMARK.json", file=sys.stderr)
        return 1

    pin = pins.get(str(args.seed))
    problems = []
    if len(totals.digests) != 1:
        problems.append("passes over the same inputs gave different outputs")
    if pin is not None and totals.first_digest != pin:
        problems.append(f"output digest differs from the pin for seed "
                        f"{args.seed}")
    failed = totals.attempted if problems else totals.failed
    info.update({
        "passes": len(totals.pass_ns),
        "pass_s": {"min": min(totals.pass_ns) / 1e9,
                   "median": statistics.median(totals.pass_ns) / 1e9,
                   "max": max(totals.pass_ns) / 1e9},
        "digest": totals.first_digest,
        "digest_pinned": pin is not None,
        "problems": problems,
        "failed_ratio": failed / totals.attempted,
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": totals.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
