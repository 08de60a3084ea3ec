"""Command line entry points.

    muacp bench-codec    --out DIR [--iterations N] [--seed S]
    muacp sim-consensus  --config FILE --out DIR [--seeds A:B]
    muacp sim-scale      --config FILE --out DIR [--events]
    muacp check-traces   PROTOCOL.json ... [--max-len N] [--out DIR]
    muacp check-bound    DIST.json ... [--out DIR]
    muacp validate       VECTOR.hex ...

Exit codes: 0 success, 1 a check or simulation found a violation,
2 unusable input (missing file, malformed JSON or input file, bad
--seeds, a protocol whose traces outgrow the enumeration cap), as is a
negative seed anywhere (random.Random(-n) would rerun seed n), a
campaign seed named twice, and --iterations or --max-len below 1.  Every
input file, be it a config, protocol, distribution or vector sidecar,
is read by the typed reader in schema.py, and its errors name the
field path.

Every command that takes --out writes a manifest.json naming the run's
inputs, seeds, and outputs.  The manifest (and bench-codec's
timing.json) contain wall-clock data; every other output file is a
pure function of config and seed, byte for byte.  sim-consensus
--log-first writes the first seed's event log, the only run's records
its campaign keeps, so its memory does not grow with its seeds.

The MUACP_TICK_MS environment variable, when set, overrides the config's
tick_ms: how many milliseconds one simulation tick represents in
sim-scale reports (default 1.0).  The config's own rule judges it, as
it judges a tick_ms in the file: positive, and small enough that every
latency in ms stays finite.

Only the codec and the typed reader are imported with this module; each
command imports the layers it runs (consensus, compression, fipa or
workloads) when it starts, so a command compiles nothing it never runs.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import random
import sys
import time
from dataclasses import dataclass, replace

from . import __version__, schema, wire
from .schema import Config, ConfigError


class UsageError(Exception):
    pass


def _with_env_tick_ms(cfg):
    """`cfg` with MUACP_TICK_MS as its tick_ms, if set.  The config's
    own rule judges the value; a refusal is a usage error."""
    raw = os.environ.get("MUACP_TICK_MS")
    if raw is None:
        return cfg
    try:
        return replace(cfg, tick_ms=float(raw))
    except ValueError as e:
        raise UsageError(f"MUACP_TICK_MS={raw!r}: {e}") from e


def _load_config(path: str, cls):
    try:
        return schema.load(path, cls)
    except ConfigError as e:
        raise UsageError(str(e)) from e


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _write_manifest(
    out_dir: str, command: str, argv: list[str], seeds: list[int],
    outputs: list[str],
) -> None:
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "command": command,
            "argv": argv,
            "seeds": seeds,
            "outputs": sorted(outputs),
            "version": __version__,
            "wall_clock_unix": time.time(),
        },
    )


def _csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join("" if v is None else str(v) for v in row) + "\n")


def _parse_seeds(spec: str) -> list[int]:
    """Accept '1,2,3' or 'start:count' naming at least one seed; a
    range is read as a campaign config's `seed_count` is."""
    from .consensus import seed_range

    try:
        if ":" in spec:
            seeds = seed_range(*map(int, spec.split(":", 1)), "--seeds")
        else:
            seeds = [int(s) for s in spec.split(",") if s]
    except ConfigError as e:
        raise UsageError(str(e)) from e
    except ValueError:
        seeds = []
    if not seeds:
        raise UsageError(
            f"--seeds: expected 'a,b,c' or 'start:count' naming at least "
            f"one seed, got {spec!r}"
        )
    return seeds


# -- bench-codec ---------------------------------------------------------------


def _bench_messages(seed: int) -> dict[str, list[wire.Message]]:
    rng = random.Random(seed)
    fixed = {
        "empty_ping": [wire.message(wire.Verb.PING)],
        "tell_one_option": [
            wire.message(
                wire.Verb.TELL,
                options=(wire.Option(wire.OptionType.VALUE, b"\x01" * 9),),
            )
        ],
        "ask_query": [
            wire.message(
                wire.Verb.ASK,
                options=(wire.opt_content_type(wire.CONTENT_LITERAL),),
                payload=b"p(1)",
                correlation_id=7,
            )
        ],
    }
    rand = []
    for _ in range(256):
        options = tuple(
            wire.Option(
                rng.randrange(256),
                bytes(rng.randrange(256) for _ in range(rng.randrange(12))),
            )
            for _ in range(rng.randrange(4))
        )
        rand.append(
            wire.message(
                wire.Verb(rng.randrange(4)),
                qos=rng.randrange(4),
                flags=rng.randrange(4),
                message_id=rng.randrange(1 << 16),
                sequence=rng.randrange(1 << 16),
                correlation_id=rng.randrange(1 << 16),
                options=options,
                payload=bytes(
                    rng.randrange(256) for _ in range(rng.randrange(64))
                ),
            )
        )
    fixed["random_mix"] = rand
    return fixed


def _us_per_call(fn, items, iterations: int) -> float:
    """Mean microseconds of one `fn(item)` over `iterations` passes."""
    t0 = time.perf_counter_ns()
    for _ in range(iterations):
        for item in items:
            fn(item)
    return (time.perf_counter_ns() - t0) / (iterations * len(items)) / 1000.0


def cmd_bench_codec(args, argv) -> int:
    iterations = args.iterations
    if iterations < 1:
        raise UsageError(f"--iterations must be at least 1, got {iterations}")
    try:
        Config.check_seed(args.seed)
    except ValueError as e:
        raise UsageError(f"--seed: {e}") from e
    groups = _bench_messages(args.seed)

    size_rows = []
    for name, msgs in sorted(groups.items()):
        sizes = [m.wire_size for m in msgs]
        size_rows.append(
            [name, len(msgs), round(sum(sizes) / len(sizes), 3),
             min(sizes), max(sizes)]
        )

    encoded = {name: [wire.encode(m) for m in msgs]
               for name, msgs in groups.items()}
    pool = [m for msgs in groups.values() for m in msgs]
    blobs = [b for bs in encoded.values() for b in bs]
    for m, b in zip(pool, blobs):
        if wire.decode(b) != m:
            raise AssertionError("codec roundtrip failure in benchmark pool")

    timing = {
        "messages": len(pool),
        "iterations": iterations,
        "encode_us_mean": _us_per_call(wire.encode, pool, iterations),
        "decode_us_mean": _us_per_call(wire.decode, blobs, iterations),
        "per_class": {
            name: {
                "encode_us": _us_per_call(wire.encode, msgs, iterations),
                "decode_us": _us_per_call(
                    wire.decode, encoded[name], iterations),
            }
            for name, msgs in sorted(groups.items())
        },
    }
    print(
        f"bench-codec: {len(pool)} messages, "
        f"encode {timing['encode_us_mean']:.3f} us, "
        f"decode {timing['decode_us_mean']:.3f} us"
    )
    for row in size_rows:
        t = timing["per_class"][row[0]]
        print(f"  {row[0]}: mean {row[2]} bytes over {row[1]}, "
              f"encode {t['encode_us']:.3f} us, "
              f"decode {t['decode_us']:.3f} us")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _csv(
            os.path.join(args.out, "sizes.csv"),
            ["class", "count", "mean_bytes", "min_bytes", "max_bytes"],
            size_rows,
        )
        _write_json(os.path.join(args.out, "timing.json"), timing)
        _write_manifest(
            args.out, "bench-codec", argv, [args.seed],
            ["sizes.csv", "timing.json"],
        )
    return 0


# -- sim-consensus ---------------------------------------------------------------


def cmd_sim_consensus(args, argv) -> int:
    from .compression import MessageDistribution
    from .consensus import CampaignConfig, run_campaign

    cfg = _load_config(args.config, CampaignConfig)
    if args.seeds is not None:
        seeds = tuple(_parse_seeds(args.seeds))
        try:
            cfg = replace(cfg, seeds=seeds)
        except ValueError as e:
            raise UsageError(f"--seeds: {e}") from e
    note = cfg.base.retry_warning()
    if note:
        print(f"warning: in base, {note}", file=sys.stderr)
    runs, corpus = run_campaign(cfg, collect_corpus=True)

    rows = [run.row() for run in runs]
    unsafe = [r for r in rows if not r["safety_ok"]]
    incomplete = [r for r in rows if not r["all_survivors_decided"]]
    summary = {
        "runs": len(rows),
        "n": cfg.base.n,
        "crash_count": cfg.crash_count,
        "safety_violations": len(unsafe),
        "liveness_misses": len(incomplete),
        "mean_core_messages": round(
            sum(r["core_messages"] for r in rows) / len(rows), 3),
        "seeds": list(cfg.seeds),
    }
    print(
        f"sim-consensus: {summary['runs']} runs at n={summary['n']}, "
        f"{summary['safety_violations']} safety violations, "
        f"{summary['liveness_misses']} liveness misses, "
        f"mean core messages {summary['mean_core_messages']}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _csv(
            os.path.join(args.out, "runs.csv"),
            list(rows[0]),  # a campaign runs at least one seed
            [list(row.values()) for row in rows],
        )
        _write_json(os.path.join(args.out, "summary.json"), summary)
        dist = MessageDistribution.from_counts(corpus)
        _write_json(
            os.path.join(args.out, "corpus_dist.json"), dist.to_json()
        )
        outputs = ["runs.csv", "summary.json", "corpus_dist.json"]
        if args.log_first:
            runs[0].outcome.log.write_jsonl(
                os.path.join(args.out, "events_first_seed.jsonl")
            )
            outputs.append("events_first_seed.jsonl")
        _write_manifest(
            args.out, "sim-consensus", argv, list(cfg.seeds), outputs
        )
    return 0 if not unsafe else 1


# -- sim-scale -------------------------------------------------------------------


def cmd_sim_scale(args, argv) -> int:
    from .workloads import ScaleConfig, run_scale

    cfg = _load_config(args.config, ScaleConfig)
    cfg = _with_env_tick_ms(cfg)
    report, net = run_scale(cfg, events=args.events)
    summary = report.to_json()
    clean = summary["workload"]["clean"]
    lat = summary["metrics"]["latency_ticks"]
    print(
        f"sim-scale: n={cfg.n}, {summary['metrics']['sends']} sends, "
        f"max queue depth {summary['metrics']['max_queue_depth']}, "
        f"p99 latency {lat['p99']} ticks, "
        f"workload {'clean' if clean else 'INCOMPLETE'}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "report.json"), summary)
        with open(
            os.path.join(args.out, "gauges.csv"), "w", encoding="utf-8"
        ) as fp:
            fp.write(report.metrics.gauges_csv())
        outputs = ["report.json", "gauges.csv"]
        if args.events:
            net.log.write_jsonl(os.path.join(args.out, "events.jsonl"))
            outputs.append("events.jsonl")
        _write_manifest(
            args.out, "sim-scale", argv, [cfg.seed, cfg.sim.seed], outputs
        )
    return 0 if clean else 1


# -- check-traces ----------------------------------------------------------------


def _trace_failure(result) -> dict:
    return {"failed_at": result.failed_at, "reason": result.reason}


def cmd_check_traces(args, argv) -> int:
    from .fipa import (
        ConversationAutomaton,
        TooLarge,
        check_trace_inclusion,
        procedural_bound_check,
    )

    if args.max_len < 1:
        raise UsageError(f"--max-len must be at least 1, got {args.max_len}")
    results = []
    ok = True
    for path in args.protocols:
        auto = _load_config(path, ConversationAutomaton)
        try:
            inclusion = check_trace_inclusion(auto, max_len=args.max_len)
            bound = procedural_bound_check(auto)
        except TooLarge as e:
            raise UsageError(f"{path}: {e}") from e
        entry = {
            "protocol": auto.name,
            "path": path,
            "traces": inclusion.traces_checked,
            "covered": inclusion.covered,
            "uncovered": [_trace_failure(u) for u in inclusion.uncovered],
            "states": bound.state_count,
            "max_semantic_messages": bound.max_semantic_messages,
            "bound_ok": bound.ok,
        }
        note = ""
        if bound.failed is not None:
            failed = entry["bound_failed"] = _trace_failure(bound.failed)
            note = (f" (an accepting run fails at step "
                    f"{failed['failed_at']}: {failed['reason']})")
        results.append(entry)
        line_ok = inclusion.ok and bound.ok
        ok = ok and line_ok
        print(
            f"check-traces: {auto.name}: {inclusion.covered}/"
            f"{inclusion.traces_checked} traces covered to length "
            f"{args.max_len}, bound {bound.max_semantic_messages}<="
            f"{bound.state_count}: {'ok' if line_ok else 'FAIL'}{note}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "traces.json"), results)
        _write_manifest(args.out, "check-traces", argv, [], ["traces.json"])
    return 0 if ok else 1


# -- check-bound -----------------------------------------------------------------


def cmd_check_bound(args, argv) -> int:
    from .compression import MessageDistribution, check_bound

    reports = []
    ok = True
    for path in args.distributions:
        dist = _load_config(path, MessageDistribution)
        rep = check_bound(dist)
        reports.append({"path": path, **rep.to_json()})
        ok = ok and rep.ok
        print(
            f"check-bound: {path}: expected {rep.expected_total_bits:.6f} "
            f"bits <= bound {rep.bound_bits:.6f}: "
            f"{'ok' if rep.ok else 'FAIL'}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "bounds.json"), reports)
        _write_manifest(args.out, "check-bound", argv, [], ["bounds.json"])
    return 0 if ok else 1


# -- validate --------------------------------------------------------------------


class Expect(enum.Enum):
    OK = "ok"
    ERROR = "error"


@dataclass(frozen=True, kw_only=True)
class Sidecar(Config):
    """What a vector's `.json` sidecar pins: the fields of the decoded
    message (in their JSON form, a verb by name and bytes as hex), or
    under `expect: error` the name of the WireError decoding raises
    (any, when `error` is empty or absent)."""

    correlation_id: int | None = None
    error: str | None = None
    expect: Expect = Expect.OK
    flags: int | None = None
    message_id: int | None = None
    options: tuple[tuple[int, bytes], ...] | None = None
    payload_hex: bytes | None = None
    qos: int | None = None
    sequence: int | None = None
    size: int | None = None
    verb: wire.Verb | None = None

    def __post_init__(self) -> None:
        pinned = [k for k, v in self.to_json().items()
                  if v is not None and k not in ("expect", "error")]
        if self.expect is Expect.ERROR and pinned:
            raise ValueError(f"{pinned[0]}: not checked under expect: error")
        if self.expect is Expect.OK and self.error is not None:
            raise ValueError("error: not checked under expect: ok")


def cmd_validate(args, argv) -> int:
    ok = True
    for path in args.vectors:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                blob = bytes.fromhex("".join(fp.read().split()))
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read {path}: {e}") from e
        sidecar = os.path.splitext(path)[0] + ".json"
        expect = (_load_config(sidecar, Sidecar)
                  if os.path.exists(sidecar) else None)
        error = error_name = msg = None
        try:
            msg = wire.decode(blob)
        except wire.WireError as e:
            error, error_name = e, type(e).__name__

        if expect is None:
            status = "well-formed" if error is None else (
                f"malformed: [{error.clause}] {error}")
            print(f"validate: {path}: {status}")
            ok = ok and error is None
            continue

        failures = []
        if expect.expect is Expect.ERROR:
            if error_name is None:
                failures.append("decoded but an error was expected")
            elif expect.error and expect.error != error_name:
                failures.append(
                    f"raised {error_name}, expected {expect.error}"
                )
        elif error_name is not None:
            failures.append(f"failed to decode: {error_name}")
        else:
            # The decoded message in the sidecar's JSON form.
            checks = {**msg.header._asdict(), "verb": msg.header.verb.name,
                      "payload_hex": msg.payload.hex(),
                      "options": [[o.code, o.value.hex()]
                                  for o in msg.options],
                      "size": msg.wire_size}
            for key, expected in expect.to_json().items():
                if (key in checks and expected is not None
                        and checks[key] != expected):
                    failures.append(
                        f"{key}: got {checks[key]!r}, expected {expected!r}"
                    )
        if failures:
            ok = False
            print(f"validate: {path}: FAIL ({'; '.join(failures)})")
        else:
            print(f"validate: {path}: ok")
    return 0 if ok else 1


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muacp",
        description="four-verb agent messaging toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-codec", help="size and speed of the codec")
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench_codec)

    p = sub.add_parser("sim-consensus", help="seeded decree campaigns")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", help="override: 'a,b,c' or 'start:count'")
    p.add_argument("--out")
    p.add_argument(
        "--log-first", action="store_true",
        help="also write the first seed's full event log",
    )
    p.set_defaults(fn=cmd_sim_consensus)

    p = sub.add_parser("sim-scale", help="mixed-workload scaling run")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument(
        "--events", action="store_true", help="also write the event log"
    )
    p.set_defaults(fn=cmd_sim_scale)

    p = sub.add_parser("check-traces", help="protocol trace inclusion")
    p.add_argument("protocols", nargs="+", metavar="PROTOCOL.json")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check_traces)

    p = sub.add_parser("check-bound", help="entropy bound on distributions")
    p.add_argument("distributions", nargs="+", metavar="DIST.json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check_bound)

    p = sub.add_parser("validate", help="check wire vectors")
    p.add_argument("vectors", nargs="+", metavar="VECTOR.hex")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, list(argv))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
