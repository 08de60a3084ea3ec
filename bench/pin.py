"""Recompute the output digests pinned in bench/digests.json.

    python3 bench/pin.py

Runs one pass of every workload for each pinned seed and writes the
digest of its outputs.  Pins are the benchmark's record of what the
program computes; regenerate them only for a change that is meant to
alter a seeded output, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SEEDS = range(0, 21)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cases

    pins = {}
    for name, workload in cases.WORKLOADS.items():
        pins[name] = {}
        for seed in SEEDS:
            p = workload.run(workload.setup(ROOT, seed))
            if p.failed:
                print(f"pin: {name} seed {seed}: {p.failed} of "
                      f"{p.attempted} operations failed", file=sys.stderr)
                return 1
            pins[name][str(seed)] = p.digest
            print(f"{name} {seed} {p.digest}", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fp:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": pins}, fp,
                  indent=2, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
