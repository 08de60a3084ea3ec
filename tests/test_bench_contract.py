"""The benchmark's contract with the program: every workload in
`bench/cases.py` still computes its pinned digest at the default seed,
and every program function the traced run wraps still exists.  These
read `bench/` and change nothing there."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import cases  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

PINS = json.loads((ROOT / "bench" / "digests.json").read_text())


class _NoCalibration:
    def maybe(self) -> None:
        pass


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_a_workload_pass_matches_its_pin(name):
    workload = cases.WORKLOADS[name]
    seed = PINS["default_seed"]
    p = workload.run(workload.setup(str(ROOT), seed), _NoCalibration())
    assert (p.digest, p.failed) == (PINS["workloads"][name][str(seed)], 0)


def test_the_tracer_finds_every_function_it_wraps():
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.unwrap()
