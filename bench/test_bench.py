"""Tests of the benchmark's own arithmetic and of its tracer.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import math
import os
import sys
import types
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import REF_NOMINAL_NS, Calibrator  # noqa: E402
from percentile import nearest_rank  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


# -- nearest rank ------------------------------------------------------------


@pytest.mark.parametrize("percent", [1, 5, 50, 95, 98, 99, 100])
def test_nearest_rank_matches_exact_oracle(percent):
    for n in range(1, 3001):
        values = range(1, n + 1)
        rank = math.ceil(Fraction(percent, 100) * n)
        assert nearest_rank(values, percent) == rank, n


def test_nearest_rank_where_float_truncation_is_off_by_one():
    # ceil(0.99 * 2099) = ceil(2078.01) = 2079, but the float product
    # 0.99 * 2099 * 100 is 207800.99999999997, so truncating it first
    # lands one rank low.
    n = 2099
    assert -(-int(0.99 * n * 100) // 100) == 2078
    assert nearest_rank(range(1, n + 1), 99) == 2079


def test_nearest_rank_edges():
    assert nearest_rank([7], 1) == 7
    assert nearest_rank([7], 100) == 7
    assert nearest_rank([1, 2], 50) == 1
    assert nearest_rank([1, 2], 51) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1], 0)
    with pytest.raises(ValueError):
        nearest_rank([1], 101)
    with pytest.raises(TypeError):
        nearest_rank([1], 50.0)


# -- self time ----------------------------------------------------------------


def test_self_time_nested_spans():
    # a [0, 100) contains b [10, 60) contains c [20, 30)
    parent = [-1, 0, 1]
    start = [0, 10, 20]
    end = [100, 60, 30]
    assert list(self_times(parent, start, end)) == [50, 40, 10]


def test_self_time_sibling_spans():
    # a [0, 100) contains siblings b [10, 30) and c [40, 70); d is a
    # second root
    parent = [-1, 0, 0, -1]
    start = [0, 10, 40, 200]
    end = [100, 30, 70, 205]
    assert list(self_times(parent, start, end)) == [50, 20, 30, 5]


def test_self_time_sums_to_root_duration():
    parent = [-1, 0, 1, 1, 0, 4]
    start = [0, 5, 6, 9, 20, 21]
    end = [50, 15, 8, 14, 40, 39]
    selfs = self_times(parent, start, end)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == end[0] - start[0]


# -- tracer --------------------------------------------------------------------


def _space():
    space = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return space.leaf(x) + space.leaf(x)

    def boom():
        raise KeyError("boom")

    space.leaf, space.outer, space.boom = leaf, outer, boom
    return space


def test_tracer_records_parents_and_restores_attributes():
    space = _space()
    before = dict(vars(space))
    tracer = Tracer()
    tracer.wrap(space, "leaf", "leaf")
    tracer.wrap(space, "outer", "outer")
    assert space.outer(1) == 4
    tracer.unwrap()
    assert vars(space) == before
    assert all(vars(space)[k] is v for k, v in before.items())

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["outer", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    per = tracer.per_name()
    assert per["outer"][0] == 1 and per["leaf"][0] == 2
    calls, self_ns, incl_ns = per["outer"]
    assert 0 <= self_ns <= incl_ns
    assert incl_ns == self_ns + per["leaf"][2]


def test_tracer_closes_span_and_reports_exception():
    space = _space()
    seen = []
    tracer = Tracer()
    tracer.wrap(space, "boom", "boom",
                after=lambda args, result, exc, token: seen.append(exc))
    with pytest.raises(KeyError):
        space.boom()
    tracer.unwrap()
    assert isinstance(seen[0], KeyError)
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._open == [-1]


def test_wrap_function_patches_every_binding():
    a = types.ModuleType("a")
    b = types.ModuleType("b")

    def f():
        return 1

    a.f = f
    b.alias = f   # like `from a import f as alias`
    tracer = Tracer()
    tracer.wrap_function(f, [a, b], "f")
    assert a.f is not f and b.alias is not f
    a.f()
    b.alias()
    tracer.unwrap()
    assert a.f is f and b.alias is f
    assert tracer.per_name()["f"][0] == 2


def test_contains_marks_ancestors():
    tracer = Tracer()
    for name, parent in (("step", -1), ("tick", 0), ("send", 1),
                         ("tick", 0), ("other", 3)):
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.start.append(0)
        tracer.end.append(0)
    assert list(tracer.contains("send")) == [1, 1, 1, 0, 0]
    assert list(tracer.contains("absent")) == [0, 0, 0, 0, 0]


# -- calibration ----------------------------------------------------------------


def test_calibrator_samples_at_most_once_per_interval():
    cal = Calibrator()
    cal.maybe()
    cal.maybe()   # within EVERY_NS of the first sample
    assert len(cal.samples) == 1 and cal.samples[0] > 0


def test_calibration_factor_is_nominal_over_median():
    cal = Calibrator()
    cal.samples = [REF_NOMINAL_NS, 4 * REF_NOMINAL_NS, 2 * REF_NOMINAL_NS]
    assert cal.factor() == 0.5
