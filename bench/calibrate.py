"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same pass runs up to about 1.5x faster or
slower for stretches of seconds to minutes, and CPU time changes with
wall time, so neither more passes nor CPU clocks remove the drift.  A
fixed reference loop, timed at short intervals throughout a run,
speeds up and slows down with it.  Every time the benchmark reports is
therefore multiplied by REF_NOMINAL_NS over the median reference time
of the same run: it is stated in seconds of a machine that runs the
reference in REF_NOMINAL_NS.  The plain wall-clock values are reported
beside them.

The reference is stdlib-only and shares no code with the program, so a
change to the program cannot change it.  It mixes the kinds of work the
program does: exact rational arithmetic, validated frozen dataclasses,
struct packing, dict updates and small sorts.  It runs with the cyclic
garbage collector off, so the size of the program's heap does not slow
it.
"""

from __future__ import annotations

import gc
import statistics
import struct
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns

# About the median reference time on the machine the benchmark was
# built on; it only sets the scale of the calibrated numbers.
REF_NOMINAL_NS = 2_500_000
EVERY_NS = 100_000_000        # least time between two reference samples
_LOOPS = 200
_HEADER = struct.Struct(">BBHHH")


@dataclass(frozen=True)
class _Pair:
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError("negative")


def reference() -> int:
    """Wall time of one fixed piece of reference work, in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        acc = _Pair(Fraction(0), Fraction(0))
        counts: dict[int, int] = {}
        for i in range(_LOOPS):
            acc = _Pair(acc.a + Fraction(i % 7 + 1, 3), acc.b + Fraction(5, 7))
            fields = _HEADER.unpack(_HEADER.pack(i & 0xFF, 1, i, i, i))
            counts[fields[2] & 63] = counts.get(fields[2] & 63, 0) + 1
            sorted((i, -i, 3))
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Reference samples taken at least EVERY_NS apart.

    Workloads call `maybe` only between the intervals they time, so the
    reference never runs inside a timed interval.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._due = 0

    def maybe(self) -> None:
        if perf_counter_ns() >= self._due:
            self.samples.append(reference())
            self._due = perf_counter_ns() + EVERY_NS

    def factor(self) -> float:
        """Multiply a wall time by this to calibrate it."""
        return REF_NOMINAL_NS / statistics.median(self.samples)
