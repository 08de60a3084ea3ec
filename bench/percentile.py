"""Exact nearest-rank percentiles.

The rank is ceil(percent * n / 100), computed in integer arithmetic, so
it never depends on how a float product happens to round (Hyndman and
Fan, "Sample Quantiles in Statistical Packages", 1996, definition 1).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def nearest_rank(sorted_values: Sequence[T], percent: int) -> T:
    """The nearest-rank `percent`-th percentile of an ascending sequence.

    `percent` is a whole number in 1..100; the result is always one of
    the values, the one at 1-based rank ceil(percent * n / 100).
    """
    if isinstance(percent, bool) or not isinstance(percent, int):
        raise TypeError("percent must be an int")
    if not 1 <= percent <= 100:
        raise ValueError(f"percent {percent} not in 1..100")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no values")
    return sorted_values[-(-percent * n // 100) - 1]
