"""The tail percentile the benchmark reports beside each median."""

from __future__ import annotations

import math
from typing import Sequence

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], worse: str = "high") -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten samples beyond it.

    Percentiles are nearest-rank, counted from the good end: with
    ``worse="high"`` (a time) the tail is the largest values, with
    ``worse="low"`` (a rate) the smallest.  Returns (percentile, value), or
    None when fewer than 20 samples leave ten beyond even the median.
    """
    if worse not in ("high", "low"):
        raise ValueError("worse must be 'high' or 'low'")
    ordered = sorted(values, reverse=(worse == "low"))
    n = len(ordered)
    best = None
    for p in PERCENTILE_LADDER:
        rank = math.ceil(round(p * n / 100.0, 9))  # round: 99.9 * 10_000 / 100 is not exact
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best

