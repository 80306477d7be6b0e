"""Energy-based early window bounds and the late window ladder.

The early window of a pulse spans the 5th to 95th percentile of cumulative
squared-pressure over its search window, so it holds 90% of the measured
pulse energy while staying robust to where the excursion tails off.  After
it, up to ten consecutive one-second windows track the late-time field; a
late window only counts if it ends before the next pulse's early window
starts (or before the data ends, for the last pulse), so the valid ones are
the first few: late_window_count counts them.  Bounds and windows are global
sample indices; seconds are left to record assembly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import MeasureError

LOW_FRACTION = 0.05
HIGH_FRACTION = 0.95
LATE_WINDOW_S = 1.0
LATE_WINDOW_COUNT = 10
ENERGY_BLOCK = 2**16  # samples squared and summed at a time by energy_bounds, 0.5 MB


class EnergyBounds(NamedTuple):
    """Global sample indices of the 5%/95% cumulative-energy samples of a window."""

    i5: int
    i95: int


def energy_bounds(samples: np.ndarray, start: int = 0) -> EnergyBounds:
    """Find the first samples reaching 5% and 95% of the window's energy.

    ``samples`` is a window whose first sample has global index ``start``.
    Cumulative energy is the rectangle-rule running sum of squared samples;
    each bound is the earliest sample whose cumulative share reaches or
    exceeds its fraction.  The bounds coincide only when one sample carries
    essentially all the energy.  A window of no energy, all zero or empty,
    is an error.

    The sum runs in blocks of ENERGY_BLOCK samples, each one's first square added to
    the sum before it; ``np.cumsum`` adds left to right, so it is the whole window's.
    """
    n = len(samples)
    energy = np.empty(min(n, ENERGY_BLOCK))
    sums = [0.0]  # the running sum before each block, and the total

    def running_sum(b0: int) -> np.ndarray:  # over the block from sample b0, in ``energy``
        block = np.square(samples[b0 : b0 + ENERGY_BLOCK], out=energy[: min(ENERGY_BLOCK, n - b0)])
        block[0] += sums[b0 // ENERGY_BLOCK]
        return np.cumsum(block, out=block)

    for b0 in range(0, n, ENERGY_BLOCK):
        block = running_sum(b0)
        sums.append(block[-1])
    total = sums[-1]
    if total <= 0.0:
        raise MeasureError("all-zero window has no energy bounds")
    bounds = []
    for level in (LOW_FRACTION * total, HIGH_FRACTION * total):
        k = ENERGY_BLOCK * int(np.searchsorted(sums[1:], level, side="left"))
        if k != b0:  # ``block`` holds the block from b0
            block, b0 = running_sum(k), k
        bounds.append(start + b0 + int(np.searchsorted(block, level, side="left")))
    return EnergyBounds(*bounds)


def late_window_count(i95: int, limit: int, w: int) -> int:
    """Late windows of one pulse that end by ``limit``.

    Window k (k = 0..LATE_WINDOW_COUNT-1) spans samples [i95 + k*w,
    i95 + (k+1)*w).  It is valid when it ends at or before ``limit``: the
    next pulse's 5% bound, or the sample count of the stream for the last
    pulse.  Validity is a prefix of the ladder, so it is one count.  A
    late window holds ``w = round(LATE_WINDOW_S * fs) >= 1`` samples, as
    the reader admits no rate below 1 Hz.
    """
    return min(LATE_WINDOW_COUNT, max(0, (limit - i95) // w))
