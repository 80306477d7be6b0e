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

from dataclasses import dataclass

import numpy as np

from .errors import MeasureError

LOW_FRACTION = 0.05
HIGH_FRACTION = 0.95
LATE_WINDOW_S = 1.0
LATE_WINDOW_COUNT = 10


@dataclass(frozen=True)
class EnergyBounds:
    """Global sample indices of the 5%/95% cumulative-energy samples of a window."""

    i5: int
    i95: int

    def __post_init__(self) -> None:
        if self.i5 > self.i95:
            raise MeasureError("energy bounds out of order")


def energy_bounds(samples: np.ndarray, start: int = 0) -> EnergyBounds:
    """Find the first samples reaching 5% and 95% of the window's energy.

    ``samples`` is a window whose first sample has global index ``start``.
    Cumulative energy is the rectangle-rule running sum of squared samples;
    each bound is the earliest sample whose cumulative share reaches or
    exceeds its fraction.  The bounds coincide only when one sample carries
    essentially all the energy.  All-zero windows are an error.
    """
    if len(samples) == 0:
        raise MeasureError("empty window")
    energy = np.square(samples)
    np.cumsum(energy, out=energy)
    total = energy[-1]
    if total <= 0.0:
        raise MeasureError("all-zero window has no energy bounds")
    i_lo = int(np.searchsorted(energy, LOW_FRACTION * total, side="left"))
    i_hi = int(np.searchsorted(energy, HIGH_FRACTION * total, side="left"))
    return EnergyBounds(start + i_lo, start + i_hi)


def late_window_count(i95: int, limit: int, w: int) -> int:
    """Late windows of one pulse that end by ``limit``.

    Window k (k = 0..LATE_WINDOW_COUNT-1) spans samples [i95 + k*w,
    i95 + (k+1)*w).  It is valid when it ends at or before ``limit``: the
    next pulse's 5% bound, or the sample count of the stream for the last
    pulse.  Validity is a prefix of the ladder, so it is one count.
    """
    if w < 1:
        raise ValueError("late window must hold at least one sample")
    return min(LATE_WINDOW_COUNT, max(0, (limit - i95) // w))
