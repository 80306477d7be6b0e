"""Per-window acoustic levels: peak SPL, SEL, equivalent level, cumulative SEL.

All levels are referenced to 1 micropascal.  Energy integrals use the
rectangle rule sum(p_i^2) * dt over the window's samples, which keeps the
SEL / L_EQ duality exact: leq == sel - 10*log10(T / 1 s) by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MeasureError
from .signal_io import SampleBuffer


def _check_window(window: SampleBuffer) -> None:
    if len(window) == 0:
        raise MeasureError("empty window")


def window_energy(window: SampleBuffer) -> float:
    """Integrated squared pressure over the window, in uPa^2 s."""
    _check_window(window)
    x = window.samples
    # einsum reduces in-thread; np.dot hands long windows to BLAS threads
    return float(np.einsum("i,i->", x, x)) / window.sample_rate_hz


def spl(window: SampleBuffer) -> float:
    """Peak sound pressure level over the window, dB re 1 uPa."""
    _check_window(window)
    peak = float(np.max(np.abs(window.samples)))
    if peak == 0.0:
        raise MeasureError("all-zero window has no sound pressure level")
    return 20.0 * math.log10(peak)


def sel(window: SampleBuffer) -> float:
    """Sound exposure level, dB re 1 uPa^2 s."""
    energy = window_energy(window)
    if energy == 0.0:
        raise MeasureError("all-zero window has no sound exposure level")
    return 10.0 * math.log10(energy)


def leq(window: SampleBuffer) -> float:
    """Equivalent continuous level: sel normalized by the window duration."""
    return sel(window) - 10.0 * math.log10(window.duration_s)


class PeakMeasures(NamedTuple):
    """Extremes of one window: times, linear pressures, and dB magnitudes."""

    t_pos_s: float
    p_pos_upa: float
    p_pos_db: float
    t_neg_s: float
    p_neg_upa: float
    p_neg_db: float

    @property
    def p_pp_db(self) -> float:
        """Peak-to-peak level, dB re 1 uPa."""
        span = self.p_pos_upa - self.p_neg_upa
        if span <= 0.0:
            return -math.inf  # constant window; only reachable on degenerate input
        return 20.0 * math.log10(span)


def measure_peaks(window: SampleBuffer) -> PeakMeasures:
    """Locate the positive and negative pressure extremes of a window.

    Ties resolve to the earliest sample.  dB values are 20*log10(|p| / 1 uPa)
    and go to -inf for an extreme that is exactly zero; an all-zero window is
    an error.
    """
    _check_window(window)
    x = window.samples
    if not np.any(x):
        raise MeasureError("all-zero window has no peaks")
    i_pos = int(np.argmax(x))
    i_neg = int(np.argmin(x))
    p_pos = float(x[i_pos])
    p_neg = float(x[i_neg])
    with np.errstate(divide="ignore"):
        db_pos = float(20.0 * np.log10(abs(p_pos))) if p_pos != 0.0 else -math.inf
        db_neg = float(20.0 * np.log10(abs(p_neg))) if p_neg != 0.0 else -math.inf
    return PeakMeasures(
        t_pos_s=window.time_at(i_pos),
        p_pos_upa=p_pos,
        p_pos_db=db_pos,
        t_neg_s=window.time_at(i_neg),
        p_neg_upa=p_neg,
        p_neg_db=db_neg,
    )


@dataclass(frozen=True)
class CselAccumulator:
    """Running cumulative sound exposure over a pulse sequence.

    Accumulates linear energy (uPa^2 s); the dB value is taken of the sum.
    """

    energy_upa2s: float = 0.0
    n_windows: int = 0

    @property
    def csel_db(self) -> float:
        if self.energy_upa2s <= 0.0:
            raise MeasureError("no energy accumulated yet")
        return 10.0 * math.log10(self.energy_upa2s)


def csel_update(acc: CselAccumulator, window: SampleBuffer) -> tuple[CselAccumulator, float | None]:
    """Fold one window into the accumulator.

    Returns the advanced accumulator and the cumulative level after the
    update, or None while the accumulated energy is still zero.  A zero-energy
    window is a counted no-op on the energy sum.
    """
    return csel_add(acc, window_energy(window))


def csel_add(acc: CselAccumulator, energy_upa2s: float) -> tuple[CselAccumulator, float | None]:
    """Fold one already-measured window energy into the accumulator (see csel_update)."""
    nxt = CselAccumulator(acc.energy_upa2s + energy_upa2s, acc.n_windows + 1)
    if nxt.energy_upa2s <= 0.0:
        return nxt, None
    return nxt, nxt.csel_db


def csel_of_levels(sel_dbs: np.ndarray | list[float]) -> float:
    """Cumulative level of already-measured per-window SELs (energy sum in dB)."""
    arr = np.asarray(sel_dbs, dtype=np.float64)
    if arr.size == 0:
        raise MeasureError("no levels to accumulate")
    return float(10.0 * np.log10(np.sum(10.0 ** (arr / 10.0))))
