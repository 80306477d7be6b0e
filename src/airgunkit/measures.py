"""Per-window acoustic levels: peak SPL, SEL, equivalent level, cumulative SEL.

All levels are referenced to 1 micropascal.  Energy integrals use the
rectangle rule sum(p_i^2) * dt over the window's samples, which keeps the
SEL / L_EQ duality exact: leq == sel - 10*log10(T / 1 s) by construction.
"""

from __future__ import annotations

import math
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


def energy_db(energy_upa2s: float) -> float | None:
    """Level of an energy, dB re 1 uPa^2 s; None when there is no energy."""
    return 10.0 * math.log10(energy_upa2s) if energy_upa2s > 0.0 else None


def pressure_db(p: float) -> float | None:
    """Level of a pressure, 20*log10(|p| / 1 uPa); None when the pressure is zero."""
    return 20.0 * math.log10(abs(p)) if p != 0.0 else None


class Levels(NamedTuple):
    """SPL/SEL/L_EQ/CSEL of one window; None marks a level that cannot exist."""

    spl_db: float | None
    sel_db: float | None
    leq_db: float | None
    csel_db: float | None


def window_levels(window: SampleBuffer, running_upa2s: float = 0.0) -> tuple[Levels, float]:
    """Measure one window and add its energy to a running cumulative sum.

    Returns the window's levels and the running sum after it.  csel_db is
    the level of that sum, so a zero-energy window carries the running level
    and has None for its own SPL/SEL/L_EQ; csel_db is None while the sum is
    still zero.
    """
    energy = window_energy(window)
    x = window.samples
    peak = float(max(x.max(), -x.min()))  # max |x|, without a |x| temporary
    sel_db = energy_db(energy)
    running_upa2s += energy
    return Levels(
        pressure_db(peak),
        sel_db,
        None if sel_db is None else sel_db - 10.0 * math.log10(window.duration_s),
        energy_db(running_upa2s),
    ), running_upa2s


NA = "NA"


def format_db(v: float | None) -> str:
    """One dB cell at micro-dB; a level that does not exist or is not finite is NA."""
    return f"{v:.6f}" if v is not None and math.isfinite(v) else NA


class PeakMeasures(NamedTuple):
    """Extremes of one window: global sample indices and linear pressures.

    Their levels are ``pressure_db`` of the pressures, taken where they are written.
    """

    pos_index: int
    p_pos_upa: float
    neg_index: int
    p_neg_upa: float


def measure_peaks(window: SampleBuffer) -> PeakMeasures:
    """Locate the positive and negative pressure extremes of a window.

    Ties resolve to the earliest sample; an all-zero window is an error.
    """
    _check_window(window)
    x = window.samples
    if not np.any(x):
        raise MeasureError("all-zero window has no peaks")
    i_pos = int(np.argmax(x))
    i_neg = int(np.argmin(x))
    a = window.start_index
    return PeakMeasures(a + i_pos, float(x[i_pos]), a + i_neg, float(x[i_neg]))
