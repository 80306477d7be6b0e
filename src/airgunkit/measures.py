"""Acoustic levels of measured windows: peak SPL, SEL, equivalent level, cumulative SEL.

All levels are referenced to 1 micropascal.  Energy integrals use the
rectangle rule sum(p_i^2) * dt over the window's samples, which keeps the
SEL / L_EQ duality exact: leq == sel - 10*log10(T / 1 s) by construction.
Windows of one length are measured together, as the rows of one 2-D array.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import MeasureError


def window_energy(x: np.ndarray, sample_rate_hz: float) -> float:
    """Integrated squared pressure over one window's samples, in uPa^2 s."""
    # einsum reduces in-thread; np.dot hands long windows to BLAS threads
    return float(np.einsum("i,i->", x, x)) / sample_rate_hz


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


def ladder_levels(rows: np.ndarray, sample_rate_hz: float, running: list[float],
                  slot: int = 0) -> list[Levels]:
    """Measure windows of one length, the rows of ``rows``, in row order.

    Row k adds its energy to the running cumulative sum ``running[slot + k]``,
    and its csel_db is the level of that sum after it: a zero-energy window
    carries the running level and has None for its own SPL/SEL/L_EQ, and
    csel_db is None while the sum is still zero.  Each energy is its own 1-D
    ``window_energy`` call, since a batched sum is not bit-equal to it.
    """
    n, w = rows.shape
    if w == 0:
        raise MeasureError("empty window")
    peaks = np.maximum(rows.max(axis=1), -rows.min(axis=1)).tolist()  # max |x|, without a |x| temporary
    leq_offset_db = 10.0 * math.log10(w / sample_rate_hz)
    levels = []
    for k in range(n):
        energy = window_energy(rows[k], sample_rate_hz)
        sel_db = energy_db(energy)
        running[slot + k] += energy
        levels.append(Levels(pressure_db(peaks[k]), sel_db, None if sel_db is None else sel_db - leq_offset_db,
                             energy_db(running[slot + k])))
    return levels


NA = "NA"


def format_db(v: float | None) -> str:
    """One dB cell at micro-dB; a level that does not exist or is not finite is NA."""
    return f"{v:.6f}" if v is not None and math.isfinite(v) else NA
