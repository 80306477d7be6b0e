"""Marine mammal weighting bands as causal streaming filters.

Three bands: a flat pass-through and two functional-hearing-group bandpasses
(low-frequency and mid-frequency cetaceans).  Band edges are realized as a
4th-order Butterworth high-pass cascaded with a 4th-order Butterworth
low-pass, -3 dB at each cutoff, applied causally in second-order sections so
state can be carried across chunk boundaries.  The low-pass stage is dropped
when the upper edge reaches 0.95x Nyquist: at typical recorder rates the
mid-frequency band upper edge (160 kHz) is far above Nyquist and the band
degenerates to its high-pass edge alone.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, replace

import numpy as np
from scipy import signal

from .errors import FilterDesignError
from .signal_io import SampleBuffer

EDGE_ORDER = 4
NYQUIST_GUARD = 0.95


class WeightingKind(enum.Enum):
    LINEAR = "linear"
    LFC = "lfc"
    MFC = "mfc"


# (f_lo_hz, f_hi_hz) band edges; None = flat
BAND_EDGES: dict[WeightingKind, tuple[float, float] | None] = {
    WeightingKind.LINEAR: None,
    WeightingKind.LFC: (7.0, 22_000.0),
    WeightingKind.MFC: (150.0, 160_000.0),
}

# canonical output order used everywhere weightings are enumerated
CANONICAL_ORDER = (WeightingKind.LINEAR, WeightingKind.LFC, WeightingKind.MFC)


def parse_kind(name: str) -> WeightingKind:
    try:
        return WeightingKind(name.strip().lower())
    except ValueError:
        raise FilterDesignError(f"unknown weighting {name!r}") from None


@dataclass(frozen=True)
class WeightingSpec:
    kind: WeightingKind

    @property
    def band_hz(self) -> tuple[float, float] | None:
        return BAND_EDGES[self.kind]


@dataclass(frozen=True)
class FilterState:
    """Designed filter plus streaming state for one (weighting, rate) pair.

    ``sos`` is None for the flat band (identity).  ``zi`` carries the section
    states between apply_filter calls, so feeding a signal chunk by chunk
    produces bit-identical output to feeding it whole.
    """

    spec: WeightingSpec
    sample_rate_hz: float
    sos: np.ndarray | None
    zi: np.ndarray | None


def design_filter(spec: WeightingSpec, sample_rate_hz: float) -> FilterState:
    """Design the band for one sample rate and return fresh streaming state."""
    if sample_rate_hz <= 0:
        raise FilterDesignError("sample rate must be positive")
    band = spec.band_hz
    if band is None:
        return FilterState(spec, sample_rate_hz, None, None)

    f_lo, f_hi = band
    nyq = sample_rate_hz / 2.0
    if f_lo >= nyq:
        raise FilterDesignError(
            f"{spec.kind.value}: lower edge {f_lo} Hz at or above Nyquist {nyq} Hz"
        )
    sections = [signal.butter(EDGE_ORDER, f_lo, "highpass", fs=sample_rate_hz, output="sos")]
    if f_hi < NYQUIST_GUARD * nyq:
        sections.append(signal.butter(EDGE_ORDER, f_hi, "lowpass", fs=sample_rate_hz, output="sos"))
    sos = np.vstack(sections)

    for row in sos:  # every biquad must be stable on its own
        poles = np.roots([1.0, row[4], row[5]])
        if np.any(np.abs(poles) >= 1.0):
            raise FilterDesignError(
                f"{spec.kind.value}: unstable section at fs={sample_rate_hz} Hz"
            )
    zi = np.zeros((sos.shape[0], 2))
    return FilterState(spec, sample_rate_hz, sos, zi)


def apply_filter(state: FilterState, buffer: SampleBuffer) -> tuple[FilterState, SampleBuffer]:
    """Filter one chunk causally; returns advanced state and the filtered chunk.

    The flat band returns the buffer unchanged (same sample values, zero
    delay).  Chunks must be fed in stream order.
    """
    if buffer.sample_rate_hz != state.sample_rate_hz:
        raise FilterDesignError(
            f"buffer rate {buffer.sample_rate_hz} != filter design rate {state.sample_rate_hz}"
        )
    if state.sos is None:
        return state, buffer
    out, zi = signal.sosfilt(state.sos, buffer.samples, zi=state.zi)
    return replace(state, zi=zi), replace(buffer, samples=out)


def coefficients_text(states: list[FilterState]) -> str:
    """Human-readable SOS coefficient dump for the --dump-filters flag."""
    out = io.StringIO()
    for st in states:
        band = st.spec.band_hz
        edges = "flat" if band is None else f"{band[0]:g}-{band[1]:g} Hz"
        print(f"weighting={st.spec.kind.value} fs={st.sample_rate_hz:g} Hz band={edges}", file=out)
        if st.sos is None:
            print("  identity (no sections)", file=out)
            continue
        for i, row in enumerate(st.sos):
            b = " ".join(f"{v:+.12e}" for v in row[:3])
            a = " ".join(f"{v:+.12e}" for v in row[3:])
            print(f"  section {i}: b = [{b}]  a = [{a}]", file=out)
    return out.getvalue()
