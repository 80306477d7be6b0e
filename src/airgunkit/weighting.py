"""Marine mammal weighting bands as causal streaming filters.

Three bands: a flat pass-through and two functional-hearing-group bandpasses
(low-frequency and mid-frequency cetaceans).  Band edges are realized as a
4th-order Butterworth high-pass cascaded with a 4th-order Butterworth
low-pass, -3 dB at each cutoff.  apply_filter runs them causally, in place,
in second-order sections whose state carries across chunk boundaries.  The
low-pass stage is dropped when the upper edge reaches 0.95x Nyquist: at
typical recorder rates the mid-frequency band upper edge (160 kHz) is far
above Nyquist and the band degenerates to its high-pass edge alone.

Over exact-zero input the IIR state decays without end and reaches the
IEEE-754 subnormal range, where every filter step costs tens of times more.
apply_filter flushes it instead.  Checkpoints sit on a grid of absolute
stream sample indices, every FLUSH_BLOCK samples.  At a checkpoint whose
preceding FLUSH_BLOCK input samples are all exactly zero, a state whose
largest magnitude is below FLUSH_FLOOR_UPA is reset to zeros; zero input
then filters to exact zeros, which are emitted without running the filter.
The decision depends only on the stream, so chunked filtering stays
bit-identical to filtering the whole stream at once, and input with no
all-zero block is filtered exactly as ``scipy.signal.sosfilt`` filters it.

The sections are designed in numpy, bit-equal to ``scipy.signal.butter``,
and filtered by the compiled kernel behind ``scipy.signal.sosfilt``, loaded
from its file: the ``scipy.signal`` import alone takes over a second.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FilterDesignError

EDGE_ORDER = 4
NYQUIST_GUARD = 0.95

# flush checkpoints sit on every multiple of this many stream samples
FLUSH_BLOCK = 1024
# Largest |state| in uPa that a flush may discard.  It must leave the tail of
# a 1-uPa unit impulse intact: the band-edge gate reads the 7 Hz edge of lfc
# at 512 kHz from a 16-s impulse response, and floors of 1e-3 and 1e-6 uPa
# move it from -3.01 dB to -4.5 dB.  At 1e-20 uPa, 20 decades under that
# impulse and 23 under one recorder LSB (974.25 uPa at the default
# calibration), every catalog level the flush changes was below -400 dB,
# while the state is still ~290 decades above the subnormal range.
FLUSH_FLOOR_UPA = 1e-20


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
    produces bit-identical output to feeding it whole.  ``position`` is the
    number of stream samples filtered so far and ``zero_run`` the number of
    trailing exact-zero input samples among them, counted up to FLUSH_BLOCK;
    together they place the flush checkpoints.  ``flushes`` counts the
    non-zero states reset to zeros.
    """

    spec: WeightingSpec
    sample_rate_hz: float
    sos: np.ndarray | None
    zi: np.ndarray | None
    position: int = 0
    zero_run: int = 0
    flushes: int = 0


def design_filter(spec: WeightingSpec, sample_rate_hz: float) -> FilterState:
    """Design the band for a rate the WAV reader admitted, 1 Hz to 512 kHz; return fresh streaming state."""
    band = spec.band_hz
    if band is None:
        return FilterState(spec, sample_rate_hz, None, None)

    f_lo, f_hi = band
    nyq = sample_rate_hz / 2.0
    if f_lo >= nyq:
        raise FilterDesignError(
            f"{spec.kind.value}: lower edge {f_lo} Hz at or above Nyquist {nyq} Hz"
        )
    sections = [_butter_sos(f_lo, True, sample_rate_hz)]
    if f_hi < NYQUIST_GUARD * nyq:
        sections.append(_butter_sos(f_hi, False, sample_rate_hz))
    sos = np.vstack(sections)

    for row in sos:  # every biquad must be stable on its own
        poles = np.roots([1.0, row[4], row[5]])
        if np.any(np.abs(poles) >= 1.0):
            raise FilterDesignError(
                f"{spec.kind.value}: unstable section at fs={sample_rate_hz} Hz"
            )
    return FilterState(spec, sample_rate_hz, sos, np.zeros((sos.shape[0], 2)))


def _butter_sos(cutoff_hz: float, highpass: bool, sample_rate_hz: float) -> np.ndarray:
    """Butterworth sections of order EDGE_ORDER, as ``scipy.signal.butter(..., output="sos")`` designs them.

    scipy's steps in scipy's floating-point order, so the coefficients are
    bit-equal (the tests hold scipy as the oracle): the analog prototype,
    its shift to the prewarped cutoff, the bilinear transform at fs = 2 and
    ``zpk2sos`` "nearest" pairing, which puts the pole pair nearest the unit
    circle in the last section and the gain in the first.
    """
    n = EDGE_ORDER
    # prewarped for the bilinear transform at fs = 2, as iirfilter writes it
    warped = float(2 * 2.0 * np.tan(np.pi * (cutoff_hz / (sample_rate_hz / 2)) / 2.0))
    prototype = -np.exp(1j * np.pi * np.arange(1 - n, n, 2.0) / (2 * n))
    if highpass:  # n zeros at s = 0
        poles, gain, zero = warped / prototype, np.real(1.0 / np.prod(-prototype)), 1.0
    else:  # n zeros at infinity
        poles, gain, zero = warped * prototype, warped**n, -1.0
    # bilinear transform: the zeros map to z = +1 or z = -1
    gain *= np.real((4.0**n if highpass else 1.0) / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    poles = poles[np.lexsort((abs(poles.imag), poles.real))]
    upper = (poles[poles.imag > 0] + poles[poles.imag < 0].conj()) / 2
    sos = np.zeros((n // 2, 6))
    sos[:, :3] = (1.0, -2.0 * zero, 1.0)
    for si in range(n // 2 - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(upper)))
        sos[si, 3:] = np.real(np.convolve([1.0, -upper[i]], [1.0, -upper[i].conj()]))
        upper = np.delete(upper, i)
    sos[0, :3] *= gain
    return sos


def _load_sosfilt():
    """Return ``sosfilt(sos, x, zi) -> zf``, which filters a C-contiguous float64 ``x`` in place.

    It runs scipy's compiled kernel, loaded from its file: importing the
    public ``scipy.signal`` also imports ``scipy.stats`` and more, over a
    second of start-up that extraction never uses.  The kernel is a private
    scipy module, so when it is missing or does not filter a probe as
    expected this returns ``_public_sosfilt``, which gives the same output.
    """
    try:
        kernel = _load_kernel()
        probe = np.array([[1.0, 0.0]])  # y[n] = x[n] + y[n-1] / 2
        kernel(np.array([[1.0, 0.0, 0.0, 1.0, -0.5, 0.0]]), probe, np.zeros((1, 1, 2)))
        if not np.array_equal(probe, [[1.0, 0.5]]):
            raise ImportError("the compiled sosfilt kernel does not filter as expected")
    except (ImportError, AttributeError, TypeError, ValueError):
        return _public_sosfilt

    def sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
        zf = np.array(zi, dtype=np.float64, order="C")
        kernel(sos, x[np.newaxis], zf[np.newaxis])  # views: the kernel rejects non-contiguous x
        return zf

    return sosfilt


def _public_sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    from scipy.signal import sosfilt  # imported on first use, never at start-up

    x[:], zf = sosfilt(sos, x, zi=zi)
    return zf


def _load_kernel():
    """``_sosfilt(sos, x[1, n], zi[1, s, 2])`` from scipy's compiled ``signal/_sosfilt`` module.

    It filters ``x`` and advances ``zi`` in place.  ``find_spec`` locates
    scipy without running its ``__init__``, and the module is loaded from
    its file, so ``scipy.signal`` is never imported.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    base = Path(spec.submodule_search_locations[0]) / "signal"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base / f"_sosfilt{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no compiled _sosfilt module in {base}")
    kernel_spec = importlib.util.spec_from_file_location("scipy.signal._sosfilt", path)
    module = importlib.util.module_from_spec(kernel_spec)
    kernel_spec.loader.exec_module(module)
    return module._sosfilt


_sosfilt = _load_sosfilt()


def apply_filter(state: FilterState, x: np.ndarray) -> FilterState:
    """Filter one chunk ``x`` causally in place; returns the advanced state.

    ``x`` must be a writable C-contiguous float64 array sampled at the
    state's design rate; the flat band leaves it as it is.  Chunks must be
    fed in stream order.  The chunk is filtered up to each run of
    checkpoints after an all-zero block, and through the run one block at a
    time until the state is flushed or zero; the rest of the run is zero, in
    input and output.
    """
    if state.sos is None:
        return state
    # read the input's zero runs before it is filtered
    runs = _zero_runs(x, state.position, state.zero_run)
    tail = x[-FLUSH_BLOCK:]
    nonzero = np.flatnonzero(tail)
    zero_run = len(tail) - 1 - int(nonzero[-1]) if nonzero.size else len(tail) + state.zero_run
    zi, flushes = state.zi, state.flushes
    done = 0
    for a, b in runs:
        # the input is zero from a - FLUSH_BLOCK to b; a zero state stays zero over it
        if zi.any() or a - done > FLUSH_BLOCK:
            zi = _sosfilt(state.sos, x[done:a], zi)
        for c in range(a, b + 1, FLUSH_BLOCK):  # zi is the state at checkpoint c
            size = np.abs(zi).max()
            if size < FLUSH_FLOOR_UPA:  # flushed or zero, the state stays zero through the run
                if size > 0.0:
                    zi = np.zeros_like(zi)
                    flushes += 1
                break
            if c < b:
                zi = _sosfilt(state.sos, x[c:c + FLUSH_BLOCK], zi)
        done = b
    if done < len(x):
        zi = _sosfilt(state.sos, x[done:], zi)
    return replace(state, zi=zi, position=state.position + len(x), zero_run=min(zero_run, FLUSH_BLOCK),
                   flushes=flushes)


def _zero_runs(x: np.ndarray, position: int, zero_run: int) -> list[tuple[int, int]]:
    """Runs of consecutive checkpoints whose preceding FLUSH_BLOCK input samples are all zero.

    ``x`` starts at stream sample ``position``, after ``zero_run`` zero
    samples.  Returns (first, last) chunk-relative checkpoints in
    (0, len(x)].  One nonzero mask of the chunk, a byte per sample, answers
    every quiet test.  The first checkpoint's block may reach back before
    the chunk, into the ``zero_run`` samples; the blocks of the checkpoints
    after it tile ``x`` from the first checkpoint on, so they are the rows
    of one view of the mask.
    """
    first = -position % FLUSH_BLOCK or FLUSH_BLOCK
    if first > len(x):
        return []
    nonzero = x != 0.0
    rows = nonzero[first:first + (len(x) - first) // FLUSH_BLOCK * FLUSH_BLOCK].reshape(-1, FLUSH_BLOCK)
    quiet = np.zeros(len(rows) + 3, dtype=bool)  # the checkpoints, between two non-quiet ends
    quiet[1] = first + zero_run >= FLUSH_BLOCK and not nonzero[max(first - FLUSH_BLOCK, 0):first].any()
    quiet[2:-1] = ~rows.any(axis=1)
    edges = np.flatnonzero(np.diff(quiet)) * FLUSH_BLOCK + first
    return list(zip(edges[::2].tolist(), (edges[1::2] - FLUSH_BLOCK).tolist()))


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
