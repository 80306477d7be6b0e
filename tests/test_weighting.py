import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from airgunkit import signal_io, weighting
from airgunkit.cli import _dump_filters
from airgunkit.errors import FilterDesignError
from airgunkit.pulse_detect import DetectorConfig
from airgunkit.runner import RunConfig, run
from airgunkit.signal_io import open_manifest
from airgunkit.weighting import (
    BAND_EDGES,
    CANONICAL_ORDER,
    EDGE_ORDER,
    FLUSH_BLOCK,
    FLUSH_FLOOR_UPA,
    NYQUIST_GUARD,
    WeightingKind,
    WeightingSpec,
    apply_filter,
    coefficients_text,
    design_filter,
    parse_kind,
)

from conftest import write_wav


def fresh(kind, fs):
    return design_filter(WeightingSpec(kind), fs)


def frequency_response_db(state, freqs_hz):
    """Magnitude response in dB at the given frequencies (0 dB for flat)."""
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    if state.sos is None:
        return np.zeros_like(freqs_hz)
    _, h = signal.sosfreqz(state.sos, worN=freqs_hz, fs=state.sample_rate_hz)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs(h))


def run_whole(kind, x, fs=16000.0):
    """Filter a copy of ``x`` whole, in place; returns the copy."""
    out = np.array(x, dtype=np.float64)
    apply_filter(fresh(kind, fs), out)
    return out


# ---------------------------------------------------------------------------
# basics


def test_parse_kind_accepts_any_case():
    assert parse_kind("linear") is WeightingKind.LINEAR
    assert parse_kind("LFC") is WeightingKind.LFC
    assert parse_kind("Mfc") is WeightingKind.MFC
    with pytest.raises(FilterDesignError):
        parse_kind("a-weighted")


def test_canonical_order_is_linear_lfc_mfc():
    assert CANONICAL_ORDER == (
        WeightingKind.LINEAR,
        WeightingKind.LFC,
        WeightingKind.MFC,
    )


def test_band_edges_table():
    assert BAND_EDGES[WeightingKind.LINEAR] is None
    assert BAND_EDGES[WeightingKind.LFC] == (7.0, 22_000.0)
    assert BAND_EDGES[WeightingKind.MFC] == (150.0, 160_000.0)


# ---------------------------------------------------------------------------
# linear band


def test_linear_is_bit_exact_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=1e4, size=5000)
    assert np.array_equal(run_whole(WeightingKind.LINEAR, x), x)


def test_linear_state_has_no_sections():
    state = fresh(WeightingKind.LINEAR, 16000.0)
    assert state.sos is None


# ---------------------------------------------------------------------------
# structure of the designed cascades


def test_lfc_at_16k_drops_the_lowpass_stage():
    # 22 kHz upper edge is beyond 0.95x Nyquist at 16 kHz: high-pass only
    state = fresh(WeightingKind.LFC, 16000.0)
    assert state.sos.shape[0] == 2  # 4th order = 2 biquads


def test_lfc_at_96k_keeps_both_stages():
    state = fresh(WeightingKind.LFC, 96000.0)
    assert state.sos.shape[0] == 4


def test_design_rejects_band_above_nyquist():
    with pytest.raises(FilterDesignError):
        fresh(WeightingKind.LFC, 10.0)  # Nyquist 5 Hz < 7 Hz lower edge


def test_sections_are_stable():
    for fs in (16000.0, 96000.0, 512000.0):
        for kind in (WeightingKind.LFC, WeightingKind.MFC):
            state = fresh(kind, fs)
            for section in state.sos:
                poles = np.roots(section[3:])
                assert np.all(np.abs(poles) < 1.0)


def test_impulse_response_decays():
    fs = 16000.0
    x = np.zeros(int(10 * fs))
    x[0] = 1.0
    for kind in (WeightingKind.LFC, WeightingKind.MFC):
        out = run_whole(kind, x, fs)
        head = np.max(np.abs(out[: int(fs)]))
        tail = np.max(np.abs(out[-int(fs) :]))
        assert tail < head * 1e-9


# ---------------------------------------------------------------------------
# streaming equivalence


@pytest.mark.parametrize("kind", [WeightingKind.LFC, WeightingKind.MFC])
def test_chunked_equals_whole_bitwise(kind):
    fs = 16000.0
    rng = np.random.default_rng(6)
    x = rng.normal(scale=1e3, size=int(4.7 * fs))
    whole = run_whole(kind, x, fs)

    state = fresh(kind, fs)
    pieces = []
    pos = 0
    for size in (1000, 37, 25000, 1, len(x)):  # ragged chunking
        chunk = x[pos : pos + size]
        if len(chunk) == 0:
            break
        out = chunk.copy()
        state = apply_filter(state, out)
        pieces.append(out)
        pos += len(chunk)
    glued = np.concatenate(pieces)
    assert np.array_equal(glued, whole)


def test_filter_is_linear():
    fs = 16000.0
    rng = np.random.default_rng(12)
    a = rng.normal(size=8000)
    b = rng.normal(size=8000)
    fa = run_whole(WeightingKind.LFC, a, fs)
    fb = run_whole(WeightingKind.LFC, b, fs)
    fab = run_whole(WeightingKind.LFC, 3.0 * a - 2.0 * b, fs)
    ref = 3.0 * fa - 2.0 * fb
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(fab - ref)) < 1e-9 * scale


def test_zero_in_zero_out():
    out = run_whole(WeightingKind.MFC, np.zeros(1000))
    assert np.all(out == 0.0)


# ---------------------------------------------------------------------------
# design, against scipy.signal.butter as the oracle


def scipy_sos(kind, fs):
    """The band's sections as scipy designs them, the low-pass dropped near Nyquist."""
    f_lo, f_hi = BAND_EDGES[kind]
    sections = [signal.butter(EDGE_ORDER, f_lo, "highpass", fs=fs, output="sos")]
    if f_hi < NYQUIST_GUARD * fs / 2.0:
        sections.append(signal.butter(EDGE_ORDER, f_hi, "lowpass", fs=fs, output="sos"))
    return np.vstack(sections)


@pytest.mark.parametrize("fs", [2000.0, 16000.0, 96000.0, 400000.0, 512000.0])
@pytest.mark.parametrize("kind", [WeightingKind.LFC, WeightingKind.MFC])
def test_design_is_bit_equal_to_scipy_butter(kind, fs):
    assert np.array_equal(fresh(kind, fs).sos, scipy_sos(kind, fs))


@settings(max_examples=200, deadline=None)
@given(fs=st.floats(400.0, 600_000.0), kind=st.sampled_from([WeightingKind.LFC, WeightingKind.MFC]))
def test_design_is_bit_equal_to_scipy_butter_at_any_rate(fs, kind):
    assert np.array_equal(fresh(kind, fs).sos, scipy_sos(kind, fs))


@pytest.mark.parametrize("fs", [16000.0, 512000.0])
def test_dump_filters_text_is_scipy_designs_text(fs, capsys):
    _dump_filters({0: SimpleNamespace(sample_rate_hz=fs)}, CANONICAL_ORDER)
    oracle = [replace(st, sos=None if st.sos is None else scipy_sos(st.spec.kind, fs))
              for st in (fresh(kind, fs) for kind in CANONICAL_ORDER)]
    assert capsys.readouterr().out == coefficients_text(oracle)


# ---------------------------------------------------------------------------
# frequency response


def test_minus_3db_at_realized_edges():
    cases = [
        (WeightingKind.LFC, 16000.0, [7.0]),  # upper edge dropped
        (WeightingKind.LFC, 512000.0, [7.0, 22000.0]),
        (WeightingKind.MFC, 16000.0, [150.0]),
        (WeightingKind.MFC, 512000.0, [150.0, 160000.0]),
    ]
    for kind, fs, edges in cases:
        state = fresh(kind, fs)
        resp = frequency_response_db(state, np.array(edges))
        for f, db in zip(edges, resp):
            assert db == pytest.approx(-3.0103, abs=0.5), (kind, fs, f)


def test_passband_is_flat():
    for kind, fs in [
        (WeightingKind.LFC, 16000.0),
        (WeightingKind.LFC, 512000.0),
        (WeightingKind.MFC, 512000.0),
    ]:
        f_lo, f_hi = BAND_EDGES[kind]
        top = min(f_hi, 0.5 * fs) / 2.0
        freqs = np.geomspace(2.0 * f_lo, top, 64)
        resp = frequency_response_db(fresh(kind, fs), freqs)
        assert np.max(np.abs(resp)) < 1.0, (kind, fs)


def test_passband_tone_passes_within_half_db():
    fs = 16000.0
    t = np.arange(int(4 * fs)) / fs
    x = 1000.0 * np.sin(2.0 * np.pi * 1000.0 * t)
    out = run_whole(WeightingKind.LFC, x, fs)
    # steady state after the transient dies
    gain_db = 20.0 * math.log10(np.max(np.abs(out[int(2 * fs) :])) / 1000.0)
    assert abs(gain_db) < 0.5


def test_stopband_tone_is_rejected():
    fs = 16000.0
    t = np.arange(int(8 * fs)) / fs
    x = 1000.0 * np.sin(2.0 * np.pi * 1.0 * t)  # 1 Hz, well below the 7 Hz edge
    out = run_whole(WeightingKind.LFC, x, fs)
    gain_db = 20.0 * math.log10(np.max(np.abs(out[int(4 * fs) :])) / 1000.0)
    assert gain_db < -20.0


# ---------------------------------------------------------------------------
# flushing the state over exact-zero input

LSB_UPA = 10.0 ** (126.0 / 20.0) / 2048  # one recorder count at the default calibration


def run_chunked(kind, fs, x, cuts):
    """Filter a copy of x in chunks split at the sample indices ``cuts``; returns (output, final state).

    Each chunk is a view of the copy, filtered there in place: the output is the copy.
    """
    y = x.copy()
    state = fresh(kind, fs)
    for a, b in zip([0, *cuts], [*cuts, len(x)]):
        state = apply_filter(state, y[a:b])
    return y, state


# (kind, fs, longest zero run in blocks): each band decays below the floor
# within a few of its longest zero runs; mfc at 400 kHz keeps its low-pass
# stage and so carries four sections
FLUSH_CASES = [
    (WeightingKind.MFC, 16000.0, 8),
    (WeightingKind.LFC, 1000.0, 8),
    (WeightingKind.MFC, 400000.0, 80),
]


@pytest.mark.parametrize("kind,fs,max_zero_blocks", FLUSH_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_flushed_stream_is_chunk_invariant(kind, fs, max_zero_blocks, data):
    # quantized bursts between exact-zero runs of random length, so the runs
    # start and end anywhere against the checkpoint grid
    longest = max_zero_blocks * FLUSH_BLOCK
    zeros = st.integers(0, 2 * FLUSH_BLOCK) | st.integers(longest // 2, longest)
    segments = data.draw(st.lists(st.tuples(zeros, st.integers(1, 3 * FLUSH_BLOCK)), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    parts = []
    for n_zeros, burst in segments:
        parts += [np.zeros(n_zeros), np.round(rng.normal(0.0, 20.0, burst)) * LSB_UPA]
    parts.append(np.zeros(data.draw(zeros)))
    x = np.concatenate(parts)
    # cuts anywhere: inside blocks, on checkpoints and one sample off them,
    # or at a fixed stride, which puts several chunks inside one block
    near_grid = st.integers(1, len(x) // FLUSH_BLOCK or 1).flatmap(
        lambda k: st.sampled_from([k * FLUSH_BLOCK - 1, k * FLUSH_BLOCK, k * FLUSH_BLOCK + 1]))
    stride = st.integers(97, 3 * FLUSH_BLOCK).map(lambda step: list(range(step, len(x), step)))
    cuts = data.draw(st.lists(st.integers(0, len(x)) | near_grid, min_size=1, max_size=8) | stride)
    cuts = sorted({c for c in cuts if 0 < c < len(x)})

    whole, whole_state = run_chunked(kind, fs, x, [])
    chunked, state = run_chunked(kind, fs, x, cuts)
    assert chunked.tobytes() == whole.tobytes()
    assert state.flushes == whole_state.flushes
    assert state.zi.tobytes() == whole_state.zi.tobytes()
    assert state.position == whole_state.position == len(x)


def flush_reference(sos, x):
    """The flush rule as written, on the public ``sosfilt``, one FLUSH_BLOCK at a time.

    At every stream checkpoint whose preceding FLUSH_BLOCK inputs are all
    zero, a nonzero state whose largest magnitude is under the floor is
    reset to zeros.  Returns (output, final state, checkpoints flushed at).
    """
    zi = np.zeros((sos.shape[0], 2))
    out = np.empty_like(x)
    flushed = []
    for a in range(0, len(x), FLUSH_BLOCK):
        b = min(a + FLUSH_BLOCK, len(x))
        out[a:b], zi = signal.sosfilt(sos, x[a:b], zi=zi)
        if b - a == FLUSH_BLOCK and not x[a:b].any() and zi.any() and np.max(np.abs(zi)) < FLUSH_FLOOR_UPA:
            zi = np.zeros_like(zi)
            flushed.append(b)
    return out, zi, flushed


# (kind, fs, zero blocks that outlast the ring, zero blocks that do not):
# after these bursts lfc needs ~50 blocks to reach the floor at 16 kHz and
# ~1400 at 512 kHz, mfc ~3 at 16 kHz
ORACLE_CASES = [
    (WeightingKind.LFC, 16000.0, 80, 20),
    (WeightingKind.MFC, 16000.0, 8, 1),
    (WeightingKind.LFC, 512000.0, 2200, 600),
]


@pytest.mark.parametrize("kind,fs,long_blocks,short_blocks", ORACLE_CASES)
def test_apply_filter_matches_the_flush_rule_as_written(kind, fs, long_blocks, short_blocks):
    rng = np.random.default_rng(12)
    parts = []
    # zero runs off the grid and long or short against the ring, so some
    # flush and some walk their all-zero blocks without reaching the floor
    for burst, blocks in ((700, long_blocks), (1500, short_blocks), (333, long_blocks),
                          (90, short_blocks), (2048, long_blocks)):
        parts += [np.round(rng.normal(0.0, 20.0, burst)) * LSB_UPA,
                  np.zeros(blocks * FLUSH_BLOCK + int(rng.integers(0, FLUSH_BLOCK)))]
    x = np.concatenate(parts)
    ref, ref_zi, flushed = flush_reference(fresh(kind, fs).sos, x)
    assert len(flushed) == 3  # one flush per long run, none in the short ones

    grid = range(FLUSH_BLOCK, len(x), len(x) // 9 // FLUSH_BLOCK * FLUSH_BLOCK)
    for points in (flushed, grid):
        for offset in (0, -1, 1):  # cuts on, before and after the grid
            for cuts in ([], [c + offset for c in points if c + offset < len(x)]):
                out, state = run_chunked(kind, fs, x, cuts)
                assert out.tobytes() == ref.tobytes()
                assert state.zi.tobytes() == ref_zi.tobytes()
                assert state.flushes == len(flushed)


def test_zero_runs_flush_and_then_emit_exact_zeros():
    fs = 16000.0
    rng = np.random.default_rng(4)
    burst = np.round(rng.normal(0.0, 20.0, 500)) * LSB_UPA
    x = np.concatenate([burst, np.zeros(60 * FLUSH_BLOCK), burst, np.zeros(60 * FLUSH_BLOCK)])
    for kind in (WeightingKind.LFC, WeightingKind.MFC):
        out, state = run_chunked(kind, fs, x, [700, 9000, 9001, 30000])
        ref, _ = signal.sosfilt(state.sos, x, zi=fresh(kind, fs).zi)
        changed = np.flatnonzero(out != ref)
        assert changed.size > 0 and state.flushes == 2
        # the flush drops only what rings on below the floor (a decaying
        # oscillation can swing a little above its state's size), as zeros
        assert np.max(np.abs(ref[changed])) < 10.0 * FLUSH_FLOOR_UPA
        assert np.all(out[changed] == 0.0)
        assert np.array_equal(out[: changed[0]], ref[: changed[0]])


def quiet_checkpoint_runs(x, position, zero_run):
    """The quiet checkpoints of a chunk, as defined, one checkpoint at a time.

    A checkpoint is quiet when the FLUSH_BLOCK inputs before it are zero: those
    before the chunk count as zero when they are among its ``zero_run``.
    Consecutive quiet checkpoints merge into one (first, last) run.
    """
    runs = []
    for c in range(1, len(x) + 1):
        if (position + c) % FLUSH_BLOCK:
            continue
        before_chunk = max(FLUSH_BLOCK - c, 0)
        if before_chunk > zero_run or np.any(x[c - FLUSH_BLOCK + before_chunk : c] != 0.0):
            continue
        if runs and runs[-1][1] == c - FLUSH_BLOCK:
            runs[-1] = (runs[-1][0], c)
        else:
            runs.append((c, c))
    return runs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_zero_runs_are_the_quiet_checkpoints(data):
    position = data.draw(st.integers(0, 3 * FLUSH_BLOCK))
    zero_run = data.draw(st.integers(0, FLUSH_BLOCK))
    first = -position % FLUSH_BLOCK or FLUSH_BLOCK  # the chunk's first checkpoint
    # any length, or one ending just before, on or just after the first checkpoint
    n = data.draw(st.integers(0, 6 * FLUSH_BLOCK) | st.sampled_from([first - 1, first, first + 1]))
    # each block before a checkpoint is zero, or zero but for one sample at
    # its start, its end or inside it
    offsets = st.sampled_from([0, FLUSH_BLOCK - 1]) | st.integers(1, FLUSH_BLOCK - 2)
    spike = st.none() | st.tuples(offsets, st.sampled_from([LSB_UPA, -1e-300, 5e-324]))
    x = np.zeros(n)
    for k, drawn in enumerate(data.draw(st.lists(spike, min_size=7, max_size=7))):
        if drawn is None:
            continue
        i = first + (k - 1) * FLUSH_BLOCK + drawn[0]  # block k precedes checkpoint first + k * FLUSH_BLOCK
        if 0 <= i < n:
            x[i] = drawn[1]
    assert weighting._zero_runs(x, position, zero_run) == quiet_checkpoint_runs(x, position, zero_run)


def test_input_without_an_all_zero_block_is_plain_sosfilt():
    fs = 16000.0
    rng = np.random.default_rng(9)
    n = 40 * FLUSH_BLOCK + 321
    # ~1 LSB rms of quantized noise: most samples are exactly zero
    x = np.round(rng.normal(0.0, 1.0, n)) * LSB_UPA
    grid = np.arange(FLUSH_BLOCK, n + 1, FLUSH_BLOCK)
    # every block ends on zero samples, as an all-zero block does, yet no block is all zero
    for back in (1, FLUSH_BLOCK // 2, FLUSH_BLOCK):
        x[grid - back] = 0.0
    x[grid - 3] = LSB_UPA
    # zero runs one sample short of a block, starting or ending on checkpoints
    x[5 * FLUSH_BLOCK] = x[10 * FLUSH_BLOCK - 1] = LSB_UPA
    x[5 * FLUSH_BLOCK + 1 : 6 * FLUSH_BLOCK] = 0.0
    x[9 * FLUSH_BLOCK : 10 * FLUSH_BLOCK - 1] = 0.0
    for kind in (WeightingKind.LFC, WeightingKind.MFC):
        ref, _ = signal.sosfilt(fresh(kind, fs).sos, x, zi=fresh(kind, fs).zi)
        for cuts in ([], [1, FLUSH_BLOCK, 6 * FLUSH_BLOCK - 5, 20000], list(range(777, n, 4096))):
            out, state = run_chunked(kind, fs, x, cuts)
            assert out.tobytes() == ref.tobytes()
            assert state.flushes == 0


def write_gap_channel(directory, fs=16000):
    """One zero_fill channel: two noisy 20-s files with a pulse each, 30 s apart."""
    rng = np.random.default_rng(21)
    t = np.arange(int(0.2 * fs)) / fs
    pulse = np.round(8000.0 * np.exp(-t / 0.03) * np.sin(2.0 * np.pi * 2000.0 * t))
    for name in ("a.wav", "b.wav"):
        counts = np.round(rng.normal(0.0, 3.0, 20 * fs))
        counts[5 * fs : 5 * fs + len(pulse)] += pulse
        write_wav(directory / name, counts.astype(np.int16), fs)
    (directory / "m.txt").write_text("calib 0 2048 126 zero_fill\nfile 0 a.wav 0.0\nfile 0 b.wav 50.0\n")
    return open_manifest(directory / "m.txt")


def test_zero_fill_gap_flushes_and_catalog_does_not_depend_on_chunk_size(tmp_path, monkeypatch):
    manifests = write_gap_channel(tmp_path)
    detector = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)
    catalogs = set()
    for chunk in (14_400, 116_800, 2**17):  # 0.9 s, 7.3 s and 8.192 s at 16 kHz
        monkeypatch.setattr(signal_io, "MAX_CHUNK_SAMPLES", chunk)
        out, report = run(RunConfig(out_path=tmp_path / f"c{chunk}.csv", detector=detector), manifests)
        catalogs.add(out.read_bytes())
        # noise keeps the state up outside the gap: one flush per filtered band, in the gap
        assert (report.n_records, report.filter_flushes) == (6, 2)
    assert len(catalogs) == 1


# ---------------------------------------------------------------------------
# the compiled sosfilt kernel and its fallback


def test_filtering_never_imports_scipy_signal():
    # importing scipy.signal also imports scipy.stats: over a second of start-up
    code = (
        "import sys, numpy as np, airgunkit, airgunkit.cli\n"
        "from airgunkit.weighting import WeightingKind, WeightingSpec, apply_filter, design_filter\n"
        "state = design_filter(WeightingSpec(WeightingKind.MFC), 16000.0)\n"
        "apply_filter(state, np.ones(5000))\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n"
    )
    src = str(Path(weighting.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_public_sosfilt_fallback_gives_the_same_bytes(tmp_path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(weighting.importlib.util, "find_spec", lambda name: None)
        assert weighting._load_sosfilt() is weighting._public_sosfilt
    assert weighting._sosfilt is not weighting._public_sosfilt

    rng = np.random.default_rng(5)
    burst = np.round(rng.normal(0.0, 20.0, 500)) * LSB_UPA
    x = np.concatenate([burst, np.zeros(60 * FLUSH_BLOCK), burst])
    manifests = write_gap_channel(tmp_path)
    detector = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)

    def outputs(name):
        filtered = [run_chunked(kind, 16000.0, x, [700, 9000]) for kind in (WeightingKind.LFC, WeightingKind.MFC)]
        out, report = run(RunConfig(out_path=tmp_path / name, detector=detector), manifests)
        return ([(y.tobytes(), state.flushes, state.zi.tobytes()) for y, state in filtered],
                out.read_bytes(), report.filter_flushes)

    kernel = outputs("kernel.csv")
    monkeypatch.setattr(weighting, "_sosfilt", weighting._public_sosfilt)
    assert outputs("public.csv") == kernel
    assert [flushes for _, flushes, _ in kernel[0]] == [1, 1] and kernel[2] == 2
