import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgunkit.errors import MeasureError
from airgunkit import pipeline
from airgunkit.pipeline import RecordBuilder
from airgunkit.pulse_detect import DetectorConfig, detect_pulses
from airgunkit.signal_io import format_time
from airgunkit.weighting import WeightingKind
from airgunkit.windows import (
    ENERGY_BLOCK,
    HIGH_FRACTION,
    LATE_WINDOW_COUNT,
    LATE_WINDOW_S,
    LOW_FRACTION,
    EnergyBounds,
    energy_bounds,
    late_window_count,
)

from conftest import ArrayStream, energy_bounds_whole

FS = 16000.0
W = 16000  # one late window at FS


def damped_sine(attack_s, decay_s, carrier_hz, fs=FS, duration_s=1.0):
    t = np.arange(int(round(duration_s * fs))) / fs
    env = (1.0 - np.exp(-t / attack_s)) * np.exp(-t / decay_s)
    return env * np.cos(2.0 * np.pi * carrier_hz * t)


def oracle_bounds(samples):
    """Plain-python first-reach scan over the cumulative energy."""
    cum = 0.0
    total = float(np.sum(np.square(np.asarray(samples, dtype=np.float64))))
    lo = hi = None
    for i, v in enumerate(samples):
        cum += float(v) * float(v)
        if lo is None and cum >= LOW_FRACTION * total:
            lo = i
        if hi is None and cum >= HIGH_FRACTION * total:
            hi = i
            break
    return lo, hi


# ---------------------------------------------------------------------------
# energy bounds


def test_bounds_single_nonzero_sample_collapse():
    x = np.zeros(200)
    x[57] = 4.0
    b = energy_bounds(x)
    assert b.i5 == b.i95 == 57


def test_bounds_symmetric_pulse_is_centred():
    t = np.arange(int(FS)) / FS
    x = np.exp(-0.5 * ((t - 0.5) / 0.02) ** 2)
    b = energy_bounds(x)
    # 5% from the left and 5% from the right of a symmetric hump
    assert abs((8000 - b.i5) - (b.i95 - 8000)) <= 1


def test_bounds_match_plain_scan_oracle():
    x = damped_sine(0.002, 0.03, 2000.0)
    assert energy_bounds(x) == EnergyBounds(*oracle_bounds(x))


def test_bounds_gaussian_vs_oversampled_render():
    sigma = 0.05
    centre = 0.5

    def render(rate):
        t = np.arange(int(round(1.0 * rate))) / rate
        return np.exp(-0.5 * ((t - centre) / sigma) ** 2)

    coarse = energy_bounds(render(FS))
    fine = energy_bounds(render(10 * FS))
    assert coarse.i5 / FS == pytest.approx(fine.i5 / (10 * FS), abs=1.0 / FS)
    assert coarse.i95 / FS == pytest.approx(fine.i95 / (10 * FS), abs=1.0 / FS)


def test_bounds_start_time_offsets_both():
    x = np.zeros(100)
    x[20:80] = 1.0
    b0 = energy_bounds(x)
    b7 = energy_bounds(x, start=116_000)
    assert (b7.i5, b7.i95) == (b0.i5 + 116_000, b0.i95 + 116_000)


def test_bounds_all_zero_errors():
    for n in (1, 64, ENERGY_BLOCK, ENERGY_BLOCK + 1, 3 * ENERGY_BLOCK + 1):
        with pytest.raises(MeasureError):
            energy_bounds(np.zeros(n))
    with pytest.raises(MeasureError):
        energy_bounds(np.zeros(0))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0005, max_value=0.01),
    st.floats(min_value=0.01, max_value=0.08),
    st.floats(min_value=200.0, max_value=4000.0),
)
def test_bounds_coverage_and_minimality(attack_s, decay_s, carrier_hz):
    x = damped_sine(attack_s, decay_s, carrier_hz)
    b = energy_bounds(x)
    cum = np.cumsum(np.square(x))
    total = cum[-1]
    i_lo, i_hi = b.i5, b.i95

    inside = cum[i_hi] - (cum[i_lo - 1] if i_lo > 0 else 0.0)
    covered = inside / total
    slack = (np.square(x[i_lo]) + np.square(x[i_hi])) / total
    assert covered >= HIGH_FRACTION - LOW_FRACTION - 1e-12
    assert covered <= HIGH_FRACTION - LOW_FRACTION + slack + 1e-12

    # each bound is the first sample to reach its fraction
    assert cum[i_lo] >= LOW_FRACTION * total
    if i_lo > 0:
        assert cum[i_lo - 1] < LOW_FRACTION * total
    assert cum[i_hi] >= HIGH_FRACTION * total
    assert cum[i_hi - 1] < HIGH_FRACTION * total


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=300),
       st.integers(0, 5), st.integers(0, 10**9))
def test_bounds_equal_the_two_temporary_reference(values, margin, start):
    # the window is a view into a larger array, as a rolling buffer hands out
    stream = np.concatenate((np.full(margin, 7.0), values, np.full(margin, 7.0)))
    before = stream.copy()
    window = stream[margin : margin + len(values)]
    if np.sum(np.square(window)) <= 0.0:
        with pytest.raises(MeasureError):
            energy_bounds(window, start)
    else:
        assert energy_bounds(window, start) == energy_bounds_whole(window, start)
    assert stream.tobytes() == before.tobytes()


@st.composite
def block_windows(draw):
    """Windows of 1 to 3 blocks and a sample: noise, a constant or one spike, after leading zeros.

    The zeros and the spike fall on or next to a block edge as often as anywhere else.
    """
    n = draw(st.integers(1, 3 * ENERGY_BLOCK + 1), label="length")
    edges = [min(k * ENERGY_BLOCK + d, n) for k in (1, 2, 3) for d in (-1, 0, 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = draw(st.sampled_from(["noise", "constant", "spike"]), label="kind")
    scale = 10.0 ** draw(st.integers(-6, 12), label="exponent")
    x = np.full(n, scale) if kind == "constant" else rng.standard_normal(n) * scale
    if kind == "spike":
        x *= 1e-3
        x[min(draw(st.one_of(st.integers(0, n), st.sampled_from(edges)), label="spike"), n - 1)] = scale
    x[: draw(st.one_of(st.integers(0, n), st.sampled_from(edges)), label="zeros")] = 0.0
    return x


@settings(max_examples=150, deadline=None)
@given(block_windows(), st.integers(0, 10**9))
def test_bounds_in_blocks_equal_one_running_sum_over_the_window(x, start):
    # each block's running sum starts from the last block's total, so every
    # partial sum, and so each bound, is that of the whole window's cumsum
    try:
        expected = energy_bounds_whole(x, start)
    except MeasureError:
        with pytest.raises(MeasureError):
            energy_bounds(x, start)
    else:
        assert energy_bounds(x, start) == expected


def test_bounds_on_a_block_edge_at_an_exact_fraction():
    # ones fill the first block and fours carry the rest: the total is 20
    # blocks' worth and 5 % of it is exactly the first block's running sum,
    # so the 5 % bound is that block's last sample
    x = np.concatenate((np.ones(ENERGY_BLOCK), np.full(19 * ENERGY_BLOCK // 16, 4.0)))
    assert LOW_FRACTION * np.sum(np.square(x)) == ENERGY_BLOCK
    assert energy_bounds(x) == energy_bounds_whole(x)
    assert energy_bounds(x).i5 == ENERGY_BLOCK - 1


def test_bounds_of_a_search_window_at_512_khz_allocate_one_block():
    # a 1.5-s search window at 512 kHz is 768,000 samples: squared at once
    # it was one 6.1-MB temporary; summed in blocks it is one of 0.5 MB
    x = np.random.default_rng(1).standard_normal(768_000)
    energy_bounds(x)  # first-use allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        energy_bounds(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ENERGY_BLOCK + 2**14, f"{peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# late window layout, in samples: window k spans [i95 + k*W, i95 + (k+1)*W)

I95 = 36_800  # 2.3 s


def spike_records(monkeypatch, spikes_s, duration_s):
    """Rows of a linear stream of single-sample spikes, each its own pulse, and
    the number of late windows measured for each.

    A lone spike's energy bounds collapse onto its sample, so each pulse's
    i5 and i95 are the spike's index.  The counts are read from the levels
    that RecordBuilder hands to extract_record.
    """
    n_late = []
    extract_record = pipeline.extract_record

    def counting_extract_record(event, bounds, levels, **kwargs):
        n_late.append(len(levels) - 1)
        return extract_record(event, bounds, levels, **kwargs)

    monkeypatch.setattr(pipeline, "extract_record", counting_extract_record)
    x = np.zeros(int(duration_s * FS))
    for t in spikes_s:
        x[round(t * FS)] = 1.0e6
    cm = SimpleNamespace(sample_rate_hz=FS, n_samples=len(x), origin=Fraction(0), channel_id=0)
    builder = RecordBuilder(cm, WeightingKind.LINEAR)
    detect_pulses(ArrayStream([x], FS, hold=builder.hold), DetectorConfig(threshold_db=100.0, min_ipi_s=5.0), builder)
    assert len(builder.records) == len(spikes_s)
    return builder.records, n_late


def test_layout_defaults_ten_one_second_windows(monkeypatch):
    assert (LATE_WINDOW_COUNT, LATE_WINDOW_S) == (10, 1.0)
    assert late_window_count(I95, 10**9, W) == 10
    (row,), n_late = spike_records(monkeypatch, [2.3], 60.0)
    assert row.split(",")[4:14] == [format_time(I95 + k * W, FS) for k in range(10)]  # after 3 ids and t5
    assert n_late == [10]


def test_layout_wide_gap_keeps_all_windows():
    assert late_window_count(I95, 228_800, W) == 10  # next i5 12 s later


def test_layout_short_gap_truncates():
    # next pulse's 5% bound 4 s after this one's 95% bound: windows ending
    # at +1, +2, +3 fit; +4 ends exactly at the limit and still fits
    assert late_window_count(I95, I95 + 4 * W, W) == 4


def test_layout_exact_boundary_window_is_valid():
    # the first window spans [i95, i95 + W) and the next i5 is i95 + W
    assert late_window_count(I95, I95 + W, W) == 1
    # one sample less and it no longer fits
    assert late_window_count(I95, I95 + W - 1, W) == 0


def test_layout_last_pulse_limited_by_data_end(monkeypatch):
    assert spike_records(monkeypatch, [2.3], 5.0)[1] == [2]


def test_layout_last_pulse_with_long_tail(monkeypatch):
    assert spike_records(monkeypatch, [2.3], 60.0)[1] == [10]


def test_layout_next_pulse_wins_over_data_end(monkeypatch):
    # the first pulse's windows end by 7.3 s < 8.0 s
    assert spike_records(monkeypatch, [2.3, 8.0], 60.0)[1] == [5, 10]


def test_layout_zero_valid_when_next_pulse_is_close():
    assert late_window_count(I95, I95 + 9_600, W) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-2 * W, max_value=20 * W))
def test_layout_valid_count_monotone_in_gap(gap):
    count = late_window_count(I95, I95 + gap, W)
    assert late_window_count(I95, I95 + gap + W // 2, W) >= count
    # the count is the windows that end by the limit: a window is valid
    # exactly when it ends there, so validity is a prefix of the ladder
    assert count == sum(I95 + (k + 1) * W <= I95 + gap for k in range(LATE_WINDOW_COUNT))
