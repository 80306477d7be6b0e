import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgunkit.errors import MeasureError
from airgunkit.measures import NA, format_db, measure_peaks, pressure_db, window_energy, window_levels

from conftest import csel_of_levels, make_buffer

FS = 16000.0


def const_window(p_upa, duration_s, fs=FS):
    n = int(round(duration_s * fs))
    return make_buffer(np.full(n, p_upa), fs=fs)


def levels(win):
    """The window's own levels, with no exposure before it."""
    return window_levels(win)[0]


# ---------------------------------------------------------------------------
# window energy


def test_window_energy_rectangle_rule():
    buf = make_buffer([1.0, 2.0, 3.0], fs=4.0)
    # (1 + 4 + 9) / 4
    assert window_energy(buf) == pytest.approx(3.5, abs=0.0)


def test_window_energy_concatenation_additive():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=100.0, size=4096)
    whole = window_energy(make_buffer(x))
    parts = window_energy(make_buffer(x[:1500])) + window_energy(make_buffer(x[1500:]))
    assert parts == pytest.approx(whole, rel=1e-12)


# ---------------------------------------------------------------------------
# SPL


def test_spl_reference_pressure_is_zero_db():
    assert levels(const_window(1.0, 0.01)).spl_db == pytest.approx(0.0, abs=0.0)


def test_spl_megapascal_peak():
    buf = make_buffer([0.0, -1.0e6, 3.0])
    assert levels(buf).spl_db == pytest.approx(120.0, abs=1e-12)


def test_spl_uses_largest_magnitude():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=50.0, size=2000)
    expected = 20.0 * math.log10(max(abs(v) for v in x))
    assert levels(make_buffer(x)).spl_db == pytest.approx(expected, rel=1e-12)


def test_spl_all_zero_window_has_no_level():
    assert levels(const_window(0.0, 0.01)).spl_db is None
    assert levels(make_buffer([0.0, -0.0])).spl_db is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_spl_peak_is_the_largest_magnitude_bit_for_bit(values):
    # the level step finds the peak as max(x.max(), -x.min()), with no |x|
    # temporary; it must give the float of max |x| on every window,
    # all-negative and signed-zero windows included
    x = np.array(values)
    for w in (x, -np.abs(x), np.zeros_like(x), -np.zeros_like(x)):
        peak = float(np.max(np.abs(w)))
        assert levels(make_buffer(w)).spl_db == (20.0 * math.log10(peak) if peak > 0.0 else None)


# ---------------------------------------------------------------------------
# SEL / LEQ


def test_sel_unit_pressure_one_second_is_zero_db():
    assert levels(const_window(1.0, 1.0)).sel_db == pytest.approx(0.0, abs=1e-12)


def test_sel_frozen_example_1000_upa():
    # 10*log10(1000^2 * 1.0) over a full second
    assert levels(const_window(1000.0, 1.0)).sel_db == pytest.approx(60.0, abs=1e-12)


def test_sel_and_leq_frozen_half_second():
    win = const_window(1000.0, 0.5)
    assert levels(win).sel_db == pytest.approx(56.98970004336019, abs=1e-12)
    assert levels(win).leq_db == pytest.approx(60.0, abs=1e-12)


def test_leq_constant_signal_duration_invariant():
    assert levels(const_window(1.0, 10.0)).leq_db == pytest.approx(0.0, abs=1e-12)
    assert levels(const_window(1.0, 0.25)).leq_db == pytest.approx(0.0, abs=1e-12)


def test_leq_equals_sel_for_one_second_window():
    rng = np.random.default_rng(9)
    x = rng.normal(scale=2000.0, size=int(FS))
    lv = levels(make_buffer(x))
    assert abs(lv.sel_db - lv.leq_db) < 1e-12


def test_sel_gaussian_pulse_matches_fine_grid():
    sigma = 0.005
    t0 = 0.1
    fs = FS

    def render(rate):
        t = np.arange(int(round(0.2 * rate))) / rate
        return np.exp(-0.5 * ((t - t0) / sigma) ** 2) * 1.0e5

    coarse = levels(make_buffer(render(fs), fs=fs)).sel_db
    x_fine = render(10 * fs)
    fine = 10.0 * math.log10(float(np.dot(x_fine, x_fine)) / (10 * fs))
    assert coarse == pytest.approx(fine, abs=0.05)


def test_sel_empty_errors():
    with pytest.raises(MeasureError):
        window_levels(make_buffer([]))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e6))
def test_sel_amplitude_scaling_law(k):
    rng = np.random.default_rng(21)
    x = rng.normal(scale=10.0, size=2048)
    base = levels(make_buffer(x)).sel_db
    scaled = levels(make_buffer(k * x)).sel_db
    assert scaled == pytest.approx(base + 20.0 * math.log10(k), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sel_leq_identity_property(seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 6)
    x = rng.normal(scale=scale, size=int(FS))
    lv = levels(make_buffer(x))
    assert abs(lv.sel_db - lv.leq_db) < 1e-12


# ---------------------------------------------------------------------------
# CSEL


def csel_run(windows):
    """Fold windows through the catalog's level computation; the last csel_db and the running energy."""
    running, level = 0.0, None
    for win in windows:
        lv, running = window_levels(win, running)
        level = lv.csel_db
    return level, running


def test_csel_first_window_equals_its_sel():
    win = const_window(300.0, 0.4)
    lv, running = window_levels(win)
    assert lv.csel_db == pytest.approx(levels(win).sel_db, abs=1e-12)
    assert lv.csel_db == lv.sel_db
    assert running == window_energy(win)


def test_csel_ten_identical_150db_pulses():
    p = 10.0**7.5  # one-second window with SEL = 150 dB
    level, _ = csel_run(const_window(p, 1.0) for _ in range(10))
    assert level == pytest.approx(160.0, abs=1e-9)


def test_csel_mixed_levels_frozen():
    level, _ = csel_run(const_window(10.0 ** (t / 20.0), 1.0) for t in (140.0, 150.0, 145.0))
    assert level == pytest.approx(151.51133104744713, abs=1e-9)
    assert csel_of_levels([140.0, 150.0, 145.0]) == pytest.approx(
        151.51133104744713, abs=1e-12
    )


def test_csel_zero_window_carries_running_level():
    first, running = window_levels(const_window(500.0, 0.2))
    lv, after = window_levels(const_window(0.0, 0.2), running)
    assert lv.csel_db == first.csel_db
    assert after == running
    assert lv.spl_db is None and lv.sel_db is None and lv.leq_db is None


def test_csel_leading_zero_window_has_no_level():
    lv, running = window_levels(const_window(0.0, 0.2))
    assert lv == (None, None, None, None)
    assert running == 0.0
    assert [format_db(v) for v in lv] == [NA] * 4


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=60.0, max_value=200.0), min_size=2, max_size=8),
    st.randoms(use_true_random=False),
)
def test_csel_permutation_invariance(levels, rnd):
    shuffled = list(levels)
    rnd.shuffle(shuffled)
    wins = [const_window(10.0 ** (t / 20.0), 1.0) for t in levels]
    level, _ = csel_run(wins)
    rnd.shuffle(wins)
    shuffled_level, _ = csel_run(wins)
    assert shuffled_level == pytest.approx(level, abs=1e-9)
    assert csel_of_levels(shuffled) == pytest.approx(csel_of_levels(levels), abs=1e-9)


def test_csel_accumulator_agrees_with_level_aggregation():
    rng = np.random.default_rng(17)
    wins = [make_buffer(rng.normal(scale=10.0 ** rng.uniform(2, 6), size=3200)) for _ in range(6)]
    level, _ = csel_run(wins)
    assert level == pytest.approx(csel_of_levels([levels(w).sel_db for w in wins]), abs=1e-9)


def test_csel_never_below_any_component():
    rng = np.random.default_rng(29)
    running = 0.0
    for _ in range(5):
        win = make_buffer(rng.normal(scale=1e4, size=1600))
        lv, running = window_levels(win, running)
        assert lv.csel_db is not None
        assert lv.csel_db >= levels(win).sel_db - 1e-12


# ---------------------------------------------------------------------------
# peak measurement


def test_peaks_single_positive_sample():
    x = np.zeros(100)
    x[40] = 1.0e6
    m = measure_peaks(make_buffer(x))
    assert m.p_pos_db == pytest.approx(120.0, abs=1e-12)
    assert m.pos_index == 40
    assert measure_peaks(make_buffer(x, start=1000)).pos_index == 1040  # a global index
    assert m.p_neg_upa == 0.0
    assert m.p_neg_db is None  # a zero pressure has no level
    assert m.p_pp_db == pytest.approx(120.0, abs=1e-12)


def test_peaks_odd_symmetric_signal():
    t = np.arange(int(FS * 0.01)) / FS
    x = 1000.0 * np.sin(2.0 * np.pi * 500.0 * t)
    m = measure_peaks(make_buffer(x))
    assert m.p_pos_upa == pytest.approx(-m.p_neg_upa, rel=1e-12)


def test_peaks_brute_force_oracle():
    rng = np.random.default_rng(31)
    x = rng.normal(scale=100.0, size=500)
    m = measure_peaks(make_buffer(x))
    best_pos = max(range(len(x)), key=lambda i: (x[i], -i))
    best_neg = min(range(len(x)), key=lambda i: (x[i], i))
    assert m.p_pos_upa == x[best_pos]
    assert m.pos_index == best_pos
    assert m.p_neg_upa == x[best_neg]
    assert m.neg_index == best_neg
    span = m.p_pos_upa - m.p_neg_upa
    assert m.p_pp_db == pytest.approx(20.0 * math.log10(span), rel=1e-12)


def test_peaks_tie_takes_earliest_sample():
    x = np.zeros(50)
    x[10] = x[30] = 7.0
    x[20] = x[40] = -3.0
    m = measure_peaks(make_buffer(x))
    assert m.pos_index == 10
    assert m.neg_index == 20


def test_peaks_all_zero_errors():
    with pytest.raises(MeasureError):
        measure_peaks(make_buffer(np.zeros(10)))


def test_format_db_writes_missing_and_non_finite_levels_as_na():
    x = np.zeros(100)
    x[40] = 1.0e6
    m = measure_peaks(make_buffer(x))
    assert format_db(m.p_neg_db) == NA  # an extreme of exactly zero has no level
    assert format_db(m.p_pos_db) == "120.000000"
    const = measure_peaks(make_buffer(np.full(10, 5.0)))
    assert const.p_pp_db is None
    assert format_db(const.p_pp_db) == NA
    assert [format_db(v) for v in (None, math.inf, math.nan)] == [NA] * 3


def test_peak_spl_and_peak_levels_share_one_pressure_formula():
    # spl_peak_db, p_a_db, p_b_db and p_pp_db are each pressure_db of their
    # pressure, bit for bit, and pressure_db is math.log10 of |p|
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 3e3, 1e9):
        x = rng.normal(scale=scale, size=257)
        m = measure_peaks(make_buffer(x))
        lv, _ = window_levels(make_buffer(x))
        assert m.p_pos_db == pressure_db(x.max()) == 20.0 * math.log10(x.max())
        assert m.p_neg_db == pressure_db(x.min()) == 20.0 * math.log10(-x.min())
        assert m.p_pp_db == pressure_db(x.max() - x.min())
        assert lv.spl_db == pressure_db(max(x.max(), -x.min()))
    assert pressure_db(0.0) is None and pressure_db(-0.0) is None
