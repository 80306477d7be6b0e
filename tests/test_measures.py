import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgunkit.errors import MeasureError
from airgunkit.measures import NA, format_db, ladder_levels, pressure_db, window_energy
from airgunkit.pulse_detect import PulseEvent, format_event_row, peak_cells

from conftest import csel_of_levels, window_levels

FS = 16000.0


def const_window(p_upa, duration_s, fs=FS):
    return np.full(int(round(duration_s * fs)), p_upa)


def measure(x, running=0.0, fs=FS):
    """One window as a one-row ladder: its levels and the running energy sum after it."""
    sums = [running]
    (lv,) = ladder_levels(np.asarray(x, dtype=np.float64)[np.newaxis], fs, sums)
    return lv, sums[0]


def levels(x, fs=FS):
    """The window's own levels, with no exposure before it."""
    return measure(x, fs=fs)[0]


# ---------------------------------------------------------------------------
# window energy


def test_window_energy_rectangle_rule():
    # (1 + 4 + 9) / 4
    assert window_energy(np.array([1.0, 2.0, 3.0]), 4.0) == pytest.approx(3.5, abs=0.0)


def test_window_energy_concatenation_additive():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=100.0, size=4096)
    whole = window_energy(x, FS)
    parts = window_energy(x[:1500], FS) + window_energy(x[1500:], FS)
    assert parts == pytest.approx(whole, rel=1e-12)


# ---------------------------------------------------------------------------
# SPL


def test_spl_reference_pressure_is_zero_db():
    assert levels(const_window(1.0, 0.01)).spl_db == pytest.approx(0.0, abs=0.0)


def test_spl_megapascal_peak():
    assert levels([0.0, -1.0e6, 3.0]).spl_db == pytest.approx(120.0, abs=1e-12)


def test_spl_uses_largest_magnitude():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=50.0, size=2000)
    expected = 20.0 * math.log10(max(abs(v) for v in x))
    assert levels(x).spl_db == pytest.approx(expected, rel=1e-12)


def test_spl_all_zero_window_has_no_level():
    assert levels(const_window(0.0, 0.01)).spl_db is None
    assert levels([0.0, -0.0]).spl_db is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_spl_peak_is_the_largest_magnitude_bit_for_bit(values):
    # the ladder finds each row's peak as the larger of its max and -min, with
    # no |x| temporary; it must give the float of max |x| on every window,
    # all-negative and signed-zero windows included
    x = np.array(values)
    for w in (x, -np.abs(x), np.zeros_like(x), -np.zeros_like(x)):
        peak = float(np.max(np.abs(w)))
        assert levels(w).spl_db == (20.0 * math.log10(peak) if peak > 0.0 else None)


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
    lv = levels(x)
    assert abs(lv.sel_db - lv.leq_db) < 1e-12


def test_sel_gaussian_pulse_matches_fine_grid():
    sigma = 0.005
    t0 = 0.1
    fs = FS

    def render(rate):
        t = np.arange(int(round(0.2 * rate))) / rate
        return np.exp(-0.5 * ((t - t0) / sigma) ** 2) * 1.0e5

    coarse = levels(render(fs), fs).sel_db
    x_fine = render(10 * fs)
    fine = 10.0 * math.log10(float(np.dot(x_fine, x_fine)) / (10 * fs))
    assert coarse == pytest.approx(fine, abs=0.05)


def test_sel_empty_errors():
    with pytest.raises(MeasureError):
        ladder_levels(np.empty((1, 0)), FS, [0.0])
    # a ladder of no windows measures nothing, and leaves its sums alone
    sums = [3.0]
    assert ladder_levels(np.empty((0, 5)), FS, sums) == [] and sums == [3.0]


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e6))
def test_sel_amplitude_scaling_law(k):
    rng = np.random.default_rng(21)
    x = rng.normal(scale=10.0, size=2048)
    base = levels(x).sel_db
    scaled = levels(k * x).sel_db
    assert scaled == pytest.approx(base + 20.0 * math.log10(k), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sel_leq_identity_property(seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 6)
    x = rng.normal(scale=scale, size=int(FS))
    lv = levels(x)
    assert abs(lv.sel_db - lv.leq_db) < 1e-12


# ---------------------------------------------------------------------------
# CSEL


def csel_run(windows):
    """Fold windows through the catalog's level computation; the last csel_db and the running energy."""
    running, level = 0.0, None
    for win in windows:
        lv, running = measure(win, running)
        level = lv.csel_db
    return level, running


def test_csel_first_window_equals_its_sel():
    win = const_window(300.0, 0.4)
    lv, running = measure(win)
    assert lv.csel_db == pytest.approx(levels(win).sel_db, abs=1e-12)
    assert lv.csel_db == lv.sel_db
    assert running == window_energy(win, FS)


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
    first, running = measure(const_window(500.0, 0.2))
    lv, after = measure(const_window(0.0, 0.2), running)
    assert lv.csel_db == first.csel_db
    assert after == running
    assert lv.spl_db is None and lv.sel_db is None and lv.leq_db is None


def test_csel_leading_zero_window_has_no_level():
    lv, running = measure(const_window(0.0, 0.2))
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
    wins = [rng.normal(scale=10.0 ** rng.uniform(2, 6), size=3200) for _ in range(6)]
    level, _ = csel_run(wins)
    assert level == pytest.approx(csel_of_levels([levels(w).sel_db for w in wins]), abs=1e-9)


def test_csel_never_below_any_component():
    rng = np.random.default_rng(29)
    running = 0.0
    for _ in range(5):
        win = rng.normal(scale=1e4, size=1600)
        lv, running = measure(win, running)
        assert lv.csel_db is not None
        assert lv.csel_db >= levels(win).sel_db - 1e-12


# ---------------------------------------------------------------------------
# ladders


def bits(lv):
    """A Levels as the exact bits of its floats, None kept."""
    return tuple(None if v is None else v.hex() for v in lv)


ROW_KINDS = ("zero", "noise", "negative", "spike", "constant")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ladder_matches_windows_measured_one_by_one(data):
    # each row's levels and running sum must be those of the window measured
    # alone, bit for bit; at w >= 16,000 a batched row energy would differ
    w = data.draw(st.one_of(st.integers(1, 2_000), st.integers(16_000, 20_000), st.integers(1, 20_000)), "w")
    n = data.draw(st.integers(1, 10), "n")
    slot = data.draw(st.integers(0, 11 - n), "slot")
    sums = data.draw(st.lists(st.sampled_from([0.0, 1e-30, 3.5, 1e12]) | st.floats(0.0, 1e15),
                              min_size=11, max_size=11), "running sums")
    kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), min_size=n, max_size=n), "row kinds")
    fs = data.draw(st.sampled_from([2000.0, 16000.0, 512000.0]), "fs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    offset = data.draw(st.integers(0, 7), "offset")  # a ladder starts anywhere in its buffer
    buf = np.empty(offset + n * w)
    rows = buf[offset:].reshape(n, w)
    for row, kind in zip(rows, kinds):
        noise = rng.normal(scale=10.0 ** rng.uniform(-3, 9), size=w)
        row[:] = {"zero": 0.0, "noise": noise, "negative": -np.abs(noise), "constant": noise[0],
                  "spike": np.where(np.arange(w) == rng.integers(w), noise[0], 0.0)}[kind]
    want_sums = list(sums)
    want = []
    for k in range(n):
        lv, want_sums[slot + k] = window_levels(rows[k], fs, want_sums[slot + k])
        want.append(lv)
    got_sums = list(sums)
    got = ladder_levels(rows, fs, got_sums, slot)
    assert [bits(lv) for lv in got] == [bits(lv) for lv in want]
    assert [v.hex() for v in got_sums] == [v.hex() for v in want_sums]


# ---------------------------------------------------------------------------
# peak levels


def pulse(x):
    """The PulseEvent of a window searched whole: its largest and smallest samples, earliest on ties."""
    i_pos, i_neg = int(np.argmax(x)), int(np.argmin(x))
    return PulseEvent(0, FS, i_pos, float(x[i_pos]), i_neg, float(x[i_neg]), 0, len(x), i_pos)


def test_format_db_writes_missing_and_non_finite_levels_as_na():
    x = np.zeros(100)
    x[40] = 1.0e6
    cells = peak_cells(pulse(x))
    assert cells[2] == "120.000000"
    assert cells[5] == NA  # an extreme of exactly zero has no level
    const = pulse(np.full(10, 5.0))
    assert pressure_db(const.p_pos_upa - const.p_neg_upa) is None
    assert format_event_row(const, "linear", 0).split(",")[-2] == NA  # p_pp_db
    assert [format_db(v) for v in (None, math.inf, math.nan)] == [NA] * 3


def test_peak_spl_and_peak_levels_share_one_pressure_formula():
    # spl_peak_db, p_a_db, p_b_db and p_pp_db are each pressure_db of their
    # pressure, bit for bit, and pressure_db is math.log10 of |p|
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 3e3, 1e9):
        x = rng.normal(scale=scale, size=257)
        ev = pulse(x)
        lv = levels(x)
        assert (ev.p_pos_upa, ev.p_neg_upa) == (x.max(), x.min())
        assert pressure_db(ev.p_pos_upa) == 20.0 * math.log10(x.max())
        assert pressure_db(ev.p_neg_upa) == 20.0 * math.log10(-x.min())
        row = format_event_row(ev, "linear", 0).split(",")
        # p_a_db, p_b_db and p_pp_db as written
        assert [row[5], row[8], row[9]] == [format_db(pressure_db(p))
                                            for p in (x.max(), x.min(), x.max() - x.min())]
        assert row[3:9] == peak_cells(ev)
        assert lv.spl_db == pressure_db(max(x.max(), -x.min()))
    assert pressure_db(0.0) is None and pressure_db(-0.0) is None
