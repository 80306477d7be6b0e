import math
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airgunkit.measures import NA, pressure_db
from airgunkit.pulse_detect import (
    EVENTS_HEADER,
    MAX_EXCURSION_S,
    SEARCH_AFTER_S,
    SEARCH_BEFORE_S,
    DetectorConfig,
    PulseScanner,
    detect_pulses,
    format_event_row,
    search_hold,
)
from airgunkit.signal_io import RollingBuffer, chunk_length

from conftest import ArrayStream

FS = 16000.0
CFG = DetectorConfig(threshold_db=80.0, min_ipi_s=5.0)


def spike_train(times_s, amps_upa, duration_s, fs=FS):
    """Isolated single-sample spikes: peak times are exact by construction."""
    x = np.zeros(int(round(duration_s * fs)))
    for t, a in zip(times_s, amps_upa):
        x[int(round(t * fs))] = a
    return x


def at(t_s, fs=FS):
    """Sample index of a time in seconds, as spike_train places it."""
    return int(round(t_s * fs))


def event_rows(events):
    """The events-CSV rows of one stream's events, as ``detect`` writes them, split into cells."""
    return [format_event_row(ev, "linear", i, next_event=nxt).split(",")
            for i, (ev, nxt) in enumerate(zip_longest(events, events[1:]))]


def chunked(x, fs, chunk_s):
    step = int(round(chunk_s * fs))
    return [x[i : i + step] for i in range(0, len(x), step)]


# ---------------------------------------------------------------------------
# config


def test_config_validates_ipi_exceeds_window():
    with pytest.raises(ValueError):
        DetectorConfig(threshold_db=100.0, min_ipi_s=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(threshold_db=100.0, min_ipi_s=1.5)  # equal to the 1.5-s window
    DetectorConfig(threshold_db=100.0, min_ipi_s=1.5000001)  # just above it is accepted


@pytest.mark.parametrize("value", [True, False, "100", None])
@pytest.mark.parametrize("name", ["threshold_db", "min_ipi_s"])
def test_config_rejects_a_non_real_field_by_name(name, value):
    # threshold_db=True was a 1-dB threshold; a str failed with a bare TypeError
    fields = {"threshold_db": 100.0, "min_ipi_s": 5.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        DetectorConfig(**fields)


def test_config_window_split_one_to_two():
    # the window is fixed: 0.5 s before the anchor and 1.0 s after, in whole samples
    assert (SEARCH_BEFORE_S, SEARCH_AFTER_S) == (0.5, 1.0)
    for fs in (2000.0, 16000.0, 512000.0, 44100.0):
        scanner = PulseScanner(DetectorConfig(threshold_db=100.0), fs)
        assert (scanner.pre, scanner.post) == (round(fs / 2), round(fs))


def test_threshold_db_to_pressure():
    cfg = DetectorConfig(threshold_db=80.0, min_ipi_s=5.0)
    assert cfg.threshold_upa == pytest.approx(1.0e4, rel=1e-12)


# ---------------------------------------------------------------------------
# basic detection


def test_silence_yields_no_events():
    assert detect_pulses(ArrayStream([np.zeros(int(10 * FS))], FS), CFG) == []


def test_subthreshold_signal_yields_no_events():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=100.0, size=int(10 * FS))  # ~40 dB under threshold
    assert detect_pulses(ArrayStream([x], FS), CFG) == []


def test_single_pulse_detected():
    x = spike_train([3.0], [1.0e5], 10.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    ev = events[0]
    assert ev.pos_index == at(3.0)
    assert pressure_db(ev.p_pos_upa) == pytest.approx(100.0, abs=1e-9)
    assert event_rows(events)[0][10] == "NA"  # no next pulse, no IPI


def test_sample_exactly_at_threshold_fires():
    x = spike_train([2.0], [1.0e4], 6.0)  # exactly 80 dB
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1


def test_negative_spike_fires_and_reports_peaks():
    x = spike_train([2.0, 2.01], [-2.0e5, 5.0e4], 8.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    ev = events[0]
    assert ev.neg_index == at(2.0)
    assert ev.pos_index == at(2.01)
    assert (ev.p_pos_upa, ev.p_neg_upa) == (5.0e4, -2.0e5)
    assert float(event_rows(events)[0][9]) == pytest.approx(20.0 * math.log10(2.5e5), abs=1e-6)


def test_pulse_near_stream_start_is_measured():
    x = spike_train([0.1], [1.0e5], 5.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    assert events[0].pos_index == at(0.1)
    assert events[0].search_start_index == 0  # clipped at stream head


def test_ipi_fills_forward():
    x = spike_train([2.0, 12.0, 28.0], [1e5, 2e5, 1.5e5], 35.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 3
    assert [row[10] for row in event_rows(events)] == ["10.000000000", "16.000000000", "NA"]


# ---------------------------------------------------------------------------
# refractory spacing


def test_pulses_closer_than_min_ipi_merge():
    x = spike_train([10.0, 13.0], [1e5, 9e4], 20.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    assert events[0].pos_index == at(10.0)


def test_pulses_beyond_min_ipi_both_fire():
    x = spike_train([10.0, 16.0], [1e5, 9e4], 22.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 2


def test_echo_inside_search_window_does_not_double_fire():
    # strong pulse with an above-threshold echo 0.4 s later
    x = spike_train([5.0, 5.4], [3e5, 5e4], 12.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    assert events[0].pos_index == at(5.0)


# ---------------------------------------------------------------------------
# anchor picks the global extreme of the search window


def test_anchor_is_largest_magnitude_in_window():
    # first crest crosses the threshold but the bigger crest 0.3 s later
    # must win the anchor
    x = spike_train([4.0, 4.3], [2e4, 8e5], 10.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    assert events[0].pos_index == at(4.3)
    assert pressure_db(events[0].p_pos_upa) == pytest.approx(20.0 * math.log10(8e5), abs=1e-9)


def test_peak_window_straddles_anchor_asymmetrically():
    # the only above-threshold sample anchors at 6.0; sub-threshold wiggles
    # inside [5.5, 7.0) still count for the signed extremes, while anything
    # past the window end does not
    x = spike_train([6.0, 5.7, 6.9, 7.05], [8e5, -9.0e3, -9.9e3, -9.95e3], 12.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    ev = events[0]
    assert ev.pos_index == at(6.0)
    assert ev.neg_index == at(6.9)


def test_first_excursion_anchors_despite_bigger_neighbour():
    # two isolated excursions 0.3 s apart: the earlier one opens the event,
    # the larger one lands inside its search window as the measured peak
    x = spike_train([5.7, 6.0], [-3e5, 8e5], 12.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(events) == 1
    ev = events[0]
    assert ev.neg_index == at(5.7)
    assert ev.pos_index == at(6.0)


def test_equal_peaks_in_one_excursion_anchor_on_the_earlier():
    # one excursion holding +9e4 and -9e4: equal |p|, the earlier one anchors,
    # also when a chunk boundary falls between them
    x = np.zeros(int(20 * FS))
    i = int(5 * FS)
    x[i : i + 200] = 2e4
    x[i + 50] = 9e4
    x[i + 150] = -9e4
    whole = detect_pulses(ArrayStream([x], FS), CFG)
    assert [ev.anchor_index for ev in whole] == [i + 50]
    split = ArrayStream([x[: i + 100], x[i + 100 :]], FS)
    assert events_key(detect_pulses(split, CFG)) == events_key(whole)


def reference_anchors(x, cfg, fs=FS):
    """Loop reference: one argmax per excursion, then the refractory spacing."""
    mask = np.abs(x) >= cfg.threshold_upa
    d = np.diff(np.concatenate(([0], mask.view(np.int8), [0])))
    min_gap = round(cfg.min_ipi_s * fs)
    out = []
    for s, e in zip(np.flatnonzero(d == 1), np.flatnonzero(d == -1)):
        a = int(s + np.argmax(np.abs(x[s:e])))
        if not out or a - out[-1] >= min_gap:
            out.append(a)
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.3, max_value=9.0))
def test_vectorized_anchors_match_loop_reference(seed, chunk_s):
    # bursts of coarsely quantized noise around the threshold: many multi-sample
    # excursions, many ties
    rng = np.random.default_rng(seed)
    x = np.zeros(int(40 * FS))
    for t in rng.uniform(0.0, 39.0, size=rng.integers(1, 12)):
        i = int(t * FS)
        n = int(rng.integers(10, 4000))
        x[i : i + n] = np.round(rng.normal(scale=2e4, size=len(x[i : i + n])), -3)
    buf = RollingBuffer(search_hold(FS), chunk_length(FS))
    scanner = PulseScanner(CFG, FS)
    kept = []
    for c in chunked(x, FS, chunk_s):
        buf.extend(len(c))[:] = c
        kept += scanner.scan(buf)
        buf.trim(scanner.keep_from)
    kept += scanner.scan(buf, final=True)
    ref = reference_anchors(x, CFG)
    got = [ev.anchor_index for ev in kept]
    assert len(got) + scanner.t_a_drops == len(ref)
    assert set(got) <= set(ref) and got == sorted(got)


_T = CFG.threshold_upa
# samples at exactly +-t, one ulp either side of each, signed zeros and a
# larger peak of each sign
_EDGE_SAMPLES = (_T, -_T, np.nextafter(_T, 0.0), np.nextafter(_T, np.inf), np.nextafter(-_T, 0.0),
                 np.nextafter(-_T, -np.inf), 0.0, -0.0, 2.0 * _T, -3.0 * _T)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2900), st.lists(st.sampled_from(_EDGE_SAMPLES), min_size=1, max_size=40)),
                min_size=1, max_size=12),
       st.integers(1, 700))
def test_anchor_mask_matches_the_rectified_reference_at_the_threshold(bursts, chunk):
    # at 100 Hz a pulse's search window is 150 samples and min_ipi 500: a
    # 3000-sample stream of bursts made of threshold-edge values, scanned in
    # chunks of ``chunk`` samples
    fs = 100.0
    x = np.zeros(3000)
    for start, values in bursts:
        x[start : start + len(values)] = values
    buf = RollingBuffer(search_hold(fs), chunk_length(fs))
    scanner = PulseScanner(CFG, fs)
    kept = []
    for c in chunked(x, fs, chunk / fs):
        buf.extend(len(c))[:] = c
        kept += scanner.scan(buf)
        buf.trim(scanner.keep_from)
    kept += scanner.scan(buf, final=True)
    ref = reference_anchors(x, CFG, fs)
    got = [ev.anchor_index for ev in kept]
    assert len(got) + scanner.t_a_drops == len(ref)
    assert set(got) <= set(ref) and got == sorted(got)


def test_t_a_spacing_drops_are_counted():
    # anchors (the big negative spikes) exactly 5.0 s apart; each pulse's
    # positive peak sits at the far end of its search window, so the t_A
    # values are 3.52 s apart and the second pulse is dropped
    x = spike_train([10.0, 10.99, 15.0, 14.51], [-1e5, 5e3, -1e5, 5e3], 25.0)
    buf = RollingBuffer(search_hold(FS), chunk_length(FS))
    buf.extend(len(x))[:] = x
    scanner = PulseScanner(CFG, FS)
    kept = scanner.scan(buf, final=True)
    assert [ev.anchor_index for ev in kept] == [int(10.0 * FS)]
    assert kept[0].pos_index == at(10.99)
    assert scanner.t_a_drops == 1
    assert events_key(detect_pulses(ArrayStream([x], FS), CFG)) == events_key(kept)


def test_t_a_exactly_min_gap_apart_are_both_kept():
    # anchors (the big negative spikes) 5.0 s apart; each positive peak, which
    # sets t_A, sits 0.9 s after its anchor.  With the two t_A exactly min_gap
    # samples apart both pulses are kept; one sample closer, the second drops
    min_gap = round(CFG.min_ipi_s * FS)
    t_a = at(10.9)
    for closer, want_kept, want_drops in ((0, [t_a, t_a + min_gap], 0), (1, [t_a], 1)):
        x = np.zeros(at(25.0))
        x[[at(10.0), at(15.0)]] = -1e5
        x[[t_a, t_a + min_gap - closer]] = 5e3
        buf = RollingBuffer(search_hold(FS), chunk_length(FS))
        buf.extend(len(x))[:] = x
        scanner = PulseScanner(CFG, FS)
        kept = scanner.scan(buf, final=True)
        assert [ev.pos_index for ev in kept] == want_kept
        assert scanner.t_a_drops == want_drops
        assert events_key(detect_pulses(ArrayStream([x], FS), CFG)) == events_key(kept)


def test_long_excursion_is_cut_into_pieces_whatever_the_chunking():
    # 40 s above threshold without a break: pieces [2, 17), [17, 32), [32, 42)
    x = np.zeros(int(50 * FS))
    x[int(2 * FS) : int(42 * FS)] = 2e4
    x[int(5 * FS)] = 5e4
    x[int(20 * FS)] = 6e4
    whole = detect_pulses(ArrayStream([x], FS), CFG)
    assert [ev.anchor_index for ev in whole] == [int(t * FS) for t in (5.0, 20.0, 32.0)]
    for chunk_s in (0.9, 7.3, 16.0):
        assert events_key(detect_pulses(ArrayStream(chunked(x, FS, chunk_s), FS), CFG)) == events_key(whole)
    # the scanner never asks to hold much more than one piece
    buf = RollingBuffer(search_hold(FS), chunk_length(FS))
    scanner = PulseScanner(CFG, FS)
    for c in chunked(x, FS, 1.0):
        buf.extend(len(c))[:] = c
        scanner.scan(buf)
        buf.trim(scanner.keep_from)
        assert buf.end - buf.start <= (MAX_EXCURSION_S + SEARCH_BEFORE_S + SEARCH_AFTER_S + 1.0) * FS


def test_cut_excursions_are_counted_once_whatever_the_chunking():
    # one excursion exactly MAX_EXCURSION_S long (one piece), one 35 s long
    # (three pieces) and one a sample longer than MAX_EXCURSION_S (two pieces)
    piece = round(MAX_EXCURSION_S * FS)
    x = np.zeros(int(120 * FS))
    for start, length in ((int(2 * FS), piece), (int(30 * FS), int(35 * FS)), (int(80 * FS), piece + 1)):
        x[start : start + length] = 2e4
    for chunk_s in (0.9, 7.3, 16.0, 120.0):
        buf = RollingBuffer(search_hold(FS), chunk_length(FS))
        scanner = PulseScanner(CFG, FS)
        for c in chunked(x, FS, chunk_s):
            buf.extend(len(c))[:] = c
            scanner.scan(buf)
            buf.trim(scanner.keep_from)
        scanner.scan(buf, final=True)
        assert scanner.cut_excursions == 2, chunk_s


# ---------------------------------------------------------------------------
# peak measurement: the extremes of each search window


def test_peaks_single_positive_sample():
    x = spike_train([10.0], [1.0e6], 20.0)
    (ev,) = detect_pulses(ArrayStream(chunked(x, FS, 0.7), FS), CFG)
    assert ev.pos_index == at(10.0)  # a global index of the stream
    assert pressure_db(ev.p_pos_upa) == pytest.approx(120.0, abs=1e-12)
    assert ev.p_neg_upa == 0.0
    assert ev.neg_index == ev.search_start_index  # the earliest of the tied zeros
    assert pressure_db(ev.p_neg_upa) is None  # a zero pressure has no level
    assert event_rows([ev])[0][8] == NA  # p_b_db
    assert pressure_db(ev.p_pos_upa - ev.p_neg_upa) == pytest.approx(120.0, abs=1e-12)


def test_peaks_odd_symmetric_signal():
    x = np.zeros(at(20.0))
    t = np.arange(int(FS * 0.01)) / FS
    x[at(10.0) : at(10.0) + len(t)] = 1.0e5 * np.sin(2.0 * np.pi * 500.0 * t)
    (ev,) = detect_pulses(ArrayStream([x], FS), CFG)
    assert ev.p_pos_upa == pytest.approx(-ev.p_neg_upa, rel=1e-12)


def test_peaks_brute_force_oracle():
    # noise about the threshold throughout: every search window is full of
    # candidates, and each event's extremes are those of its own window
    rng = np.random.default_rng(31)
    x = rng.normal(scale=CFG.threshold_upa, size=at(22.0))
    events = detect_pulses(ArrayStream(chunked(x, FS, 1.3), FS), CFG)
    assert len(events) >= 3
    for ev in events:
        lo = max(ev.anchor_index - at(SEARCH_BEFORE_S), 0)
        hi = min(ev.anchor_index + at(SEARCH_AFTER_S), len(x))
        best_pos = max(range(lo, hi), key=lambda i: (x[i], -i))
        best_neg = min(range(lo, hi), key=lambda i: (x[i], i))
        assert (ev.pos_index, ev.p_pos_upa) == (best_pos, x[best_pos])
        assert (ev.neg_index, ev.p_neg_upa) == (best_neg, x[best_neg])
        span = ev.p_pos_upa - ev.p_neg_upa
        assert pressure_db(span) == pytest.approx(20.0 * math.log10(span), rel=1e-12)


def test_peaks_reach_both_ends_of_the_search_window():
    # sub-threshold extremes on the first and last samples of each window,
    # and larger ones one sample outside it, which must not count
    pre, post = at(SEARCH_BEFORE_S), at(SEARCH_AFTER_S)
    a, b = at(10.0), at(20.0)
    x = np.zeros(at(30.0))
    x[a], x[a - pre], x[a - pre - 1] = 1.0e5, -9.0e3, -9.5e3
    x[b], x[b + post - 1], x[b + post] = -1.0e5, 9.0e3, 9.5e3
    first, second = detect_pulses(ArrayStream(chunked(x, FS, 0.9), FS), CFG)
    assert (first.anchor_index, first.neg_index) == (a, a - pre)
    assert (second.anchor_index, second.pos_index) == (b, b + post - 1)


def test_peaks_tie_takes_earliest_sample():
    # the anchor is the first -1e5 sample; each extreme is tied, the positive
    # one, below the threshold, on either side of the anchor, and the
    # earliest sample of each wins
    a = at(10.0)
    x = np.zeros(at(20.0))
    x[[a, a + 200]] = -1.0e5
    x[[a - 100, a + 100]] = 7.0e3
    (ev,) = detect_pulses(ArrayStream([x], FS), CFG)
    assert ev.anchor_index == a
    assert (ev.pos_index, ev.neg_index) == (a - 100, a)


# ---------------------------------------------------------------------------
# streaming / chunk invariance


def events_key(events):
    return [
        (ev.anchor_index, ev.pos_index, ev.p_pos_upa, ev.neg_index, ev.p_neg_upa)
        for ev in events
    ]


def test_chunked_equals_whole():
    rng = np.random.default_rng(17)
    times = np.sort(rng.uniform(2.0, 290.0, size=12))
    times = times[np.diff(np.concatenate([[-10.0], times])) > 6.0]
    amps = rng.uniform(5e4, 9e5, size=len(times))
    x = spike_train(times, amps, 300.0)
    whole = detect_pulses(ArrayStream([x], FS), CFG)
    assert len(whole) == len(times)
    for chunk_s in (7.3, 60.0, 1.0):
        parts = detect_pulses(ArrayStream(chunked(x, FS, chunk_s), FS), CFG)
        assert events_key(parts) == events_key(whole), chunk_s


def test_pulse_straddling_chunk_boundary():
    # anchor 3 samples before a 60 s boundary; the undecided tail must carry
    x = spike_train([59.99981, 60.4], [6e5, -2e5], 90.0)
    whole = detect_pulses(ArrayStream([x], FS), CFG)
    parts = detect_pulses(ArrayStream(chunked(x, FS, 60.0), FS), CFG)
    assert events_key(parts) == events_key(whole)
    assert len(parts) == 1
    assert parts[0].neg_index == at(60.4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.9, max_value=33.0))
@example(2157, 1.0)  # larger extreme 0.8 s after the anchor
def test_detection_invariants_random_trains(seed, chunk_s):
    rng = np.random.default_rng(seed)
    n = rng.integers(0, 10)
    times = np.sort(rng.uniform(1.0, 115.0, size=n))
    amps = 10.0 ** rng.uniform(4.2, 6.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    x = spike_train(times, amps, 120.0)
    events = detect_pulses(ArrayStream(chunked(x, FS, chunk_s), FS), CFG)

    # spacing respects the refractory interval on anchors and on t_A; the
    # larger window extreme is not always the anchor (a bigger spike can sit
    # later in the search window), so the anchor is read from the event
    for a, b in zip(events, events[1:]):
        assert b.anchor_index - a.anchor_index >= round(CFG.min_ipi_s * FS)
        assert b.pos_index - a.pos_index >= round(CFG.min_ipi_s * FS)
    # every event's windowed extremes at least reach the threshold
    for ev in events:
        assert max(ev.p_pos_upa, -ev.p_neg_upa) >= CFG.threshold_upa
    # chunking must not change the outcome
    whole = detect_pulses(ArrayStream([x], FS), CFG)
    assert events_key(events) == events_key(whole)


def test_amplitude_scaling_equivariance():
    rng = np.random.default_rng(23)
    times = [3.0, 11.0, 25.0]
    amps = [2e5, -6e5, 9e4]
    x = spike_train(times, amps, 30.0)
    base = detect_pulses(ArrayStream([x], FS), CFG)
    k = 37.5
    scaled_cfg = DetectorConfig(
        threshold_db=CFG.threshold_db + 20.0 * math.log10(k), min_ipi_s=CFG.min_ipi_s
    )
    scaled = detect_pulses(ArrayStream([k * x], FS), scaled_cfg)
    assert [ev.anchor_index for ev in scaled] == [ev.anchor_index for ev in base]
    assert [ev.pos_index for ev in scaled] == [ev.pos_index for ev in base]


def test_empty_stream_is_empty():
    assert detect_pulses(ArrayStream([], FS), CFG) == []


# ---------------------------------------------------------------------------
# event serialization


def test_events_header_and_row_format():
    assert EVENTS_HEADER == (
        "channel_id,weighting,pulse_index,t_a_s,p_a_upa,p_a_db,"
        "t_b_s,p_b_upa,p_b_db,p_pp_db,ipi_s"
    )
    x = spike_train([2.0, 12.0], [1e5, 1e5], 20.0)
    events = detect_pulses(ArrayStream([x], FS), CFG)
    rows = event_rows(events)
    first = rows[0]
    assert first[0] == "0"
    assert first[1] == "linear"
    assert first[2] == "0"
    assert first[3] == "2.000000000"
    assert first[10] == "10.000000000"
    assert rows[1][10] == "NA"
    assert format_event_row(events[0], "linear", 0).split(",")[10] == "NA"  # no next event given
