import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgunkit.pipeline import (
    CATALOG_HEADER,
    FEATURE_COLUMNS,
    FEATURES_PER_RECORD,
    extract_record,
    sort_records,
    write_catalog,
)
from airgunkit.measures import NA, format_db, ladder_levels, pressure_db
from airgunkit.pulse_detect import (
    MAX_EXCURSION_S,
    SEARCH_AFTER_S,
    SEARCH_BEFORE_S,
    DetectorConfig,
    PulseEvent,
    detect_pulses,
)
from airgunkit import signal_io
from airgunkit.runner import extract_stream
from airgunkit.signal_io import RollingBuffer, format_time, open_manifest, read_span
from airgunkit.weighting import CANONICAL_ORDER, WeightingKind, WeightingSpec, apply_filter, design_filter
from airgunkit.windows import LATE_WINDOW_COUNT, LATE_WINDOW_S, EnergyBounds, energy_bounds

from conftest import ArrayStream, catalog_sorted, csel_of_levels, ledger_total, read_rows, window_levels, write_wav

FS = 16000.0


# ---------------------------------------------------------------------------
# schema


GOLDEN_HEADER = (
    "run_id,channel_id,weighting,pulse_index,"
    "early_t5_s,"
    "late_01_start_s,late_02_start_s,late_03_start_s,late_04_start_s,"
    "late_05_start_s,late_06_start_s,late_07_start_s,late_08_start_s,"
    "late_09_start_s,late_10_start_s,"
    "t_a_s,p_a_upa,p_a_db,t_b_s,p_b_upa,p_b_db,"
    "early_spl_peak_db,early_sel_db,early_leq_db,early_csel_db,"
    "late_01_spl_peak_db,late_01_sel_db,late_01_leq_db,late_01_csel_db,"
    "late_02_spl_peak_db,late_02_sel_db,late_02_leq_db,late_02_csel_db,"
    "late_03_spl_peak_db,late_03_sel_db,late_03_leq_db,late_03_csel_db,"
    "late_04_spl_peak_db,late_04_sel_db,late_04_leq_db,late_04_csel_db,"
    "late_05_spl_peak_db,late_05_sel_db,late_05_leq_db,late_05_csel_db,"
    "late_06_spl_peak_db,late_06_sel_db,late_06_leq_db,late_06_csel_db,"
    "late_07_spl_peak_db,late_07_sel_db,late_07_leq_db,late_07_csel_db,"
    "late_08_spl_peak_db,late_08_sel_db,late_08_leq_db,late_08_csel_db,"
    "late_09_spl_peak_db,late_09_sel_db,late_09_leq_db,late_09_csel_db,"
    "late_10_spl_peak_db,late_10_sel_db,late_10_leq_db,late_10_csel_db"
)


def test_catalog_header_is_frozen():
    assert CATALOG_HEADER == GOLDEN_HEADER


def test_exactly_61_feature_columns():
    assert FEATURES_PER_RECORD == 61
    assert len(FEATURE_COLUMNS) == 61
    assert len(GOLDEN_HEADER.split(",")) == 65


# ---------------------------------------------------------------------------
# ledger arithmetic


def test_ledger_total_survey_example():
    assert ledger_total(3, 11, 50, 5, 160_122) == 146_511_630


def test_ledger_total_single_pulse():
    assert ledger_total(3, 11, 50, 1, 1) == 183
    assert ledger_total(1, 11, 50, 1, 1) == 61


def test_ledger_total_zero_pulses():
    assert ledger_total(3, 11, 50, 7, 0) == 0


def test_ledger_total_rejects_negative():
    with pytest.raises(ValueError):
        ledger_total(3, 11, 50, -1, 10)


# ---------------------------------------------------------------------------
# record assembly helpers


def at(t_s):
    return round(t_s * FS)


def fake_event(t_anchor, channel_id=0):
    return PulseEvent(
        channel_id=channel_id,
        sample_rate_hz=FS,
        pos_index=at(t_anchor),
        p_pos_upa=1.0e5,
        neg_index=at(t_anchor + 0.01),
        p_neg_upa=-5.0e4,
        search_start_index=at(t_anchor) - 8000,
        search_end_index=at(t_anchor) + 16000,
        anchor_index=at(t_anchor),
    )


def new_csel():
    """Running energies of the early slot and the late slots, before any pulse."""
    return [0.0] * (1 + LATE_WINDOW_COUNT)


BOUNDS = EnergyBounds(at(2.0), at(2.5))


def const_levels(csel, early_upa=1000.0, late_upa=10.0, n_valid=LATE_WINDOW_COUNT):
    """The levels of a record of constant windows, advancing ``csel``.

    The early window is 0.5 s long; ``n_valid`` one-second late windows follow it.
    """
    early = np.full((1, int(0.5 * FS)), early_upa)
    late = np.full((n_valid, int(FS)), late_upa)
    return ladder_levels(early, FS, csel) + ladder_levels(late, FS, csel, slot=1)


def const_record(csel, pulse_index, early_upa=1000.0, late_upa=10.0):
    return extract_record(fake_event(2.1), BOUNDS, const_levels(csel, early_upa, late_upa),
                          weighting="linear", pulse_index=pulse_index)


def record_cells(levels):
    """The 61 cells of the record of the pulse at 2.1 s that is built from ``levels``."""
    return extract_record(fake_event(2.1), BOUNDS, levels, weighting="linear", pulse_index=0).split(",")[3:]


def test_record_carries_61_cells_no_na_when_all_valid():
    rec = const_record(new_csel(), 0).split(",")
    assert rec[:3] == ["0", "linear", "0"]  # channel, weighting, pulse index
    cells = rec[3:]
    assert len(cells) == 61
    assert NA not in cells


def test_record_invalid_late_windows_are_na_blocks():
    cells = record_cells(const_levels(new_csel(), 500.0, 10.0, n_valid=4))
    assert len(cells) == 61
    assert cells.count(NA) == 4 * 6  # six invalid windows, four measures each
    assert NA not in cells[:37] and cells[37:] == [NA] * 24  # slots 5..10 hold the NA blocks
    # start times stay concrete even for invalid windows
    for i in range(10):
        assert cells[1 + i] != NA


def test_record_level_formats():
    cells = record_cells(const_levels(new_csel()))
    assert cells[0] == "2.000000000"  # early_t5_s
    assert cells[1] == "2.500000000"  # late_01_start_s
    assert cells[11] == "2.100000000"  # t_a_s
    assert cells[12] == "100000.000000"  # p_a_upa
    assert cells[13] == "100.000000"  # p_a_db, the level of p_a_upa
    assert cells[16] == format_db(pressure_db(-5.0e4)) == "93.979400"  # p_b_db
    # early window: 1000 uPa over 0.5 s
    assert cells[17] == "60.000000"  # early_spl_peak_db
    assert cells[18] == "56.989700"  # early_sel_db
    assert cells[19] == "60.000000"  # early_leq_db
    assert cells[20] == "56.989700"  # early_csel_db first pulse = its SEL


def test_record_rejects_misaligned_late_ladder():
    # the ladder starts at i95 by construction: late_01_start_s is the early
    # window's upper bound and the slots follow one window apart
    cells = record_cells(const_levels(new_csel()))
    assert cells[1:11] == [format_time(BOUNDS.i95 + k * at(1.0), FS) for k in range(LATE_WINDOW_COUNT)]
    # a ladder without its early window, or with more late windows than slots, is refused
    levels = const_levels(new_csel())
    for bad in ([], levels + levels[-1:]):
        with pytest.raises(ValueError):
            extract_record(fake_event(2.1), BOUNDS, bad, weighting="linear", pulse_index=0)


def test_csel_slots_accumulate_across_pulses():
    state = new_csel()
    lv1 = const_levels(state, early_upa=1000.0)
    lv2 = const_levels(state, early_upa=2000.0)
    e1 = 1000.0**2 * 0.5
    e2 = 2000.0**2 * 0.5
    assert lv1[0].csel_db == pytest.approx(10.0 * math.log10(e1), abs=1e-9)
    assert lv2[0].csel_db == pytest.approx(10.0 * math.log10(e1 + e2), abs=1e-9)
    assert lv2[0].csel_db == pytest.approx(csel_of_levels([lv1[0].sel_db, lv2[0].sel_db]), abs=1e-9)
    # late slot 3 accumulated independently of the early slot
    assert lv2[4].csel_db == pytest.approx(csel_of_levels([lv1[4].sel_db, lv2[4].sel_db]), abs=1e-9)
    # the record prints the levels it is handed
    cells = record_cells(lv2)
    assert (cells[20], cells[17 + 4 * 4 + 3]) == (format_db(lv2[0].csel_db), format_db(lv2[4].csel_db))


def test_zero_energy_window_keeps_cumulative_level():
    state = new_csel()
    lv1 = const_levels(state, early_upa=1000.0)
    lv2 = const_levels(state, early_upa=0.0)
    assert lv2[0].spl_db is None
    assert lv2[0].sel_db is None
    assert lv2[0].leq_db is None
    assert lv2[0].csel_db == lv1[0].csel_db


def test_zero_energy_leading_window_has_no_csel():
    state = new_csel()
    levels = const_levels(state, early_upa=0.0)
    assert levels[0].csel_db is None
    cells = record_cells(levels)
    assert cells[17] == NA and cells[20] == NA


# ---------------------------------------------------------------------------
# sorting and serialization


def test_sort_records_orders_by_channel_pulse_weighting():
    cells = ",".join(record_cells(const_levels(new_csel())))
    streams = [(ch, [f"{ch},{w},{k},{cells}" for k in range(2)])
               for ch in (0, 1) for w in ("linear", "lfc", "mfc")]
    key = [tuple(row.split(",")[:3]) for row in sort_records(streams)]
    assert key == [
        ("0", "linear", "0"), ("0", "lfc", "0"), ("0", "mfc", "0"),
        ("0", "linear", "1"), ("0", "lfc", "1"), ("0", "mfc", "1"),
        ("1", "linear", "0"), ("1", "lfc", "0"), ("1", "mfc", "0"),
        ("1", "linear", "1"), ("1", "lfc", "1"), ("1", "mfc", "1"),
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), min_size=3, max_size=3), min_size=1, max_size=4),
       st.sets(st.sampled_from(CANONICAL_ORDER), min_size=1))
def test_sort_records_interleave_equals_the_keyed_sort(lengths, kinds):
    # each channel's streams in canonical weighting order, each stream's rows
    # in pulse order and of its own length: the interleave is the keyed sort
    kinds = [k.value for k in CANONICAL_ORDER if k in kinds]
    streams = [(ch, [f"{ch},{w},{k},c" for k in range(n)])
               for ch, ns in enumerate(lengths) for w, n in zip(kinds, ns)]
    rows = list(sort_records(streams))
    assert rows == catalog_sorted(row for _, stream in streams for row in stream)


def test_write_catalog_counts_and_round_trip(tmp_path):
    state = new_csel()
    recs = [const_record(state, k) for k in range(3)]
    path = tmp_path / "catalog.csv"
    assert write_catalog(recs, path, run_id="t1") == 3 * 61

    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == GOLDEN_HEADER
    assert len(lines) == 4
    assert all(len(line.split(",")) == 65 for line in lines[1:])

    # writing the same records again is byte-identical
    path2 = tmp_path / "catalog2.csv"
    write_catalog(recs, path2, run_id="t1")
    assert path2.read_bytes() == path.read_bytes()

    rows = read_rows(path)
    assert len(rows) == 3
    first = rows[0]
    assert (first["run_id"], first["channel_id"], first["pulse_index"]) == ("t1", "0", "0")
    assert float(first["early_t5_s"]) == pytest.approx(2.0, abs=1e-9)
    assert float(first["early_sel_db"]) == pytest.approx(56.989700, abs=1e-9)


def test_catalog_writes_na_for_unmeasured_late_windows(tmp_path):
    rec = extract_record(
        fake_event(2.1), BOUNDS, const_levels(new_csel(), 500.0, 10.0, n_valid=1),
        weighting="lfc", pulse_index=0,
    )
    path = tmp_path / "c.csv"
    write_catalog([rec], path, run_id="r")
    row = read_rows(path)[0]
    assert row["late_01_sel_db"] != NA
    assert row["late_02_sel_db"] == NA
    assert row["late_10_csel_db"] == NA


# ---------------------------------------------------------------------------
# streaming extraction vs whole-buffer reference


def whole_buffer_records(cm, kind, detector):
    """Reference path: no chunking, no rolling buffer, no trimming, one window at a time."""
    filt = read_span(cm, 0, cm.n_samples)
    apply_filter(design_filter(WeightingSpec(kind), cm.sample_rate_hz), filt)
    events = detect_pulses(ArrayStream([filt], cm.sample_rate_hz, cm.channel_id), detector)

    fs = cm.sample_rate_hz
    n_total = cm.n_samples
    w = round(fs)
    all_bounds = [
        energy_bounds(filt[ev.search_start_index:min(ev.search_end_index, n_total)],
                      ev.search_start_index)
        for ev in events
    ]
    csel = new_csel()
    records = []
    for j, ev in enumerate(events):
        b = all_bounds[j]
        limit = all_bounds[j + 1].i5 if j + 1 < len(events) else n_total
        # the early window, then each late window that ends by the limit
        spans = [(b.i5, b.i95 + 1)]
        spans += [(a, a + w) for a in range(b.i95, b.i95 + LATE_WINDOW_COUNT * w, w) if a + w <= limit]
        levels = []
        for slot, (a, e) in enumerate(spans):
            lv, csel[slot] = window_levels(filt[a:e], fs, csel[slot])
            levels.append(lv)
        records.append(extract_record(ev, b, levels, weighting=kind.value, pulse_index=j, origin=cm.origin))
    return events, records


def test_extract_stream_matches_whole_buffer_reference(small_survey, monkeypatch):
    spec, result = small_survey
    detector = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)
    manifests = open_manifest(result.manifest_path)
    monkeypatch.setattr(signal_io, "MAX_CHUNK_SAMPLES", 112_000)  # 7 s at 16 kHz
    checked = 0
    for ch, cm in manifests.items():
        for kind in CANONICAL_ORDER:
            ref_events, ref_records = whole_buffer_records(cm, kind, detector)
            assert len(ref_events) == spec.n_pulses
            got = extract_stream(cm, kind, detector)
            assert len(got.records) == len(ref_records)
            assert got.t_a_drops == 0
            assert got.records == ref_records
            checked += len(got.records)
    assert checked == 2 * 3 * spec.n_pulses


def test_extract_stream_chunk_size_does_not_matter(small_survey, monkeypatch):
    spec, result = small_survey
    detector = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)
    cm = open_manifest(result.manifest_path)[0]
    kind = CANONICAL_ORDER[1]
    rows = []
    # 8.192 s, 3.7 s and 0.7 s at 16 kHz, the last shorter than a search window
    for cap in (2**17, 59_200, 11_200):
        monkeypatch.setattr(signal_io, "MAX_CHUNK_SAMPLES", cap)
        rows.append(extract_stream(cm, kind, detector).records)
    assert len(rows[0]) == spec.n_pulses
    assert rows[0] == rows[1] == rows[2]


def recorded_holds(monkeypatch):
    """Samples the rolling buffer holds after each trim, appended to the returned list."""
    holds = []
    trim = RollingBuffer.trim

    def recording_trim(buf, keep_from):
        trim(buf, keep_from)
        holds.append(buf.end - buf.start)

    monkeypatch.setattr(RollingBuffer, "trim", recording_trim)
    return holds


def test_largest_hold_is_an_open_excursion_behind_a_pending_record(tmp_path, monkeypatch):
    # a pulse whose energy spans its search window, then, before its last late
    # window ends, a 20-s excursion that peaks on its first sample: the open
    # excursion holds 0.5 s before its peak until its first 15-s piece closes,
    # and the record holds one late window behind that, within the README's
    # bound of 15 + 0.5 + 1 = 16.5 s
    fs = 2000
    counts = np.zeros(60 * fs, dtype=np.int16)
    counts[int(4.5 * fs) : 6 * fs] = 100  # just below the 100 dB threshold
    counts[5 * fs] = 2047
    start = int(15.4 * fs)
    counts[start : start + 20 * fs] = 200
    counts[start] = 2000
    write_wav(tmp_path / "a.wav", counts, fs)
    (tmp_path / "manifest.txt").write_text("calib 0 2048 126\nfile 0 a.wav 0\n")
    cm = open_manifest(tmp_path / "manifest.txt")[0]
    holds = recorded_holds(monkeypatch)
    for chunk in (100, 2000):  # 0.05 s and 1 s
        monkeypatch.setattr(signal_io, "MAX_CHUNK_SAMPLES", chunk)
        holds.clear()
        res = extract_stream(cm, WeightingKind.LINEAR, DetectorConfig(threshold_db=100.0))
        assert (len(res.records), res.cut_excursions) == (3, 1)
        bound = (MAX_EXCURSION_S + SEARCH_BEFORE_S + LATE_WINDOW_S) * fs + chunk
        assert MAX_EXCURSION_S * fs < max(holds) <= bound, (chunk, max(holds) / fs)


def test_short_pulses_hold_a_search_window_and_one_late_window(small_survey, monkeypatch):
    # with no long excursion the scanner holds at most a search window, and a
    # pending record one late window behind it: the ten-window ladder is never held
    spec, result = small_survey
    cm = open_manifest(result.manifest_path)[0]
    holds = recorded_holds(monkeypatch)
    fs = cm.sample_rate_hz
    for chunk in (800, 16_000):  # 0.05 s and 1 s at 16 kHz
        monkeypatch.setattr(signal_io, "MAX_CHUNK_SAMPLES", chunk)
        holds.clear()
        res = extract_stream(cm, WeightingKind.LINEAR, DetectorConfig(threshold_db=100.0))
        assert len(res.records) == spec.n_pulses
        bound = (SEARCH_BEFORE_S + SEARCH_AFTER_S + LATE_WINDOW_S) * fs + chunk
        assert max(holds) <= bound, (chunk, max(holds) / fs)
