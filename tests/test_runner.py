import csv
import os
import subprocess
import sys
import tracemalloc
import wave
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import signal

import airgunkit
from airgunkit import runner, signal_io
from airgunkit.errors import RunError
from airgunkit.pulse_detect import DetectorConfig, detect_pulses, format_event_row, search_hold, write_events_csv
from airgunkit.runner import RunConfig, preflight, report_text, run, weighted_chunks
from airgunkit.signal_io import MAX_CHUNK_SAMPLES, open_manifest, read_span
from airgunkit.synth import SurveySpec, generate
from airgunkit.weighting import CANONICAL_ORDER, WeightingKind, WeightingSpec, apply_filter, design_filter

from conftest import check_catalog_cells, write_wav

DETECTOR = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)


@pytest.fixture(scope="module")
def noisy_survey(tmp_path_factory):
    """Two noisy channels: cheap to filter, so many runs fit in one test."""
    spec = SurveySpec(
        channel_count=2, duration_s=50.0, pulse_count=4, reverb_level_upa=2.0e4,
        noise_rms_upa=3000.0, seed=5,
    )
    return generate(spec, tmp_path_factory.mktemp("noisy"))


@pytest.fixture(scope="module")
def reference_catalog(noisy_survey, tmp_path_factory):
    out, _ = run(
        RunConfig(out_path=tmp_path_factory.mktemp("ref") / "c.csv", detector=DETECTOR),
        open_manifest(noisy_survey.manifest_path),
    )
    return out.read_bytes()


@pytest.fixture(scope="module")
def twelve_pulse_survey(tmp_path_factory):
    spec = SurveySpec(
        channel_count=1, duration_s=125.0, pulse_count=12, noise_rms_upa=0.0, seed=3
    )
    out = tmp_path_factory.mktemp("twelve")
    return spec, generate(spec, out)


# ---------------------------------------------------------------------------
# config invariants


def test_config_rejects_bad_mode(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, mode="turbo")


def test_config_serial_implies_one_worker(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, mode="serial", worker_count=2)
    with pytest.raises(ValueError):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, mode="parallel", worker_count=0)


def test_config_rejects_empty_selections(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, weightings=())
    with pytest.raises(ValueError):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, channels=())
    # weighting names are not WeightingKind members and select no stream: the
    # run would write a catalog of no records
    for names in (("linear", "lfc"), (WeightingKind.LINEAR, "mfc"), ("mfc", "mfc")):
        with pytest.raises(ValueError, match="weightings"):
            RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, weightings=names)
    # channel ids that are not integers: True and 0.0 would look up channels 1
    # and 0, and "0" would fail only in preflight, as a data error
    for ids in ((True,), (0.0,), ("0",), (0, False)):
        with pytest.raises(ValueError, match="channels"):
            RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, channels=ids)
    # a worker count that is not an integer: 2.5 would pass preflight and fail
    # in the pool, and True would run as one worker
    for mode, workers in (("parallel", 2.5), ("parallel", True), ("serial", True), ("serial", 1.0),
                          ("parallel", "2")):
        with pytest.raises(ValueError, match="^worker_count must be an integer"):
            RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, mode=mode, worker_count=workers)


def test_config_rejects_repeated_channel(tmp_path):
    # a repeated id would process the channel twice: duplicate catalog keys
    # and doubled channel-hours
    with pytest.raises(ValueError, match="repeats a channel id"):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, channels=(0, 1, 0))


def test_config_rejects_repeated_weighting(tmp_path):
    # a repeated weighting would write every record of its streams twice
    kinds = (WeightingKind.MFC, WeightingKind.LINEAR, WeightingKind.MFC)
    with pytest.raises(ValueError, match="repeats a weighting: mfc,linear,mfc"):
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, weightings=kinds)


# ---------------------------------------------------------------------------
# serial extraction accounting


def test_serial_run_counts(twelve_pulse_survey, tmp_path):
    spec, result = twelve_pulse_survey
    manifests = open_manifest(result.manifest_path)
    out, report = run(
        RunConfig(out_path=tmp_path / "catalog.csv", detector=DETECTOR), manifests
    )
    assert out.is_file()
    assert report.n_records == 12 * 3  # one record per pulse per weighting
    assert report.n_points == 12 * 3 * 61
    assert report.worker_count == 1
    assert report.task_seconds == pytest.approx(
        sum(report.per_channel_seconds.values()), abs=1e-9
    )
    assert report.wall_seconds >= report.task_seconds
    assert report.t_a_drops == 0
    assert report.cut_excursions == 0
    # silence between pulses: each filtered band flushes once after each pulse
    assert report.filter_flushes == 12 * 2
    assert report.channel_hours == pytest.approx(125.0 / 3600.0, rel=1e-9)
    text = report_text(report)
    assert "records=36" in text
    assert "points=2196" in text
    assert "pulses=" not in text  # each total is said once: a pulse is a record
    assert "worker_count=1" in text
    assert "wall_seconds=" in text and "task_seconds=" in text
    assert "t_a_drops=0" in text
    assert "cut_excursions=0" in text
    assert "filter_flushes=24" in text


def test_run_logs_per_task(twelve_pulse_survey, tmp_path):
    spec, result = twelve_pulse_survey
    manifests = open_manifest(result.manifest_path)
    lines = []
    run(
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR),
        manifests,
        log=lines.append,
    )
    assert len(lines) == 3  # one per (channel, weighting) task
    assert all("12 pulses" in ln for ln in lines)


def test_weighting_subset(twelve_pulse_survey, tmp_path):
    spec, result = twelve_pulse_survey
    manifests = open_manifest(result.manifest_path)
    out, report = run(
        RunConfig(
            out_path=tmp_path / "c.csv",
            detector=DETECTOR,
            weightings=(WeightingKind.LFC,),
        ),
        manifests,
    )
    assert report.n_records == 12
    text = out.read_text()
    assert ",lfc," in text
    assert ",linear," not in text
    assert ",mfc," not in text


def test_t_a_spacing_drops_are_counted_and_logged(tmp_path):
    # anchors (the big negative spikes) exactly 5.0 s apart; each pulse's
    # positive peak sits at the far end of its search window, so the t_A
    # values are 3.52 s apart and the second pulse is dropped
    fs = 16000
    counts = np.zeros(25 * fs, dtype=np.int16)
    for t, c in ((10.0, -200), (10.99, 5), (15.0, -200), (14.51, 5)):
        counts[round(t * fs)] = c
    write_wav(tmp_path / "a.wav", counts, fs)
    (tmp_path / "m.txt").write_text("calib 0 2048 126\nfile 0 a.wav 0.0\n")
    lines = []
    out, report = run(
        RunConfig(out_path=tmp_path / "c.csv", detector=DetectorConfig(threshold_db=80.0, min_ipi_s=5.0),
                  weightings=(WeightingKind.LINEAR,)),
        open_manifest(tmp_path / "m.txt"),
        log=lines.append,
    )
    assert (report.n_records, report.t_a_drops) == (1, 1)
    assert lines == [lines[0]] and "1 pulses" in lines[0] and "1 dropped by t_A spacing" in lines[0]


def test_cut_excursions_are_counted_and_logged(tmp_path):
    # 35 s above threshold without a break: cut into 15-s pieces, each a pulse
    fs = 16000
    counts = np.zeros(50 * fs, dtype=np.int16)
    counts[5 * fs : 40 * fs] = 200
    write_wav(tmp_path / "a.wav", counts, fs)
    (tmp_path / "m.txt").write_text("calib 0 2048 126\nfile 0 a.wav 0.0\n")
    lines = []
    _, report = run(
        RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, weightings=(WeightingKind.LINEAR,)),
        open_manifest(tmp_path / "m.txt"),
        log=lines.append,
    )
    assert (report.n_records, report.cut_excursions) == (3, 1)
    assert "1 excursions cut into 15-s pieces" in lines[0]
    assert "cut_excursions=1" in report_text(report)


# ---------------------------------------------------------------------------
# determinism across modes and orderings


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_matches_serial_bytes(small_survey, tmp_path, workers):
    spec, result = small_survey
    manifests = open_manifest(result.manifest_path)
    serial, srep = run(
        RunConfig(out_path=tmp_path / "s.csv", detector=DETECTOR), manifests
    )
    parallel, rep = run(
        RunConfig(
            out_path=tmp_path / "p.csv",
            detector=DETECTOR,
            mode="parallel",
            worker_count=workers,
        ),
        manifests,
    )
    assert parallel.read_bytes() == serial.read_bytes()
    assert check_catalog_cells(serial, spec.sample_rate_hz) == srep.n_records
    assert rep.worker_count == workers
    assert srep.filter_flushes > 0
    counters = ("n_records", "n_points", "t_a_drops", "cut_excursions", "filter_flushes")
    assert [getattr(rep, c) for c in counters] == [getattr(srep, c) for c in counters]
    # both modes report wall time and summed task time apart
    assert rep.task_seconds == pytest.approx(sum(rep.per_channel_seconds.values()), abs=1e-9)
    assert rep.wall_seconds > 0.0


# chunk lengths in samples: 0.3 s at 16 kHz up to the cap
CHUNK_SAMPLES = st.integers(min_value=4_800, max_value=MAX_CHUNK_SAMPLES)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chunk=CHUNK_SAMPLES, reverse=st.booleans())
def test_catalog_bytes_do_not_depend_on_chunk_size_or_channel_order(
    noisy_survey, reference_catalog, tmp_path, chunk, reverse
):
    manifests = open_manifest(noisy_survey.manifest_path)
    channels = tuple(sorted(manifests, reverse=reverse))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signal_io, "MAX_CHUNK_SAMPLES", chunk)
        out, report = run(RunConfig(out_path=tmp_path / "h.csv", detector=DETECTOR, channels=channels), manifests)
    assert out.read_bytes() == reference_catalog
    assert check_catalog_cells(out, 16_000) == report.n_records == 2 * 4 * 3


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_catalog_bytes_do_not_depend_on_file_splits(noisy_survey, reference_catalog, tmp_path_factory, data):
    """Each channel's WAV, tiled into files whose start times jitter by one sample."""
    out = tmp_path_factory.mktemp("split")
    lines = []
    for ch, cm in open_manifest(noisy_survey.manifest_path).items():
        (entry,) = cm.files
        with wave.open(str(entry.path), "rb") as w:
            counts = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
        cuts = data.draw(st.lists(st.integers(3, len(counts) - 3), max_size=5, unique=True), label=f"cuts {ch}")
        edges = [0, *sorted(cuts), len(counts)]
        assume(all(b - a >= 3 for a, b in zip(edges, edges[1:])))  # jitter keeps the file order
        lines.append(f"calib {ch} {cm.calibration.counts_full_scale} {cm.calibration.sensitivity_db!r}")
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            jitter = data.draw(st.sampled_from([-1, 0, 1]) if k else st.just(0), label=f"jitter {ch}.{k}")
            # a file one sample early repeats the sample before it; one sample late, it does not
            write_wav(out / f"c{ch}_{k}.wav", counts[a - (jitter < 0) : b], int(cm.sample_rate_hz))
            lines.append(f"file {ch} c{ch}_{k}.wav {(a + jitter) / cm.sample_rate_hz!r}")
    (out / "m.txt").write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signal_io, "MAX_CHUNK_SAMPLES", data.draw(CHUNK_SAMPLES, label="chunk"))
        catalog, report = run(RunConfig(out_path=out / "c.csv", detector=DETECTOR), open_manifest(out / "m.txt"))
    assert catalog.read_bytes() == reference_catalog
    assert check_catalog_cells(catalog, 16_000) == report.n_records == 2 * 4 * 3


def test_run_reads_and_filters_every_sample_once_per_task(noisy_survey, tmp_path, monkeypatch):
    manifests = open_manifest(noisy_survey.manifest_path)
    reads, filtered = [], 0
    real_read, real_filter = signal_io.read_span, runner.apply_filter

    def read(cm, start, count, out=None):
        reads.append((cm.channel_id, start, count))
        return real_read(cm, start, count, out=out)

    def filt(state, x):
        nonlocal filtered
        filtered += len(x)
        return real_filter(state, x)

    monkeypatch.setattr(signal_io, "read_span", read)
    monkeypatch.setattr(runner, "apply_filter", filt)
    run(RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR), manifests)
    # serial tasks run one after another, channel by channel, weighting by weighting
    tasks = [(ch, kind) for ch in sorted(manifests) for kind in CANONICAL_ORDER]
    per_task = len(reads) // len(tasks)
    for i, (ch, _) in enumerate(tasks):
        spans = reads[i * per_task : (i + 1) * per_task]
        assert {c for c, _, _ in spans} == {ch}
        starts = [s for _, s, _ in spans]
        assert starts == sorted(starts)
        assert sum(n for _, _, n in spans) == manifests[ch].n_samples
        assert all(a + n == b for (_, a, n), (_, b, _) in zip(spans, spans[1:]))
    assert filtered == sum(manifests[ch].n_samples for ch, _ in tasks)


def test_channel_order_does_not_change_catalog(small_survey, tmp_path):
    spec, result = small_survey
    manifests = open_manifest(result.manifest_path)
    a, _ = run(
        RunConfig(out_path=tmp_path / "a.csv", detector=DETECTOR, channels=(0, 1)),
        manifests,
    )
    b, _ = run(
        RunConfig(out_path=tmp_path / "b.csv", detector=DETECTOR, channels=(1, 0)),
        manifests,
    )
    c, _ = run(RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR), manifests)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_repeat_run_is_byte_identical(twelve_pulse_survey, tmp_path):
    spec, result = twelve_pulse_survey
    manifests = open_manifest(result.manifest_path)
    cfg1 = RunConfig(out_path=tmp_path / "r1.csv", detector=DETECTOR)
    cfg2 = RunConfig(out_path=tmp_path / "r2.csv", detector=DETECTOR)
    p1, _ = run(cfg1, manifests)
    p2, _ = run(cfg2, manifests)
    assert p1.read_bytes() == p2.read_bytes()


def test_preflight_lists_streams_in_catalog_order(noisy_survey, tmp_path):
    # detect writes its events in this order, whatever the order of the lists
    manifests = open_manifest(noisy_survey.manifest_path)
    config = RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, channels=(1, 0),
                       weightings=(WeightingKind.MFC, WeightingKind.LINEAR))
    got = [(cm.channel_id, kind) for cm, kind in preflight(config, manifests)]
    assert got == [(0, WeightingKind.LINEAR), (0, WeightingKind.MFC),
                   (1, WeightingKind.LINEAR), (1, WeightingKind.MFC)]


# ---------------------------------------------------------------------------
# failure handling


def test_unknown_channel_aborts(twelve_pulse_survey, tmp_path):
    spec, result = twelve_pulse_survey
    manifests = open_manifest(result.manifest_path)
    with pytest.raises(RunError, match="channel"):
        run(
            RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, channels=(0, 9)),
            manifests,
        )
    assert not (tmp_path / "c.csv").exists()


def test_failed_task_reports_and_leaves_no_catalog(tmp_path):
    spec = SurveySpec(channel_count=1, duration_s=30.0, noise_rms_upa=0.0, seed=7)
    result = generate(spec, tmp_path / "svy")
    manifests = open_manifest(result.manifest_path)
    # truncate the audio behind the already-opened manifest: every task on
    # this channel now dies on a short read
    wav = result.wav_paths[0]
    counts = np.zeros(100, dtype=np.int16)
    write_wav(wav, counts, spec.sample_rate_hz)
    out = tmp_path / "cat.csv"
    with pytest.raises(RunError, match="short read"):
        run(RunConfig(out_path=out, detector=DETECTOR), manifests)
    assert not out.exists()


def test_failed_task_logs_its_error_not_a_pulse_count(tmp_path):
    spec = SurveySpec(channel_count=1, duration_s=30.0, noise_rms_upa=0.0, seed=7)
    result = generate(spec, tmp_path / "svy")
    manifests = open_manifest(result.manifest_path)
    write_wav(result.wav_paths[0], np.zeros(100, dtype=np.int16), spec.sample_rate_hz)
    lines = []
    with pytest.raises(RunError, match="run aborted"):
        run(RunConfig(out_path=tmp_path / "cat.csv", detector=DETECTOR), manifests, log=lines.append)
    assert [ln.split(": failed: ")[0] for ln in lines] == [f"channel 0 {k.value}" for k in CANONICAL_ORDER]
    assert all("AudioFormatError" in ln and "short read" in ln and "pulses" not in ln for ln in lines)


# ---------------------------------------------------------------------------
# flushed filter state against plain sosfilt


def plain_sosfilt(state, x):
    """Oracle filter: scipy's sosfilt with carried state, never flushed, into ``x``."""
    if state.sos is None:
        return state
    x[:], zi = signal.sosfilt(state.sos, x, zi=state.zi)
    return replace(state, zi=zi)


def events_rows(manifests):
    rows = []
    for ch in sorted(manifests):
        for kind in CANONICAL_ORDER:
            events = detect_pulses(weighted_chunks(manifests[ch], kind, 7.0), DETECTOR)
            rows += [format_event_row(ev, kind.value, i, next_event=nxt)
                     for i, (ev, nxt) in enumerate(zip_longest(events, events[1:]))]
    return rows


def test_flush_changes_only_cells_below_minus_100_db(small_survey, tmp_path, monkeypatch):
    spec, result = small_survey
    manifests = open_manifest(result.manifest_path)
    shipped, _ = run(RunConfig(out_path=tmp_path / "shipped.csv", detector=DETECTOR), manifests)
    shipped_events = events_rows(manifests)
    monkeypatch.setattr(runner, "apply_filter", plain_sosfilt)
    oracle, report = run(RunConfig(out_path=tmp_path / "oracle.csv", detector=DETECTOR), manifests)
    assert report.filter_flushes == 0
    assert events_rows(manifests) == shipped_events

    changed = 0
    with open(oracle, newline="") as fo, open(shipped, newline="") as fs:
        for want, got in zip(csv.DictReader(fo), csv.DictReader(fs), strict=True):
            for col, cell in want.items():
                if got[col] == cell:
                    continue
                changed += 1
                assert col.startswith("late_") and not col.endswith("_start_s"), col
                assert float(cell) < -100.0, (col, cell, got[col])
    assert changed > 0


# ---------------------------------------------------------------------------
# weighted chunk stream


@pytest.fixture(scope="module")
def lfc_channel(small_survey):
    """Channel 0 of the small survey, and its samples through the lfc filter at once."""
    cm = open_manifest(small_survey[1].manifest_path)[0]
    whole = read_span(cm, 0, cm.n_samples)
    apply_filter(design_filter(WeightingSpec(WeightingKind.LFC), cm.sample_rate_hz), whole)
    return cm, whole


@settings(max_examples=25, deadline=None)
@given(cap=st.integers(min_value=1_000, max_value=MAX_CHUNK_SAMPLES), chunk_s=st.floats(0.05, 60.0))
def test_weighted_chunks_equal_whole_filter(lfc_channel, cap, chunk_s):
    # each chunk is the slots the stream's buffer extended by, filtered there
    # in place; trimmed as ``detect`` trims it, the buffer moves its held
    # samples, and the chunks still tile the channel and filter as one
    cm, whole = lfc_channel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signal_io, "MAX_CHUNK_SAMPLES", cap)
        step = signal_io.chunk_length(cm.sample_rate_hz, chunk_s)
        stream = weighted_chunks(cm, WeightingKind.LFC, chunk_s=chunk_s)
        copies, ends = [], []
        for x in stream:
            end = stream.buffer.end
            assert np.shares_memory(x, stream.buffer.view(end - len(x), end))
            copies.append(x.copy())
            ends.append(end)
            stream.buffer.trim(end - search_hold(cm.sample_rate_hz))
    assert ends == [*range(step, cm.n_samples, step), cm.n_samples]
    assert np.array_equal(np.concatenate(copies), whole)


def test_linear_weighted_chunks_tile_the_channel_in_the_buffer(tmp_path):
    # 2-s chunks of a 7.3-s channel through the linear weighting, which
    # leaves the samples as read: each chunk is the slots the buffer extended
    # by, and the chunks tile the channel exactly, the last one short
    fs = 16000
    counts = np.random.default_rng(10).integers(-2048, 2048, size=int(7.3 * fs), dtype=np.int16)
    write_wav(tmp_path / "a.wav", counts, fs)
    (tmp_path / "manifest.txt").write_text("calib 0 2048 126.0\nfile 0 a.wav 0.0\n")
    cm = open_manifest(tmp_path / "manifest.txt")[0]
    stream = weighted_chunks(cm, WeightingKind.LINEAR, 2.0, hold=0)
    buf = stream.buffer
    chunks, ends = [], []
    for c in stream:
        assert np.shares_memory(c, buf.view(buf.end - len(c), buf.end))
        chunks.append(c.copy())
        ends.append(buf.end)
    assert ends == [2 * fs, 4 * fs, 6 * fs, cm.n_samples]
    glued = np.concatenate(chunks)
    assert np.array_equal(glued, read_span(cm, 0, cm.n_samples))
    assert np.array_equal(buf.view(0, cm.n_samples), glued)


@pytest.mark.parametrize("chunk_s", [-1.0, 0.0, 1e-6, float("nan"), float("inf")])
def test_a_chunk_of_no_sample_is_refused_when_the_stream_is_built(lfc_channel, chunk_s):
    cm, _ = lfc_channel
    with pytest.raises(ValueError, match="chunk_s"):
        weighted_chunks(cm, WeightingKind.LFC, chunk_s)


def test_pool_never_outnumbers_the_streams(small_survey, tmp_path, pool_sizes):
    spec, result = small_survey
    manifests = open_manifest(result.manifest_path)
    serial, _ = run(RunConfig(out_path=tmp_path / "s.csv", detector=DETECTOR), manifests)
    for workers, expected in ((5000, 6), (6, 6), (4, 4)):  # 2 channels x 3 weightings
        out, report = run(RunConfig(out_path=tmp_path / f"w{workers}.csv", detector=DETECTOR,
                                    mode="parallel", worker_count=workers), manifests)
        assert out.read_bytes() == serial.read_bytes()
        assert pool_sizes[-1] == report.worker_count == expected
        assert f"worker_count={expected}" in report_text(report)
    assert pool_sizes == [6, 6, 4]


# ---------------------------------------------------------------------------
# bounded memory

# Each child is a fresh exec, so its VmHWM is its own peak.  The gates bound
# that peak above an import-only child of the same interpreter, which holds
# the interpreter, numpy and the package: another numpy or Python build moves
# both children alike.
_HWM_CHILD = """
import re, sys
from airgunkit.pulse_detect import DetectorConfig
from airgunkit.runner import RunConfig, run
from airgunkit.signal_io import open_manifest
from airgunkit.synth import SurveySpec, generate
from airgunkit.weighting import WeightingKind
{}
print(re.search(r"VmHWM:\\s+(\\d+) kB", open("/proc/self/status").read()).group(1))
"""
_RUN = ("run(RunConfig(out_path=sys.argv[2], detector=DetectorConfig(100.0), "
        "weightings=tuple(map(WeightingKind, sys.argv[3].split(',')))), open_manifest(sys.argv[1]))")
_HIGHRATE = {"duration_s": 30.0, "sample_rate_hz": 512_000, "pulse_count": 3, "first_pulse_s": 2.5,
             "noise_rms_upa": 3000.0, "seed": 1}


def child_peak_mb(statement: str, *args) -> float:
    """VmHWM of a fresh child that runs ``statement`` with ``args`` as its sys.argv[1:], in MB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(airgunkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", _HWM_CHILD.format(statement), *map(str, args)], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return int(child.stdout) / 1024


def peak_above_import_mb(statement: str, *args) -> float:
    """VmHWM of a fresh child that runs ``statement`` less that of one that only imports, in MB."""
    return child_peak_mb(statement, *args) - child_peak_mb("", *args)


def count_buffer_allocations(monkeypatch) -> list[list[int]]:
    """Have ``weighted_chunks`` make RollingBuffers that record each new capacity, one list per stream."""
    streams: list[list[int]] = []

    class RecordingBuffer(runner.RollingBuffer):
        def __init__(self, hold: int, chunk: int) -> None:
            super().__init__(hold, chunk)
            self.capacities: list[int] = []
            streams.append(self.capacities)

        def extend(self, n: int) -> np.ndarray:
            slots = super().extend(n)
            if self.capacities[-1:] != [self.capacity]:
                self.capacities.append(self.capacity)
            return slots

    monkeypatch.setattr(runner, "RollingBuffer", RecordingBuffer)
    return streams


def test_a_stream_sizes_its_buffer_for_its_own_chunk(tmp_path, monkeypatch):
    # at 2 kHz a 65-s chunk is 130,000 samples, more than the 120,000 of a
    # 60-s one: the buffer takes them, the 3,000-sample hold and the smaller
    # of the two, and never moves into a second array
    survey = generate(SurveySpec(channel_count=1, duration_s=140.0, sample_rate_hz=2000, pulse_count=2, seed=4),
                      tmp_path)
    allocations = count_buffer_allocations(monkeypatch)
    cm = open_manifest(survey.manifest_path)[0]
    detect_pulses(weighted_chunks(cm, WeightingKind.LFC, 65.0), DETECTOR)
    assert allocations == [[130_000 + 2 * search_hold(2000)]] == [[136_000]]


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from Linux /proc")
def test_highrate_run_peaks_in_bounded_chunks(tmp_path, monkeypatch):
    # 30 s at 512 kHz is 15.4 M samples; one whole-run chunk alone would be
    # 123 MB.  Each 2**17-sample chunk is read into the stream's rolling
    # buffer and each late window is measured as soon as no later pulse can
    # cut it, so the hold stays under ~1.8 s, below the 2.5-s bound of a
    # search window and a late window.  The buffer's one array holds that
    # bound plus two chunks, 12.3 MB, the energy bounds square one 0.5-MB
    # block at a time, and the child peaks ~14.4 MB above the import-only
    # one (~28 MB with an array of twice the bound plus a chunk, 21.5 MB,
    # and a search window squared at once).
    spec = SurveySpec(**_HIGHRATE)
    survey = generate(spec, tmp_path / "survey")
    excess = peak_above_import_mb(_RUN, survey.manifest_path, tmp_path / "child.csv", "mfc")
    assert excess <= 20, f"VmHWM {excess:.1f} MB above import"

    spans = []

    def recording_read_span(cm, start_index, count, out=None):
        spans.append(count)
        return read_span(cm, start_index, count, out=out)

    monkeypatch.setattr(signal_io, "read_span", recording_read_span)
    allocations = count_buffer_allocations(monkeypatch)
    catalog, report = run(RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR,
                                    weightings=(WeightingKind.MFC,)),
                          open_manifest(survey.manifest_path))
    assert max(spans) <= MAX_CHUNK_SAMPLES == 2**17
    assert sum(spans) == spec.n_samples
    assert allocations == [[round(2.5 * 512_000) + 2 * MAX_CHUNK_SAMPLES]] == [[1_542_144]]
    assert report.n_records == 3
    assert catalog.read_bytes() == (tmp_path / "child.csv").read_bytes()


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from Linux /proc")
def test_16_khz_run_peaks_in_one_array_per_stream(tmp_path, monkeypatch):
    # 2 ch x 185 s of noise through all three weightings.  A stream holds
    # ~2 s, under the 2.5-s bound of a search window and a late window, so
    # its one array holds twice that bound plus a chunk and the held samples
    # only move to its front: the child peaks ~5 MB above the import-only one
    # (~25 MB with 60-s chunks and a second array per stream).
    spec = SurveySpec(channel_count=2, duration_s=185.0, pulse_count=18, noise_rms_upa=3000.0, seed=2)
    survey = generate(spec, tmp_path / "survey")
    excess = peak_above_import_mb(_RUN, survey.manifest_path, tmp_path / "child.csv", "linear,lfc,mfc")
    assert excess <= 12, f"VmHWM {excess:.1f} MB above import"

    allocations = count_buffer_allocations(monkeypatch)
    catalog, report = run(RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR),
                          open_manifest(survey.manifest_path))
    assert allocations == [[2 * 40_000 + MAX_CHUNK_SAMPLES]] * 6
    assert report.n_records == 2 * 18 * 3
    assert catalog.read_bytes() == (tmp_path / "child.csv").read_bytes()


@pytest.mark.parametrize("first_pulse_s", [2.05, 2.4, 2.75])
def test_highrate_array_does_not_depend_on_where_the_pulses_fall(tmp_path, monkeypatch, first_pulse_s):
    # with 10-s IPIs the tenth late window of a pulse waits for the next
    # pulse's search window, so the hold peaks at 1.6-2.2 s depending on
    # where the pulses fall against the chunks.  An array grown with the hold
    # would take its size, and the peak memory, from the schedule; the one
    # array sized from the hold's bound is the same for every schedule.  So
    # is that of ``detect``, sized from the 1.5-s search window the scanner
    # holds, and a bare ``weighted_chunks`` stream sizes its array the same
    # way and finds the same events
    from airgunkit.cli import main

    spec = SurveySpec(**{**_HIGHRATE, "duration_s": 24.0, "first_pulse_s": first_pulse_s, "pulse_count": 2})
    survey = generate(spec, tmp_path / "survey")
    cm = open_manifest(survey.manifest_path)[0]
    allocations = count_buffer_allocations(monkeypatch)
    bare = detect_pulses(weighted_chunks(cm, WeightingKind.MFC), DETECTOR)
    write_events_csv(tmp_path / "bare.csv", [format_event_row(ev, "mfc", i, cm.origin, nxt)
                                             for i, (ev, nxt) in enumerate(zip_longest(bare, bare[1:]))])
    _, report = run(RunConfig(out_path=tmp_path / "c.csv", detector=DETECTOR, weightings=(WeightingKind.MFC,)),
                    open_manifest(survey.manifest_path))
    assert main(["detect", "--manifest", str(survey.manifest_path), "--out", str(tmp_path / "events.csv"),
                 "--weighting", "mfc", "--min-ipi-s", str(DETECTOR.min_ipi_s)]) == 0
    assert report.n_records == len(bare) == 2
    # the bare call, then ``run``, then ``detect``
    assert allocations == [[round(1.5 * 512_000) + 2 * MAX_CHUNK_SAMPLES],
                           [round(2.5 * 512_000) + 2 * MAX_CHUNK_SAMPLES],
                           [round(1.5 * 512_000) + 2 * MAX_CHUNK_SAMPLES]] == [[1_030_144], [1_542_144], [1_030_144]]
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "bare.csv").read_bytes()


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from Linux /proc")
def test_highrate_generate_peaks_in_blocks(tmp_path):
    # 30 s at 512 kHz is 15.4 M samples, 123 MB as one float64 array; the
    # whole-channel renderer peaked at 399 MB.  Rendered and written in blocks
    # of 2**17 samples, each pulse's 0.91 s too, a fresh child peaks ~15.5 MB
    # above the import-only one (~23 MB with each pulse rendered at once, ~34
    # MB in blocks of 2**20).
    excess = peak_above_import_mb(f"generate(SurveySpec(**{_HIGHRATE!r}), sys.argv[1])", tmp_path / "survey")
    assert excess <= 19, f"VmHWM {excess:.1f} MB above import"
    assert (tmp_path / "survey" / "ch00.wav").stat().st_size == 44 + 2 * 30 * 512_000


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from Linux /proc")
def test_held_records_cost_under_a_kilobyte_each(tmp_path):
    # 1 ch at 2 kHz with a pulse every 6 s, through all three weightings: 1 h
    # gives 1,800 records and 4 h 7,200.  A record is held from its stream's
    # task to the catalog write as one line of text, ~0.66 KB: the child
    # peaks ~3.6 MB higher at 4 h than at 1 h (~4.3 MB as a keyed row that
    # was sorted).  Held as measurements and formatted at the write, a record
    # took ~1.9 KB, ~10.3 MB more at 4 h.
    peaks = []
    for hours in (1, 4):
        spec = SurveySpec(duration_s=3600.0 * hours, sample_rate_hz=2000, ipi_s=6.0)
        assert 3 * spec.n_pulses == 1800 * hours
        survey = generate(spec, tmp_path / f"survey{hours}")
        peaks.append(child_peak_mb(_RUN, survey.manifest_path, tmp_path / f"c{hours}.csv", "linear,lfc,mfc"))
    assert peaks[1] - peaks[0] <= 8, f"VmHWM {peaks[0]:.1f} MB at 1 h, {peaks[1]:.1f} MB at 4 h"


def test_held_events_cost_under_400_bytes_each(tmp_path):
    # 1 ch at 2 kHz with a pulse every 6 s: the linear stream of 1 h has 600
    # events.  An event holds what the scan measured, ~335 B under
    # tracemalloc.  With its three levels and IPI stored, and the list copied
    # at the end of the stream to fill the IPIs, it held ~480 B.
    spec = SurveySpec(duration_s=3600.0, sample_rate_hz=2000, ipi_s=6.0)
    cm = open_manifest(generate(spec, tmp_path / "survey").manifest_path)[0]
    detect_pulses(weighted_chunks(cm, WeightingKind.LINEAR, 60.0), DETECTOR)  # first-use allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = detect_pulses(weighted_chunks(cm, WeightingKind.LINEAR, 60.0), DETECTOR)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(events) == spec.n_pulses == 600
    assert held / len(events) < 400, f"{held / len(events):.0f} B per event"


@pytest.mark.parametrize("spec", [
    SurveySpec(duration_s=130.0, pulse_count=12, reverb_level_upa=2.0e4, noise_rms_upa=3000.0, seed=4),
    SurveySpec(duration_s=8.0, sample_rate_hz=512_000, ipi_s=5.5, first_pulse_s=1.5, pulse_count=2,
               reverb_level_upa=2.0e4, noise_rms_upa=3000.0, seed=4),
], ids=["16kHz", "512kHz"])
def test_catalog_and_events_bytes_do_not_depend_on_the_chunk_cap(spec, tmp_path, monkeypatch):
    from airgunkit.cli import main

    survey = generate(spec, tmp_path / "survey")
    outputs = []
    for cap in (MAX_CHUNK_SAMPLES, 2**20):
        monkeypatch.setattr(signal_io, "MAX_CHUNK_SAMPLES", cap)
        catalog, events = tmp_path / f"catalog{cap}.csv", tmp_path / f"events{cap}.csv"
        assert main(["extract", "--manifest", str(survey.manifest_path), "--out", str(catalog)]) == 0
        assert main(["detect", "--manifest", str(survey.manifest_path), "--out", str(events),
                     "--weighting", "all"]) == 0
        outputs.append((catalog.read_bytes(), events.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == 1 + 3 * spec.pulse_count
