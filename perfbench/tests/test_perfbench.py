"""Self-tests of the benchmark: statistics, span arithmetic and output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import airgunkit
import check
import run
import spans
import stats
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# median and tail percentile


@pytest.mark.parametrize("n, want_p", [(10, None), (19, None), (20, 50.0), (40, 75.0),
                                       (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
                                       (10_000, 99.9)])
def test_tail_percentile_is_highest_with_ten_beyond(n, want_p):
    values = list(range(1, n + 1))
    got = stats.tail_percentile(values, worse="high")
    if want_p is None:
        assert got is None
        return
    p, value = got
    assert p == want_p
    assert sum(v > value for v in values) >= stats.TAIL_MIN_BEYOND


def test_tail_percentile_of_a_rate_counts_from_the_top():
    values = [float(v) for v in range(1, 21)]
    assert stats.tail_percentile(values, worse="high") == (50.0, 10.0)
    # for a rate the worse tail is the low end: ten values lie below 11
    assert stats.tail_percentile(values, worse="low") == (50.0, 11.0)


# ---------------------------------------------------------------------------
# spans and self times


def _span(sid, parent, name, start, end, **attrs):
    return spans.Span(sid, parent, 1, name, start, end, attrs)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, "runner.run", 0, 100),
        _span(2, 1, "pipeline.extract_stream", 10, 40),
        _span(3, 2, "signal_io.read_span", 15, 25, samples=5),
        _span(4, 1, "pipeline.write_catalog", 35, 45, records=1, bytes=10),  # overlaps span 2
        _span(5, 1, "pipeline.sort_records", 50, 90),
        _span(6, 5, "measures.window_energy", 80, 120),  # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own == {1: 100 - 35 - 40, 2: 30 - 10, 3: 10, 4: 10, 5: 40 - 10, 6: 40}


def test_layer_metrics_partition_a_serial_run():
    ns = 1_000_000
    tree = [
        _span(1, None, "runner.run", 0, 100 * ns),
        _span(2, 1, "pulse_detect.detect_pulses", 0, 40 * ns, events=2),
        _span(3, 2, "signal_io.read_span", 0, 10 * ns, samples=100),
        _span(4, 2, "weighting.apply_filter", 10 * ns, 30 * ns, kind="mfc", samples=100),
        _span(5, 1, "pipeline.extract_stream", 40 * ns, 90 * ns),
        _span(6, 5, "signal_io.read_span", 40 * ns, 50 * ns, samples=100),
        _span(7, 5, "weighting.apply_filter", 50 * ns, 70 * ns, kind="mfc", samples=100),
        _span(8, 5, "pipeline.extract_record", 70 * ns, 85 * ns),
        _span(9, 8, "measures.window_energy", 71 * ns, 72 * ns),
        _span(10, 1, "pipeline.write_catalog", 90 * ns, 99 * ns, records=2, bytes=300),
    ]
    m = spans.layer_metrics(tree, ["mfc"])
    assert m["runner.wall_s"] == pytest.approx(0.1)
    assert m["runner.overhead_s"] == pytest.approx(0.001)
    assert m["pulse_detect.self_s"] == pytest.approx(0.010)
    assert m["signal_io.read_s"] == pytest.approx(0.020)
    assert m["weighting.filter_s.mfc"] == pytest.approx(0.040)
    assert m["weighting.ns_per_sample.mfc"] == pytest.approx(0.040 / 200 * 1e9)
    assert m["pipeline.extract_record_s"] == pytest.approx(0.014)
    assert m["measures.window_energy_us"] == pytest.approx(1000.0)
    assert m["signal_io.samples_read"] == 200
    assert m["pulse_detect.events"] == 2
    assert m["pipeline.catalog_bytes"] == 300
    assert m["trace.attributed_frac"] == pytest.approx(1.0)


def test_installed_wrappers_record_nesting_and_are_restored():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = spans.Tracer()
    tracer.new_trace()
    points = [(mod, "outer", "runner.run", None), (mod, "inner", "signal_io.read_span", None)]
    with pytest.raises(RuntimeError):
        with spans.installed(tracer, points):
            assert mod.outer(1) == 4
            raise RuntimeError("restore even on error")
    assert (mod.inner, mod.outer) == originals
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("signal_io.read_span", "runner.run")
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert inner.trace_id == outer.trace_id == 1
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


# ---------------------------------------------------------------------------
# output checks on a real, small run


def _small(name: str, seed: int, tmp_path: Path):
    w = dataclasses.replace(WORKLOADS[name], channels=1, duration_s=35.0, pulses=3)
    result = airgunkit.synth.generate(w.survey_spec(seed), tmp_path / f"survey{seed}")
    manifests = airgunkit.signal_io.open_manifest(result.manifest_path)
    kinds = tuple(airgunkit.weighting.WeightingKind(k) for k in w.weightings)
    config = airgunkit.runner.RunConfig(
        out_path=tmp_path / f"catalog{seed}.csv",
        detector=airgunkit.pulse_detect.DetectorConfig(run.THRESHOLD_DB, run.MIN_IPI_S),
        weightings=kinds, run_id=run.RUN_ID)
    return w, result, manifests, config


def _rewrite(src: Path, dst: Path, edit) -> None:
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_tampered_catalogs_are_counted_as_failed(tmp_path):
    w, result, manifests, config = _small("noisy", 3, tmp_path)
    path, _ = airgunkit.runner.run(config, manifests)
    fs = float(w.sample_rate_hz)

    def problems(p):
        return check.check_catalog(p, result.truths, w.weightings, fs, run.RUN_ID)

    assert problems(path) == []

    dropped = tmp_path / "dropped.csv"
    _rewrite(path, dropped, lambda rows: rows[:2] + rows[3:])

    shifted = tmp_path / "shifted.csv"

    def shift(rows):
        col = rows[0].index("t_a_s")
        row = next(r for r in rows[1:] if r[2] == "linear")
        row[col] = f"{float(row[col]) + 2.0 / fs:.9f}"
        return rows

    _rewrite(path, shifted, shift)

    tally = run.Tally()
    for p in (path, dropped, shifted):
        tally.record(problems(p), p.name)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert any("missing record" in msg for msg in problems(dropped))
    assert any("t_a_s off" in msg for msg in problems(shifted))


def test_detect_events_check_rejects_a_missing_pulse(tmp_path):
    w, result, manifests, _ = _small("silent", 4, tmp_path)
    cm = manifests[0]
    kind = airgunkit.weighting.WeightingKind.LINEAR
    events = airgunkit.pulse_detect.detect_pulses(
        airgunkit.runner.weighted_chunks(cm, kind, 60.0),
        airgunkit.pulse_detect.DetectorConfig(run.THRESHOLD_DB, run.MIN_IPI_S))
    rows = [airgunkit.pulse_detect.format_event_row(ev, "linear", i) for i, ev in enumerate(events)]
    good, short = tmp_path / "events.csv", tmp_path / "short.csv"
    airgunkit.pulse_detect.write_events_csv(good, rows)
    airgunkit.pulse_detect.write_events_csv(short, rows[:-1])
    fs = float(w.sample_rate_hz)
    assert check.check_events(good, result.truths, fs) == []
    assert check.check_events(short, result.truths, fs)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeds_move_the_schedule_but_not_the_pulse_count(seed, tmp_path):
    for w in WORKLOADS.values():
        spec = w.survey_spec(seed)
        assert spec.n_pulses == w.pulses
        assert spec.onsets_s() != w.survey_spec(seed + 1).onsets_s()
    w, result, manifests, config = _small("noisy", seed, tmp_path)
    path, report = airgunkit.runner.run(config, manifests)
    assert report.n_pulses == len(w.weightings) * w.pulses
    assert check.check_catalog(path, result.truths, w.weightings, float(w.sample_rate_hz),
                               run.RUN_ID) == []


def test_traced_small_run_reads_every_sample_twice_and_restores(tmp_path):
    w, result, manifests, config = _small("noisy", 5, tmp_path)
    originals = [getattr(mod, attr) for mod, attr, _, _ in spans.patch_points(airgunkit)]
    tracer = spans.Tracer()
    tracer.new_trace()
    with spans.installed(tracer, spans.patch_points(airgunkit)):
        airgunkit.runner.run(config, manifests)
    assert [getattr(mod, attr) for mod, attr, _, _ in spans.patch_points(airgunkit)] == originals
    m = spans.layer_metrics(tracer.spans, w.weightings)
    n = manifests[0].n_samples * len(w.weightings)
    assert m["signal_io.samples_read"] / n == 2.0
    assert m["pipeline.records"] == len(w.weightings) * w.pulses
    assert m["trace.attributed_frac"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the benchmark's contract


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in WORKLOADS if n in {w["name"] for w in spec["workloads"]}]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
