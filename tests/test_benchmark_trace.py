"""The benchmark's traced pass, on a small survey.

``perfbench/run.py --trace 1`` wraps the patch points that
``perfbench/spans.py`` lists, runs ``runner.run`` and a detection-only pass,
and prints the metrics of ``spans.layer_metrics`` by name.  This runs the
same pass in process, so a renamed entry point, a changed call signature or
a metric that no span feeds fails here and not only in the benchmark.
spans.py is loaded from its file and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import airgunkit
from airgunkit.pulse_detect import DetectorConfig, detect_pulses, format_event_row
from airgunkit.runner import RunConfig, run, weighted_chunks
from airgunkit.signal_io import open_manifest
from airgunkit.weighting import CANONICAL_ORDER, WeightingKind

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics that run.py measures itself, outside layer_metrics
_MEASURED_BY_THE_HARNESS = {
    "signal_io.reads_per_sample", "signal_io.open_manifest_s", "synth.generate_s",
    "pulse_detect.detect_only_s", "runner.task_s_sum", "runner.busy_frac", "trace.overhead_frac",
}
# the metrics run.py's print_traced also prints for each weighting of the run
_PER_KIND = ("weighting.filter_s", "weighting.ns_per_sample")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_traced_run_and_detect_pass_feed_every_printed_metric(spans, small_survey, tmp_path):
    spec, result = small_survey
    manifests = open_manifest(result.manifest_path)
    detector = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)
    kinds = [kind.value for kind in CANONICAL_ORDER]
    tracer = spans.Tracer()
    tracer.new_trace()
    with spans.installed(tracer, spans.patch_points(airgunkit)):
        catalog, report = airgunkit.runner.run(RunConfig(out_path=tmp_path / "c.csv", detector=detector),
                                               manifests)
        events = detect_pulses(weighted_chunks(manifests[0], WeightingKind.LINEAR, 60.0), detector)
    assert airgunkit.runner.run is run  # the originals are back

    metrics = spans.layer_metrics(tracer.spans, kinds)
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    printed = per_layer - _MEASURED_BY_THE_HARNESS
    printed |= {f"{base}.{kind}" for base in _PER_KIND for kind in kinds}
    assert printed - set(metrics) == set()
    for name in ("pulse_detect.events", "signal_io.samples_read", "weighting.samples_filtered",
                 "pipeline.catalog_bytes", *(f"weighting.filter_s.{kind}" for kind in kinds)):
        assert metrics[name] > 0, name
    assert metrics["pulse_detect.events"] == metrics["pipeline.records"] == report.n_records
    assert metrics["pipeline.catalog_bytes"] == catalog.stat().st_size
    assert report.n_records == 2 * 3 * spec.n_pulses

    assert len(events) == spec.n_pulses
    rows = [format_event_row(ev, "linear", i) for i, ev in enumerate(events)]
    assert all(len(row.split(",")) == 11 for row in rows)
