"""What the benchmark in perfbench/ needs from the package.

The benchmark does a bare ``import airgunkit``, reaches the modules as its
attributes, and wraps the functions that ``perfbench/spans.py`` lists as
patch points.  A fresh interpreter checks both, so modules that other tests
have imported cannot stand in for the package's own imports.  spans.py is
loaded from its file and only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import airgunkit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# what perfbench/run.py, workloads.py and its tests use besides the patch points
BENCHMARK_NAMES = (
    "runner.weighted_chunks", "runner.RunConfig", "runner.run",
    "synth.generate", "synth.SurveySpec",
    "signal_io.open_manifest",
    "pulse_detect.DetectorConfig", "pulse_detect.format_event_row", "pulse_detect.write_events_csv",
    "weighting.WeightingKind",
)

_CHILD = """
import importlib.util, json, sys
import airgunkit

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
spec.loader.exec_module(spans)
names = [f"{m.__name__.removeprefix('airgunkit.')}.{attr}"
         for m, attr, _, _ in spans.patch_points(airgunkit)] + sys.argv[2:]
missing = [n for n in names if not hasattr(getattr(airgunkit, n.split(".")[0], None), n.split(".")[1])]
print(json.dumps({"checked": names, "missing": missing}))
"""


def test_bare_import_resolves_every_name_the_benchmark_uses():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(airgunkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", _CHILD, str(SPANS), *BENCHMARK_NAMES],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert out["missing"] == []
    assert {"pipeline.extract_record", "pipeline.window_energy",
            "pipeline.apply_filter"} <= set(out["checked"])


def test_package_root_exports_only_the_exceptions():
    assert all(issubclass(getattr(airgunkit, name), Exception) for name in airgunkit.__all__)
