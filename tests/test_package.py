"""What the benchmark in perfbench/ and a CLI process need from the package.

The benchmark does a bare ``import airgunkit``, reaches the modules as its
attributes, and wraps the functions that ``perfbench/spans.py`` lists as
patch points.  A fresh interpreter checks both, so modules that other tests
have imported cannot stand in for the package's own imports.  spans.py is
loaded from its file and only read.

A CLI process runs on one thread: ``airgunkit.cli`` pins OpenBLAS to one
thread before numpy loads, which the lazy package root lets it do, and the
package root itself changes no environment variable.  Those children drop
``OPENBLAS_NUM_THREADS``: once a test imports ``airgunkit.cli``, this
process holds the pin, and a child that inherited it would hide its loss.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_child(code: str, *args: str, env: dict[str, str] | None = None) -> str:
    """Stdout of a fresh interpreter that runs ``code``, with ``env`` added to
    this environment less OPENBLAS_NUM_THREADS."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(airgunkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code, *args], env={**child_env, **(env or {})},
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_bare_import_loads_no_numpy_and_changes_no_environment_variable():
    out = run_child(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import airgunkit\n"
        "loaded = 'numpy' in sys.modules\n"
        "airgunkit.runner.run, airgunkit.synth.generate\n"
        "print(json.dumps([loaded, 'numpy' in sys.modules, dict(os.environ) == before]))\n"
    )
    assert json.loads(out) == [False, True, True]


def test_unknown_attribute_of_the_package_root_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_module'"):
        airgunkit.no_such_module
    assert not hasattr(airgunkit, "no_such_module")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_the_user_set_them(preset, expected):
    env = None if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    out = run_child("import os, airgunkit.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])", env=env)
    assert out.strip() == expected


_THREADS_AT_EXIT = """
import os, runpy, sys
sys.argv[0] = "airgunkit"
try:
    runpy.run_module("airgunkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code, "threads", len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/<pid>/task to count threads")
def test_cli_extract_runs_on_one_thread(small_survey, tmp_path):
    # OpenBLAS starts its worker threads when numpy loads, unless pinned first
    _, result = small_survey
    out = run_child(_THREADS_AT_EXIT, "extract", "--manifest", str(result.manifest_path),
                    "--out", str(tmp_path / "catalog.csv"))
    assert out.splitlines()[-1] == "exit 0 threads 1"


def test_serial_extract_never_imports_multiprocessing(small_survey, tmp_path):
    # only a parallel run starts a worker pool, so only it pays for the import
    _, result = small_survey
    out = run_child(
        "import json, sys\n"
        "import airgunkit.cli\n"
        "imported = 'multiprocessing' in sys.modules\n"
        "code = airgunkit.cli.main(sys.argv[1:])\n"
        "print(json.dumps([imported, code, 'multiprocessing' in sys.modules]))\n",
        "extract", "--manifest", str(result.manifest_path), "--out", str(tmp_path / "catalog.csv"))
    assert json.loads(out.splitlines()[-1]) == [False, 0, False]
