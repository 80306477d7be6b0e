"""Benchmark of airgunkit's ``extract`` and ``detect`` over synthetic surveys.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload noisy --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, both passes

With ``--trace 0`` the end-to-end pass launches the CLI in child processes,
as users do, alternating ``extract`` and ``detect`` until ``--seconds`` have
passed, and reports medians over those processes.  With ``--trace 1`` the
traced pass calls the public API in-process and serially, with spans around
each layer's entry points (see spans.py), alternating untraced and traced
runs to measure what the tracing costs.  Every output is checked against
the survey's ground truth.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Details, provenance and
spans go to ``.perfbench_out/``; surveys live in ``.perfbench_work/`` and are
removed at exit.  WAVs are read from the page cache: disk I/O is not
measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans
from check import check_catalog, check_events
from stats import tail_percentile
from workloads import WORKLOADS, Workload

RUN_ID = "perfbench"
THRESHOLD_DB = 100.0
MIN_IPI_S = 5.0
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 15
CHILD_TIMEOUT_S = 75.0
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
PAGE_CACHE_NOTE = ("WAVs are read from the page cache; disk I/O is not measured "
                   "(caches cannot be dropped without privileges)")

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("throughput_chh_per_s", "chh/s", "higher"),
    ("cpu_s_per_chh", "s/chh", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
# printed but not gated: a detect process is ~90% interpreter and scipy
# start-up, whose speed drifts with the host by more than any usable bound;
# pulse_detect.detect_only_s follows the detect path's own work instead
PRINTED_ONLY = (("detect_chh_per_s", "chh/s", "higher"),)
PER_LAYER = (
    ("signal_io.read_s", "s", "lower"),
    ("signal_io.samples_read", "count", "lower"),
    ("signal_io.reads_per_sample", "ratio", "lower"),
    ("signal_io.open_manifest_s", "s", "lower"),
    ("weighting.filter_s", "s", "lower"),
    ("weighting.filter_s.mfc", "s", "lower"),
    ("weighting.ns_per_sample.mfc", "ns", "lower"),
    ("weighting.samples_filtered", "count", "lower"),
    ("pulse_detect.self_s", "s", "lower"),
    ("pulse_detect.events", "count", "higher"),
    ("pulse_detect.detect_only_s", "s", "lower"),
    ("windows.energy_bounds_s", "s", "lower"),
    ("windows.energy_bounds_calls", "count", "lower"),
    ("measures.window_energy_calls", "count", "lower"),
    ("measures.window_energy_us", "us", "lower"),
    ("pipeline.extract_self_s", "s", "lower"),
    ("pipeline.extract_record_s", "s", "lower"),
    ("pipeline.records", "count", "higher"),
    ("pipeline.write_catalog_s", "s", "lower"),
    ("pipeline.catalog_bytes", "bytes", "lower"),
    ("runner.task_s_sum", "s", "lower"),
    ("runner.busy_frac", "fraction", "higher"),
    ("runner.overhead_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.attributed_frac", "fraction", "higher"),
)
# per-weighting figures printed for the weightings a workload has
PER_KIND_UNITS = {"weighting.filter_s": "s", "weighting.ns_per_sample": "ns"}
# layer self times whose sum must match the traced run span
ATTRIBUTION_MARGIN = 0.01


class MissingSource(Exception):
    """The checkout cannot be benchmarked (no source tree)."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAIL {what}: {p}", file=sys.stderr)


@dataclass
class Survey:
    result: object  # airgunkit.synth.SynthResult
    manifests: dict
    setup_s: list[float]
    generate_s: list[float]
    open_manifest_s: list[float]


def import_airgunkit(root: Path):
    """Import airgunkit from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "airgunkit" / "__init__.py").is_file():
        raise MissingSource(f"no airgunkit source under {src}")
    sys.path.insert(0, str(src))
    import airgunkit

    if Path(airgunkit.__file__).resolve().parent != (src / "airgunkit").resolve():
        raise MissingSource(f"airgunkit imported from {airgunkit.__file__}, not from {src}")
    return airgunkit


def make_survey(ak, w: Workload, seed: int, work: Path, repeats: int = 1,
                min_s: float = 0.0) -> Survey:
    """Generate the survey and open its manifest; keep the last of the set-ups.

    Set-up is repeated at least ``repeats`` times and, for cheap surveys,
    until ``min_s`` have been spent (at most SETUP_MAX_REPEATS times).
    """
    setup, gen, opened = [], [], []
    result = manifests = None
    i = 0
    while True:
        out = work / f"survey{i}"
        t0 = time.perf_counter()
        result = ak.synth.generate(w.survey_spec(seed), out)
        t1 = time.perf_counter()
        manifests = ak.signal_io.open_manifest(result.manifest_path)
        t2 = time.perf_counter()
        setup.append(t2 - t0)
        gen.append(t1 - t0)
        opened.append(t2 - t1)
        i += 1
        if i >= repeats and (sum(setup) >= min_s or i >= SETUP_MAX_REPEATS):
            break
        shutil.rmtree(out)
    if len(result.truths) != w.channels * w.pulses:
        raise RuntimeError(f"survey has {len(result.truths)} pulses, expected {w.channels * w.pulses}")
    return Survey(result, manifests, setup, gen, opened)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(root: Path, args: list[str], log: Path) -> Child:
    """Run ``airgunkit <args>`` to exit; time it and take its (and its workers') rusage.

    The child leads its own process group, so a timeout kills its pool
    workers too.  ``wait4`` reports the CPU time and peak RSS of the child
    and of every descendant it reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "airgunkit.cli", *args]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                 proc.returncode, log.read_text(errors="replace")[-2000:])


def _exit_problems(child: Child, what: str) -> list[str]:
    if child.exit_code == 0:
        return []
    return [f"{what} exited {child.exit_code}: {child.stderr.strip()[-500:]}"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def end_to_end(ak, w: Workload, seed: int, seconds: float, root: Path, work: Path,
               tally: Tally) -> dict:
    survey = make_survey(ak, w, seed, work, SETUP_REPEATS, SETUP_MIN_S)
    res = survey.result
    fs = float(w.sample_rate_hz)
    manifest = str(res.manifest_path)
    out = work / "out"
    out.mkdir()

    def extract(flags: list[str], name: str, expect: bytes | None) -> tuple[Child, bytes]:
        catalog = out / f"{name}.csv"
        child = run_cli(root, ["extract", "--manifest", manifest, "--out", str(catalog),
                               "--run-id", RUN_ID, *flags], out / f"{name}.log")
        problems = _exit_problems(child, "extract")
        data = b""
        if not problems:
            data = catalog.read_bytes()
            problems = check_catalog(catalog, res.truths, w.weightings, fs, RUN_ID)
            if expect is not None and data != expect:
                problems.append("catalog differs from the first serial one "
                                f"(sha256 {hashlib.sha256(data).hexdigest()})")
        catalog.unlink(missing_ok=True)
        tally.record(problems, f"{w.name} {name}")
        return child, data

    # every catalog must equal the first serial one byte for byte; a pool
    # workload makes that reference with one serial run before measuring
    reference = None
    if w.workers > 1:
        _, reference = extract(["--weightings", ",".join(w.weightings)], "reference", None)

    extracts: list[Child] = []
    detects: list[Child] = []
    deadline = time.perf_counter() + seconds
    # whichever command has been measured for less time runs next, so both
    # average over about half of the run; each runs at least once
    while not (extracts and detects and time.perf_counter() >= deadline):
        i = len(extracts) + len(detects)
        if sum(c.wall_s for c in extracts) <= sum(c.wall_s for c in detects):
            child, data = extract(w.extract_flags(), f"extract{i}", reference)
            if reference is None:
                reference = data
            extracts.append(child)
        else:
            events = out / f"events{i}.csv"
            child = run_cli(root, ["detect", "--manifest", manifest, "--out", str(events)],
                            out / f"detect{i}.log")
            problems = _exit_problems(child, "detect") or check_events(events, res.truths, fs)
            tally.record(problems, f"{w.name} detect{i}")
            events.unlink(missing_ok=True)
            detects.append(child)

    chh = w.channel_hours
    samples = {
        "throughput_chh_per_s": [chh / c.wall_s for c in extracts],
        "cpu_s_per_chh": [c.cpu_s / chh for c in extracts],
        "peak_rss_mb": [c.maxrss_mb for c in extracts],
        "detect_chh_per_s": [chh / c.wall_s for c in detects],
        "setup_s": survey.setup_s,
        "extract_wall_s": [c.wall_s for c in extracts],
        "detect_wall_s": [c.wall_s for c in detects],
    }
    return {
        "catalog_sha256": hashlib.sha256(reference).hexdigest(),
        "samples": samples,
        "metrics": {name: median(samples[name]) for name, _, _ in END_TO_END},
    }


# ---------------------------------------------------------------------------
# traced in-process pass


def traced(ak, w: Workload, seed: int, seconds: float, work: Path, out_dir: Path,
           tally: Tally) -> dict:
    survey = make_survey(ak, w, seed, work)
    res = survey.result
    fs = float(w.sample_rate_hz)
    detector = ak.pulse_detect.DetectorConfig(THRESHOLD_DB, MIN_IPI_S)
    kinds = tuple(ak.weighting.WeightingKind(k) for k in w.weightings)

    def config(path: Path, workers: int):
        return ak.runner.RunConfig(out_path=path, detector=detector,
                                   mode="serial" if workers == 1 else "parallel",
                                   worker_count=workers, weightings=kinds, run_id=RUN_ID)

    def timed_run(path: Path, workers: int, expect: Path | None = None):
        t0 = time.perf_counter()
        # looked up on the module so the installed wrapper is the one called
        _, report = ak.runner.run(config(path, workers), survey.manifests)
        wall = time.perf_counter() - t0
        problems = check_catalog(path, res.truths, w.weightings, fs, RUN_ID)
        if expect is not None and path.read_bytes() != expect.read_bytes():
            problems.append("catalog differs from the first run's")
        tally.record(problems, f"{w.name} in-process run")
        return report, wall

    def detect_only() -> float:
        """The ``detect`` command's work: linear weighting, every channel."""
        t0 = time.perf_counter()
        for cm in survey.manifests.values():
            chunks = ak.runner.weighted_chunks(cm, ak.weighting.WeightingKind.LINEAR, 60.0)
            ak.pulse_detect.detect_pulses(chunks, detector)
        return time.perf_counter() - t0

    tracer = spans.Tracer()
    points = spans.patch_points(ak)
    untraced_s, traced_s, busy, task_s, detect_s = [], [], [], [], []
    reference = work / "reference.csv"
    timed_run(reference, 1)  # warm-up, and the catalog every later run must equal
    deadline = time.perf_counter() + seconds
    while True:
        report, wall = timed_run(work / "untraced.csv", 1, reference)
        untraced_s.append(wall)
        if w.workers > 1:
            report, wall = timed_run(work / "pool.csv", w.workers, reference)
        task_s.append(sum(report.per_channel_seconds.values()))
        busy.append(task_s[-1] / (w.workers * wall))
        tracer.new_trace()
        with spans.installed(tracer, points):
            _, wall = timed_run(work / "traced.csv", 1, reference)
        traced_s.append(wall)
        detect_s.append(detect_only())
        if time.perf_counter() >= deadline:
            break

    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"{w.name}-seed{seed}-spans.jsonl")
    m = spans.layer_metrics(tracer.spans, w.weightings)
    n_samples = sum(cm.n_samples for cm in survey.manifests.values())
    m["signal_io.reads_per_sample"] = m["signal_io.samples_read"] / (n_samples * len(kinds))
    m["signal_io.open_manifest_s"] = survey.open_manifest_s[0]
    m["synth.generate_s"] = survey.generate_s[0]
    m["pulse_detect.detect_only_s"] = median(detect_s)
    m["runner.task_s_sum"] = median(task_s)
    m["runner.busy_frac"] = median(busy)
    m["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    return {
        "catalog_sha256": sha256(reference),
        "samples": {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
                    "runner.task_s_sum": task_s, "runner.busy_frac": busy,
                    "pulse_detect.detect_only_s": detect_s},
        "metrics": m,
    }


# ---------------------------------------------------------------------------
# provenance and reporting


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "seed": seed,
    }


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_end_to_end(w: Workload, result: dict, tally: Tally) -> None:
    samples = result["samples"]
    for name, unit, better in END_TO_END + PRINTED_ONLY:
        values = samples[name]
        tail = tail_percentile(values, worse="low" if better == "higher" else "high")
        tail_txt = f"p{tail[0]:g} {_fmt(tail[1])}" if tail else "no tail percentile (n < 20)"
        gated = "" if (name, unit, better) in END_TO_END else "; not gated"
        print(f"  {w.name:9s} {name:22s} {_fmt(median(values)):>10s} {unit:6s} "
              f"median of n={len(values)}; {tail_txt}{gated}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {w.name:9s} {'failed_frac':22s} {_fmt(frac):>10s} {'ratio':6s} "
          f"{tally.failed} of {tally.attempted} runs failed")
    print(f"  {w.name:9s} catalog_sha256 {result['catalog_sha256']}")


def print_traced(w: Workload, result: dict) -> None:
    m = result["metrics"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    for kind in w.weightings:
        for base, unit in PER_KIND_UNITS.items():
            units.setdefault(f"{base}.{kind}", unit)
    for name, unit in units.items():
        print(f"  {w.name:9s} {name:30s} {_fmt(m[name]):>12s} {unit}")
    ok = abs(m["trace.attributed_frac"] - 1.0) <= ATTRIBUTION_MARGIN
    print(f"  {w.name:9s} layer self times sum to {m['trace.attributed_frac']:.4f} of the "
          f"traced run span (margin {ATTRIBUTION_MARGIN:g}): {'ok' if ok else 'OUTSIDE MARGIN'}")
    print(f"  {w.name:9s} catalog_sha256 {result['catalog_sha256']}")


def run_workload(ak, w: Workload, seed: int, seconds: float, trace: bool,
                 root: Path) -> tuple[dict, dict, Tally]:
    """One pass over one workload: (JSON metrics, details, tally of checked runs)."""
    tally = Tally()
    work = root / WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result = traced(ak, w, seed, seconds, work, root / OUT_DIR, tally)
            print_traced(w, result)
        else:
            result = end_to_end(ak, w, seed, seconds, root, work, tally)
            print_end_to_end(w, result, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # left in place while another run still uses it
    table = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit, _ in table}
    return metrics, result, tally


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time per workload and pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if ns.seed < 0:
        p.error("--seed must be non-negative")
    if ns.seconds <= 0:
        p.error("--seconds must be positive")
    return ns


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(argv)
    root = Path.cwd()
    try:
        ak = import_airgunkit(root)
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    prov = provenance(ns.seed)
    print(f"perfbench seed={ns.seed} seconds={ns.seconds:g} trace={ns.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"note: {PAGE_CACHE_NOTE}")

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    tally = Tally()
    metrics: dict = {}
    details: dict = {}
    for name in names:
        w = WORKLOADS[name]
        print(f"workload {name}: {w.describe()}")
        passes = (False, True) if ns.workload == "all" and ns.trace else (bool(ns.trace),)
        for trace in passes:
            got, result, t = run_workload(ak, w, ns.seed, ns.seconds, trace, root)
            tally.attempted += t.attempted
            tally.failed += t.failed
            details[f"{name}/{'trace' if trace else 'e2e'}"] = result
            prefix = f"{name}." if ns.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json").write_text(json.dumps(
        {"provenance": prov, "note": PAGE_CACHE_NOTE, "seconds": ns.seconds,
         "attempted": tally.attempted, "failed": tally.failed, "results": details},
        indent=1, default=str))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
