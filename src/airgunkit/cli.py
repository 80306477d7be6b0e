"""Command line entry point: synth, detect, extract, and bench subcommands.

Configuration precedence: explicit flags override config-file values, which
override built-in defaults.  Config files are flat ``key=value`` text (same
keys as the long flags, dashes or underscores); the effective configuration
is echoed into the run summary for provenance.  One table, ``_FLAGS``, holds
each subcommand's flags as (name, type, default, help) rows for the parser
and the config file; a config type's default is read from it, not repeated.
Exit codes: 0 success, 1 usage error, 2 runtime error.

A CLI process and the pool workers it forks run BLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set: no step calls BLAS, and the worker
threads that OpenBLAS starts when numpy loads only spin.  The package root
imports no numpy, so this module sets the variable before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before the imports below load numpy

from .errors import AirgunkitError, RunError
from .pulse_detect import DetectorConfig, detect_pulses, format_event_row, write_events_csv
from .runner import PARALLEL_WORKERS, RunConfig, preflight, report_text, run, weighted_chunks
from .signal_io import open_manifest
from .synth import SurveySpec, generate
from .weighting import CANONICAL_ORDER, WeightingSpec, coefficients_text, design_filter, parse_kind


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this toolkit reserves 2 for runtime errors
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# the flag table: one (name, type, default, help) row per flag and config key;
# a dataclass field's default is its class attribute, e.g. RunConfig.run_id

_Row = tuple[str, type, object, str]

# the synth flags whose SurveySpec field has another name
_SURVEY_FIELDS = {"channels": "channel_count", "sample_rate": "sample_rate_hz",
                  "peak_upa": "peak_pressure_upa", "reverb_upa": "reverb_level_upa"}

_MANIFEST: _Row = ("manifest", str, None, "survey manifest (required)")
_CHANNEL_LIST: _Row = ("channels", str, None, "comma-separated channel ids (default all)")
_WEIGHTINGS: _Row = ("weightings", str, "all", "comma-separated weightings or 'all'")
_DUMP_FILTERS: _Row = ("dump_filters", bool, False, "print weighting filter coefficients")
_DETECTOR: tuple[_Row, ...] = (
    ("threshold_db", float, 100.0, "detection threshold, dB re 1 uPa"),
    ("min_ipi_s", float, DetectorConfig.min_ipi_s, "minimum spacing between detected pulses, s"),
)

_FLAGS: dict[str, tuple[_Row, ...]] = {
    "synth": (
        ("out", str, None, "output directory (required)"),
        *((name, typ, getattr(SurveySpec, _SURVEY_FIELDS.get(name, name)), text) for name, typ, text in (
            ("channels", int, "channel count"),
            ("duration_s", float, "survey length, s"),
            ("sample_rate", int, "sample rate, Hz"),
            ("ipi_s", float, "inter-pulse interval, s"),
            ("first_pulse_s", float, "first pulse onset, s"),
            ("pulse_count", int, "pulses per channel (default: fit to duration)"),
            ("peak_upa", float, "pulse peak pressure, uPa"),
            ("attack_s", float, "attack time constant, s"),
            ("decay_s", float, "decay time constant, s"),
            ("carrier_hz", float, "pulse carrier, Hz"),
            ("reverb_upa", float, "reverberation level, uPa"),
            ("reverb_decay_s", float, "reverberation decay, s"),
            ("noise_rms_upa", float, "white noise rms, uPa"),
            ("counts_full_scale", int, "full-scale counts"),
            ("sensitivity_db", float, "full-scale level, dB re 1 uPa"),
            ("seed", int, "random seed"),
        )),
    ),
    "detect": (
        _MANIFEST,
        ("out", str, None, "output events CSV (required)"),
        ("weighting", str, "linear", "weighting stream to detect on: linear, lfc, mfc or all"),
        _CHANNEL_LIST,
        _DUMP_FILTERS,
        *_DETECTOR,
    ),
    "extract": (
        _MANIFEST,
        ("out", str, None, "output catalog CSV (required)"),
        ("mode", str, RunConfig.mode, "execution mode: serial or parallel"),
        ("workers", int, None,
         f"worker processes (default: {RunConfig.worker_count} serial, {PARALLEL_WORKERS} parallel)"),
        _WEIGHTINGS,
        _CHANNEL_LIST,
        ("run_id", str, RunConfig.run_id, "run identifier stamped into the catalog"),
        ("summary", str, None, "summary path (default <out>.summary.txt)"),
        _DUMP_FILTERS,
        *_DETECTOR,
    ),
    "bench": (
        _MANIFEST,
        ("out_dir", str, None, "where to write the two catalogs (default <manifest dir>/bench_out)"),
        ("workers", int, PARALLEL_WORKERS, "parallel worker count"),
        _WEIGHTINGS,
        *_DETECTOR,
    ),
}


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config(path: str, rows: tuple[_Row, ...]) -> dict[str, object]:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"config file not found: {path}")
    types = {name: typ for name, typ, _, _ in rows}
    out: dict[str, object] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8-sig").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise _UsageError(f"{path}:{lineno}: expected key=value")
        key, raw = (s.strip() for s in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in types:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _BOOLS[raw.lower()] if types[key] is bool else types[key](raw)
        except (KeyError, ValueError) as exc:
            raise _UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _effective(ns: argparse.Namespace) -> dict[str, object]:
    """defaults <- config file <- explicit flags."""
    rows = _FLAGS[ns.command]
    eff = {name: default for name, _, default, _ in rows}
    if ns.config:
        eff.update(_read_config(ns.config, rows))
    eff.update((name, val) for name, val in vars(ns).items() if name in eff and val is not None)
    return eff


def _require(eff: dict[str, object], key: str) -> str:
    val = eff.get(key)
    if not val:
        raise _UsageError(f"missing required --{key.replace('_', '-')}")
    return str(val)


def _parse_channel_list(raw: object) -> tuple[int, ...] | None:
    if raw in (None, "", "all"):
        return None
    try:
        ids = tuple(int(tok) for tok in str(raw).split(","))
    except ValueError:
        raise _UsageError(f"bad channel list {raw!r} (expected comma-separated integers)") from None
    return ids


def _parse_weightings(raw: object) -> tuple:
    if raw in (None, "", "all"):
        return CANONICAL_ORDER
    try:
        return tuple(parse_kind(tok) for tok in str(raw).split(","))
    except AirgunkitError:
        raise _UsageError(f"bad weighting list {raw!r} (linear, lfc, mfc, or all)") from None


def _run_config(eff: dict[str, object], out: Path | str, weightings: object, **fields) -> RunConfig:
    """The RunConfig of ``detect``, ``extract`` and ``bench``, which checks every setting it holds.

    ``bench`` has no ``channels`` setting: it runs every channel.
    """
    return RunConfig(out_path=out, detector=DetectorConfig(eff["threshold_db"], eff["min_ipi_s"]),
                     channels=_parse_channel_list(eff.get("channels")),
                     weightings=_parse_weightings(weightings), **fields)


def _dump_filters(manifests, kinds) -> None:
    """Print the filter design of each selected weighting, in canonical order, at every rate."""
    rates = sorted({cm.sample_rate_hz for cm in manifests.values()})
    print(coefficients_text([design_filter(WeightingSpec(kind), rate)
                             for rate in rates for kind in CANONICAL_ORDER if kind in kinds]), end="")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(ns: argparse.Namespace) -> int:
    eff = _effective(ns)
    out_dir = _require(eff, "out")
    spec = SurveySpec(**{_SURVEY_FIELDS.get(k, k): v for k, v in eff.items() if k != "out"})
    result = generate(spec, out_dir)
    for ch, wav in enumerate(result.wav_paths):
        _log(f"channel {ch}: {spec.n_pulses} pulses -> {wav}")
    print(f"manifest: {result.manifest_path}")
    print(f"ground truth: {result.ground_truth_path}")
    return 0


def _cmd_detect(ns: argparse.Namespace) -> int:
    eff = _effective(ns)
    manifests = open_manifest(_require(eff, "manifest"))
    config = _run_config(eff, _require(eff, "out"), eff["weighting"])
    if eff["dump_filters"]:
        _dump_filters(manifests, config.weightings)

    rows: list[str] = []
    for cm, kind in preflight(config, manifests):
        events = detect_pulses(weighted_chunks(cm, kind), config.detector)
        rows.extend(format_event_row(ev, kind.value, i, cm.origin, nxt)
                    for i, (ev, nxt) in enumerate(zip(events, [*events[1:], None])))
        _log(f"channel {cm.channel_id} {kind.value}: {len(events)} pulses")
    write_events_csv(config.out_path, rows)
    print(f"events: {config.out_path}")
    return 0


def _cmd_extract(ns: argparse.Namespace) -> int:
    eff = _effective(ns)
    manifest_path = _require(eff, "manifest")
    manifests = open_manifest(manifest_path)
    out = _require(eff, "out")
    workers = eff["workers"]
    if workers is None:
        workers = RunConfig.worker_count if eff["mode"] == "serial" else PARALLEL_WORKERS
    config = _run_config(eff, out, eff["weightings"], mode=eff["mode"], worker_count=workers,
                         run_id=eff["run_id"])
    if eff["dump_filters"]:
        _dump_filters(manifests, config.weightings)
    summary_path = Path(eff["summary"]) if eff["summary"] else Path(out + ".summary.txt")
    preflight(config, manifests, summary_path)

    catalog_path, report = run(config, manifests, log=_log)

    echo = "\n".join(f"{k}={eff[k]}" for k in sorted(eff))
    summary_path.write_text(
        f"# effective configuration\n{echo}\n# manifest\nmanifest={manifest_path}\n"
        "# cumulative exposure accumulates over the whole run, never resetting\n"
        "csel_scope=run\n"
        f"# runtime\n{report_text(report)}"
    )
    print(f"catalog: {catalog_path}")
    print(f"summary: {summary_path}")
    print(f"records={report.n_records} points={report.n_points}")
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    eff = _effective(ns)
    manifest_path = _require(eff, "manifest")
    manifests = open_manifest(manifest_path)
    out_dir = Path(eff["out_dir"]) if eff["out_dir"] else Path(manifest_path).parent / "bench_out"
    parallel = _run_config(eff, out_dir / "catalog_parallel.csv", eff["weightings"], mode="parallel",
                           worker_count=eff["workers"])
    serial = replace(parallel, out_path=out_dir / "catalog_serial.csv", mode="serial", worker_count=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    preflight(parallel, manifests, serial.out_path)

    serial_path, serial_report = run(serial, manifests, log=_log)
    parallel_path, parallel_report = run(parallel, manifests, log=_log)
    serial_s, parallel_s = serial_report.wall_seconds, parallel_report.wall_seconds
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    identical = serial_path.read_bytes() == parallel_path.read_bytes()
    print("bench comparison (same input, identical extraction code)")
    print(f"  serial   : {serial_s:.3f} s")
    print(f"  parallel : {parallel_s:.3f} s with {parallel_report.worker_count} workers")
    print(f"  speedup  : {speedup:.2f}x")
    print(f"  catalogs : {'identical [OK]' if identical else 'DIFFER [FAIL]'}")
    print(f"serial_seconds={serial_s:.3f}")
    print(f"parallel_seconds={parallel_s:.3f}")
    print(f"speedup={speedup:.3f}")
    print(f"identical={'true' if identical else 'false'}")
    if not identical:
        raise RunError(f"catalogs differ: {serial_path} and {parallel_path}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="airgunkit",
                     description="Airgun pulse detection and acoustic feature extraction")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary, description in (
        ("synth", _cmd_synth, "generate a synthetic survey",
         "Generate synthetic survey WAVs, manifest, and ground truth"),
        ("detect", _cmd_detect, "detect pulses, write events CSV",
         "Run threshold detection and write the pulse event list"),
        ("extract", _cmd_extract, "run the full extraction pipeline",
         "Detect pulses and extract the feature catalog"),
        ("bench", _cmd_bench, "compare serial vs parallel wall time",
         "Run serial then parallel on the same input and report the speedup"),
    ):
        p = sub.add_parser(command, help=summary, description=description)
        p.add_argument("--config", help="key=value config file")
        for name, typ, default, text in _FLAGS[command]:
            flag = "--" + name.replace("_", "-")
            if typ is bool:
                # None when absent, so an unset flag never overrides the config file
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                suffix = "" if default is None else f" (default {default})"
                p.add_argument(flag, type=typ, help=text + suffix)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return int(ns.func(ns))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AirgunkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
