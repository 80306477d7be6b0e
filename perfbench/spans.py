"""Spans around the calls into each airgunkit layer, and layer self times.

The program has no tracing of its own.  ``installed`` replaces layer entry
points with recording wrappers on the module attributes they are looked up
through, and puts the originals back on exit.  Spans stay in memory until
the benchmark writes them out.  A span's self time is its duration minus the
part of it that its children cover; in a serial run the spans under one
``runner.run`` span nest without overlap, so the self times of the tree add
up to the run span.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    start_ns: int
    end_ns: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


AttrFn = Callable[[tuple, dict, object], dict]


class Tracer:
    """Collects spans of single-threaded calls; one trace id per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def new_trace(self) -> int:
        self.trace_id += 1
        return self.trace_id

    def wrap(self, name: str, fn: Callable, attrs: AttrFn | None = None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            self.spans.append(Span(span_id, parent, self.trace_id, name, start, end, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _read_attrs(args, kwargs, result) -> dict:
    return {"samples": len(result)}


def _filter_attrs(args, kwargs, result) -> dict:
    state, buffer = args
    return {"kind": state.spec.kind.value, "samples": len(buffer)}


def _detect_attrs(args, kwargs, result) -> dict:
    return {"events": len(result)}


def _write_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def patch_points(ak) -> list[tuple[object, str, str, AttrFn | None]]:
    """(module, attribute, span name, attrs) of every wrapped entry point.

    Each function is patched where its caller looks it up: ``apply_filter``
    in both ``runner`` and ``pipeline``, ``window_energy`` in ``pipeline``
    (levels) and in ``measures`` (cumulative SEL).
    """
    return [
        (ak.runner, "run", "runner.run", None),
        (ak.runner, "detect_pulses", "pulse_detect.detect_pulses", _detect_attrs),
        (ak.runner, "extract_stream", "pipeline.extract_stream", None),
        (ak.runner, "sort_records", "pipeline.sort_records", None),
        (ak.runner, "write_catalog", "pipeline.write_catalog", _write_attrs),
        (ak.runner, "apply_filter", "weighting.apply_filter", _filter_attrs),
        (ak.pipeline, "apply_filter", "weighting.apply_filter", _filter_attrs),
        (ak.pipeline, "energy_bounds", "windows.energy_bounds", None),
        (ak.pipeline, "extract_record", "pipeline.extract_record", None),
        (ak.pipeline, "window_energy", "measures.window_energy", None),
        (ak.measures, "window_energy", "measures.window_energy", None),
        (ak.signal_io, "read_span", "signal_io.read_span", _read_attrs),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, points) -> Iterator[None]:
    """Wrap every patch point for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, name, attrs in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, attrs))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time in ns of every span: duration minus the union of its children."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration_ns - covered
    return out


# span name -> metric of its self time; these metrics partition a run span
_SELF_METRIC = {
    "runner.run": "runner.overhead_s",
    "signal_io.read_span": "signal_io.read_s",
    "weighting.apply_filter": "weighting.filter_s",
    "pulse_detect.detect_pulses": "pulse_detect.self_s",
    "windows.energy_bounds": "windows.energy_bounds_s",
    "measures.window_energy": "measures.window_energy_s",
    "pipeline.extract_stream": "pipeline.extract_self_s",
    "pipeline.extract_record": "pipeline.extract_record_s",
    "pipeline.sort_records": "pipeline.sort_s",
    "pipeline.write_catalog": "pipeline.write_catalog_s",
}
PARTITION = tuple(_SELF_METRIC.values())


def layer_metrics(spans: Sequence[Span], kinds: Sequence[str]) -> dict[str, float]:
    """Per-layer totals over ``spans``, divided by the number of run spans.

    ``kinds`` are the weightings of the run; per-weighting filter figures are
    given for each of them.
    """
    own = self_times(spans)
    runs = [s for s in spans if s.name == "runner.run"]
    if not runs:
        raise ValueError("no runner.run span")
    per = 1.0 / len(runs)
    m: dict[str, float] = defaultdict(float, {k: 0.0 for k in PARTITION})
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        m[_SELF_METRIC[s.name]] += own[s.span_id] / 1e9
        counts[s.name] += 1
        if s.name == "signal_io.read_span":
            m["signal_io.samples_read"] += s.attrs["samples"]
        elif s.name == "weighting.apply_filter":
            kind = s.attrs["kind"]
            m[f"weighting.filter_s.{kind}"] += own[s.span_id] / 1e9
            m[f"weighting.samples.{kind}"] += s.attrs["samples"]
            m["weighting.samples_filtered"] += s.attrs["samples"]
        elif s.name == "pulse_detect.detect_pulses":
            m["pulse_detect.events"] += s.attrs["events"]
        elif s.name == "pipeline.write_catalog":
            m["pipeline.catalog_bytes"] += s.attrs["bytes"]
        elif s.name == "measures.window_energy":
            m["measures.window_energy_total_s"] += s.duration_ns / 1e9
    m["windows.energy_bounds_calls"] = counts["windows.energy_bounds"]
    m["measures.window_energy_calls"] = counts["measures.window_energy"]
    m["pipeline.records"] = counts["pipeline.extract_record"]
    m["runner.wall_s"] = sum(s.duration_ns for s in runs) / 1e9
    out = {k: v * per for k, v in m.items()}

    calls = counts["measures.window_energy"]
    out["measures.window_energy_us"] = (
        m["measures.window_energy_total_s"] / calls * 1e6 if calls else 0.0
    )
    for kind in kinds:
        n = m[f"weighting.samples.{kind}"]
        out[f"weighting.ns_per_sample.{kind}"] = m[f"weighting.filter_s.{kind}"] / n * 1e9 if n else 0.0
    out["trace.attributed_frac"] = sum(out[k] for k in PARTITION) / out["runner.wall_s"]
    out["trace.spans"] = len(spans) * per
    return out
