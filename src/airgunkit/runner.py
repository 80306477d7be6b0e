"""Serial and parallel execution of the full extraction pipeline.

The unit of parallelism is one (channel, weighting) task: one extract_stream
pass reads, filters, detects and measures a single weighted stream into one
TaskResult, and run maps the tasks in one loop, in process or through a
worker pool.  The stream, weighted_chunks, is the one place a channel is
read: it owns one buffer, reads each chunk into it and filters it there, and
detect_pulses and the record builder scan and measure that buffer.  Tasks
share nothing but read-only manifests, and both loops return results in
preflight's catalog order, so the catalog bytes cannot depend on worker
count or completion order.  Cumulative exposure stays exact under
parallelism because each accumulator lives entirely inside one task.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import Callable

import numpy as np

from . import signal_io
from .errors import RunError
from .pipeline import RecordBuilder, sort_records, write_catalog
from .pulse_detect import MAX_EXCURSION_S, DetectorConfig, detect_pulses, search_hold
from .signal_io import CHUNK_S, ChannelManifest, RollingBuffer, chunk_length
from .weighting import CANONICAL_ORDER, WeightingKind, WeightingSpec, apply_filter, design_filter

LogFn = Callable[[str], None]
PARALLEL_WORKERS = 4  # worker processes of a parallel run or bench unless given


@dataclass(frozen=True)
class RunConfig:
    """One extraction run: what to process, how wide, where to write."""

    out_path: Path | str
    detector: DetectorConfig
    mode: str = "serial"
    worker_count: int = 1
    channels: tuple[int, ...] | None = None  # None = all manifest channels
    weightings: tuple[WeightingKind, ...] = CANONICAL_ORDER
    run_id: str = "run"

    def __post_init__(self) -> None:
        if self.mode not in ("serial", "parallel"):
            raise ValueError(f"mode must be serial or parallel, got {self.mode!r}")
        if isinstance(self.worker_count, bool) or not isinstance(self.worker_count, Integral):
            raise ValueError(f"worker_count must be an integer, got {self.worker_count!r}")
        if self.mode == "serial" and self.worker_count != 1:
            raise ValueError("serial mode implies worker_count = 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if not self.weightings:
            raise ValueError("weighting selection is empty")
        if not all(isinstance(k, WeightingKind) for k in self.weightings):
            raise ValueError(f"weightings must be WeightingKind members, got {self.weightings!r}")
        if len(set(self.weightings)) != len(self.weightings):
            raise ValueError("weighting selection repeats a weighting: "
                             + ",".join(k.value for k in self.weightings))
        if self.channels is not None and len(self.channels) == 0:
            raise ValueError("channel selection is empty")
        if self.channels is not None and not all(isinstance(c, Integral) and not isinstance(c, bool)
                                                 for c in self.channels):
            raise ValueError(f"channels must be integer ids, got {self.channels!r}")
        if self.channels is not None and len(set(self.channels)) != len(self.channels):
            raise ValueError(f"channel selection repeats a channel id: {self.channels}")
        if any(c in self.run_id for c in ',"\r\n'):
            raise ValueError(f"run_id must not hold a comma, quote, CR or LF, got {self.run_id!r}")


@dataclass(frozen=True)
class RuntimeReport:
    """Time accounting of one run, the same in serial and parallel mode.

    ``wall_seconds`` runs from the first task's start to the written
    catalog; ``task_seconds`` is the sum of the per-task times, which
    ``per_channel_seconds`` splits by channel.  The counters sum the
    per-task counts: pulses dropped by the t_A spacing rule, excursions cut
    into MAX_EXCURSION_S pieces, and weighting filter states flushed to zero.
    Every kept pulse is one catalog record.
    """

    per_channel_seconds: dict[int, float]
    wall_seconds: float
    task_seconds: float
    worker_count: int  # processes that ran the tasks: at most one per (channel, weighting) stream
    channel_hours: float
    n_records: int
    n_points: int
    t_a_drops: int
    cut_excursions: int
    filter_flushes: int

    @property
    def n_pulses(self) -> int:
        """``n_records`` under its old name, which perfbench's self-test still reads."""
        return self.n_records


class weighted_chunks:
    """The channel's sample stream through one weighting filter, chunk by chunk.

    A chunk is ``chunk_s`` seconds of samples, but at most MAX_CHUNK_SAMPLES
    (``signal_io.chunk_length``); the last may be short, and the chunks
    tile the channel from its sample 0.  The stream owns ``buffer``, sized
    for a consumer that holds at most ``hold`` samples when a chunk comes,
    one search window unless given.  Each step reads the next chunk,
    calibrated, into the slots the buffer extends by, filters it there in
    place and yields it, an array in the buffer valid until the next step;
    so a sample is written once.  ``state`` is the filter state after the
    last chunk.
    """

    def __init__(self, cm: ChannelManifest, kind: WeightingKind, chunk_s: float = CHUNK_S,
                 hold: int | None = None) -> None:
        self.sample_rate_hz = cm.sample_rate_hz
        self.channel_id = cm.channel_id
        self.state = design_filter(WeightingSpec(kind), cm.sample_rate_hz)
        self._cm = cm
        self._chunk = chunk_length(cm.sample_rate_hz, chunk_s)
        self.buffer = RollingBuffer(search_hold(cm.sample_rate_hz) if hold is None else hold, self._chunk)

    def __iter__(self) -> weighted_chunks:
        return self

    def __next__(self) -> np.ndarray:
        start = self.buffer.end
        n = min(self._chunk, self._cm.n_samples - start)
        if n < 1:
            raise StopIteration
        # looked up on signal_io at each call, so a wrapper installed there sees every read
        x = signal_io.read_span(self._cm, start, n, out=self.buffer.extend(n))
        self.state = apply_filter(self.state, x)
        return x


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one (channel, weighting) stream, or the error that ended it."""

    channel_id: int
    kind_value: str
    seconds: float = 0.0
    records: list[str] = field(default_factory=list, repr=False)  # one catalog row per kept pulse
    t_a_drops: int = 0  # pulses dropped by the t_A spacing rule
    cut_excursions: int = 0  # excursions cut into MAX_EXCURSION_S pieces
    filter_flushes: int = 0  # weighting filter states flushed to zero
    error: str | None = None

    def log_line(self) -> str:
        if self.error is not None:
            return f"channel {self.channel_id} {self.kind_value}: failed: {self.error}"
        return (f"channel {self.channel_id} {self.kind_value}: {len(self.records)} pulses "
                f"in {self.seconds:.1f}s, {self.t_a_drops} dropped by t_A spacing, "
                f"{self.cut_excursions} excursions cut into {MAX_EXCURSION_S:g}-s pieces, "
                f"{self.filter_flushes} filter flushes")


def extract_stream(cm: ChannelManifest, kind: WeightingKind, detector: DetectorConfig) -> TaskResult:
    """Detect and measure every pulse of one weighted stream in one pass.

    Each chunk is read, calibrated and filtered once, in place in the
    stream's buffer, sized for the builder's hold, that detect_pulses
    decides anchors on; a RecordBuilder measures every kept pulse's energy
    bounds, early window and late windows in the same buffer.
    """
    start = time.perf_counter()
    builder = RecordBuilder(cm, kind)
    chunks = weighted_chunks(cm, kind, hold=builder.hold)
    detect_pulses(chunks, detector, builder)
    return TaskResult(cm.channel_id, kind.value, time.perf_counter() - start, builder.records,
                      builder.scanner.t_a_drops, builder.scanner.cut_excursions, chunks.state.flushes)


def preflight(config: RunConfig, manifests: dict[int, ChannelManifest],
              *also_written: Path | str) -> list[tuple[ChannelManifest, WeightingKind]]:
    """The run's (channel, weighting) streams in catalog order.

    Raises RunError when the manifests hold no channel or lack a selected
    one, or when ``config.out_path`` or a path in ``also_written`` has no
    directory, is a directory, or resolves to the manifest, to a WAV it lists
    or to another output; FilterDesignError when a selected band has no
    filter at its rate.  So a run has at least one stream.
    """
    channels = sorted(manifests if config.channels is None else config.channels)
    if not channels:
        raise RunError("no channel to run: the manifests are empty")
    missing = [ch for ch in channels if ch not in manifests]
    if missing:
        raise RunError(f"manifest does not cover requested channels: {missing}")
    taken = {p.resolve(): "an input" for cm in manifests.values()
             for p in (cm.manifest_path, *(f.path for f in cm.files))}
    for path in map(Path, (config.out_path, *also_written)):
        if not path.parent.is_dir():
            raise RunError(f"output directory does not exist: {path.parent}")
        if path.is_dir():
            raise RunError(f"output path is a directory: {path}")
        if path.resolve() in taken:
            raise RunError(f"output path {path} would overwrite {taken[path.resolve()]}")
        taken[path.resolve()] = "another output"
    streams = [(manifests[ch], kind) for ch in channels for kind in CANONICAL_ORDER if kind in config.weightings]
    for rate, kind in dict.fromkeys((cm.sample_rate_hz, kind) for cm, kind in streams):
        design_filter(WeightingSpec(kind), rate)  # a band the rate cannot hold fails before any read
    return streams


def _run_task(args: tuple[ChannelManifest, WeightingKind, DetectorConfig]) -> TaskResult:
    """Detect and measure one (channel, weighting) stream; never raises."""
    cm, kind, detector = args
    try:
        return extract_stream(cm, kind, detector)
    except Exception as exc:  # propagate through the pool as data
        return TaskResult(cm.channel_id, kind.value, error=f"{type(exc).__name__}: {exc}")


def run(
    config: RunConfig,
    manifests: dict[int, ChannelManifest],
    log: LogFn | None = None,
) -> tuple[Path, RuntimeReport]:
    """Execute the pipeline; returns the catalog path and runtime report.

    Any task failure aborts the whole run with a per-task error report, and
    no catalog file is left behind.  ``preflight`` checks the selection
    before any task starts.
    """
    streams = preflight(config, manifests)
    tasks = [(cm, kind, config.detector) for cm, kind in streams]
    worker_count = min(config.worker_count, len(tasks))  # never more processes than tasks

    wall_start = time.perf_counter()
    results: list[TaskResult] = []
    parallel = config.mode == "parallel"
    if parallel:
        import multiprocessing  # only here, so a serial run never pays for the import
    with multiprocessing.Pool(worker_count) if parallel else contextlib.nullcontext() as pool:
        for res in (pool.imap if parallel else map)(_run_task, tasks):
            results.append(res)
            if log:
                log(res.log_line())

    failures = [r for r in results if r.error is not None]
    if failures:
        lines = [f"channel {r.channel_id} {r.kind_value}: {r.error}" for r in failures]
        raise RunError("run aborted; failed tasks:\n  " + "\n  ".join(lines))

    per_channel: dict[int, float] = {cm.channel_id: 0.0 for cm, _ in streams}
    for r in results:
        per_channel[r.channel_id] += r.seconds

    out_path = Path(config.out_path)
    rows = sort_records((r.channel_id, r.records) for r in results)
    try:
        n_points = write_catalog(rows, out_path, config.run_id)
    except BaseException:
        out_path.unlink(missing_ok=True)  # never leave a partial catalog
        raise

    report = RuntimeReport(
        per_channel_seconds=per_channel,
        wall_seconds=time.perf_counter() - wall_start,
        task_seconds=sum(r.seconds for r in results),
        worker_count=worker_count,
        channel_hours=sum(manifests[ch].duration_s for ch in per_channel) / 3600.0,
        n_records=sum(len(r.records) for r in results),
        n_points=n_points,
        t_a_drops=sum(r.t_a_drops for r in results),
        cut_excursions=sum(r.cut_excursions for r in results),
        filter_flushes=sum(r.filter_flushes for r in results),
    )
    return out_path, report


def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:.2f} h"


def report_text(report: RuntimeReport) -> str:
    """Two-row runtime table (per-channel, all channels) plus key=value lines."""
    lines = ["runtime (nearest values)"]
    per = ", ".join(
        f"ch{ch}={_hours(s)}" for ch, s in sorted(report.per_channel_seconds.items())
    )
    lines.append(f"  per-channel : {per} task time")
    lines.append(f"  all-channels: {_hours(report.wall_seconds)} wall, {_hours(report.task_seconds)} "
                 f"task time, with {report.worker_count} worker(s)")
    lines.append(f"wall_seconds={report.wall_seconds:.3f}")
    lines.append(f"task_seconds={report.task_seconds:.3f}")
    lines.append(f"worker_count={report.worker_count}")
    lines.append(f"channel_hours={report.channel_hours:.6f}")
    lines.append(f"t_a_drops={report.t_a_drops}")
    lines.append(f"cut_excursions={report.cut_excursions}")
    lines.append(f"filter_flushes={report.filter_flushes}")
    lines.append(f"records={report.n_records}")
    lines.append(f"points={report.n_points}")
    return "\n".join(lines) + "\n"
