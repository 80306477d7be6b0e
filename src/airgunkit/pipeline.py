"""Feature record assembly, catalog serialization, and point accounting.

One FeatureRecord holds the 61 feature values of a single pulse under a
single weighting: the early window lower bound, ten late window start times,
six peak measures, and four level measures (SPL, SEL, L_EQ, CSEL) for the
early window and for each late window.  The early window's upper bound needs
no column of its own because late window 1 starts exactly there.

Catalog rows are ``run_id, channel_id, weighting, pulse_index`` followed by
the 61 feature cells in group order.  Invalid late windows keep their start
time and carry the literal token ``NA`` for all four level measures; NA cells
still count as emitted feature points.  Times print with 9 fractional
digits, levels and linear pressures with 6; written catalogs parse back to
the exact same tokens.

RecordBuilder turns the pulses of one (channel, weighting) stream into
records while detect_pulses streams it: bounds and windows are sliced from
the detector's rolling buffer of filtered samples, so no sample is read or
filtered twice.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import RunError
from .measures import CselAccumulator, csel_add, window_energy
from .pulse_detect import PulseEvent, PulseScanner
from .signal_io import ChannelManifest, RollingBuffer, SampleBuffer
from .weighting import CANONICAL_ORDER, WeightingKind
from .weighting import apply_filter  # noqa: F401 (perfbench's tracer patches pipeline.apply_filter)
from .windows import (
    LATE_WINDOW_COUNT,
    LATE_WINDOW_S,
    EnergyBounds,
    WindowLayout,
    energy_bounds,
    layout_windows,
)

EARLY_FEATURES_PER_RECORD = 11
LATE_FEATURES_PER_RECORD = 50
FEATURES_PER_RECORD = EARLY_FEATURES_PER_RECORD + LATE_FEATURES_PER_RECORD

NA = "NA"
IDENTIFIER_COLUMNS = ("run_id", "channel_id", "weighting", "pulse_index")

# spl is the peak reduction over the window, and its column name says so
_LEVEL_NAMES = ("spl_peak_db", "sel_db", "leq_db", "csel_db")


def _feature_columns() -> tuple[str, ...]:
    cols: list[str] = ["early_t5_s"]
    cols += [f"late_{k:02d}_start_s" for k in range(1, LATE_WINDOW_COUNT + 1)]
    cols += ["t_a_s", "p_a_upa", "p_a_db", "t_b_s", "p_b_upa", "p_b_db"]
    cols += [f"early_{m}" for m in _LEVEL_NAMES]
    for k in range(1, LATE_WINDOW_COUNT + 1):
        cols += [f"late_{k:02d}_{m}" for m in _LEVEL_NAMES]
    return tuple(cols)


FEATURE_COLUMNS = _feature_columns()
CATALOG_HEADER = ",".join(IDENTIFIER_COLUMNS + FEATURE_COLUMNS)

WEIGHTING_RANK = {kind.value: i for i, kind in enumerate(CANONICAL_ORDER)}


@dataclass(frozen=True)
class LevelSet:
    """SPL/SEL/L_EQ/CSEL of one window; None marks a value that cannot exist."""

    spl_db: float | None
    sel_db: float | None
    leq_db: float | None
    csel_db: float | None

    def cells(self) -> tuple[float | None, ...]:
        return (self.spl_db, self.sel_db, self.leq_db, self.csel_db)


@dataclass(frozen=True)
class FeatureRecord:
    """All feature values of one pulse under one weighting."""

    channel_id: int
    weighting: str
    pulse_index: int
    early_t5_s: float
    early_t95_s: float
    late_starts_s: tuple[float, ...]
    late_valid: tuple[bool, ...]
    t_a_s: float
    p_a_upa: float
    p_a_db: float
    t_b_s: float
    p_b_upa: float
    p_b_db: float
    early: LevelSet
    late: tuple[LevelSet, ...]

    def __post_init__(self) -> None:
        if len(self.late_starts_s) != LATE_WINDOW_COUNT or len(self.late) != LATE_WINDOW_COUNT:
            raise ValueError(f"record must carry {LATE_WINDOW_COUNT} late windows")
        if self.late_starts_s[0] != self.early_t95_s:
            raise ValueError("late window 1 must start at the early window upper bound")

    @property
    def n_valid_late(self) -> int:
        return sum(self.late_valid)


class StreamCselState:
    """Cumulative-exposure accumulators of one (channel, weighting) stream.

    One slot for the early window and one per late window position; each
    slot accumulates across pulses in pulse order.
    """

    def __init__(self) -> None:
        self.early = CselAccumulator()
        self.late = [CselAccumulator() for _ in range(LATE_WINDOW_COUNT)]


def _levels(window: SampleBuffer, acc: CselAccumulator) -> tuple[LevelSet, CselAccumulator]:
    """Measure one window, folding it into the slot accumulator.

    A zero-energy window (possible after quantization in silent tails) has
    no SPL/SEL/L_EQ of its own; the cumulative level still reports the
    running sum unless nothing has accumulated yet.
    """
    peak = float(np.max(np.abs(window.samples))) if len(window) else 0.0
    energy = window_energy(window)
    acc, csel_db = csel_add(acc, energy)
    if energy > 0.0:
        sel_db = 10.0 * math.log10(energy)
        leq_db = sel_db - 10.0 * math.log10(window.duration_s)
    else:
        sel_db = leq_db = None
    spl_db = 20.0 * math.log10(peak) if peak > 0.0 else None
    return LevelSet(spl_db, sel_db, leq_db, csel_db), acc


def extract_record(
    event: PulseEvent,
    layout: WindowLayout,
    early_window: SampleBuffer,
    late_windows: Sequence[SampleBuffer | None],
    csel_state: StreamCselState,
    *,
    weighting: str,
    pulse_index: int,
) -> FeatureRecord:
    """Assemble one record from pre-sliced windows.

    ``late_windows`` aligns with ``layout.late_valid``; invalid positions are
    None and keep their start times but get NA level measures.  Must be
    called in pulse order per stream: the csel state advances in place.
    """
    early_levels, csel_state.early = _levels(early_window, csel_state.early)
    late_levels: list[LevelSet] = []
    for k, win in enumerate(late_windows):
        if win is None:
            late_levels.append(LevelSet(None, None, None, None))
        else:
            ls, csel_state.late[k] = _levels(win, csel_state.late[k])
            late_levels.append(ls)
    return FeatureRecord(
        channel_id=event.channel_id,
        weighting=weighting,
        pulse_index=pulse_index,
        early_t5_s=layout.early.t_5th_s,
        early_t95_s=layout.early.t_95th_s,
        late_starts_s=layout.late_starts_s,
        late_valid=layout.late_valid,
        t_a_s=event.t_pos_s,
        p_a_upa=event.p_pos_upa,
        p_a_db=event.p_pos_db,
        t_b_s=event.t_neg_s,
        p_b_upa=event.p_neg_upa,
        p_b_db=event.p_neg_db,
        early=early_levels,
        late=tuple(late_levels),
    )


# ---------------------------------------------------------------------------
# streaming extraction over one (channel, weighting) stream


class RecordBuilder:
    """Builds the records of one weighted stream as detect_pulses streams it.

    Called after every scan (see pulse_detect.StreamConsumer), it measures
    each newly kept pulse's energy bounds from the rolling buffer and
    assembles pulse k's record as soon as its late window validity is
    settled: once pulse k+1's bounds are known, once the scanner rules out
    any later pulse starting before k's last late window ends (and the buffer
    covers that window), or at end of stream.  It returns the start of the
    oldest pending pulse's early window, the first sample it still needs.
    """

    def __init__(self, cm: ChannelManifest, kind: WeightingKind) -> None:
        self.cm = cm
        self.weighting = kind.value
        self.w_samp = round(LATE_WINDOW_S * cm.sample_rate_hz)
        self.records: list[FeatureRecord] = []
        self.t_a_drops = 0
        self._pending: deque[tuple[PulseEvent, EnergyBounds]] = deque()
        self._csel = StreamCselState()

    def __call__(self, buf: RollingBuffer, kept: list[PulseEvent], scanner: PulseScanner,
                 final: bool) -> int:
        n_total = self.cm.n_samples
        for ev in kept:
            span = self._window(buf, ev.search_start_index, min(ev.search_end_index, n_total))
            self._pending.append((ev, energy_bounds(span)))
        while self._pending:
            ev, bk = self._pending[0]
            e95 = self._index(bk.t_95th_s)
            if len(self._pending) > 1:
                nxt: EnergyBounds | None = self._pending[1][1]
            elif final or e95 + LATE_WINDOW_COUNT * self.w_samp <= min(buf.end, scanner.keep_from):
                nxt = None
            else:
                break
            layout = layout_windows(bk, next_bounds=nxt, data_end_s=self.cm.end_time_s)
            late = [
                self._window(buf, a, a + self.w_samp) if ok else None
                for a, ok in zip(range(e95, e95 + LATE_WINDOW_COUNT * self.w_samp, self.w_samp),
                                 layout.late_valid)
            ]
            early = self._window(buf, self._index(bk.t_5th_s), e95 + 1)
            self.records.append(extract_record(
                ev, layout, early, late, self._csel,
                weighting=self.weighting, pulse_index=len(self.records),
            ))
            self._pending.popleft()
        self.t_a_drops = scanner.t_a_drops
        return self._index(self._pending[0][1].t_5th_s) if self._pending else buf.end

    def _index(self, t_s: float) -> int:
        return round((t_s - self.cm.start_time_s) * self.cm.sample_rate_hz)

    def _window(self, buf: RollingBuffer, a: int, b: int) -> SampleBuffer:
        cm = self.cm
        return SampleBuffer(buf.view(a, b), cm.sample_rate_hz,
                            cm.start_time_s + a / cm.sample_rate_hz, cm.channel_id)


# ---------------------------------------------------------------------------
# accounting


def ledger_total(weightings: int, early: int, late: int, units: int, pulses: int) -> int:
    """Total feature points: weightings * (early + late) * units * pulses."""
    for name, v in (("weightings", weightings), ("early", early), ("late", late),
                    ("units", units), ("pulses", pulses)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    return weightings * (early + late) * units * pulses


@dataclass(frozen=True)
class RunLedger:
    """Feature-point accounting of one run."""

    weightings: int
    early_per_record: int = EARLY_FEATURES_PER_RECORD
    late_per_record: int = LATE_FEATURES_PER_RECORD
    units: int = 1
    pulses: int = 0

    @property
    def total_points(self) -> int:
        return ledger_total(
            self.weightings, self.early_per_record, self.late_per_record, self.units, self.pulses
        )


# ---------------------------------------------------------------------------
# catalog serialization


def _fmt_time(v: float) -> str:
    return f"{v:.9f}"


def _fmt_level(v: float | None) -> str:
    return NA if v is None else f"{v:.6f}"


def record_cells(rec: FeatureRecord) -> list[str]:
    """The 61 feature cells of one record, in catalog column order."""
    cells = [_fmt_time(rec.early_t5_s)]
    cells += [_fmt_time(t) for t in rec.late_starts_s]
    cells += [
        _fmt_time(rec.t_a_s), f"{rec.p_a_upa:.6f}", _fmt_level(rec.p_a_db),
        _fmt_time(rec.t_b_s), f"{rec.p_b_upa:.6f}", _fmt_level(rec.p_b_db),
    ]
    cells += [_fmt_level(v) for v in rec.early.cells()]
    for ls in rec.late:
        cells += [_fmt_level(v) for v in ls.cells()]
    return cells


def sort_records(records: Iterable[FeatureRecord]) -> list[FeatureRecord]:
    """Canonical catalog order: channel, pulse, then weighting rank."""
    return sorted(
        records,
        key=lambda r: (r.channel_id, r.pulse_index, WEIGHTING_RANK[r.weighting]),
    )


@dataclass(frozen=True)
class CatalogSummary:
    n_records: int
    n_points: int


def write_catalog(records: Sequence[FeatureRecord], path, run_id: str) -> CatalogSummary:
    """Write the catalog CSV; returns counted records and points.

    Points are counted from the cells actually emitted (NA included), with
    the early bound pair contributing its single point through the
    early_t5_s column.
    """
    n_points = 0
    with open(path, "w", newline="") as fh:
        fh.write(CATALOG_HEADER + "\n")
        for rec in records:
            cells = record_cells(rec)
            if len(cells) != FEATURES_PER_RECORD:
                raise RunError(f"record emitted {len(cells)} cells, expected {FEATURES_PER_RECORD}")
            n_points += len(cells)
            fh.write(f"{run_id},{rec.channel_id},{rec.weighting},{rec.pulse_index}," + ",".join(cells) + "\n")
    return CatalogSummary(n_records=len(records), n_points=n_points)


def read_catalog(path) -> list[dict[str, object]]:
    """Parse a catalog back; numeric cells become floats, NA becomes None."""
    import csv

    out: list[dict[str, object]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(IDENTIFIER_COLUMNS + FEATURE_COLUMNS):
            raise RunError(f"{path}: unexpected catalog header")
        for row in reader:
            parsed: dict[str, object] = {
                "run_id": row["run_id"],
                "channel_id": int(row["channel_id"]),
                "weighting": row["weighting"],
                "pulse_index": int(row["pulse_index"]),
            }
            for col in FEATURE_COLUMNS:
                tok = row[col]
                parsed[col] = None if tok == NA else float(tok)
            out.append(parsed)
    return out
