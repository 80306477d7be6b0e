"""Feature record assembly, catalog serialization, and point accounting.

One FeatureRecord holds the 61 feature values of a single pulse under a
single weighting: the early window lower bound, ten late window start times,
six peak measures, and four level measures (SPL, SEL, L_EQ, CSEL) for the
early window and for each late window.  The early window's upper bound needs
no column of its own because late window 1 starts exactly there.

A record keeps its times as global sample indices: the bounds i5 and i95,
the pulse's extremes, and late slot k at i95 + k * w for w samples per late
window.  Seconds exist only in the written cells: signal_io.format_time
prints origin + i/fs, rounded to 1 ns with ties to even.

Catalog rows are ``run_id, channel_id, weighting, pulse_index`` followed by
the 61 feature cells in group order.  Invalid late windows keep their start
time and carry the literal token ``NA`` for all four level measures; NA cells
still count as emitted feature points.  Levels and linear pressures print
with 6 digits; written catalogs parse back to the exact same tokens.

RecordBuilder turns the pulses of one (channel, weighting) stream into
records while detect_pulses streams it: bounds and windows are measured in
the detector's rolling buffer of filtered samples, so no sample is read or
filtered twice, and each window as soon as no later pulse can cut it, so a
pending record holds at most one late window behind the scanner's own hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import RunError
from .measures import Levels, format_db, window_levels
from .pulse_detect import PulseEvent, PulseScanner, peak_cells
from .signal_io import ChannelManifest, RollingBuffer, SampleBuffer, format_time
from .weighting import CANONICAL_ORDER, WeightingKind
from .windows import LATE_WINDOW_COUNT, LATE_WINDOW_S, EnergyBounds, energy_bounds, layout_windows

# perfbench's tracer patches these names in pipeline
from .measures import window_energy  # noqa: F401
from .weighting import apply_filter  # noqa: F401

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
FEATURES_PER_RECORD = len(FEATURE_COLUMNS)
CATALOG_HEADER = ",".join(IDENTIFIER_COLUMNS + FEATURE_COLUMNS)

WEIGHTING_RANK = {kind.value: i for i, kind in enumerate(CANONICAL_ORDER)}


NA_LEVELS = Levels(None, None, None, None)


@dataclass(frozen=True)
class FeatureRecord:
    """All feature values of one pulse under one weighting.

    ``event`` holds the peak measures; i5 and i95 are the early window
    bounds.  Times are sample indices of the channel, whose sample 0 sits at
    ``origin`` seconds.
    """

    channel_id: int
    weighting: str
    pulse_index: int
    origin: Fraction
    event: PulseEvent
    i5: int
    i95: int
    late_valid: tuple[bool, ...]
    early: Levels
    late: tuple[Levels, ...]

    def __post_init__(self) -> None:
        if len(self.late_valid) != LATE_WINDOW_COUNT or len(self.late) != LATE_WINDOW_COUNT:
            raise ValueError(f"record must carry {LATE_WINDOW_COUNT} late windows")

    @property
    def late_starts(self) -> tuple[int, ...]:
        """First sample of every late slot; slot 1 starts at the early window's upper bound."""
        w = round(LATE_WINDOW_S * self.event.sample_rate_hz)
        return tuple(self.i95 + k * w for k in range(LATE_WINDOW_COUNT))


def extract_record(
    event: PulseEvent,
    bounds: EnergyBounds,
    levels: Sequence[Levels],
    *,
    weighting: str,
    pulse_index: int,
    origin: Fraction = Fraction(0),
) -> FeatureRecord:
    """Assemble one record from the levels of its measured windows.

    ``levels`` holds the early window's levels, then those of the late
    windows that were valid, in slot order: validity is a prefix of the
    ladder.  The remaining slots keep their start times but get NA level
    measures.  ``origin`` is the seconds of the channel's sample 0.
    """
    n_late = len(levels) - 1
    return FeatureRecord(event.channel_id, weighting, pulse_index, origin, event, bounds.i5, bounds.i95,
                         (True,) * n_late + (False,) * (LATE_WINDOW_COUNT - n_late), levels[0],
                         (*levels[1:], *(NA_LEVELS,) * (LATE_WINDOW_COUNT - n_late)))


# ---------------------------------------------------------------------------
# streaming extraction over one (channel, weighting) stream


class RecordBuilder:
    """Builds the records of one weighted stream as detect_pulses streams it.

    Called after every scan (see pulse_detect.StreamConsumer), it measures
    each newly kept pulse's energy bounds and early window in the rolling
    buffer, and each late window once no later pulse can start before it
    ends: before the next pulse's 5 % bound, the end of stream, or else
    ``min(buf.end, scanner.keep_from)``.  Slots unmeasured when the next
    pulse or the end of stream comes are NA.  It returns the start of the
    first unmeasured window, the first sample it still needs.
    """

    def __init__(self, cm: ChannelManifest, kind: WeightingKind) -> None:
        self.cm = cm
        self.weighting = kind.value
        self.w_samp = round(LATE_WINDOW_S * cm.sample_rate_hz)
        self.records: list[FeatureRecord] = []
        self.t_a_drops = 0
        self.cut_excursions = 0
        # the kept pulse whose record is pending, with the levels of its measured windows
        self._pending: tuple[PulseEvent, EnergyBounds, list[Levels]] | None = None
        self._csel = [0.0] * (1 + LATE_WINDOW_COUNT)  # running energy of every window slot

    def __call__(self, buf: RollingBuffer, kept: list[PulseEvent], scanner: PulseScanner,
                 final: bool) -> int:
        self.t_a_drops = scanner.t_a_drops
        self.cut_excursions = scanner.cut_excursions
        n_total = self.cm.n_samples
        for ev in kept:
            a = ev.search_start_index
            bk = energy_bounds(buf.view(a, min(ev.search_end_index, n_total)), a)
            if self._pending is not None:
                self._measure_late(buf, bk.i5, settled=True)
            self._pending = (ev, bk, [self._levels(buf, bk.i5, bk.i95 + 1, 0)])
        if self._pending is None:
            return buf.end
        return self._measure_late(buf, n_total if final else min(buf.end, scanner.keep_from), final)

    def _measure_late(self, buf: RollingBuffer, bound: int, settled: bool) -> int:
        """Measure the pending record's late windows ending by ``bound``; return the first sample it needs."""
        ev, bk, levels = self._pending
        w = self.w_samp
        valid = layout_windows(bk.i95, bound, w)
        while len(levels) <= LATE_WINDOW_COUNT and valid[len(levels) - 1]:
            a = bk.i95 + (len(levels) - 1) * w
            levels.append(self._levels(buf, a, a + w, len(levels)))
        if settled or len(levels) > LATE_WINDOW_COUNT:
            self.records.append(extract_record(ev, bk, levels, weighting=self.weighting,
                                               pulse_index=len(self.records), origin=self.cm.origin))
            self._pending = None
            return buf.end
        return bk.i95 + (len(levels) - 1) * w

    def _levels(self, buf: RollingBuffer, a: int, b: int, slot: int) -> Levels:
        win = SampleBuffer(buf.view(a, b), self.cm.sample_rate_hz, a, self.cm.channel_id)
        lv, self._csel[slot] = window_levels(win, self._csel[slot])
        return lv


# ---------------------------------------------------------------------------
# catalog serialization


def record_cells(rec: FeatureRecord) -> list[str]:
    """The 61 feature cells of one record, in catalog column order."""
    cells = [format_time(i, rec.event.sample_rate_hz, rec.origin) for i in (rec.i5, *rec.late_starts)]
    cells += peak_cells(rec.event, rec.origin)
    for lv in (rec.early, *rec.late):
        cells += [format_db(v) for v in lv]
    return cells


def sort_records(records: Iterable[FeatureRecord]) -> list[FeatureRecord]:
    """Canonical catalog order: channel, pulse, then weighting rank."""
    return sorted(
        records,
        key=lambda r: (r.channel_id, r.pulse_index, WEIGHTING_RANK[r.weighting]),
    )


def write_catalog(records: Iterable[FeatureRecord], path, run_id: str) -> int:
    """Write the catalog CSV; returns the points counted.

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
    return n_points
