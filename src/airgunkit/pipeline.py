"""Feature record assembly, catalog serialization, and point accounting.

A record is the 61 feature values of a single pulse under a single
weighting: the early window lower bound, ten late window start times, six
peak measures, and four level measures (SPL, SEL, L_EQ, CSEL) for the early
window and for each late window.  The early window's upper bound needs no
column of its own because late window 1 starts exactly there.

A record is formatted where it settles: extract_record turns it into one
line of text, its catalog row less the run id.  Up to then its times are
global sample indices: the bounds i5 and i95, the pulse's extremes, and late
slot k at i95 + k * w for w samples per late window; signal_io.format_time
prints origin + i/fs, rounded to 1 ns with ties to even.

Catalog rows are ``run_id, channel_id, weighting, pulse_index`` followed by
the 61 feature cells in group order.  Invalid late windows keep their start
time and carry the literal token ``NA`` for all four level measures; NA cells
still count as emitted feature points.  Levels and linear pressures print
with 6 digits; written catalogs parse back to the exact same tokens.

RecordBuilder turns the pulses of one (channel, weighting) stream into
rows while detect_pulses streams it: bounds and windows are measured in
the stream's rolling buffer of filtered samples, so no sample is read or
filtered twice, and each window as soon as no later pulse can cut it, so a
pending record holds at most one late window behind the scanner's own hold.
The early window is a one-row ladder, and the late windows that become valid
in one call are the rows of one buffer view (measures.ladder_levels).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, zip_longest
from typing import Iterable, Iterator, Sequence

from .errors import RunError
from .measures import NA, Levels, format_db, ladder_levels
from .pulse_detect import PulseEvent, PulseScanner, peak_cells, search_hold
from .signal_io import ChannelManifest, RollingBuffer, format_time
from .weighting import WeightingKind
from .windows import LATE_WINDOW_COUNT, LATE_WINDOW_S, EnergyBounds, energy_bounds, late_window_count

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


def extract_record(event: PulseEvent, bounds: EnergyBounds, levels: Sequence[Levels], *, weighting: str,
                   pulse_index: int, origin: Fraction = Fraction(0)) -> str:
    """One record's catalog row less its run id, formatted from the levels of its measured windows.

    ``levels`` holds the early window's levels, then those of the late
    windows that were valid, in slot order: validity is a prefix of the
    ladder.  The remaining slots keep their start times but get NA level
    measures.  ``origin`` is the seconds of the channel's sample 0.
    """
    n_na = LATE_WINDOW_COUNT + 1 - len(levels)
    if not 0 <= n_na <= LATE_WINDOW_COUNT:
        raise ValueError(f"record takes 1 to {LATE_WINDOW_COUNT + 1} window levels, got {len(levels)}")
    fs = event.sample_rate_hz
    w = round(LATE_WINDOW_S * fs)
    late_starts = range(bounds.i95, bounds.i95 + LATE_WINDOW_COUNT * w, w)
    cells = [format_time(i, fs, origin) for i in (bounds.i5, *late_starts)]
    cells += peak_cells(event, origin)
    for lv in levels:
        cells += map(format_db, lv)
    cells += (NA,) * (len(_LEVEL_NAMES) * n_na)
    if len(cells) != FEATURES_PER_RECORD:
        raise RunError(f"record emitted {len(cells)} cells, expected {FEATURES_PER_RECORD}")
    return f"{event.channel_id},{weighting},{pulse_index},{','.join(cells)}"


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
        self.fs = cm.sample_rate_hz
        self.w_samp = round(LATE_WINDOW_S * self.fs)
        # a search window and one late window behind it: more than a stream of short pulses holds
        self.hold = search_hold(self.fs) + self.w_samp
        self.records: list[str] = []  # catalog rows less the run id, in pulse order
        self.scanner: PulseScanner | None = None  # the stream's scanner, which counts its drops and cuts
        # the kept pulse whose record is pending, with the levels of its measured windows
        self._pending: tuple[PulseEvent, EnergyBounds, list[Levels]] | None = None
        self._csel = [0.0] * (1 + LATE_WINDOW_COUNT)  # running energy of every window slot

    def __call__(self, buf: RollingBuffer, kept: list[PulseEvent], scanner: PulseScanner,
                 final: bool) -> int:
        self.scanner = scanner
        n_total = self.cm.n_samples
        for ev in kept:
            a = ev.search_start_index
            bk = energy_bounds(buf.view(a, min(ev.search_end_index, n_total)), a)
            if self._pending is not None:
                self._measure_late(buf, bk.i5, settled=True)
            early = buf.view(bk.i5, bk.i95 + 1).reshape(1, -1)  # a one-row ladder
            self._pending = (ev, bk, ladder_levels(early, self.fs, self._csel))
        if self._pending is None:
            return buf.end
        return self._measure_late(buf, n_total if final else min(buf.end, scanner.keep_from), final)

    def _measure_late(self, buf: RollingBuffer, bound: int, settled: bool) -> int:
        """Measure the pending record's late windows ending by ``bound``; return the first sample it needs."""
        ev, bk, levels = self._pending
        w = self.w_samp
        slot = len(levels)  # the first unmeasured slot: late window k is slot k, at i95 + (k - 1) * w
        end = bk.i95 + late_window_count(bk.i95, bound, w) * w
        levels += ladder_levels(buf.view(bk.i95 + (slot - 1) * w, end).reshape(-1, w), self.fs, self._csel, slot)
        if settled or len(levels) > LATE_WINDOW_COUNT:
            self.records.append(extract_record(ev, bk, levels, weighting=self.weighting,
                                               pulse_index=len(self.records), origin=self.cm.origin))
            self._pending = None
            return buf.end
        return end


# ---------------------------------------------------------------------------
# catalog serialization


def sort_records(streams: Iterable[tuple[int, list[str]]]) -> Iterator[str]:
    """Interleave (channel id, rows) streams, in ``runner.preflight`` order, into catalog order.

    A channel's streams come in weighting order and each stream's rows in
    pulse order, so one row per stream per pulse is the order (channel,
    pulse, weighting) with no key.  perfbench's tracer wraps this name.
    """
    for _, channel in groupby(streams, key=lambda stream: stream[0]):
        for pulse in zip_longest(*(rows for _, rows in channel)):
            yield from (row for row in pulse if row is not None)


def write_catalog(rows: Iterable[str], path, run_id: str) -> int:
    """Write the catalog CSV, ``run_id`` before each row; returns the points counted.

    Every row carries FEATURES_PER_RECORD cells (NA included), with the
    early bound pair contributing its single point through the early_t5_s
    column.
    """
    n_rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(CATALOG_HEADER + "\n")
        for n_rows, row in enumerate(rows, 1):
            fh.write(f"{run_id},{row}\n")
    return n_rows * FEATURES_PER_RECORD
