"""Threshold pulse detection over a sample stream and its rolling buffer.

An excursion is a maximal run of samples with |p| at or above the detection
threshold.  Each excursion nominates its largest-|p| sample (earliest on
ties) as an anchor; anchors fewer than min_gap = round(min_ipi_s * fs)
samples after the last accepted anchor are discarded.  Around each accepted
anchor a fixed search window, 0.5 s before to 1.0 s after, is measured for
the positive and negative pressure extremes; the positive extreme defines
the pulse time t_A.  A pulse whose t_A lies fewer than min_gap samples after
the t_A of the last kept pulse is dropped, and the drop is counted.

Everything here is a global sample index of the stream, which starts at the
channel's sample 0; format_event_row turns indices into seconds through
signal_io.format_time, only when it writes them.  A PulseEvent holds what
the scan measured and nothing derived from it: format_event_row takes each
level as ``pressure_db`` of the measured pressures, and the IPI as the gap
to the next event, where it writes them.

The scan is streaming.  A PulseScanner reads the samples added to a
RollingBuffer, decides every anchor once with its full search window in
view, and names through ``keep_from`` the first sample it may still need.
detect_pulses is the one loop over a stream (runner.weighted_chunks), which
owns its buffer and reads each chunk into it: after each step the loop
scans the buffer, hands the kept pulses to an optional consumer that
measures them from the same buffer (the extraction pipeline's record
builder), and trims it.  Any chunking gives the events of one whole buffer.

An excursion longer than MAX_EXCURSION_S is cut into pieces of that length,
counted from its first sample, and each piece nominates its own anchor: this
bounds the samples the scanner holds without letting chunk boundaries change
the result.  The excursions so cut are counted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .measures import NA, format_db, pressure_db
from .signal_io import RollingBuffer, db_to_upa, format_time, require_real

SEARCH_BEFORE_S = 0.5
SEARCH_AFTER_S = 1.0
MAX_EXCURSION_S = 15.0


def search_hold(sample_rate_hz: float) -> int:
    """Samples of one search window: all a scanner holds before a chunk comes, if no excursion outlasts it."""
    return round(SEARCH_BEFORE_S * sample_rate_hz) + round(SEARCH_AFTER_S * sample_rate_hz)


@dataclass(frozen=True)
class DetectorConfig:
    """Detection tuning: threshold in dB re 1 uPa, refractory spacing in s.

    The refractory spacing must exceed the fixed search window
    (SEARCH_BEFORE_S + SEARCH_AFTER_S) so consecutive search windows cannot
    interleave.
    """

    threshold_db: float
    min_ipi_s: float = 5.0

    def __post_init__(self) -> None:
        require_real("threshold_db", self.threshold_db)
        require_real("min_ipi_s", self.min_ipi_s)
        db_to_upa("threshold_db", self.threshold_db)
        if not SEARCH_BEFORE_S + SEARCH_AFTER_S < self.min_ipi_s < math.inf:
            raise ValueError(f"min_ipi_s must be finite and exceed the "
                             f"{SEARCH_BEFORE_S + SEARCH_AFTER_S:g}-s search window, got {self.min_ipi_s:g}")

    @property
    def threshold_upa(self) -> float:
        return db_to_upa("threshold_db", self.threshold_db)


class PulseEvent(NamedTuple):
    """One detected pulse, as the scan measured it.

    *_index fields are global sample indices of the stream: the positive
    extreme (t_A), the negative extreme (t_B), the anchor and the search
    window [search_start_index, search_end_index).  No level or IPI is
    stored: format_event_row derives both where it writes them.
    """

    channel_id: int
    sample_rate_hz: float
    pos_index: int
    p_pos_upa: float
    neg_index: int
    p_neg_upa: float
    search_start_index: int
    search_end_index: int
    anchor_index: int


class _OpenPiece(NamedTuple):
    """The excursion piece still above threshold at the scanned end."""

    run_start: int
    piece: int
    peak: float
    anchor: int


class PulseScanner:
    """Streaming detector state of one sample stream.

    Call ``scan`` after each chunk added to the RollingBuffer, then trim the
    buffer no further than ``keep_from``; call ``scan(buf, final=True)`` once
    at end of stream.  ``t_a_drops`` counts the pulses dropped by the t_A
    spacing rule, ``cut_excursions`` the excursions cut into pieces.
    """

    def __init__(self, config: DetectorConfig, sample_rate_hz: float, channel_id: int = 0) -> None:
        self.fs = sample_rate_hz
        self.channel_id = channel_id
        self.threshold = config.threshold_upa
        self.pre = round(SEARCH_BEFORE_S * self.fs)
        self.post = round(SEARCH_AFTER_S * self.fs)
        self.min_gap = round(config.min_ipi_s * self.fs)
        self.piece_len = round(MAX_EXCURSION_S * self.fs)
        self.t_a_drops = 0
        self.cut_excursions = 0
        self._pos = 0  # first sample not scanned yet
        self._open: _OpenPiece | None = None
        self._last_anchor: int | None = None
        self._waiting: deque[int] = deque()  # accepted anchors awaiting their window
        self._last_t_a: int | None = None

    @property
    def keep_from(self) -> int:
        """First sample a later scan may read; no later pulse's search window starts before it."""
        if self._waiting:
            first = self._waiting[0]
        elif self._open is not None:
            first = self._open.anchor
        else:
            first = self._pos
        return max(first - self.pre, 0)

    def scan(self, buf: RollingBuffer, final: bool = False) -> list[PulseEvent]:
        """Scan the samples added since the last call; return the newly kept pulses.

        ``final`` marks the end of the stream: the open excursion closes and
        search windows are cut at the last sample.
        """
        for anchor in self._anchors(buf.view(self._pos, buf.end), final):
            if self._last_anchor is None or anchor - self._last_anchor >= self.min_gap:
                self._waiting.append(anchor)
                self._last_anchor = anchor
        self._pos = buf.end
        kept: list[PulseEvent] = []
        # accepted anchors are at least min_gap apart, more than one search
        # window, so pulses come out in t_A order
        while self._waiting and (final or self._waiting[0] + self.post <= buf.end):
            ev = self._measure(buf, self._waiting.popleft())
            if self._last_t_a is not None and ev.pos_index - self._last_t_a < self.min_gap:
                self.t_a_drops += 1
                continue
            self._last_t_a = ev.pos_index
            kept.append(ev)
        return kept

    def _anchors(self, x: np.ndarray, final: bool) -> list[int]:
        """Anchors of the excursion pieces that end in ``x``, the samples from ``_pos`` on.

        A piece still above threshold at the end of ``x`` stays open unless
        ``final``.  Every piece's largest |p| is found in one pass over the
        above-threshold samples; its anchor is the first sample equal to it.
        """
        if len(x) == 0 and not final:
            return []
        op, self._open = self._open, None
        idx = np.flatnonzero((x >= self.threshold) | (x <= -self.threshold))
        if idx.size == 0:
            return [] if op is None else [op.anchor]
        g = idx + self._pos
        gaps = np.diff(idx) != 1
        run_first = np.concatenate(([0], np.flatnonzero(gaps) + 1))
        run_start = g[run_first]
        continues = op is not None and idx[0] == 0
        if continues:
            run_start[0] = op.run_start
        offset = g - np.repeat(run_start, np.diff(run_first, append=idx.size))
        self.cut_excursions += int(np.count_nonzero(offset == self.piece_len))  # a second piece starts
        piece = offset // self.piece_len
        first = np.concatenate(([0], np.flatnonzero(gaps | (np.diff(piece) != 0)) + 1))
        mag = np.abs(x[idx])
        peaks = np.maximum.reduceat(mag, first)
        hits = np.flatnonzero(mag == np.repeat(peaks, np.diff(first, append=idx.size)))
        anchors = g[hits[np.searchsorted(hits, first)]].tolist()
        closed: list[int] = []
        if op is not None:
            if continues and piece[0] == op.piece:
                if op.peak >= peaks[0]:  # the earlier sample wins a tie
                    anchors[0] = op.anchor
                    peaks[0] = op.peak
            else:
                closed.append(op.anchor)
        if not final and idx[-1] == len(x) - 1:
            self._open = _OpenPiece(int(run_start[-1]), int(piece[-1]), float(peaks[-1]), anchors.pop())
        return closed + anchors

    def _measure(self, buf: RollingBuffer, anchor: int) -> PulseEvent:
        """Measure one accepted anchor's search window, cut at the buffer end.

        t_A and t_B are the window's largest and smallest samples, each the
        earliest sample on ties, as np.argmax and np.argmin take it.  The
        window holds its anchor, whose |p| is at least the threshold, so it
        is never all zero.
        """
        lo = max(anchor - self.pre, 0)
        hi = anchor + self.post
        x = buf.view(lo, min(hi, buf.end))
        i_pos, i_neg = int(np.argmax(x)), int(np.argmin(x))
        return PulseEvent(self.channel_id, self.fs, lo + i_pos, float(x[i_pos]), lo + i_neg, float(x[i_neg]),
                          lo, hi, anchor)


# consumer(buf, kept, scanner, final) -> first sample it still needs
StreamConsumer = Callable[[RollingBuffer, list[PulseEvent], PulseScanner, bool], int]


def detect_pulses(stream: Iterable, config: DetectorConfig,
                  consumer: StreamConsumer | None = None) -> list[PulseEvent]:
    """Run threshold detection over a stream; returns the kept events in time order.

    ``stream`` is one channel's samples from its sample 0, at
    ``stream.sample_rate_hz``, as runner.weighted_chunks gives them: each
    step adds a chunk to ``stream.buffer``, and the loop then scans it.  A
    ``consumer`` is called after every scan with the buffer, the newly kept
    pulses and the scanner, and once more with ``final`` at end of stream;
    the buffer is trimmed no further than the sample it returns.
    """
    buffer = stream.buffer
    scanner = PulseScanner(config, stream.sample_rate_hz, stream.channel_id)
    events: list[PulseEvent] = []
    for _ in stream:
        kept = scanner.scan(buffer)
        events += kept
        keep_from = scanner.keep_from
        if consumer is not None:
            keep_from = min(keep_from, consumer(buffer, kept, scanner, False))
        buffer.trim(keep_from)
    kept = scanner.scan(buffer, final=True)
    events += kept
    if consumer is not None:
        consumer(buffer, kept, scanner, True)
    return events


EVENTS_HEADER = (
    "channel_id,weighting,pulse_index,t_a_s,p_a_upa,p_a_db,t_b_s,p_b_upa,p_b_db,p_pp_db,ipi_s"
)


def peak_cells(ev: PulseEvent, origin: Fraction = Fraction(0)) -> list[str]:
    """The cells t_a_s, p_a_upa, p_a_db, t_b_s, p_b_upa, p_b_db of one pulse.

    Times are at ns precision, pressures and levels at 6 decimals; ``origin``
    is the seconds of the channel's sample 0 (``ChannelManifest.origin``).
    """
    fs = ev.sample_rate_hz
    return [cell for i, p in ((ev.pos_index, ev.p_pos_upa), (ev.neg_index, ev.p_neg_upa))
            for cell in (format_time(i, fs, origin), f"{p:.6f}", format_db(pressure_db(p)))]


def format_event_row(ev: PulseEvent, weighting: str, pulse_index: int, origin: Fraction = Fraction(0),
                     next_event: PulseEvent | None = None) -> str:
    """One events-CSV row: the pulse's ``peak_cells``, then p_pp_db and ipi_s.

    ipi_s is the gap to ``next_event``, the next pulse of the stream; NA without one.
    """
    ipi = NA if next_event is None else format_time(next_event.pos_index - ev.pos_index, ev.sample_rate_hz)
    return ",".join([str(ev.channel_id), weighting, str(pulse_index), *peak_cells(ev, origin),
                     format_db(pressure_db(ev.p_pos_upa - ev.p_neg_upa)), ipi])


def write_events_csv(path, rows: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(EVENTS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
