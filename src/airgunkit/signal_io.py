"""Calibrated audio ingestion: manifests, WAV access, sample-exact chunked reads.

A manifest is a plain text file, one whitespace-delimited row per line,
``#`` starts a comment.  Two row kinds:

    calib <channel_id> <counts_full_scale> <sensitivity_db> [gap_policy]
    file  <channel_id> <relative/path.wav> <start_time_s>

``gap_policy`` is ``error`` (default) or ``zero_fill``.  File paths are
resolved relative to the manifest's directory.  Every channel needs exactly
one calib row and at least one file row.  Within a channel, files must share
one sample rate and tile the timeline: gaps or overlaps larger than one
sample period abort at open time (gaps are tolerated under ``zero_fill`` and
read back as zeros).  A misalignment of exactly one sample period is clock
jitter, not a defect: the later file snaps to adjacency, dropping its first
sample when it overlapped.

Start times are finite decimal seconds, read exactly.  The earliest file's
start is the channel's origin: every sample of a channel has a global index
counted from it, and the pipeline carries only those indices.  A time is
formed once, when it is written: ``format_time`` prints origin + i/fs,
rounded to 1 ns with ties to even, in integer arithmetic.

Audio must be 16-bit mono PCM WAV at 1 Hz to 512 kHz.  Conversion from
counts to micropascal is ``count / counts_full_scale * 10**(sensitivity_db/20)``;
``db_to_upa`` refuses a level whose pressure is not finite and positive, and
``CalibrationSpec`` a pressure per count that is not positive.

Memory is bounded at every rate: a stream reads a chunk of at most
MAX_CHUNK_SAMPLES samples (1 MB as float64, ``chunk_length``) at a time, and
a RollingBuffer keeps the retained tail of a stream in one array.
``read_span`` calibrates a chunk straight into the slots the stream's
buffer extends by, so a chunk is an array in that buffer and a sample is
written once; RollingBuffer states when it moves.
"""

from __future__ import annotations

import math
import re
import wave
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import AudioFormatError, GapError, ManifestError

MAX_SAMPLE_RATE_HZ = 512_000
# a chunk read is CHUNK_S seconds of samples, but at most MAX_CHUNK_SAMPLES:
# 1 MB as float64, 0.256 s at 512 kHz.  At 2 kHz a chunk is 120,000 samples;
# from 2185 Hz up the cap sets it.
CHUNK_S = 60.0
MAX_CHUNK_SAMPLES = 2**17
# frames of one 16-bit mono WAV: RIFF's 32-bit size field counts 36 header
# bytes plus 2 per frame, ~69.9 min at 512 kHz
MAX_WAV_FRAMES = (2**32 - 1 - 36) // 2
GAP_POLICIES = ("error", "zero_fill")
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d{1,3})?")


def parse_time(text: str) -> Fraction:
    """Seconds written as a finite decimal, read exactly."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"start time must be finite decimal seconds, got {text!r}")
    return Fraction(text)


def format_time(i: int, sample_rate_hz: float, origin: Fraction = Fraction(0)) -> str:
    """Seconds of sample ``i``, ``origin + i / sample_rate_hz``, to 1 ns with ties to even."""
    rn, rd = sample_rate_hz.as_integer_ratio()
    on, od = origin.as_integer_ratio()
    den = od * rn
    ns, rem = divmod((on * rn + i * rd * od) * 1_000_000_000, den)
    if 2 * rem > den or (2 * rem == den and ns & 1):
        ns += 1
    s, frac = divmod(abs(ns), 1_000_000_000)
    return f"{'-' if ns < 0 else ''}{s}.{frac:09d}"


class RollingBuffer:
    """The retained tail of one sample stream, addressed by global sample index.

    ``extend(n)`` commits the stream's next ``n`` samples and returns their
    slots, so a producer writes a chunk in place; ``trim`` releases the
    samples before an index, and only moves the start index.  The samples
    live in one float64 array, sized for a stream that holds at most
    ``hold`` samples when a chunk of at most ``chunk`` comes: it takes them,
    the chunk and the smaller of the two.  When the tail has no room for a
    chunk, the held samples move to the front of the array if they fit
    there with the chunk, onto their own source if need be, as numpy copies
    a 1-D slice forward; otherwise they move to a new array of twice the
    held-plus-chunk count.  Within its bounds a buffer thus keeps its array,
    and each move, of at most ``hold`` samples, follows at least
    ``min(hold, chunk)`` added ones; the array never exceeds the larger of
    its first size and twice the largest held-plus-chunk count.
    """

    def __init__(self, hold: int, chunk: int) -> None:
        self.start = 0
        self.moved = 0  # samples moved to the front or into a larger array
        self._data = np.empty(hold + chunk + min(hold, chunk))
        self._lo = 0  # array offset of sample ``start``
        self._hi = 0  # array offset one past the last held sample

    @property
    def end(self) -> int:
        return self.start + self._hi - self._lo

    @property
    def capacity(self) -> int:
        """Samples the array holds before the next move."""
        return len(self._data)

    def extend(self, n: int) -> np.ndarray:
        """Commit ``n`` more samples and return their slots, to be written in place before the next extend."""
        if self._hi + n > len(self._data):
            held = self._hi - self._lo
            data = self._data if held + n <= len(self._data) else np.empty(2 * (held + n))
            data[:held] = self._data[self._lo : self._hi]
            self._data, self._lo, self._hi = data, 0, held
            self.moved += held
        self._hi += n
        return self._data[self._hi - n : self._hi]

    def view(self, a: int, b: int) -> np.ndarray:
        """Samples [a, b) by global index; they must still be held.

        The view shares the buffer's array, so it is valid only until the
        next ``extend``, which may move other samples into its place.
        """
        if a < self.start or b > self.end:
            raise ValueError(f"span [{a}, {b}) outside the held samples [{self.start}, {self.end})")
        return self._data[self._lo + a - self.start : self._lo + b - self.start]

    def trim(self, keep_from: int) -> None:
        keep_from = min(keep_from, self.end)
        if keep_from > self.start:
            self._lo += keep_from - self.start
            self.start = keep_from


def require_real(key: str, value: object) -> None:
    """Refuse a bool (which would pass as 0 or 1) or a non-real ``value`` by its name, ``key``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{key} must be a real number, got {value!r}")


def db_to_upa(key: str, db: float) -> float:
    """10**(db/20): a level in dB re 1 uPa as a pressure, which must be finite and positive."""
    try:
        upa = 10.0 ** (db / 20.0)
    except OverflowError:
        upa = math.inf
    if not 0.0 < upa < math.inf:
        raise ValueError(f"{key} must be finite and map to a finite, positive pressure, got {db:g}")
    return upa


@dataclass(frozen=True)
class CalibrationSpec:
    """Maps recorder counts to micropascal."""

    counts_full_scale: int
    sensitivity_db: float

    def __post_init__(self) -> None:
        if self.counts_full_scale <= 0:
            raise ValueError("counts_full_scale must be positive")
        try:
            step = self.pressure_per_count  # finite, as the full scale is
        except OverflowError:  # a counts_full_scale beyond float range: the quotient underflows
            step = 0.0
        if not step > 0.0:
            raise ValueError("the pressure of one count, 10**(sensitivity_db/20) / counts_full_scale, "
                             f"must be positive, got {step:g} uPa")

    @property
    def full_scale_upa(self) -> float:
        return db_to_upa("sensitivity_db", self.sensitivity_db)

    @property
    def pressure_per_count(self) -> float:
        return self.full_scale_upa / self.counts_full_scale

    def counts_to_pressure(self, counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pressures in uPa, as float64; written into ``out`` when it is given."""
        return np.multiply(counts, self.pressure_per_count, out=out, dtype=np.float64)


@dataclass(frozen=True)
class _FileEntry:
    path: Path
    start_s: Fraction
    start_index: int  # global sample index relative to channel origin
    n_frames: int
    trim: int  # leading samples ignored (1-sample overlap tolerance)

    @property
    def end_index(self) -> int:
        return self.start_index + self.n_frames


@dataclass(frozen=True)
class ChannelManifest:
    """All files of one channel, indexed on a single global sample grid."""

    channel_id: int
    sample_rate_hz: float
    calibration: CalibrationSpec
    gap_policy: str
    files: tuple[_FileEntry, ...] = field(repr=False)
    manifest_path: Path = field(repr=False)  # the manifest that lists the files

    @property
    def origin(self) -> Fraction:
        """Seconds of sample 0: the start time of the channel's earliest file."""
        return self.files[0].start_s

    @property
    def n_samples(self) -> int:
        return self.files[-1].end_index

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def _wav_info(path: Path) -> tuple[int, int]:
    """Return (sample_rate, n_frames), rejecting anything but 16-bit mono PCM."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getcomptype() != "NONE":
                raise AudioFormatError(f"{path}: compressed WAV not supported")
            if w.getnchannels() != 1:
                raise AudioFormatError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise AudioFormatError(f"{path}: expected 16-bit samples, got {8 * w.getsampwidth()}-bit")
            rate = w.getframerate()
            if not 1 <= rate <= MAX_SAMPLE_RATE_HZ:
                raise AudioFormatError(f"{path}: sample rate {rate} Hz outside 1 to {MAX_SAMPLE_RATE_HZ} Hz")
            return rate, w.getnframes()
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a readable WAV file ({exc})") from exc


def _read_wav_span(path: Path, start: int, count: int) -> np.ndarray:
    """Read ``count`` int16 frames starting at frame ``start``."""
    with wave.open(str(path), "rb") as w:
        w.setpos(start)
        raw = w.readframes(count)
    out = np.frombuffer(raw, dtype="<i2")
    if len(out) != count:
        raise AudioFormatError(f"{path}: short read ({len(out)} of {count} frames)")
    return out


@contextmanager
def wav_writer(path: Path | str, n_frames: int,
               sample_rate_hz: int) -> Iterator[Callable[[np.ndarray], None]]:
    """Write ``n_frames`` counts as 16-bit mono PCM WAV, block by block.

    Yields ``append``, which writes one block of counts as int16.  The
    header states the frame count up front, so it is written once; the
    blocks must add up to that count.
    """
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(sample_rate_hz))
        w.setnframes(n_frames)
        yield lambda counts: w.writeframesraw(np.ascontiguousarray(counts, dtype="<i2"))
        if w.tell() != n_frames:
            raise ValueError(f"{path}: wrote {w.tell()} of {n_frames} frames")


def open_manifest(path: Path | str) -> dict[int, ChannelManifest]:
    """Parse a manifest and validate every channel's file chain.

    Returns channel manifests keyed by channel_id.  Raises ManifestError on
    syntax problems, missing calib rows, missing audio, mixed sample rates,
    or timeline defects (overlap > 1 sample always; gap > 1 sample unless the
    channel's gap_policy is zero_fill).
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    base = path.parent

    calibs: dict[int, CalibrationSpec] = {}
    policies: dict[int, str] = {}
    rows: dict[int, list[tuple[Path, Fraction]]] = {}

    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        kind = parts[0]
        try:
            if kind == "calib":
                if len(parts) not in (4, 5):
                    raise ValueError("expected: calib <ch> <counts_full_scale> <sensitivity_db> [gap_policy]")
                ch = int(parts[1])
                if ch in calibs:
                    raise ValueError(f"duplicate calib row for channel {ch}")
                policy = parts[4] if len(parts) == 5 else "error"
                if policy not in GAP_POLICIES:
                    raise ValueError(f"gap_policy must be one of {GAP_POLICIES}, got {policy!r}")
                calibs[ch] = CalibrationSpec(int(parts[2]), float(parts[3]))
                policies[ch] = policy
            elif kind == "file":
                if len(parts) != 4:
                    raise ValueError("expected: file <ch> <path> <start_time_s>")
                ch = int(parts[1])
                rows.setdefault(ch, []).append((base / parts[2], parse_time(parts[3])))
            else:
                raise ValueError(f"unknown row kind {kind!r}")
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc

    if not rows:
        raise ManifestError(f"{path}: no file rows")
    for ch in rows:
        if ch not in calibs:
            raise ManifestError(f"{path}: channel {ch} has file rows but no calib row")
    for ch in calibs:
        if ch not in rows:
            raise ManifestError(f"{path}: channel {ch} has a calib row but no files")

    out: dict[int, ChannelManifest] = {}
    for ch in sorted(rows):
        entries = sorted(rows[ch], key=lambda e: e[1])
        rate = None
        files: list[_FileEntry] = []
        t0 = entries[0][1]
        for fpath, start_s in entries:
            if not fpath.is_file():
                raise ManifestError(f"channel {ch}: missing audio file {fpath}")
            frate, nframes = _wav_info(fpath)
            if rate is None:
                rate = frate
            elif frate != rate:
                raise ManifestError(f"channel {ch}: sample rate {frate} in {fpath.name} differs from {rate}")
            if nframes == 0:
                raise ManifestError(f"channel {ch}: empty audio file {fpath}")
            gidx = round((start_s - t0) * rate)
            trim = 0
            if files:
                prev_end = files[-1].end_index
                delta = gidx - prev_end  # >0 gap, <0 overlap, in samples
                if delta < -1:
                    raise ManifestError(
                        f"channel {ch}: {fpath.name} overlaps previous file by {-delta} samples"
                    )
                if delta == -1:
                    # one duplicated sample: keep the earlier file's copy
                    trim, gidx = 1, prev_end
                elif delta == 1:
                    # one sample of start-time jitter: the files are adjacent
                    gidx = prev_end
                elif delta > 1 and policies[ch] == "error":
                    raise ManifestError(
                        f"channel {ch}: {delta}-sample gap before {fpath.name} (gap_policy=error)"
                    )
            files.append(_FileEntry(fpath, start_s, gidx, nframes - trim, trim))
        assert rate is not None
        out[ch] = ChannelManifest(ch, float(rate), calibs[ch], policies[ch], tuple(files), path)
    return out


def read_span(cm: ChannelManifest, start_index: int, count: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Read a calibrated span by global sample index, in uPa, into ``out`` when it is given.

    Each file's part of the span is calibrated straight into the one output
    array, and samples no file covers are written as zeros (under
    ``zero_fill``; under ``error`` they raise GapError).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    end = start_index + count
    if start_index < 0 or end > cm.n_samples:
        raise ValueError(
            f"span [{start_index}, {end}) outside channel coverage [0, {cm.n_samples})"
        )
    samples = np.empty(count) if out is None else out
    if len(samples) != count:
        raise ValueError(f"out holds {len(samples)} samples, not {count}")
    done = start_index  # files are sorted and never overlap: samples before ``done`` are written
    covered = 0
    for entry in cm.files:
        lo = max(start_index, entry.start_index)
        hi = min(end, entry.end_index)
        if lo >= hi:
            continue
        samples[done - start_index : lo - start_index] = 0.0  # no file covers these
        data = _read_wav_span(entry.path, entry.trim + (lo - entry.start_index), hi - lo)
        cm.calibration.counts_to_pressure(data, out=samples[lo - start_index : hi - start_index])
        covered += hi - lo
        done = hi
    samples[done - start_index :] = 0.0
    if covered < count and cm.gap_policy == "error":
        raise GapError(
            f"channel {cm.channel_id}: span [{start_index}, {end}) crosses an uncovered gap"
        )
    return samples


def chunk_length(sample_rate_hz: float, chunk_s: float = CHUNK_S) -> int:
    """Samples in a stream's chunk: ``chunk_s`` seconds, but at most MAX_CHUNK_SAMPLES and at least one."""
    if not 0.5 < chunk_s * sample_rate_hz < math.inf:  # round() gives 0 at 0.5 and fails on NaN and inf
        raise ValueError(f"chunk_s {chunk_s!r} s gives no sample at {sample_rate_hz:g} Hz")
    return min(round(chunk_s * sample_rate_hz), MAX_CHUNK_SAMPLES)
