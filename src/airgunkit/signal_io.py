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

Audio must be 16-bit mono PCM WAV at 512 kHz or below.  Conversion from
counts to micropascal is ``count / counts_full_scale * 10**(sensitivity_db/20)``.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import AudioFormatError, GapError, ManifestError

MAX_SAMPLE_RATE_HZ = 512_000
GAP_POLICIES = ("error", "zero_fill")


@dataclass(frozen=True)
class SampleBuffer:
    """Contiguous run of calibrated samples with an absolute time origin.

    samples are pressures in micropascal; sample i sits at
    ``start_time_s + i / sample_rate_hz`` exactly.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float
    channel_id: int

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + len(self.samples) / self.sample_rate_hz

    def time_at(self, i: int) -> float:
        return self.start_time_s + i / self.sample_rate_hz


class RollingBuffer:
    """The retained tail of one sample stream, addressed by global sample index.

    Chunks are appended in stream order; ``trim`` releases the samples before
    an index.  The kept tail is copied on trim, so a trimmed chunk's memory
    is freed instead of pinned by a view.
    """

    def __init__(self) -> None:
        self.start = 0
        self.samples = np.empty(0)

    @property
    def end(self) -> int:
        return self.start + len(self.samples)

    def append(self, samples: np.ndarray) -> None:
        self.samples = np.concatenate((self.samples, samples)) if len(self.samples) else samples

    def view(self, a: int, b: int) -> np.ndarray:
        """Samples [a, b) by global index; they must still be held."""
        if a < self.start or b > self.end:
            raise ValueError(f"span [{a}, {b}) outside the held samples [{self.start}, {self.end})")
        return self.samples[a - self.start : b - self.start]

    def trim(self, keep_from: int) -> None:
        keep_from = min(keep_from, self.end)
        if keep_from > self.start:
            self.samples = self.samples[keep_from - self.start :].copy()
            self.start = keep_from


@dataclass(frozen=True)
class CalibrationSpec:
    """Maps recorder counts to micropascal."""

    counts_full_scale: int
    sensitivity_db: float

    def __post_init__(self) -> None:
        if self.counts_full_scale <= 0:
            raise ValueError("counts_full_scale must be positive")

    @property
    def full_scale_upa(self) -> float:
        return 10.0 ** (self.sensitivity_db / 20.0)

    @property
    def pressure_per_count(self) -> float:
        return self.full_scale_upa / self.counts_full_scale

    def counts_to_pressure(self, counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pressures in uPa, as float64; written into ``out`` when it is given."""
        return np.multiply(counts, self.pressure_per_count, out=out, dtype=np.float64)


@dataclass(frozen=True)
class _FileEntry:
    path: Path
    start_time_s: float
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

    @property
    def start_time_s(self) -> float:
        return self.files[0].start_time_s

    @property
    def n_samples(self) -> int:
        return self.files[-1].end_index

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s


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
            if rate > MAX_SAMPLE_RATE_HZ:
                raise AudioFormatError(f"{path}: sample rate {rate} above {MAX_SAMPLE_RATE_HZ} Hz cap")
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


def write_wav(path: Path | str, counts: np.ndarray, sample_rate_hz: int) -> None:
    """Write int16 counts as 16-bit mono PCM WAV."""
    data = np.asarray(counts, dtype="<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(sample_rate_hz))
        w.writeframes(data.tobytes())


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
    rows: dict[int, list[tuple[Path, float]]] = {}

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
                rows.setdefault(ch, []).append((base / parts[2], float(parts[3])))
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
        out[ch] = ChannelManifest(ch, float(rate), calibs[ch], policies[ch], tuple(files))
    return out


def read_span(cm: ChannelManifest, start_index: int, count: int) -> SampleBuffer:
    """Read a calibrated span by global sample index.

    Each file's part of the span is calibrated straight into the one output
    array; samples no file covers read as zeros under ``zero_fill``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    end = start_index + count
    if start_index < 0 or end > cm.n_samples:
        raise ValueError(
            f"span [{start_index}, {end}) outside channel coverage [0, {cm.n_samples})"
        )
    samples = np.zeros(count)
    covered = 0  # files never overlap, so their parts add up
    for entry in cm.files:
        lo = max(start_index, entry.start_index)
        hi = min(end, entry.end_index)
        if lo >= hi:
            continue
        data = _read_wav_span(entry.path, entry.trim + (lo - entry.start_index), hi - lo)
        cm.calibration.counts_to_pressure(data, out=samples[lo - start_index : hi - start_index])
        covered += hi - lo
    if covered < count and cm.gap_policy == "error":
        raise GapError(
            f"channel {cm.channel_id}: span [{start_index}, {end}) crosses an uncovered gap"
        )
    return SampleBuffer(
        samples=samples,
        sample_rate_hz=cm.sample_rate_hz,
        start_time_s=cm.start_time_s + start_index / cm.sample_rate_hz,
        channel_id=cm.channel_id,
    )


def iter_chunks(cm: ChannelManifest, chunk_s: float = 60.0) -> Iterator[SampleBuffer]:
    """Yield the whole channel as consecutive chunks (last one may be short).

    Chunk boundaries are computed in integer samples, so consecutive chunks
    tile the channel exactly: each starts where the previous ended.
    """
    step = round(chunk_s * cm.sample_rate_hz)
    if step < 1:
        raise ValueError("chunk_s too small for the sample rate")
    for start in range(0, cm.n_samples, step):
        yield read_span(cm, start, min(step, cm.n_samples - start))
