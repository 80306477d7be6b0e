"""Synthetic seismic survey generator with closed-form ground truth.

The pulse model is a damped oscillation under a fast attack,

    p(t) = A * (1 - exp(-t/attack)) * exp(-t/decay) * cos(2*pi*f0*t),

which gives the fast-rising positive peak, negative overshoot, and
exponential tail of a recorded airgun arrival while keeping the pulse
energy integrable in closed form (see pulse_energy_upa2s).  An optional
deterministic reverberation tail and white Gaussian background noise can be
layered on top.  Signals are quantized to recorder counts and written as
16-bit PCM WAV with a matching manifest, so generated surveys flow through
the exact ingestion path real data would.  A channel is rendered and written
in blocks of at most MAX_CHUNK_SAMPLES samples, so memory does not grow with
its duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral
from pathlib import Path
from typing import Callable

import numpy as np

from .signal_io import MAX_CHUNK_SAMPLES, MAX_SAMPLE_RATE_HZ, MAX_WAV_FRAMES, CalibrationSpec, require_real, wav_writer

REVERB_CARRIER_HZ = 400.0  # carrier of the optional reverberation tail

GROUND_TRUTH_HEADER = "channel_id,pulse_index,t_true_s,p_peak_pa,sel_analytic_db"


@dataclass(frozen=True)
class SurveySpec:
    """Parameters of one synthetic deployment.

    Pressures are micropascal.  ``pulse_count`` pins the number of pulses
    per channel; left None it is derived from the duration.  The seed makes
    generation fully deterministic per channel, independent of generation
    order.
    """

    channel_count: int = 1
    duration_s: float = 60.0
    sample_rate_hz: int = 16_000
    ipi_s: float = 10.0
    first_pulse_s: float = 2.0
    pulse_count: int | None = None
    peak_pressure_upa: float = 1.0e6
    attack_s: float = 0.002
    decay_s: float = 0.03
    carrier_hz: float = 2000.0
    reverb_level_upa: float = 0.0
    reverb_decay_s: float = 2.0
    noise_rms_upa: float = 0.0
    counts_full_scale: int = 2048
    sensitivity_db: float = 126.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations are strings under postponed evaluation
            value = getattr(self, f.name)
            if f.type == "float":
                require_real(f.name, value)
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value}")
            if f.type == "int | None" and value is None:
                continue
            if f.type.startswith("int") and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.channel_count < 1:
            raise ValueError("channel_count must be >= 1")
        if self.sample_rate_hz > MAX_SAMPLE_RATE_HZ:
            raise ValueError(f"sample_rate_hz must be at most {MAX_SAMPLE_RATE_HZ}, the reader's cap, "
                             f"got {self.sample_rate_hz}")
        for name in ("duration_s", "sample_rate_hz", "ipi_s", "peak_pressure_upa",
                     "attack_s", "decay_s", "reverb_decay_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("first_pulse_s", "carrier_hz", "reverb_level_upa", "noise_rms_upa", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_samples > MAX_WAV_FRAMES:
            raise ValueError(f"duration_s {self.duration_s:g} at sample_rate_hz {self.sample_rate_hz} is "
                             f"{self.n_samples} samples; one WAV file holds at most {MAX_WAV_FRAMES}, "
                             f"{MAX_WAV_FRAMES / self.sample_rate_hz:.0f} s at this rate")
        if self.peak_pressure_upa > self.calibration.full_scale_upa:
            raise ValueError("peak_pressure_upa exceeds recorder full scale; it would clip")
        if self.counts_full_scale > 2**15:
            raise ValueError(f"counts_full_scale must be at most {2**15}, the full scale of the WAV's "
                             f"int16 counts, got {self.counts_full_scale}")
        if self.n_pulses < 1:
            raise ValueError("survey too short for a single pulse")
        last = self.first_pulse_s + (self.n_pulses - 1) * self.ipi_s
        if last + 1.0 > self.duration_s:
            raise ValueError("pulse schedule does not fit inside duration_s")

    @property
    def calibration(self) -> CalibrationSpec:
        return CalibrationSpec(self.counts_full_scale, self.sensitivity_db)

    @property
    def n_pulses(self) -> int:
        if self.pulse_count is not None:
            return self.pulse_count
        usable = self.duration_s - 1.0 - self.first_pulse_s
        return max(int(usable // self.ipi_s) + 1, 0)

    @property
    def n_samples(self) -> int:
        return round(self.duration_s * self.sample_rate_hz)

    def onsets_s(self) -> list[float]:
        return [self.first_pulse_s + k * self.ipi_s for k in range(self.n_pulses)]


def pulse_energy_upa2s(amplitude_upa: float, attack_s: float, decay_s: float,
                       carrier_hz: float) -> float:
    """Closed-form energy of the pulse model, integrated over all time.

    Expanding (1 - e)^2 gives three exponential terms; against cos^2 each
    integrates to (1/lam + lam/(lam^2 + 4w^2)) / 2.
    """
    w = 2.0 * math.pi * carrier_hz
    total = 0.0
    for coeff, lam in (
        (1.0, 2.0 / decay_s),
        (-2.0, 1.0 / attack_s + 2.0 / decay_s),
        (1.0, 2.0 / attack_s + 2.0 / decay_s),
    ):
        total += coeff * 0.5 * (1.0 / lam + lam / (lam * lam + 4.0 * w * w))
    return amplitude_upa * amplitude_upa * total


def _pulse_unit(t_rel: np.ndarray, attack_s: float, decay_s: float, carrier_hz: float) -> np.ndarray:
    env = (1.0 - np.exp(-t_rel / attack_s)) * np.exp(-t_rel / decay_s)
    return env * np.cos(2.0 * math.pi * carrier_hz * t_rel)


@dataclass(frozen=True)
class GroundTruthRecord:
    channel_id: int
    pulse_index: int
    t_true_s: float
    p_peak_upa: float
    sel_analytic_db: float


@dataclass(frozen=True)
class SynthResult:
    manifest_path: Path
    ground_truth_path: Path
    wav_paths: tuple[Path, ...]
    truths: tuple[GroundTruthRecord, ...] = field(repr=False)


class _Pulse:
    """One pulse while blocks reach it: its samples, and its highest count so far."""

    def __init__(self, spec: SurveySpec, index: int, onset: float, i0: int) -> None:
        fs, n = spec.sample_rate_hz, spec.n_samples
        span = max(round((spec.attack_s * 5.0 + spec.decay_s * 30.0) * fs), 8)
        self.index, self.onset, self.i0, self.i1 = index, onset, i0, min(i0 + span, n)
        reverb = spec.reverb_level_upa > 0.0
        self.tail_end = min(i0 + round(spec.reverb_decay_s * 20.0 * fs), n) if reverb else i0
        unit = np.empty(self.i1 - i0)  # rendered in blocks, then scaled in place
        for a in range(0, len(unit), MAX_CHUNK_SAMPLES):
            t_rel = np.arange(i0 + a, min(i0 + a + MAX_CHUNK_SAMPLES, self.i1)) / fs - onset
            unit[a : a + len(t_rel)] = _pulse_unit(t_rel, spec.attack_s, spec.decay_s, spec.carrier_hz)
        self.amp = spec.peak_pressure_upa / float(max(unit.max(), -unit.min()))
        self.samples: np.ndarray | None = np.multiply(unit, self.amp, out=unit)  # None after its last block
        self.peak, self.at = -(2**15) - 1, i0  # highest count in [i0, i1) so far, and its earliest sample


def _render_channel(spec: SurveySpec, channel_id: int,
                    append: Callable[[np.ndarray], None]) -> list[GroundTruthRecord]:
    """Render one channel to quantized counts, block by block, and return its ground truth rows.

    Each block of at most MAX_CHUNK_SAMPLES samples sums the pulses and
    reverberation tails that reach into it, in pulse order (pulse k, its
    tail, then pulse k + 1), adds its own draw of the channel's noise, is
    quantized in place and goes to ``append``.  Successive draws continue one
    noise stream, so the counts do not depend on the block size.  A pulse is
    rendered when the first block reaches it and dropped after its last one;
    its ground-truth peak is the earliest highest count across those blocks.
    Memory so holds one block and the pulses that overlap it, whatever the
    duration or pulse count.
    """
    fs, n = spec.sample_rate_hz, spec.n_samples
    calib = spec.calibration
    rng = np.random.default_rng((spec.seed, channel_id))
    onsets = spec.onsets_s()
    starts = [math.ceil(onset * fs - 1e-9) for onset in onsets]
    live: list[_Pulse] = []  # pulses, or their tails, that reach into the block
    truths: list[GroundTruthRecord] = []
    k = 0  # the next pulse to render
    for b0 in range(0, n, MAX_CHUNK_SAMPLES):
        b1 = min(b0 + MAX_CHUNK_SAMPLES, n)
        while k < len(onsets) and starts[k] < b1:
            live.append(_Pulse(spec, k, onsets[k], starts[k]))
            k += 1

        block = np.zeros(b1 - b0)
        for p in live:
            lo = max(p.i0, b0)
            if p.samples is not None:  # a pulse reaches into every block until its last
                hi = min(p.i1, b1)
                block[lo - b0 : hi - b0] += p.samples[lo - p.i0 : hi - p.i0]
            hi = min(p.tail_end, b1)
            if lo < hi:
                t_r = np.arange(lo, hi) / fs - p.onset
                env = spec.reverb_level_upa * np.exp(-t_r / spec.reverb_decay_s)
                block[lo - b0 : hi - b0] += env * np.cos(2.0 * math.pi * REVERB_CARRIER_HZ * t_r)
        if spec.noise_rms_upa > 0.0:
            block += rng.normal(0.0, spec.noise_rms_upa, b1 - b0)
        np.divide(block, calib.pressure_per_count, out=block)
        np.rint(block, out=block)
        np.clip(block, -spec.counts_full_scale, spec.counts_full_scale - 1, out=block)
        counts = block.astype(np.int16)
        append(counts)

        for p in live:
            if p.samples is None:
                continue
            lo, hi = max(p.i0, b0) - b0, min(p.i1, b1) - b0
            j = lo + int(np.argmax(counts[lo:hi]))
            if int(counts[j]) > p.peak:
                p.peak, p.at = int(counts[j]), b0 + j
            if p.i1 <= b1:
                p.samples = None
                energy = pulse_energy_upa2s(p.amp, spec.attack_s, spec.decay_s, spec.carrier_hz)
                truths.append(GroundTruthRecord(channel_id, p.index, t_true_s=p.at / fs,
                                                p_peak_upa=float(p.peak) * calib.pressure_per_count,
                                                sel_analytic_db=10.0 * math.log10(energy)))
        live = [p for p in live if p.samples is not None or p.tail_end > b1]
    return truths


def generate(spec: SurveySpec, out_dir: Path | str) -> SynthResult:
    """Write one synthetic survey: WAV per channel, manifest, ground truth CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    wav_paths: list[Path] = []
    truths: list[GroundTruthRecord] = []
    manifest_lines = ["# synthetic survey"]
    for ch in range(spec.channel_count):
        wav = out / f"ch{ch:02d}.wav"
        with wav_writer(wav, spec.n_samples, spec.sample_rate_hz) as append:
            truths.extend(_render_channel(spec, ch, append))
        wav_paths.append(wav)
        manifest_lines += [f"calib {ch} {spec.counts_full_scale} {spec.sensitivity_db:g}",
                           f"file {ch} {wav.name} 0.0"]

    manifest_path = out / "manifest.txt"
    manifest_path.write_text("\n".join(manifest_lines) + "\n")

    gt_path = out / "ground_truth.csv"
    with open(gt_path, "w", newline="") as fh:
        fh.write(GROUND_TRUTH_HEADER + "\n")
        fh.writelines(f"{t.channel_id},{t.pulse_index},{t.t_true_s:.9f},{t.p_peak_upa:.6f},"
                      f"{t.sel_analytic_db:.6f}\n" for t in truths)
    return SynthResult(manifest_path, gt_path, tuple(wav_paths), tuple(truths))
