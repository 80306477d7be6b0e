"""Synthetic seismic survey generator with closed-form ground truth.

The pulse model is a damped oscillation under a fast attack,

    p(t) = A * (1 - exp(-t/attack)) * exp(-t/decay) * cos(2*pi*f0*t),

which gives the fast-rising positive peak, negative overshoot, and
exponential tail of a recorded airgun arrival while keeping the pulse
energy integrable in closed form (see pulse_energy_upa2s).  An optional
deterministic reverberation tail and white Gaussian background noise can be
layered on top.  Signals are quantized to recorder counts and written as
16-bit PCM WAV with a matching manifest, so generated surveys flow through
the exact ingestion path real data would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .signal_io import MAX_SAMPLE_RATE_HZ, CalibrationSpec, write_wav

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
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.channel_count < 1:
            raise ValueError("channel_count must be >= 1")
        if self.sample_rate_hz > MAX_SAMPLE_RATE_HZ:
            raise ValueError(f"sample_rate_hz must be at most {MAX_SAMPLE_RATE_HZ}, the reader's cap, "
                             f"got {self.sample_rate_hz}")
        for name in ("duration_s", "sample_rate_hz", "ipi_s", "peak_pressure_upa",
                     "attack_s", "decay_s", "reverb_decay_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("first_pulse_s", "carrier_hz", "reverb_level_upa", "noise_rms_upa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.peak_pressure_upa > self.calibration.full_scale_upa:
            raise ValueError("peak_pressure_upa exceeds recorder full scale; it would clip")
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


def _render_channel(spec: SurveySpec, channel_id: int) -> tuple[np.ndarray, list[GroundTruthRecord]]:
    """Render one channel to quantized counts plus its ground truth rows."""
    fs = spec.sample_rate_hz
    n = spec.n_samples
    signal = np.zeros(n)

    pulse_span = round((spec.attack_s * 5.0 + spec.decay_s * 30.0) * fs)
    pulse_span = max(pulse_span, 8)
    spans: list[tuple[int, int, float]] = []  # (i0, i1, amplitude) per pulse

    for onset in spec.onsets_s():
        i0 = math.ceil(onset * fs - 1e-9)
        i1 = min(i0 + pulse_span, n)
        if i0 >= n:
            break
        t_rel = np.arange(i0, i1) / fs - onset
        unit = _pulse_unit(t_rel, spec.attack_s, spec.decay_s, spec.carrier_hz)
        m = float(np.max(np.abs(unit)))
        amp = spec.peak_pressure_upa / m
        signal[i0:i1] += amp * unit
        spans.append((i0, i1, amp))

        if spec.reverb_level_upa > 0.0:
            r_span = min(i0 + round(spec.reverb_decay_s * 20.0 * fs), n)
            t_r = np.arange(i0, r_span) / fs - onset
            env = spec.reverb_level_upa * np.exp(-t_r / spec.reverb_decay_s)
            signal[i0:r_span] += env * np.cos(2.0 * math.pi * REVERB_CARRIER_HZ * t_r)

    if spec.noise_rms_upa > 0.0:
        rng = np.random.default_rng((spec.seed, channel_id))
        signal += rng.normal(0.0, spec.noise_rms_upa, n)

    calib = spec.calibration
    counts = np.clip(
        np.rint(signal / calib.pressure_per_count),
        -spec.counts_full_scale,
        spec.counts_full_scale - 1,
    ).astype(np.int16)

    truths: list[GroundTruthRecord] = []
    for k, (i0, i1, amp) in enumerate(spans):
        j = i0 + int(np.argmax(counts[i0:i1]))
        truths.append(
            GroundTruthRecord(
                channel_id=channel_id,
                pulse_index=k,
                t_true_s=j / fs,
                p_peak_upa=float(counts[j]) * calib.pressure_per_count,
                sel_analytic_db=10.0
                * math.log10(pulse_energy_upa2s(amp, spec.attack_s, spec.decay_s, spec.carrier_hz)),
            )
        )
    return counts, truths


def generate(spec: SurveySpec, out_dir: Path | str) -> SynthResult:
    """Write one synthetic survey: WAV per channel, manifest, ground truth CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    wav_paths: list[Path] = []
    truths: list[GroundTruthRecord] = []
    manifest_lines = ["# synthetic survey"]
    for ch in range(spec.channel_count):
        counts, ch_truths = _render_channel(spec, ch)
        wav = out / f"ch{ch:02d}.wav"
        write_wav(wav, counts, spec.sample_rate_hz)
        wav_paths.append(wav)
        truths.extend(ch_truths)
        manifest_lines.append(
            f"calib {ch} {spec.counts_full_scale} {spec.sensitivity_db:g}"
        )
        manifest_lines.append(f"file {ch} {wav.name} 0.0")

    manifest_path = out / "manifest.txt"
    manifest_path.write_text("\n".join(manifest_lines) + "\n")

    gt_path = out / "ground_truth.csv"
    with open(gt_path, "w", newline="") as fh:
        fh.write(GROUND_TRUTH_HEADER + "\n")
        for t in truths:
            fh.write(
                f"{t.channel_id},{t.pulse_index},{t.t_true_s:.9f},"
                f"{t.p_peak_upa:.6f},{t.sel_analytic_db:.6f}\n"
            )
    return SynthResult(manifest_path, gt_path, tuple(wav_paths), tuple(truths))
