"""The benchmark's workloads: one synthetic survey each, and how it is run.

Every workload is a survey from ``airgunkit.synth.generate`` plus the CLI
flags of its ``extract`` runs.  The seed moves the pulse schedule (and the
noise, where there is noise) but never the pulse count, so every seed
produces the same number of catalog rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

IPI_S = 10.0
ALL_WEIGHTINGS = ("linear", "lfc", "mfc")
# ~3 recorder LSB rms at the default calibration: enough to keep the IIR
# filter state out of the subnormal range, far below the 100 dB threshold
NOISE_RMS_UPA = 3000.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    channels: int
    duration_s: float
    pulses: int
    sample_rate_hz: int = 16_000
    noise_rms_upa: float = 0.0
    weightings: tuple[str, ...] = ALL_WEIGHTINGS
    workers: int = 1  # above 1: --mode parallel --workers N

    @property
    def mode(self) -> str:
        return "serial" if self.workers == 1 else "parallel"

    @property
    def channel_hours(self) -> float:
        return self.channels * self.duration_s / 3600.0

    def survey_spec(self, seed: int):
        """The survey of this workload for one seed."""
        from airgunkit.synth import SurveySpec

        first_pulse_s = 2.0 + random.Random(seed).random()
        return SurveySpec(
            channel_count=self.channels,
            duration_s=self.duration_s,
            sample_rate_hz=self.sample_rate_hz,
            ipi_s=IPI_S,
            first_pulse_s=first_pulse_s,
            pulse_count=self.pulses,
            noise_rms_upa=self.noise_rms_upa,
            seed=seed,
        )

    def extract_flags(self) -> list[str]:
        flags = ["--weightings", ",".join(self.weightings)]
        if self.workers > 1:
            flags += ["--mode", "parallel", "--workers", str(self.workers)]
        return flags

    def describe(self) -> str:
        noise = f"noise {self.noise_rms_upa:g} uPa rms" if self.noise_rms_upa else "no noise"
        return (
            f"{self.channels} ch x {self.duration_s:g} s at {self.sample_rate_hz} Hz, "
            f"{self.pulses} pulses/ch, {noise}, weightings {','.join(self.weightings)}, "
            f"{self.mode} with {self.workers} worker(s)"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="silent",
            why="quantized silence between pulses: lfc/mfc filter state decays into "
                "subnormals, so the weighting filter dominates",
            channels=1, duration_s=185.0, pulses=18,
        ),
        Workload(
            name="noisy",
            why="3 LSB of noise keep the filter cheap, so read, scan, measure and write "
                "carry the run",
            channels=4, duration_s=185.0, pulses=18, noise_rms_upa=NOISE_RMS_UPA,
        ),
        Workload(
            name="parallel",
            why="the noisy survey on a 2-worker pool: the only workload that runs the "
                "runner pool, where BLAS threads contend",
            channels=4, duration_s=185.0, pulses=18, noise_rms_upa=NOISE_RMS_UPA, workers=2,
        ),
        Workload(
            name="highrate",
            why="512 kHz, mfc only: 60-s chunks hold 30.7 M samples, so peak memory "
                "shows here",
            channels=1, duration_s=70.0, pulses=7, sample_rate_hz=512_000,
            noise_rms_upa=NOISE_RMS_UPA, weightings=("mfc",),
        ),
    )
}
