import csv

import numpy as np
import pytest

from airgunkit.signal_io import SampleBuffer, wav_writer
from airgunkit.synth import SurveySpec, generate


def make_buffer(samples, fs=16000.0, start=0, channel=0) -> SampleBuffer:
    return SampleBuffer(np.asarray(samples, dtype=np.float64), fs, start, channel)


def csel_of_levels(sel_dbs) -> float:
    """Oracle: cumulative level of already-measured per-window SELs (energy sum in dB)."""
    arr = np.asarray(sel_dbs, dtype=np.float64)
    return float(10.0 * np.log10(np.sum(10.0 ** (arr / 10.0))))


def ledger_total(weightings: int, early: int, late: int, units: int, pulses: int) -> int:
    """Oracle: total feature points, weightings * (early + late) * units * pulses."""
    for name, v in (("weightings", weightings), ("early", early), ("late", late),
                    ("units", units), ("pulses", pulses)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    return weightings * (early + late) * units * pulses


def write_wav(path, counts, sample_rate_hz) -> None:
    """Write a whole array of counts as one WAV file, in one block."""
    with wav_writer(path, len(counts), sample_rate_hz) as append:
        append(counts)


def read_rows(path) -> list[dict[str, str]]:
    """Every row of a CSV the toolkit wrote, as column -> token."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="session")
def small_survey(tmp_path_factory):
    """Two short channels with reverb so late windows carry real energy."""
    spec = SurveySpec(
        channel_count=2,
        duration_s=66.0,
        pulse_count=6,
        reverb_level_upa=2.0e4,
        noise_rms_upa=0.0,
        seed=11,
    )
    out = tmp_path_factory.mktemp("small_survey")
    result = generate(spec, out)
    return spec, result
