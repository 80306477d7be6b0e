import csv
import math

import numpy as np
import pytest

from airgunkit import runner
from airgunkit.errors import MeasureError
from airgunkit.measures import Levels, energy_db, pressure_db
from airgunkit.signal_io import SampleBuffer, wav_writer
from airgunkit.synth import SurveySpec, generate
from airgunkit.weighting import CANONICAL_ORDER
from airgunkit.windows import HIGH_FRACTION, LOW_FRACTION, EnergyBounds


def make_buffer(samples, fs=16000.0, start=0, channel=0) -> SampleBuffer:
    return SampleBuffer(np.asarray(samples, dtype=np.float64), fs, start, channel)


def csel_of_levels(sel_dbs) -> float:
    """Oracle: cumulative level of already-measured per-window SELs (energy sum in dB)."""
    arr = np.asarray(sel_dbs, dtype=np.float64)
    return float(10.0 * np.log10(np.sum(10.0 ** (arr / 10.0))))


def window_levels(x, fs, running_upa2s=0.0) -> tuple[Levels, float]:
    """Oracle: one window measured alone, and the running energy sum after it.

    The window's energy is one in-thread sum of its squared samples; csel_db
    is the level of the running sum, so a zero-energy window carries it.
    """
    energy = float(np.einsum("i,i->", x, x)) / fs
    peak = float(max(x.max(), -x.min()))
    sel_db = energy_db(energy)
    running_upa2s += energy
    return Levels(
        pressure_db(peak),
        sel_db,
        None if sel_db is None else sel_db - 10.0 * math.log10(len(x) / fs),
        energy_db(running_upa2s),
    ), running_upa2s


def energy_bounds_whole(samples, start=0) -> EnergyBounds:
    """Oracle: energy_bounds from one running sum over the whole window's squares."""
    if len(samples) == 0:
        raise MeasureError("empty window")
    energy = np.square(samples)
    np.cumsum(energy, out=energy)
    total = energy[-1]
    if total <= 0.0:
        raise MeasureError("all-zero window has no energy bounds")
    i_lo = int(np.searchsorted(energy, LOW_FRACTION * total, side="left"))
    i_hi = int(np.searchsorted(energy, HIGH_FRACTION * total, side="left"))
    return EnergyBounds(start + i_lo, start + i_hi)


def catalog_sorted(rows) -> list[str]:
    """Oracle: catalog rows less the run id, sorted by (channel, pulse index, weighting rank)."""
    rank = {kind.value: i for i, kind in enumerate(CANONICAL_ORDER)}

    def key(row):
        channel, weighting, pulse = row.split(",", 3)[:3]
        return int(channel), int(pulse), rank[weighting]

    return sorted(rows, key=key)


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


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``processes`` of every worker pool a run starts; each pool maps in this process."""
    started = []

    class SerialPool:
        """Stands in for ``multiprocessing.Pool``: records ``processes``, maps in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(runner.multiprocessing, "Pool", SerialPool)
    return started
