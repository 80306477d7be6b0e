import csv
import math
import multiprocessing
import re
from fractions import Fraction

import numpy as np
import pytest

from airgunkit.errors import MeasureError
from airgunkit.measures import NA, Levels, energy_db, pressure_db
from airgunkit.pipeline import CATALOG_HEADER
from airgunkit.pulse_detect import search_hold
from airgunkit.signal_io import RollingBuffer, chunk_length, wav_writer
from airgunkit.synth import SurveySpec, generate
from airgunkit.weighting import CANONICAL_ORDER
from airgunkit.windows import HIGH_FRACTION, LOW_FRACTION, LATE_WINDOW_COUNT, LATE_WINDOW_S, EnergyBounds


class ArrayStream:
    """A sample stream of given arrays, as ``detect_pulses`` takes one: each is written to ``buffer`` in turn.

    The buffer is sized as ``detect``'s, for one search window, or for
    ``hold`` samples when given; each array goes into the slots it extends
    by, as a stream reads a chunk.
    """

    def __init__(self, chunks, fs, channel=0, hold=None) -> None:
        self.sample_rate_hz = fs
        self.channel_id = channel
        self.buffer = RollingBuffer(search_hold(fs) if hold is None else hold, chunk_length(fs))
        self._chunks = chunks

    def __iter__(self):
        for x in self._chunks:
            slots = self.buffer.extend(len(x))
            slots[:] = x
            yield slots


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


_TIME_CELL = re.compile(r"-?\d+\.\d{9}")  # seconds, a whole number of ns
_DB_CELL = re.compile(r"NA|-?\d+\.\d{6}")
_SLOTS = ("early", *(f"late_{k:02d}" for k in range(1, LATE_WINDOW_COUNT + 1)))


def check_catalog_cells(path, sample_rate_hz: int) -> int:
    """Oracle: every row of a written catalog obeys the rules its columns claim; returns the rows checked.

    - the 61 feature cells parse, and every time is a whole number of ns;
    - the late windows start w / fs apart, w = round(LATE_WINDOW_S * fs),
      the first at or after early_t5_s;
    - in each window slot, spl_peak_db, sel_db and leq_db are NA together;
    - SPL >= L_EQ, and a late window's leq_db cell equals its sel_db cell;
    - early L_EQ = SEL - 10 log10(T) to the printed precision, where T is the
      i95 - i5 + 1 samples from early_t5_s to late_01_start_s, inclusive, over fs;
    - per (channel, weighting, slot), csel_db never falls from one pulse to
      the next and is >= that window's SEL.

    Two printed times are each within 0.5 ns of their sample's time, so a
    difference of them counts samples to within ``fs`` ns.
    """
    fs = Fraction(sample_rate_hz)
    w = round(LATE_WINDOW_S * sample_rate_hz)
    ns = fs / 10**9  # samples in 1 ns
    rows = read_rows(path)
    assert rows and tuple(rows[0]) == tuple(CATALOG_HEADER.split(",")), f"{path}: no rows, or another header"
    last_csel: dict[tuple[str, str, str], float] = {}
    for row in rows:
        key = f"{path}: channel {row['channel_id']} {row['weighting']} pulse {row['pulse_index']}"
        assert None not in row and None not in row.values(), f"{key}: not 65 cells"
        for col, cell in row.items():
            if col.endswith("_s"):
                assert _TIME_CELL.fullmatch(cell), f"{key}: {col} = {cell!r}"
            elif col.endswith("_db"):
                assert _DB_CELL.fullmatch(cell), f"{key}: {col} = {cell!r}"
        assert all(math.isfinite(float(row[col])) for col in ("p_a_upa", "p_b_upa")), key
        t5 = Fraction(row["early_t5_s"])
        starts = [Fraction(row[f"late_{k:02d}_start_s"]) for k in range(1, LATE_WINDOW_COUNT + 1)]
        assert starts[0] >= t5, f"{key}: late 1 starts before early_t5_s"
        for k, t in enumerate(starts):
            assert abs((t - starts[0]) * fs - k * w) <= ns, f"{key}: late {k + 1} starts off its step"
        n_early = round((starts[0] - t5) * fs) + 1
        for slot in _SLOTS:
            spl, sel, leq, csel = (row[f"{slot}_{m}"] for m in ("spl_peak_db", "sel_db", "leq_db", "csel_db"))
            assert (spl == NA) == (sel == NA) == (leq == NA), f"{key}: {slot} SPL, SEL, L_EQ not NA together"
            if sel != NA:
                assert float(spl) >= float(leq) - 1e-6, f"{key}: {slot} SPL {spl} < L_EQ {leq}"
                if slot == "early":
                    want = float(sel) - 10.0 * math.log10(n_early / sample_rate_hz)
                    assert abs(float(leq) - want) <= 1e-6 + 1e-9, f"{key}: early L_EQ {leq}, want {want:.6f}"
                else:
                    assert leq == sel, f"{key}: {slot} L_EQ {leq} != SEL {sel}"
                assert csel != NA and float(csel) >= float(sel), f"{key}: {slot} CSEL {csel} < SEL {sel}"
            if csel != NA:
                stream_slot = (row["channel_id"], row["weighting"], slot)
                assert float(csel) >= last_csel.get(stream_slot, -math.inf), f"{key}: {slot} CSEL fell"
                last_csel[stream_slot] = float(csel)
    return len(rows)


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

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return started
