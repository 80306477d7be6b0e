"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS|FAIL|SKIP`` line
(visible under ``pytest -s``), so a run of this module doubles as the
sign-off checklist.  The heavyweight survey and its serial extraction run
are module-scoped fixtures shared by the tests that need them.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import math
import os
import time
import timeit
from fractions import Fraction

import numpy as np
import pytest

from airgunkit.cli import main
from airgunkit.measures import ladder_levels
from airgunkit.pipeline import CATALOG_HEADER
from airgunkit.pulse_detect import DetectorConfig
from airgunkit.runner import RunConfig, run
from airgunkit.signal_io import open_manifest
from airgunkit.synth import SurveySpec, generate
from airgunkit.weighting import (
    NYQUIST_GUARD,
    WeightingKind,
    WeightingSpec,
    apply_filter,
    design_filter,
)
from airgunkit.windows import energy_bounds

from conftest import check_catalog_cells, ledger_total

FS = 16_000.0
DETECTOR = DetectorConfig(threshold_db=100.0, min_ipi_s=5.0)
HALF_POWER_DB = -10.0 * math.log10(2.0)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"ACCEPTANCE {number} {label}: {status}")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    spec = SurveySpec(
        channel_count=5,
        duration_s=465.0,
        pulse_count=46,
        noise_rms_upa=0.0,
        seed=0,
    )
    result = generate(spec, tmp_path_factory.mktemp("acceptance_survey"))
    return spec, result


@pytest.fixture(scope="module")
def serial_run(survey, tmp_path_factory):
    _, result = survey
    manifests = open_manifest(result.manifest_path)
    out = tmp_path_factory.mktemp("acceptance_serial") / "catalog.csv"
    started = time.perf_counter()
    path, report = run(RunConfig(out_path=out, detector=DETECTOR), manifests)
    wall_s = time.perf_counter() - started
    return path, report, wall_s


def test_01_feature_ledger_arithmetic():
    with criterion(1, "feature ledger arithmetic"):
        assert ledger_total(3, 11, 50, 5, 160_122) == 146_511_630
        per_call = min(
            timeit.repeat(
                lambda: ledger_total(3, 11, 50, 5, 160_122), number=1000, repeat=5
            )
        ) / 1000
        assert per_call < 1e-3


def test_02_catalog_record_and_point_counts(serial_run):
    path, report, _ = serial_run
    with criterion(2, "catalog record and point counts"):
        assert report.n_records == 5 * 46 * 3 == 690
        assert report.n_points == ledger_total(3, 11, 50, 5, 46) == 42_090
        assert report.n_points == 61 * report.n_records
        lines = path.read_text().splitlines()
        assert lines[0] == CATALOG_HEADER
        assert len(lines[0].split(",")) == 65
        assert len(lines) - 1 == report.n_records


def test_03_sel_equals_leq_on_unit_windows():
    rng = np.random.default_rng(42)
    with criterion(3, "sel equals leq for one-second windows"):
        started = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-3.0, 6.0)
            (lv,) = ladder_levels(rng.normal(0.0, scale, (1, int(FS))), FS, [0.0])
            worst = max(worst, abs(lv.sel_db - lv.leq_db))
        elapsed = time.perf_counter() - started
        assert worst < 1e-12
        assert elapsed < 10.0


def test_04_csel_matches_energy_sum_identity():
    rng = np.random.default_rng(7)
    with criterion(4, "cumulative sel equals summed-energy identity"):
        worst = 0.0
        for _ in range(100):
            n_windows = int(rng.integers(1, 24))
            energy = [0.0]
            levels = []
            running = None
            for _ in range(n_windows):
                count = int(rng.integers(50, 6000))
                scale = 10.0 ** rng.uniform(0.0, 5.0)
                (lv,) = ladder_levels(rng.normal(0.0, scale, (1, count)), 4000.0, energy)
                levels.append(lv.sel_db)
                running = lv.csel_db
            manual = 10.0 * math.log10(
                np.sum(10.0 ** (np.asarray(levels) / 10.0))
            )
            worst = max(worst, abs(running - manual))
        assert worst < 1e-9

        # a zero-energy window has no level of its own and carries the
        # running one; before any energy there is no cumulative level
        silence = np.zeros((1, 400))
        energy = [0.0]
        (lead,) = ladder_levels(silence, 4000.0, energy)
        assert lead.csel_db is None and energy == [0.0]
        (first,) = ladder_levels(np.full((1, 400), 30.0), 4000.0, energy)
        before = list(energy)
        (carried,) = ladder_levels(silence, 4000.0, energy)
        assert carried.sel_db is None
        assert carried.csel_db == first.csel_db and energy == before


def test_05_energy_bounds_within_one_sample_of_dense_oracle():
    rng = np.random.default_rng(2025)
    over = 10
    with criterion(5, "5%/95% bounds within one sample of a 10x oracle"):
        worst_err_s = 0.0
        for trial in range(200):
            if trial % 2 == 0:
                attack = rng.uniform(0.0005, 0.01)
                decay = rng.uniform(0.01, 0.08)
                onset = rng.uniform(0.1, 0.4)

                def envelope(t, a=attack, d=decay, t0=onset):
                    t_rel = np.clip(t - t0, 0.0, None)
                    return (1.0 - np.exp(-t_rel / a)) * np.exp(-t_rel / d)

            else:
                sigma = rng.uniform(0.005, 0.08)
                centre = rng.uniform(0.3, 0.6)

                def envelope(t, s=sigma, t0=centre):
                    return np.exp(-0.5 * ((t - t0) / s) ** 2)

            n = int(FS)
            x = envelope(np.arange(n) / FS)
            got = energy_bounds(x * 1.0e5)

            t_fine = np.arange(n * over) / (FS * over)
            x_fine = envelope(t_fine)
            cum = np.cumsum(x_fine * x_fine)
            t5 = t_fine[np.searchsorted(cum, 0.05 * cum[-1], side="left")]
            t95 = t_fine[np.searchsorted(cum, 0.95 * cum[-1], side="left")]
            worst_err_s = max(
                worst_err_s, abs(got.i5 / FS - t5), abs(got.i95 / FS - t95)
            )

            # The native window must cover >= 90% of the energy, and no more
            # than the two boundary samples' worth beyond it.
            e = x * x
            total = e.sum()
            i5, i95 = got.i5, got.i95
            covered = e[i5 : i95 + 1].sum() / total
            slack = (e[i5] + e[i95]) / total
            assert covered >= 0.90 - 1e-12
            assert covered <= 0.90 + slack + 1e-12
        assert worst_err_s <= 1.0 / FS + 1e-9


def test_06_weighting_hits_half_power_at_band_edges():
    with criterion(6, "weighting curves -3 dB at realized band edges"):
        rng = np.random.default_rng(3)
        probe = rng.normal(0.0, 100.0, 50_000)
        state = design_filter(WeightingSpec(WeightingKind.LINEAR), FS)
        out = probe.copy()
        assert apply_filter(state, out) is state
        assert state.sos is None
        assert np.array_equal(out, probe)

        for fs in (512_000.0, 16_000.0):
            n = int(fs) * 16  # rfft bin spacing of 1/16 Hz: edges land on bins
            impulse = np.zeros(n)
            impulse[0] = 1.0
            for kind in (WeightingKind.LFC, WeightingKind.MFC):
                spec = WeightingSpec(kind)
                st = design_filter(spec, fs)
                resp = impulse.copy()
                apply_filter(st, resp)
                mag = np.abs(np.fft.rfft(resp))
                f_lo, f_hi = spec.band_hz
                edges = [f_lo]
                if f_hi < NYQUIST_GUARD * (fs / 2.0):
                    edges.append(f_hi)
                for f_edge in edges:
                    level_db = 20.0 * math.log10(mag[int(round(f_edge * 16))])
                    assert abs(level_db - HALF_POWER_DB) <= 0.5, (
                        f"{kind.value} at {f_edge} Hz, fs {fs}: {level_db:.3f} dB"
                    )


def test_07_end_to_end_recovery_of_timing_and_energy(survey, serial_run):
    spec, result = survey
    path, _, wall_s = serial_run
    with criterion(7, "end-to-end timing and energy recovery"):
        assert wall_s < 60.0
        truth = {(g.channel_id, g.pulse_index): g for g in result.truths}
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_stream = collections.Counter(
            (int(r["channel_id"]), r["weighting"]) for r in rows
        )
        assert set(per_stream) == {
            (ch, w)
            for ch in range(spec.channel_count)
            for w in ("linear", "lfc", "mfc")
        }
        assert set(per_stream.values()) == {spec.pulse_count}

        worst_t = worst_sel = 0.0
        for r in rows:
            g = truth[(int(r["channel_id"]), int(r["pulse_index"]))]
            worst_t = max(worst_t, abs(float(r["t_a_s"]) - g.t_true_s))
            worst_sel = max(worst_sel, abs(float(r["early_sel_db"]) - g.sel_analytic_db))
        assert worst_t <= 1.0 / FS + 1e-9
        assert worst_sel <= 0.5


def test_08_parallel_catalogs_byte_identical(survey, serial_run, tmp_path):
    _, result = survey
    path, _, _ = serial_run
    manifests = open_manifest(result.manifest_path)
    with criterion(8, "parallel catalogs byte-identical to serial"):
        want = path.read_bytes()
        for workers in (2, 4, 8):
            out = tmp_path / f"catalog_w{workers}.csv"
            got_path, _ = run(
                RunConfig(
                    out_path=out,
                    detector=DETECTOR,
                    mode="parallel",
                    worker_count=workers,
                ),
                manifests,
            )
            assert got_path.read_bytes() == want, f"worker_count={workers}"


def test_09_four_way_parallel_halves_wall_time(tmp_path):
    with criterion(9, "4-way parallel at most half the serial wall time"):
        cpus = len(os.sched_getaffinity(0))
        if cpus < 4:
            pytest.skip(f"parallel speedup needs at least 4 cpus, host has {cpus}")
        spec = SurveySpec(
            channel_count=4,
            duration_s=630.0,
            pulse_count=62,
            noise_rms_upa=0.0,
            seed=5,
        )
        result = generate(spec, tmp_path / "survey")
        manifests = open_manifest(result.manifest_path)

        serial_out = tmp_path / "serial.csv"
        started = time.perf_counter()
        run(RunConfig(out_path=serial_out, detector=DETECTOR), manifests)
        t_serial = time.perf_counter() - started

        parallel_out = tmp_path / "parallel.csv"
        started = time.perf_counter()
        run(
            RunConfig(
                out_path=parallel_out,
                detector=DETECTOR,
                mode="parallel",
                worker_count=4,
            ),
            manifests,
        )
        t_parallel = time.perf_counter() - started

        print(
            f"serial {t_serial:.2f} s, parallel(4) {t_parallel:.2f} s, "
            f"ratio {t_parallel / t_serial:.2f}"
        )
        assert parallel_out.read_bytes() == serial_out.read_bytes()
        assert t_parallel <= 0.5 * t_serial


ACCEPTANCE_CATALOG_SHA256 = "3e071666e61eb254ae632ff192b49bbcc180f34787bd7a8e9b4d6dbfbde23b2d"
HIGHRATE_CATALOG_SHA256 = "a576ae3de990eab04eab1c634db99bc79b043fdde03f20e6d2865911477e6c86"
PAPER_RATE_CATALOG_SHA256 = "4ddad7144e4318489b67130f10d4cdb520f0e316801a909e362e3199c1fb6929"
# the events CSV that ``detect`` writes of each survey, and its line count
ACCEPTANCE_EVENTS = ("714a0881887cd96f1e4d0b5dae8f2b47d096374510a65d1cf8cc1e975209a3e3", 691)
HIGHRATE_EVENTS = ("2bd649e6ed1870767743250ef3709d5aca16c13c4aa03e883b209e5055fded78", 3)
PAPER_RATE_EVENTS = ("2838a784ad218ef36e666b22d7664e81a3b549a12dbfebeb70feae05b5d97c7d", 40)


def detect_events(manifest_path, out, weighting: str) -> tuple[str, int]:
    """sha256 and line count of the events CSV that ``detect --weighting`` writes, at the default detector."""
    assert main(["detect", "--manifest", str(manifest_path), "--out", str(out), "--weighting", weighting]) == 0
    data = out.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def on_ninth_decimal_tie(cell: str, fs: int) -> bool:
    """True when the cell is a sample time that lies exactly halfway between two 9-decimal values."""
    half = Fraction(1, 2 * 10**9)
    return any(((Fraction(cell) + d) * fs).denominator == 1 for d in (half, -half))


def test_10_catalog_bytes_are_pinned(survey, serial_run, tmp_path):
    path, _, _ = serial_run
    with criterion(10, "catalog and events bytes pinned"):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ACCEPTANCE_CATALOG_SHA256
        assert check_catalog_cells(path, 16_000) == 5 * 46 * 3
        assert detect_events(survey[1].manifest_path, tmp_path / "events.csv", "all") == ACCEPTANCE_EVENTS

        # 512 kHz sample times have 12 decimals; 1 in 8 sits on a 9th-decimal
        # tie, which the exact time formatter settles to the even digit
        fs = 512_000
        spec = SurveySpec(channel_count=1, duration_s=15.0, sample_rate_hz=fs,
                          first_pulse_s=2.0 + 6 / fs, pulse_count=2, noise_rms_upa=3000.0, seed=1)
        result = generate(spec, tmp_path / "highrate")
        out, _ = run(RunConfig(out_path=tmp_path / "highrate.csv", detector=DETECTOR,
                               weightings=(WeightingKind.MFC,)),
                     open_manifest(result.manifest_path))
        with open(out, newline="") as fh:
            times = [v for row in csv.DictReader(fh) for k, v in row.items() if k.endswith("_s")]
        ties = [v for v in times if on_ninth_decimal_tie(v, fs)]
        assert ties and all(int(v[-1]) % 2 == 0 for v in ties)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == HIGHRATE_CATALOG_SHA256
        assert check_catalog_cells(out, fs) == 2
        assert detect_events(result.manifest_path, tmp_path / "highrate_events.csv", "mfc") == HIGHRATE_EVENTS

        # the paper's recorders: 2 kHz, one pulse per 25 s, in noise, so every
        # late window holds energy in all three weightings; the last pulse's
        # ladder is cut by the end of the recording
        spec = SurveySpec(channel_count=1, duration_s=305.0, sample_rate_hz=2000, ipi_s=25.0,
                          noise_rms_upa=3000.0, seed=2)
        result = generate(spec, tmp_path / "paper_rate")
        out, report = run(RunConfig(out_path=tmp_path / "paper_rate.csv", detector=DETECTOR),
                          open_manifest(result.manifest_path))
        assert report.n_records == 3 * 13
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["late_10_sel_db"] != "NA" for row in rows[:-3])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_RATE_CATALOG_SHA256
        assert check_catalog_cells(out, 2000) == 3 * 13
        assert detect_events(result.manifest_path, tmp_path / "paper_rate_events.csv", "all") == PAPER_RATE_EVENTS
