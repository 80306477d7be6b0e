import math
import wave
from dataclasses import fields

import numpy as np
import pytest

from airgunkit import synth
from airgunkit.measures import ladder_levels
from airgunkit.signal_io import MAX_SAMPLE_RATE_HZ, MAX_WAV_FRAMES, open_manifest, read_span
from airgunkit.synth import (
    GROUND_TRUTH_HEADER,
    REVERB_CARRIER_HZ,
    GroundTruthRecord,
    SurveySpec,
    _pulse_unit,
    generate,
    pulse_energy_upa2s,
)

from conftest import read_rows

FS = 16000


def quiet_spec(**kw):
    base = dict(channel_count=1, duration_s=40.0, noise_rms_upa=0.0, seed=5)
    base.update(kw)
    return SurveySpec(**base)


# ---------------------------------------------------------------------------
# spec validation and schedule


def test_schedule_places_pulses_on_the_ipi_grid():
    spec = quiet_spec(duration_s=40.0, first_pulse_s=2.0, ipi_s=10.0)
    assert spec.n_pulses == 4
    assert spec.onsets_s() == [2.0, 12.0, 22.0, 32.0]


def test_explicit_pulse_count_wins():
    spec = quiet_spec(duration_s=60.0, pulse_count=2)
    assert spec.onsets_s() == [2.0, 12.0]


def test_schedule_must_fit_duration():
    with pytest.raises(ValueError):
        quiet_spec(duration_s=20.0, pulse_count=3)  # last onset 22 s > 20 s


def test_peak_must_fit_full_scale():
    with pytest.raises(ValueError):
        quiet_spec(peak_pressure_upa=3.0e6)  # full scale is 126 dB ~ 2e6


def test_nonpositive_parameters_rejected():
    with pytest.raises(ValueError):
        quiet_spec(duration_s=0.0)
    with pytest.raises(ValueError):
        quiet_spec(ipi_s=-1.0)
    with pytest.raises(ValueError):
        quiet_spec(attack_s=0.0)


def test_negative_seed_rejected_by_name():
    assert quiet_spec(seed=0).seed == 0
    with pytest.raises(ValueError, match="^seed must be non-negative"):
        quiet_spec(seed=-1)


_FLOAT_FIELDS = [f.name for f in fields(SurveySpec) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_non_finite_parameter_is_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        quiet_spec(**{name: value})


@pytest.mark.parametrize("value", [True, False, "3", None])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_non_real_parameter_is_rejected_by_name(tmp_path, name, value):
    # a bool passed as 0 or 1 (ipi_s=True built a 1-s pulse spacing); a str
    # or None failed with a bare TypeError from math.isfinite
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        generate(quiet_spec(**{name: value}), tmp_path / "out")
    assert not (tmp_path / "out").exists()


_INT_FIELDS = [f.name for f in fields(SurveySpec) if f.type.startswith("int")]


@pytest.mark.parametrize("value", [2.0, 16000.5, True, "2"])
@pytest.mark.parametrize("name", _INT_FIELDS)
def test_non_integer_parameter_is_rejected_by_name(tmp_path, name, value):
    # a float sample rate would write a WAV at its truncated rate under ground
    # truth on the float grid; a float channel count failed only after the
    # output directory was made
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        generate(quiet_spec(**{name: value}), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("counts", [2**15 + 1, 65536, 10**30])
def test_counts_full_scale_beyond_int16_rejected(counts):
    # the WAV holds int16 counts: a wider full scale would clip every peak
    assert quiet_spec(counts_full_scale=2**15).counts_full_scale == 2**15
    with pytest.raises(ValueError, match=f"^counts_full_scale must be at most 32768.*got {counts}$"):
        quiet_spec(counts_full_scale=counts)


def test_sample_rate_above_the_reader_cap_rejected():
    assert quiet_spec(sample_rate_hz=MAX_SAMPLE_RATE_HZ).sample_rate_hz == MAX_SAMPLE_RATE_HZ
    with pytest.raises(ValueError, match="sample_rate_hz"):
        quiet_spec(sample_rate_hz=MAX_SAMPLE_RATE_HZ + 1)


def test_channel_too_long_for_one_wav_is_rejected():
    # RIFF's 32-bit size field must hold 36 header bytes plus 2 per frame
    assert 2 * MAX_WAV_FRAMES + 36 <= 2**32 - 1 < 2 * (MAX_WAV_FRAMES + 1) + 36
    assert SurveySpec(duration_s=float(MAX_WAV_FRAMES), sample_rate_hz=1).n_samples == MAX_WAV_FRAMES
    with pytest.raises(ValueError, match="duration_s"):
        SurveySpec(duration_s=float(MAX_WAV_FRAMES + 1), sample_rate_hz=1)
    # ~69.9 min at 512 kHz: 9000 s would be 9.2 GB of samples
    assert SurveySpec(duration_s=4194.0, sample_rate_hz=512_000).n_samples <= MAX_WAV_FRAMES
    with pytest.raises(ValueError, match=r"^duration_s 9000 at sample_rate_hz 512000 is 4608000000 samples"):
        SurveySpec(duration_s=9000, sample_rate_hz=512_000)


# ---------------------------------------------------------------------------
# closed-form pulse energy


def test_energy_reduces_to_plain_exponential():
    # with a negligible attack and no carrier the model is A * exp(-t/tau),
    # whose energy is A^2 * tau / 2
    a, tau = 5.0e5, 0.03
    e = pulse_energy_upa2s(a, attack_s=1e-7, decay_s=tau, carrier_hz=0.0)
    assert e == pytest.approx(a * a * tau / 2.0, rel=1e-4)


def test_energy_matches_numeric_quadrature():
    a, attack, tau, f0 = 1.0e6, 0.002, 0.03, 2000.0
    rate = 4.0e6  # 2000 samples per carrier cycle
    t = np.arange(int(0.9 * rate)) / rate
    p = a * (1.0 - np.exp(-t / attack)) * np.exp(-t / tau) * np.cos(
        2.0 * np.pi * f0 * t
    )
    numeric = float(np.trapezoid(p * p, dx=1.0 / rate))
    closed = pulse_energy_upa2s(a, attack, tau, f0)
    assert closed == pytest.approx(numeric, rel=1e-5)


def test_energy_scales_quadratically():
    e1 = pulse_energy_upa2s(1.0, 0.002, 0.03, 2000.0)
    e3 = pulse_energy_upa2s(3.0, 0.002, 0.03, 2000.0)
    assert e3 == pytest.approx(9.0 * e1, rel=1e-12)


# ---------------------------------------------------------------------------
# generated artifacts


def test_generate_writes_survey_that_ingests(tmp_path):
    spec = quiet_spec(channel_count=2)
    result = generate(spec, tmp_path)
    assert len(result.wav_paths) == 2
    manifests = open_manifest(result.manifest_path)
    assert sorted(manifests) == [0, 1]
    for cm in manifests.values():
        assert cm.sample_rate_hz == FS
        assert cm.n_samples == spec.n_samples
        assert cm.calibration.counts_full_scale == 2048


def test_same_seed_is_byte_identical(tmp_path):
    spec = quiet_spec(noise_rms_upa=50.0, seed=42)
    r1 = generate(spec, tmp_path / "a")
    r2 = generate(spec, tmp_path / "b")
    for p1, p2 in zip(r1.wav_paths, r2.wav_paths):
        assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_differs(tmp_path):
    r1 = generate(quiet_spec(noise_rms_upa=50.0, seed=1), tmp_path / "a")
    r2 = generate(quiet_spec(noise_rms_upa=50.0, seed=2), tmp_path / "b")
    assert r1.wav_paths[0].read_bytes() != r2.wav_paths[0].read_bytes()


def test_channels_get_independent_noise(tmp_path):
    result = generate(quiet_spec(channel_count=2, noise_rms_upa=50.0), tmp_path)
    a = result.wav_paths[0].read_bytes()
    b = result.wav_paths[1].read_bytes()
    assert a != b


def test_ground_truth_round_trip(tmp_path):
    result = generate(quiet_spec(), tmp_path)
    header = result.ground_truth_path.read_text().splitlines()[0]
    assert header == GROUND_TRUTH_HEADER
    parsed = read_rows(result.ground_truth_path)
    assert len(parsed) == len(result.truths)
    for got, want in zip(parsed, result.truths):
        assert int(got["channel_id"]) == want.channel_id
        assert int(got["pulse_index"]) == want.pulse_index
        # file carries 9 decimals for times, 6 for pressures and levels
        assert float(got["t_true_s"]) == pytest.approx(want.t_true_s, abs=1e-9)
        assert float(got["p_peak_pa"]) == pytest.approx(want.p_peak_upa, abs=1e-6)
        assert float(got["sel_analytic_db"]) == pytest.approx(want.sel_analytic_db, abs=1e-6)


def test_ground_truth_matches_schedule(tmp_path):
    spec = quiet_spec(duration_s=60.0, pulse_count=5)
    result = generate(spec, tmp_path)
    assert len(result.truths) == 5
    onsets = spec.onsets_s()
    for rec, onset in zip(result.truths, onsets):
        # the positive peak sits at the envelope crest, a few attack
        # constants after onset
        assert onset <= rec.t_true_s <= onset + 5.0 * spec.attack_s
    diffs = np.diff([r.t_true_s for r in result.truths])
    assert np.all(np.abs(diffs - spec.ipi_s) <= 2.0 / FS)


def test_rendered_peak_matches_requested_level(tmp_path):
    spec = quiet_spec(peak_pressure_upa=1.0e6)
    result = generate(spec, tmp_path)
    cm = open_manifest(result.manifest_path)[0]
    x = read_span(cm, 0, cm.n_samples).samples
    step = cm.calibration.pressure_per_count
    assert np.max(x) == pytest.approx(1.0e6, abs=step)
    for rec in result.truths:
        assert rec.p_peak_upa == pytest.approx(1.0e6, abs=step)


def test_analytic_sel_matches_rendered_energy(tmp_path):
    spec = quiet_spec(duration_s=40.0, pulse_count=1)
    result = generate(spec, tmp_path)
    cm = open_manifest(result.manifest_path)[0]
    # integrate the whole quiet channel: all energy belongs to the one pulse
    buf = read_span(cm, 0, cm.n_samples)
    (lv,) = ladder_levels(buf.samples[np.newaxis], cm.sample_rate_hz, [0.0])
    assert lv.sel_db == pytest.approx(result.truths[0].sel_analytic_db, abs=0.1)


def test_reverb_adds_late_energy(tmp_path):
    quiet = generate(quiet_spec(pulse_count=1), tmp_path / "dry")
    wet = generate(
        quiet_spec(pulse_count=1, reverb_level_upa=2.0e4), tmp_path / "wet"
    )
    def tail_energy(result):
        cm = open_manifest(result.manifest_path)[0]
        start = int(3.0 * FS)  # 1 s past onset: pulse itself has died off
        x = read_span(cm, start, int(2.0 * FS)).samples
        return float(np.dot(x, x))
    assert tail_energy(wet) > 100.0 * max(tail_energy(quiet), 1e-12)


# ---------------------------------------------------------------------------
# block rendering against the whole-array oracle


def render_whole(spec, channel_id):
    """Oracle: the whole channel in one array, as the generator did before it rendered blocks."""
    fs = spec.sample_rate_hz
    n = spec.n_samples
    signal = np.zeros(n)

    pulse_span = round((spec.attack_s * 5.0 + spec.decay_s * 30.0) * fs)
    pulse_span = max(pulse_span, 8)
    spans = []  # (i0, i1, amplitude) per pulse

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

    truths = []
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


def generate_whole(spec, out):
    """Oracle: the survey's files, each channel written in one piece by the wave module."""
    out.mkdir()
    truths = []
    manifest_lines = ["# synthetic survey"]
    for ch in range(spec.channel_count):
        counts, ch_truths = render_whole(spec, ch)
        with wave.open(str(out / f"ch{ch:02d}.wav"), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(spec.sample_rate_hz)
            w.writeframes(counts.astype("<i2").tobytes())
        truths.extend(ch_truths)
        manifest_lines += [f"calib {ch} {spec.counts_full_scale} {spec.sensitivity_db:g}",
                           f"file {ch} ch{ch:02d}.wav 0.0"]
    (out / "manifest.txt").write_bytes(("\n".join(manifest_lines) + "\n").encode())
    rows = [GROUND_TRUTH_HEADER] + [
        f"{t.channel_id},{t.pulse_index},{t.t_true_s:.9f},{t.p_peak_upa:.6f},{t.sel_analytic_db:.6f}"
        for t in truths]
    (out / "ground_truth.csv").write_bytes(("\n".join(rows) + "\n").encode())
    return truths


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# pulses are 0.91 s long and reverberation tails 20 decay constants (40 s by
# default), so at 1000 or 4097 samples a block both cross many block edges
ORACLE_SURVEYS = {
    "silent-16k": dict(duration_s=40.0),
    "noisy-16k": dict(duration_s=40.0, noise_rms_upa=3000.0),
    "reverb-2ch-16k": dict(duration_s=40.0, channel_count=2, reverb_level_upa=2.0e4, noise_rms_upa=3000.0),
    "overlapping-16k": dict(duration_s=12.0, first_pulse_s=0.3, ipi_s=0.5, reverb_level_upa=2.0e4,
                            reverb_decay_s=0.05),
    "silent-512k": dict(duration_s=3.0, sample_rate_hz=512_000, first_pulse_s=0.4, ipi_s=1.0),
    "reverb-2ch-512k": dict(duration_s=4.0, sample_rate_hz=512_000, first_pulse_s=0.4, ipi_s=1.5,
                            channel_count=2, reverb_level_upa=2.0e4, noise_rms_upa=3000.0),
}


@pytest.mark.parametrize("block", [1000, 4097])
@pytest.mark.parametrize("survey", ORACLE_SURVEYS)
def test_block_rendering_matches_whole_array_oracle(tmp_path, monkeypatch, survey, block):
    spec = SurveySpec(seed=7, **ORACLE_SURVEYS[survey])
    want = generate_whole(spec, tmp_path / "whole")
    monkeypatch.setattr(synth, "MAX_CHUNK_SAMPLES", block)
    got = generate(spec, tmp_path / "blocks")
    assert_same_files(tmp_path / "whole", tmp_path / "blocks")
    assert got.truths == tuple(want)
    assert len(want) == spec.n_pulses * spec.channel_count


def test_peak_tied_across_a_block_edge_goes_to_the_earliest_sample(tmp_path, monkeypatch):
    # at 512 kHz a 2 kHz crest spans several samples that quantize to one count
    spec = SurveySpec(duration_s=2.0, sample_rate_hz=512_000, first_pulse_s=0.5, pulse_count=1)
    counts, want = render_whole(spec, 0)
    tied = np.flatnonzero(counts == counts.max())
    assert len(tied) >= 2
    monkeypatch.setattr(synth, "MAX_CHUNK_SAMPLES", int(tied[1]))  # a block starts at the second
    got = generate(spec, tmp_path)
    assert got.truths == tuple(want)
    assert got.truths[0].t_true_s == tied[0] / spec.sample_rate_hz
