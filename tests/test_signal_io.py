import struct
import wave
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airgunkit.errors import AudioFormatError, GapError, ManifestError
from airgunkit.signal_io import (
    CalibrationSpec,
    RollingBuffer,
    format_time,
    open_manifest,
    parse_time,
    read_span,
    wav_writer,
)

from conftest import write_wav

FS = 16000


def write_manifest(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def simple_channel(tmp_path, counts, fs=FS, sens=120.0, cfs=32767, start=0.0):
    write_wav(tmp_path / "a.wav", np.asarray(counts, dtype=np.int16), fs)
    man = write_manifest(
        tmp_path / "manifest.txt",
        [f"calib 0 {cfs} {sens}", f"file 0 a.wav {start}"],
    )
    return open_manifest(man)[0]


# ---------------------------------------------------------------------------
# calibration


def test_full_scale_count_maps_to_sensitivity():
    cal = CalibrationSpec(counts_full_scale=32767, sensitivity_db=120.0)
    out = cal.counts_to_pressure(np.array([32767], dtype=np.int16))
    assert out[0] == pytest.approx(1.0e6, rel=1e-12)


def test_zero_count_maps_to_zero():
    cal = CalibrationSpec(counts_full_scale=2048, sensitivity_db=126.0)
    assert cal.counts_to_pressure(np.array([0], dtype=np.int16))[0] == 0.0


def test_calibration_is_linear():
    cal = CalibrationSpec(counts_full_scale=2048, sensitivity_db=126.0)
    counts = np.array([-2048, -1, 1, 7, 700], dtype=np.int16)
    out = cal.counts_to_pressure(counts)
    assert np.allclose(out, counts * cal.pressure_per_count, rtol=0, atol=0)
    assert cal.pressure_per_count == pytest.approx(cal.full_scale_upa / 2048)


def test_calibration_rejects_bad_full_scale():
    with pytest.raises(ValueError):
        CalibrationSpec(counts_full_scale=0, sensitivity_db=120.0)


@pytest.mark.parametrize("sens", ["nan", "inf", "-inf", "1e400", "7000", "-7000"])
def test_manifest_rejects_non_finite_sensitivity(tmp_path, sens):
    # a non-finite full-scale level would calibrate every sample to NaN, 0 or
    # inf; so would 7000 or -7000 dB, whose 10**(dB/20) overflows or underflows
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(tmp_path / "m.txt", ["# survey", f"calib 0 2048 {sens}", "file 0 a.wav 0.0"])
    with pytest.raises(ManifestError, match=r"m\.txt:2: sensitivity_db must be finite"):
        open_manifest(man)


@pytest.mark.parametrize("counts,sens", [(2048, "-6420"), (10**400, "126")], ids=["-6420dB", "1e400counts"])
def test_manifest_rejects_a_count_worth_no_pressure(tmp_path, counts, sens):
    # -6420 dB is a finite, positive full scale of 1e-321 uPa, but one of
    # 2048 counts underflows to 0 uPa; 10**400 counts do not fit a float
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(tmp_path / "m.txt", ["# survey", f"calib 0 {counts} {sens}", "file 0 a.wav 0.0"])
    with pytest.raises(ManifestError, match=r"m\.txt:2: the pressure of one count, .* must be positive, got 0 uPa"):
        open_manifest(man)


# ---------------------------------------------------------------------------
# wav round trip


def test_wav_round_trip_exact_counts(tmp_path):
    rng = np.random.default_rng(1)
    counts = rng.integers(-2048, 2048, size=5000, dtype=np.int16)
    cm = simple_channel(tmp_path, counts, cfs=2048, sens=126.0)
    samples = read_span(cm, 0, len(counts))
    expected = counts.astype(np.float64) * cm.calibration.pressure_per_count
    assert np.array_equal(samples, expected)
    assert cm.sample_rate_hz == FS
    assert len(samples) == len(counts)


def test_wav_writer_appends_blocks_under_one_header(tmp_path):
    counts = np.arange(-500, 500, dtype=np.int16)
    write_wav(tmp_path / "whole.wav", counts, FS)
    with wav_writer(tmp_path / "blocks.wav", len(counts), FS) as append:
        for a in range(0, len(counts), 300):
            append(counts[a : a + 300])
    assert (tmp_path / "blocks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()
    with pytest.raises(ValueError, match="wrote 999 of 1000 frames"):
        with wav_writer(tmp_path / "short.wav", len(counts), FS) as append:
            append(counts[:-1])


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(FS)
        w.writeframes(np.zeros(100, dtype=np.int16).tobytes())
    man = write_manifest(
        tmp_path / "m.txt", ["calib 0 2048 126.0", "file 0 stereo.wav 0.0"]
    )
    with pytest.raises(AudioFormatError):
        open_manifest(man)


def test_wav_rejects_8_bit(tmp_path):
    path = tmp_path / "low.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(FS)
        w.writeframes(bytes(100))
    man = write_manifest(
        tmp_path / "m.txt", ["calib 0 2048 126.0", "file 0 low.wav 0.0"]
    )
    with pytest.raises(AudioFormatError):
        open_manifest(man)


def test_wav_rejects_absurd_rate(tmp_path):
    path = tmp_path / "fast.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(1_000_000)
        w.writeframes(np.zeros(100, dtype=np.int16).tobytes())
    man = write_manifest(
        tmp_path / "m.txt", ["calib 0 2048 126.0", "file 0 fast.wav 0.0"]
    )
    with pytest.raises(AudioFormatError):
        open_manifest(man)


def test_wav_rejects_zero_rate(tmp_path):
    # the wave module refuses to write a 0-Hz header, so build one by hand
    data = np.zeros(100, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)  # PCM, mono, 0 Hz, 0 B/s, 2-B frames, 16 bits
    (tmp_path / "still.wav").write_bytes(
        b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    )
    man = write_manifest(tmp_path / "m.txt", ["calib 0 2048 126.0", "file 0 still.wav 0.0"])
    with pytest.raises(AudioFormatError, match=r"still\.wav: sample rate 0 Hz outside 1 to 512000 Hz"):
        open_manifest(man)


# ---------------------------------------------------------------------------
# manifest parsing and validation


def test_manifest_missing_calib_row(tmp_path):
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(tmp_path / "m.txt", ["file 0 a.wav 0.0"])
    with pytest.raises(ManifestError):
        open_manifest(man)


def test_manifest_calib_without_files(tmp_path):
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(
        tmp_path / "m.txt",
        ["calib 0 2048 126.0", "calib 1 2048 126.0", "file 0 a.wav 0.0"],
    )
    with pytest.raises(ManifestError):
        open_manifest(man)


def test_manifest_duplicate_calib(tmp_path):
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(
        tmp_path / "m.txt",
        ["calib 0 2048 126.0", "calib 0 4096 126.0", "file 0 a.wav 0.0"],
    )
    with pytest.raises(ManifestError):
        open_manifest(man)


def test_manifest_missing_audio_file(tmp_path):
    man = write_manifest(
        tmp_path / "m.txt", ["calib 0 2048 126.0", "file 0 nope.wav 0.0"]
    )
    with pytest.raises(ManifestError, match="missing"):
        open_manifest(man)


def test_manifest_unknown_row_kind(tmp_path):
    man = write_manifest(tmp_path / "m.txt", ["wibble 0 2048 126.0"])
    with pytest.raises(ManifestError):
        open_manifest(man)


def test_manifest_bad_gap_policy(tmp_path):
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(
        tmp_path / "m.txt", ["calib 0 2048 126.0 maybe", "file 0 a.wav 0.0"]
    )
    with pytest.raises(ManifestError):
        open_manifest(man)


def test_manifest_comments_and_blank_lines(tmp_path):
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(
        tmp_path / "m.txt",
        ["# header", "", "calib 0 2048 126.0  # hydrophone A", "file 0 a.wav 0.0"],
    )
    cms = open_manifest(man)
    assert list(cms) == [0]
    assert cms[0].n_samples == 10


def test_manifest_orders_files_by_start_time(tmp_path):
    write_wav(tmp_path / "late.wav", np.full(FS, 2, dtype=np.int16), FS)
    write_wav(tmp_path / "early.wav", np.full(FS, 1, dtype=np.int16), FS)
    man = write_manifest(
        tmp_path / "m.txt",
        ["calib 0 2048 126.0", "file 0 late.wav 1.0", "file 0 early.wav 0.0"],
    )
    cm = open_manifest(man)[0]
    assert [f.path.name for f in cm.files] == ["early.wav", "late.wav"]
    assert cm.n_samples == 2 * FS


def test_manifest_mixed_rates_error(tmp_path):
    write_wav(tmp_path / "a.wav", np.ones(100, dtype=np.int16), FS)
    write_wav(tmp_path / "b.wav", np.ones(100, dtype=np.int16), 2 * FS)
    man = write_manifest(
        tmp_path / "m.txt",
        ["calib 0 2048 126.0", "file 0 a.wav 0.0", f"file 0 b.wav {100 / FS}"],
    )
    with pytest.raises(ManifestError, match="rate"):
        open_manifest(man)


# ---------------------------------------------------------------------------
# timeline stitching


def split_files_channel(tmp_path, x0, x1, gap_samples=0, policy=None):
    write_wav(tmp_path / "p0.wav", x0, FS)
    write_wav(tmp_path / "p1.wav", x1, FS)
    start1 = (len(x0) + gap_samples) / FS
    calib = "calib 0 2048 126.0" + (f" {policy}" if policy else "")
    man = write_manifest(
        tmp_path / "m.txt",
        [calib, "file 0 p0.wav 0.0", f"file 0 p1.wav {start1}"],
    )
    return open_manifest(man)[0]


def test_split_files_read_equals_single_file(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.integers(-2000, 2000, size=3 * FS, dtype=np.int16)
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    single = simple_channel(tmp_path / "one", x, cfs=2048, sens=126.0)
    split = split_files_channel(tmp_path / "two", x[: FS + 13], x[FS + 13 :])
    a = read_span(single, 0, 3 * FS)
    b = read_span(split, 0, 3 * FS)
    assert np.array_equal(a, b)


def test_read_chunk_straddles_file_boundary(tmp_path):
    x = np.arange(-1000, 1000, dtype=np.int16)
    cm = split_files_channel(tmp_path, x[:1200], x[1200:])
    expected = x[1100:1300] * cm.calibration.pressure_per_count
    assert np.array_equal(read_span(cm, 1100, 200), expected)


def test_overlap_beyond_one_sample_errors(tmp_path):
    with pytest.raises(ManifestError, match="overlap"):
        split_files_channel(tmp_path, np.ones(FS, np.int16), np.ones(FS, np.int16), gap_samples=-5)


def test_one_sample_overlap_keeps_earlier_copy(tmp_path):
    x0 = np.full(100, 7, dtype=np.int16)
    x1 = np.full(100, 9, dtype=np.int16)
    cm = split_files_channel(tmp_path, x0, x1, gap_samples=-1)
    assert cm.n_samples == 199
    buf = read_span(cm, 0, 199)
    counts = np.round(buf / cm.calibration.pressure_per_count).astype(int)
    assert counts[99] == 7
    assert counts[100] == 9


def test_one_sample_gap_snaps_to_adjacency(tmp_path):
    x0 = np.full(100, 7, dtype=np.int16)
    x1 = np.full(100, 9, dtype=np.int16)
    cm = split_files_channel(tmp_path, x0, x1, gap_samples=1)
    assert cm.n_samples == 200
    buf = read_span(cm, 0, 200)
    counts = np.round(buf / cm.calibration.pressure_per_count).astype(int)
    assert counts[99] == 7
    assert counts[100] == 9


def test_wide_gap_errors_by_default(tmp_path):
    with pytest.raises(ManifestError, match="gap"):
        split_files_channel(tmp_path, np.ones(FS, np.int16), np.ones(FS, np.int16), gap_samples=40)


def test_wide_gap_zero_fill_reads_zeros(tmp_path):
    x0 = np.full(100, 5, dtype=np.int16)
    x1 = np.full(100, 6, dtype=np.int16)
    cm = split_files_channel(tmp_path, x0, x1, gap_samples=40, policy="zero_fill")
    assert cm.n_samples == 240
    buf = read_span(cm, 0, 240)
    counts = np.round(buf / cm.calibration.pressure_per_count).astype(int)
    assert np.all(counts[100:140] == 0)
    assert np.all(counts[140:] == 6)


# ---------------------------------------------------------------------------
# span and chunk reads


def test_read_chunk_decomposes(tmp_path):
    rng = np.random.default_rng(8)
    counts = rng.integers(-2048, 2048, size=10 * FS, dtype=np.int16)
    cm = simple_channel(tmp_path, counts, cfs=2048, sens=126.0)
    whole = read_span(cm, 0, 10 * FS)
    first = read_span(cm, 0, 5 * FS)
    second = read_span(cm, 5 * FS, 5 * FS)
    assert np.array_equal(whole, np.concatenate([first, second]))
    assert len(first) == len(second) == 5 * FS


def test_read_span_outside_coverage(tmp_path):
    cm = simple_channel(tmp_path, np.ones(100, dtype=np.int16))
    with pytest.raises(ValueError):
        read_span(cm, -1, 10)
    with pytest.raises(ValueError):
        read_span(cm, 50, 51)
    with pytest.raises(ValueError):
        read_span(cm, 0, 0)
    with pytest.raises(ValueError, match="out holds 9 samples, not 10"):
        read_span(cm, 0, 10, out=np.empty(9))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_read_span_into_a_stale_array_equals_a_fresh_read(tmp_path_factory, data):
    # files tile the channel with one sample of start jitter or a zero_fill
    # gap before each; a read into an array of NaN must write every sample of
    # the span, gaps included, and nothing outside it
    out = tmp_path_factory.mktemp("tiles")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = 600
    counts = rng.integers(-2048, 2048, size=n, dtype=np.int16)
    cuts = sorted(40 * k for k in data.draw(st.sets(st.integers(1, 14), max_size=4), label="cuts"))
    expected = counts.astype(float)
    lines = ["calib 0 2048 126.0 zero_fill"]
    edges = [0]  # span ends next to the gap edges
    for k, (a, b) in enumerate(zip([0, *cuts], [*cuts, n])):
        shift = data.draw(st.sampled_from([-1, 0, 1, 2, 17, 30]) if k else st.just(0), label=f"shift {k}")
        if shift > 1:  # a gap of ``shift`` samples, read as zeros
            expected[a : a + shift] = 0.0
            edges += [a, a + 1, a + shift - 1, a + shift]
            first, start = a + shift, a + shift
        else:  # a file one sample early repeats the sample before it; one sample late, it does not
            first, start = a - (shift < 0), a + shift
        write_wav(out / f"f{k}.wav", counts[first:b], FS)
        lines.append(f"file 0 f{k}.wav {start / FS!r}")
    cm = open_manifest(write_manifest(out / "m.txt", lines))[0]
    assert cm.n_samples == n
    a = data.draw(st.integers(0, n - 1) | st.sampled_from(edges), label="start")
    end = data.draw(st.integers(a + 1, n) | st.sampled_from([e for e in edges if e > a] or [n]), label="end")
    count = end - a
    stale = np.full(count + 2, np.nan)
    got = read_span(cm, a, count, out=stale[1:-1])
    fresh = read_span(cm, a, count)
    assert np.shares_memory(got, stale)
    assert np.array_equal(got, fresh)
    assert np.array_equal(fresh, expected[a : a + count] * cm.calibration.pressure_per_count)
    assert np.isnan(stale[[0, -1]]).all()


# ---------------------------------------------------------------------------
# rolling buffer


@settings(max_examples=200, deadline=None)
@given(hold=st.integers(0, 300), chunk=st.integers(1, 150), data=st.data())
def test_rolling_buffer_matches_a_concatenate_reference(hold, chunk, data):
    # a buffer sized for ``hold`` and ``chunk`` takes appends of up to three
    # chunks and random trims, some before the start, some past the end and
    # some that hold far more than ``hold``, as a long excursion does; every
    # view must equal the naive concatenate-and-slice stream, and the array
    # grows to at most twice the largest held-plus-chunk count; each chunk is
    # written into the slots ``extend`` commits and hands out
    buf = RollingBuffer(hold, chunk)
    first = buf.capacity
    stream = np.empty(0)
    start = largest = 0
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        n = data.draw(st.integers(0, 3 * chunk), label="append")
        largest = max(largest, buf.end - buf.start + n)
        chunk_values = np.arange(len(stream), len(stream) + n, dtype=float)
        slots = buf.extend(n)
        slots[:] = chunk_values
        assert n == 0 or np.shares_memory(buf.view(buf.end - n, buf.end), slots)
        stream = np.arange(len(stream) + n, dtype=float)
        assert (buf.start, buf.end) == (start, len(stream))
        a = data.draw(st.integers(start, len(stream)), label="view start")
        b = data.draw(st.integers(a, len(stream)), label="view end")
        assert np.array_equal(buf.view(a, b), stream[a:b])
        assert np.array_equal(buf.view(start, len(stream)), stream[start:])
        keep_from = len(stream) - data.draw(st.integers(-50, len(stream) - start + 50), label="keep")
        buf.trim(keep_from)
        start = min(max(start, keep_from), len(stream))
        assert buf.start == start
        assert buf.capacity <= max(first, 2 * largest)
    with pytest.raises(ValueError):
        buf.view(start - 1, start)
    with pytest.raises(ValueError):
        buf.view(start, len(stream) + 1)


@settings(max_examples=200, deadline=None)
@given(hold=st.integers(0, 600), chunk=st.integers(1, 300), data=st.data())
def test_rolling_buffer_given_its_hold_and_two_chunks_keeps_its_array(hold, chunk, data):
    # an array of hold + chunk + min(hold, chunk) samples takes the held
    # samples and the next chunk whenever they are at most ``hold`` and
    # ``chunk``; they move to its front, onto themselves if need be, at most
    # once per min(hold, chunk) samples appended
    capacity = hold + chunk + min(hold, chunk)
    buf = RollingBuffer(hold, chunk)
    appended = 0
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        n = data.draw(st.integers(0, chunk), label="append")
        values = np.arange(buf.end, buf.end + n, dtype=float)
        buf.extend(n)[:] = values
        appended += n
        buf.trim(buf.end - data.draw(st.integers(0, hold), label="keep"))
        assert buf.capacity == capacity
        assert np.array_equal(buf.view(buf.start, buf.end), np.arange(buf.start, buf.end))
        assert buf.moved * min(hold, chunk) <= appended * hold + hold * min(hold, chunk)


def test_time_at_matches_grid(tmp_path):
    cm = simple_channel(tmp_path, np.ones(FS, dtype=np.int16), start=3.5)
    assert cm.origin == Fraction(7, 2)
    assert format_time(FS // 4, cm.sample_rate_hz, cm.origin) == "3.750000000"
    assert format_time(FS // 4 + 100, cm.sample_rate_hz, cm.origin) == "3.756250000"


# ---------------------------------------------------------------------------
# exact times


def test_format_time_rounds_to_the_nanosecond_with_ties_to_even():
    # 512 kHz sample times have 12 decimals; 1 in 8 is a 9th-decimal tie
    assert format_time(1, 512_000) == "0.000001953"  # 0.000001953125
    assert format_time(5, 512_000) == "0.000009766"  # 0.000009765625
    assert format_time(4, 512_000) == "0.000007812"  # 0.0000078125, a tie down to even
    assert format_time(12, 512_000) == "0.000023438"  # 0.0000234375, a tie up to even
    assert format_time(2, 4_000_000_000) == "0.000000000"  # 0.5 ns, a tie to 0
    assert format_time(6, 4_000_000_000) == "0.000000002"  # 1.5 ns, a tie to 2
    assert format_time(1, 3, Fraction(-1)) == "-0.666666667"
    assert format_time(16_000, 16_000.0) == "1.000000000"  # a float rate is read exactly


def test_format_time_keeps_epoch_origins_exact():
    origin = parse_time("1760000000.123456789")
    assert format_time(0, 16_000, origin) == "1760000000.123456789"
    assert format_time(1, 16_000, origin) == "1760000000.123519289"
    assert format_time(1, 48_000, origin) == "1760000000.123477622"  # .1234776223...
    assert format_time(10 * 48_000 + 2, 48_000, origin) == "1760000010.123498456"  # .12349845566...


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1/3", "0x10", "3.5s", "1e5000"])
def test_manifest_start_time_must_be_a_finite_decimal(tmp_path, text):
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), FS)
    man = write_manifest(tmp_path / "m.txt", ["calib 0 2048 126.0", f"file 0 a.wav {text}"])
    with pytest.raises(ManifestError, match=r"m\.txt:2: start time must be finite decimal seconds"):
        open_manifest(man)


def test_file_offsets_are_exact_at_epoch_origins(tmp_path):
    # 1.76e9 s in a float has a 2.4e-7 s step; exact parsing places the
    # second file on its sample whatever the origin
    write_wav(tmp_path / "a.wav", np.full(100, 1, dtype=np.int16), 48_000)
    write_wav(tmp_path / "b.wav", np.full(100, 2, dtype=np.int16), 48_000)
    man = write_manifest(tmp_path / "m.txt", [
        "calib 0 2048 126.0",
        "file 0 a.wav 1760000000.123456789",
        "file 0 b.wav 1760000000.125540122",  # 100 samples later, to 1 ns
    ])
    cm = open_manifest(man)[0]
    assert cm.origin == Fraction(1760000000123456789, 10**9)
    assert [f.start_index for f in cm.files] == [0, 100]
    assert format_time(100, cm.sample_rate_hz, cm.origin) == "1760000000.125540122"


def test_gap_error_surfaces_on_read_for_handmade_manifest(tmp_path):
    # zero_fill lets an open succeed over a hole; flipping the policy by hand
    # must make reads across the hole fail loudly
    from dataclasses import replace

    x = np.full(100, 5, dtype=np.int16)
    cm = split_files_channel(tmp_path, x, x, gap_samples=40, policy="zero_fill")
    strict = replace(cm, gap_policy="error")
    with pytest.raises(GapError):
        read_span(strict, 0, 240)
