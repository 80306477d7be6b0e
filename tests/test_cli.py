import csv
import re
import shutil
import wave
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from airgunkit import cli, signal_io
from airgunkit.cli import _FLAGS, _effective, build_parser, main
from airgunkit.pipeline import CATALOG_HEADER
from airgunkit.pulse_detect import EVENTS_HEADER

from conftest import check_catalog_cells, write_wav

SYNTH_ARGS = [
    "synth",
    "--channels", "1",
    "--duration-s", "35",
    "--pulse-count", "3",
    "--noise-rms-upa", "0",
    "--seed", "9",
]


@pytest.fixture(scope="module")
def survey_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_survey")
    assert main(SYNTH_ARGS + ["--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--out", "x", "--banana", "7"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["detect"]) == 1
    err = capsys.readouterr().err
    assert "--manifest" in err


def test_missing_manifest_file_is_runtime_error(tmp_path):
    code = main(
        ["detect", "--manifest", str(tmp_path / "no.txt"), "--out", str(tmp_path / "e.csv")]
    )
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()
    assert main(["extract", "--help"]) == 0
    assert "--run-id" in capsys.readouterr().out


def test_bad_weighting_is_usage_error(survey_dir, tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("weightings = blorp\n")
    out = tmp_path / "out.csv"
    for args in (
        ["detect", "--weighting", "blorp"],
        ["extract", "--weightings", "blorp"],
        ["extract", "--config", str(cfg)],
    ):
        code = main(args + ["--manifest", str(survey_dir / "manifest.txt"), "--out", str(out)])
        assert code == 1, args
        assert "blorp" in capsys.readouterr().err, args
        assert not out.exists(), args


def test_bad_numeric_flag_is_usage_error(survey_dir, tmp_path):
    code = main(
        [
            "extract",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(tmp_path / "c.csv"),
            "--min-ipi-s", "0.5",  # below the search window
        ]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_files(survey_dir):
    assert (survey_dir / "manifest.txt").is_file()
    assert (survey_dir / "ground_truth.csv").is_file()
    assert (survey_dir / "ch00.wav").is_file()


def test_synth_rejects_overfull_schedule(tmp_path):
    code = main(
        ["synth", "--out", str(tmp_path), "--duration-s", "10", "--pulse-count", "5"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "flag,raw,key",
    [("--sample-rate", "600000", "sample_rate_hz"), ("--duration-s", "nan", "duration_s"),
     ("--ipi-s", "inf", "ipi_s"), ("--sensitivity-db", "7000", "sensitivity_db"),
     ("--sensitivity-db", "-7000", "sensitivity_db"),
     ("--sensitivity-db", "-6420", "the pressure of one count"),
     ("--counts-full-scale", str(10**400), "the pressure of one count"),
     ("--counts-full-scale", "65536", "counts_full_scale must be at most 32768"),
     ("--seed", "-1", "seed must be non-negative")],
    ids=lambda v: v if len(v) < 40 else "1e400",
)
def test_synth_rejects_unreadable_or_non_finite_parameters(tmp_path, capsys, flag, raw, key):
    out = tmp_path / "survey"
    assert main(["synth", "--out", str(out), flag, raw]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("counts,sens", [("2048", "-6420"), (str(10**400), "126")], ids=["-6420dB", "1e400counts"])
def test_manifest_count_worth_no_pressure_is_data_error(tmp_path, capsys, counts, sens):
    # one of 2048 counts at -6420 dB is 0 uPa, and 10**400 counts do not fit a float
    write_wav(tmp_path / "a.wav", np.ones(10, dtype=np.int16), 16000)
    (tmp_path / "m.txt").write_text(f"calib 0 {counts} {sens}\nfile 0 a.wav 0.0\n")
    assert main(["extract", "--manifest", str(tmp_path / "m.txt"), "--out", str(tmp_path / "c.csv")]) == 2
    assert "m.txt:1: the pressure of one count" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# ---------------------------------------------------------------------------
# detect


def test_detect_writes_events(survey_dir, tmp_path, capsys):
    out = tmp_path / "events.csv"
    code = main(
        [
            "detect",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EVENTS_HEADER
    assert len(lines) == 1 + 3  # three pulses on the linear stream
    assert lines[1].split(",")[1] == "linear"
    assert lines[-1].split(",")[-1] == "NA"  # last pulse has no next arrival


def test_detect_all_weightings(survey_dir, tmp_path):
    out = tmp_path / "events.csv"
    code = main(
        [
            "detect",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(out),
            "--weighting", "all",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    weightings = {ln.split(",")[1] for ln in lines}
    assert weightings == {"linear", "lfc", "mfc"}


def test_detect_dump_filters(survey_dir, tmp_path, capsys):
    code = main(
        [
            "detect",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(tmp_path / "e.csv"),
            "--dump-filters",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sos" in out or "section" in out


@pytest.mark.parametrize("cmd, flag", [("detect", "--weighting"), ("extract", "--weightings")])
def test_dump_filters_designs_only_the_selected_weightings(cmd, flag, tmp_path, capsys):
    # at 250 Hz the mfc band's 150-Hz lower edge is above Nyquist, so only a
    # run that selects mfc may design it
    assert main(["synth", "--out", str(tmp_path / "s"), "--duration-s", "20",
                 "--sample-rate", "250", "--pulse-count", "1"]) == 0
    capsys.readouterr()
    for kinds, want in (("linear", ["linear"]), ("lfc,linear", ["linear", "lfc"])):
        code = main([cmd, "--manifest", str(tmp_path / "s" / "manifest.txt"),
                     "--out", str(tmp_path / "o.csv"), flag, kinds, "--dump-filters"])
        assert code == 0
        dumped = re.findall(r"^weighting=(\w+) fs=250 Hz", capsys.readouterr().out, re.M)
        assert dumped == want  # canonical order, whatever the selection order


@pytest.mark.parametrize("args", [["detect", "--weighting", "all", "--out", "o.csv"],
                                  ["extract", "--out", "o.csv"],
                                  ["bench", "--out-dir", "b"]])
def test_impossible_weighting_fails_before_any_stream(args, tmp_path, capsys, monkeypatch):
    # at 250 Hz the mfc band's 150-Hz lower edge is above Nyquist
    assert main(["synth", "--out", str(tmp_path / "s"), "--duration-s", "20",
                 "--sample-rate", "250", "--pulse-count", "1"]) == 0
    capsys.readouterr()
    reads = []
    read_span = signal_io.read_span

    def recording_read_span(cm, start_index, count, out=None):
        reads.append(count)
        return read_span(cm, start_index, count, out=out)

    monkeypatch.setattr(signal_io, "read_span", recording_read_span)
    monkeypatch.chdir(tmp_path)
    code = main([*args, "--manifest", str(tmp_path / "s" / "manifest.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: mfc: lower edge 150.0 Hz at or above Nyquist 125.0 Hz\n"
    assert reads == []
    assert not (tmp_path / "o.csv").exists()
    assert not list(tmp_path.glob("b/*.csv"))


# ---------------------------------------------------------------------------
# extract


def test_extract_end_to_end(survey_dir, tmp_path, capsys):
    out = tmp_path / "catalog.csv"
    code = main(
        [
            "extract",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(out),
            "--run-id", "cli-test",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CATALOG_HEADER
    assert len(lines) == 1 + 3 * 3  # 3 pulses x 3 weightings
    assert all(ln.startswith("cli-test,") for ln in lines[1:])
    assert check_catalog_cells(out, 16_000) == 9

    summary = (tmp_path / "catalog.csv.summary.txt").read_text()
    assert "threshold_db=100.0" in summary
    assert "csel_scope=run" in summary
    assert "records=9" in summary
    stdout = capsys.readouterr().out
    assert "records=9" in stdout


def test_extract_twice_is_byte_identical(survey_dir, tmp_path):
    args = lambda p: [
        "extract",
        "--manifest", str(survey_dir / "manifest.txt"),
        "--out", str(p),
    ]
    assert main(args(tmp_path / "a.csv")) == 0
    assert main(args(tmp_path / "b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_extract_flag_overrides_config_overrides_default(survey_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threshold-db = 90\nrun-id = from-config\n")
    out = tmp_path / "c.csv"
    code = main(
        [
            "extract",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(out),
            "--config", str(cfg),
            "--threshold-db", "95",
        ]
    )
    assert code == 0
    summary = (tmp_path / "c.csv.summary.txt").read_text()
    # the flag beat the config file
    assert "threshold_db=95" in summary
    # the config beat the built-in default
    assert "run_id=from-config" in summary
    assert out.read_text().splitlines()[1].startswith("from-config,")


def test_bad_config_value_names_file_and_line(survey_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for line in ("workers = two", "dump_filters = maybe", "dump_filters = 2", "dump_filters ="):
        key = line.split()[0]
        cfg.write_text(f"# run settings\n{line}\n")
        code = main(
            [
                "extract",
                "--manifest", str(survey_dir / "manifest.txt"),
                "--out", str(tmp_path / "c.csv"),
                "--config", str(cfg),
            ]
        )
        assert code == 1, line
        assert f"cfg.txt:2: bad value for {key}" in capsys.readouterr().err, line
        assert not (tmp_path / "c.csv").exists(), line
    # the accepted spellings, in any case
    for raw, want in (("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)):
        cfg.write_text(f"dump_filters = {raw}\n")
        assert _effective(build_parser().parse_args(["extract", "--config", str(cfg)]))["dump_filters"] is want


# 7000 and -7000 dB are finite, but 10**(dB/20) overflows or underflows
_NON_FINITE = [("threshold_db", v) for v in ("nan", "inf", "-inf", "7000", "-7000")]
_NON_FINITE += [("min_ipi_s", v) for v in ("nan", "inf")]


@pytest.mark.parametrize("command", ["detect", "extract", "bench"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,raw", _NON_FINITE)
def test_non_finite_run_parameter_is_usage_error(survey_dir, tmp_path, capsys, command, source, key, raw):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    given = [f"--{key.replace('_', '-')}={raw}"] if source == "flag" else ["--config", str(cfg)]
    out = ["--out-dir" if command == "bench" else "--out", str(tmp_path / "out")]
    code = main([command, "--manifest", str(survey_dir / "manifest.txt"), *out, *given])
    assert code == 1
    assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]  # no events, catalog or summary


@pytest.mark.parametrize("command", ["detect", "extract", "bench"])
def test_chunk_length_is_no_setting(survey_dir, tmp_path, capsys, command):
    # the chunk length is signal_io's: neither a flag nor a config key
    assert main([command, "--help"]) == 0
    assert "--chunk-s" not in capsys.readouterr().out
    cfg = tmp_path / "c.cfg"
    cfg.write_text("chunk_s = 60\n")
    out = tmp_path / "out"
    dest = ["--out-dir" if command == "bench" else "--out", str(out)]
    for given in (["--config", str(cfg)], ["--chunk-s", "60"]):
        assert main([command, "--manifest", str(survey_dir / "manifest.txt"), *dest, *given]) == 1
    assert "c.cfg:1: unknown key 'chunk_s'" in capsys.readouterr().err
    assert not out.exists()


_ROWS = [(command, row) for command, rows in _FLAGS.items() for row in rows]


@pytest.mark.parametrize(
    "command,row", _ROWS, ids=[f"{command}-{row[0]}" for command, row in _ROWS]
)
def test_every_table_row_is_a_flag_and_a_config_key(tmp_path, command, row):
    name, typ, default, _ = row
    raw = {int: "3", float: "2.5", str: "x", bool: "true"}[typ]
    expected = True if typ is bool else typ(raw)
    assert expected != default  # so an ignored value cannot pass as the default
    flag = "--" + name.replace("_", "-")
    argvs = [[command, flag] if typ is bool else [command, flag, raw]]
    for key in (name, name.replace("_", "-")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        argvs.append([command, "--config", str(cfg)])
    for argv in argvs:
        value = _effective(build_parser().parse_args(argv))[name]
        assert (value, type(value)) == (expected, typ), argv


def test_readme_names_only_table_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = {
        tok
        for line in readme.splitlines()
        if not line.startswith("pip ")  # installer options, not airgunkit's
        for tok in re.findall(r"--[a-z][a-z0-9-]*", line)
    }
    table = {"--" + row[0].replace("_", "-") for _, row in _ROWS} | {"--config", "--help"}
    assert named, "README names no flags"
    assert named <= table, sorted(named - table)


def test_unknown_config_key_is_usage_error(survey_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("thresold-db = 90\n")
    code = main(
        [
            "extract",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(tmp_path / "c.csv"),
            "--config", str(cfg),
        ]
    )
    assert code == 1


def test_extract_channel_subset(survey_dir, tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        [
            "extract",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(out),
            "--channels", "0",
            "--weightings", "linear",
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 3
    assert check_catalog_cells(out, 16_000) == 3


@pytest.mark.parametrize("command", ["detect", "extract"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_repeated_channel_id_is_usage_error(survey_dir, tmp_path, capsys, command, source):
    cfg = tmp_path / "ch.cfg"
    cfg.write_text("channels = 0,0\n")
    channels = ["--channels", "0,0"] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out.csv"
    code = main(
        [command, "--manifest", str(survey_dir / "manifest.txt"), "--out", str(out), *channels]
    )
    assert code == 1
    assert "repeats a channel id: (0, 0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "extract", "bench"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_repeated_weighting_is_usage_error(survey_dir, tmp_path, capsys, command, source):
    # a repeated weighting would write every row of its streams twice
    key = "weighting" if command == "detect" else "weightings"
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"{key} = mfc,lfc,mfc\n")
    weightings = ["--" + key, "mfc,lfc,mfc"] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out"
    dest = ["--out-dir" if command == "bench" else "--out", str(out)]
    code = main([command, "--manifest", str(survey_dir / "manifest.txt"), *dest, *weightings])
    assert code == 1
    assert "repeats a weighting: mfc,lfc,mfc" in capsys.readouterr().err
    assert not out.exists()


_BAD_SETTINGS = {
    "repeated-channel": (["--channels", "0,0"], 1, "repeats a channel id"),
    "repeated-weighting": (["--weightings", "mfc,lfc,mfc"], 1, "repeats a weighting"),
    "uncovered-channel": (["--channels", "7"], 2, "does not cover requested channels"),
    "threshold-out-of-range": (["--threshold-db", "-7000"], 1, "threshold_db"),
    # a comma, quote, CR or LF in the run_id would split the first cell of every catalog row
    **{f"run-id-{name}": (["--run-id", f"a{c}b"], 1, "run_id")
       for name, c in (("comma", ","), ("quote", '"'), ("cr", "\r"), ("lf", "\n"))},
}


@pytest.mark.parametrize("flag,value,code,says", [(f, v, c, m) for (f, v), c, m in _BAD_SETTINGS.values()],
                         ids=list(_BAD_SETTINGS))
def test_bad_setting_gets_one_answer_from_every_command(survey_dir, tmp_path, monkeypatch, capsys,
                                                        flag, value, code, says):
    # detect, extract and bench (where it has the flag) share one check, run
    # before any stream starts
    reads = []
    monkeypatch.setattr(signal_io, "read_span", lambda *args, **kwargs: reads.append(args))
    answers = set()
    for command in ("detect", "extract", "bench"):
        given = ["--weighting" if command == "detect" and flag == "--weightings" else flag, value]
        if given[0][2:].replace("-", "_") not in {row[0] for row in _FLAGS[command]}:
            continue  # bench has no --channels, and only extract has --run-id
        dest = ["--out-dir" if command == "bench" else "--out", str(tmp_path / "out")]
        assert main([command, "--manifest", str(survey_dir / "manifest.txt"), *dest, *given]) == code
        answers.add(capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [], command
    assert len(answers) == 1, answers
    answer = answers.pop()
    assert says in answer
    assert "pulses" not in answer and reads == []  # no stream ran


def test_extract_unknown_channel_is_runtime_error(survey_dir, tmp_path):
    code = main(
        [
            "extract",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out", str(tmp_path / "c.csv"),
            "--channels", "5",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("command,dest", [
    ("extract", ["--out", "{missing}/c.csv"]),
    ("extract", ["--out", "{tmp}/c.csv", "--summary", "{missing}/s.txt"]),
    ("detect", ["--out", "{missing}/e.csv"]),
], ids=["catalog", "summary", "events"])
def test_missing_output_directory_fails_before_any_read(survey_dir, tmp_path, monkeypatch, capsys,
                                                        command, dest):
    reads = []
    monkeypatch.setattr(signal_io, "read_span", lambda *args, **kwargs: reads.append(args))
    missing = tmp_path / "nodir"
    dest = [a.format(missing=missing, tmp=tmp_path) for a in dest]
    assert main([command, "--manifest", str(survey_dir / "manifest.txt"), *dest]) == 2
    assert f"output directory does not exist: {missing}" in capsys.readouterr().err
    assert reads == []
    assert list(tmp_path.iterdir()) == []


# each case: the command and its outputs, with the output the check names
_CLASHES = {
    "catalog-is-a-wav": ("extract", ["--out", "{survey}/ch00.wav"], "{survey}/ch00.wav"),
    "events-is-the-manifest": ("detect", ["--out", "{survey}/manifest.txt"], "{survey}/manifest.txt"),
    "events-links-to-the-manifest": ("detect", ["--out", "{tmp}/link.csv"], "{tmp}/link.csv"),
    "summary-is-the-catalog": ("extract", ["--out", "{tmp}/c.csv", "--summary", "{tmp}/c.csv"], "{tmp}/c.csv"),
    "catalog-is-a-directory": ("extract", ["--out", "{tmp}/d"], "{tmp}/d"),
    "events-is-a-directory": ("detect", ["--out", "{tmp}/d"], "{tmp}/d"),
    "bench-catalog-is-a-directory": ("bench", ["--out-dir", "{tmp}"], "{tmp}/catalog_serial.csv"),
}


@pytest.mark.parametrize("command,dest,named", list(_CLASHES.values()), ids=list(_CLASHES))
def test_output_never_overwrites_an_input_or_another_output(survey_dir, tmp_path, monkeypatch, capsys,
                                                            command, dest, named):
    survey = tmp_path / "survey"
    shutil.copytree(survey_dir, survey)
    (tmp_path / "link.csv").symlink_to(survey / "manifest.txt")
    (tmp_path / "d").mkdir()
    (tmp_path / "catalog_serial.csv").mkdir()
    inputs = {p: p.read_bytes() for p in survey.iterdir()}
    reads = []
    monkeypatch.setattr(signal_io, "read_span", lambda *args, **kwargs: reads.append(args))
    dest = [a.format(survey=survey, tmp=tmp_path) for a in dest]
    assert main([command, "--manifest", str(survey / "manifest.txt"), *dest]) == 2
    assert named.format(survey=survey, tmp=tmp_path) in capsys.readouterr().err
    assert reads == []
    assert {p: p.read_bytes() for p in survey.iterdir()} == inputs


# ---------------------------------------------------------------------------
# times at an epoch origin


def exact_time(t: Fraction) -> str:
    """Oracle: decimal seconds rounded to 1 ns, ties to even."""
    ns = round(t * 10**9)
    return f"{ns // 10**9}.{ns % 10**9:09d}"


def test_epoch_origin_times_are_exact_in_catalog_and_events(tmp_path):
    # the same 48 kHz samples, once in one file at 0.0 and once in two files
    # from an epoch origin; every time cell of the second run must be the
    # first run's sample time plus the origin, exactly rounded
    fs, epoch = 48_000, "1760000000.123456789"
    ref = tmp_path / "ref"
    assert main(SYNTH_ARGS + ["--sample-rate", str(fs), "--out", str(ref)]) == 0
    with wave.open(str(ref / "ch00.wav"), "rb") as w:
        x = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    split = 17 * fs + 7
    write_wav(tmp_path / "a.wav", x[:split], fs)
    write_wav(tmp_path / "b.wav", x[split:], fs)
    origin = Fraction(epoch)
    calib = (ref / "manifest.txt").read_text().splitlines()[1]
    (tmp_path / "manifest.txt").write_text(
        f"{calib}\nfile 0 a.wav {epoch}\nfile 0 b.wav {exact_time(origin + Fraction(split, fs))}\n"
    )
    checked = 0
    for command, flags in (("extract", []), ("detect", ["--weighting", "all"])):
        tables = []
        for base in (ref, tmp_path):
            out = base / f"{command}.csv"
            argv = [command, "--manifest", str(base / "manifest.txt"), "--out", str(out), *flags]
            assert main(argv) == 0
            with open(out, newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
            if command == "extract":
                assert check_catalog_cells(out, fs) == len(tables[-1])
        assert len(tables[0]) == len(tables[1]) > 0
        for at_zero, at_epoch in zip(*tables):
            for col, cell in at_zero.items():
                if not col.endswith("_s") or cell == "NA":
                    assert at_epoch[col] == cell, col
                    continue
                i = round(Fraction(cell) * fs)  # the sample, or for ipi_s the gap
                assert cell == exact_time(Fraction(i, fs)), col
                shift = 0 if col == "ipi_s" else origin
                assert at_epoch[col] == exact_time(shift + Fraction(i, fs)), col
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_identical_catalogs(survey_dir, tmp_path, capsys):
    code = main(
        [
            "bench",
            "--manifest", str(survey_dir / "manifest.txt"),
            "--out-dir", str(tmp_path),
            "--workers", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.splitlines() if "=" in line)
    assert values["identical"] == "true"
    serial_s, parallel_s = float(values["serial_seconds"]), float(values["parallel_seconds"])
    assert serial_s > 0 and parallel_s > 0 and float(values["speedup"]) > 0
    for mode in ("serial", "parallel"):
        assert check_catalog_cells(tmp_path / f"catalog_{mode}.csv", 16_000) == 9


def test_bench_caps_its_workers_at_the_streams(small_survey, tmp_path, pool_sizes, capsys):
    _, result = small_survey  # 2 channels x 3 weightings
    assert main(["bench", "--manifest", str(result.manifest_path), "--out-dir", str(tmp_path),
                 "--workers", "5000"]) == 0
    out = capsys.readouterr().out
    assert pool_sizes == [6]
    assert "with 6 workers" in out and "identical=true" in out


@pytest.mark.parametrize("serial_s,parallel_s,printed", [
    (3.0, 1.5, ["serial   : 3.000 s", "parallel : 1.500 s", "speedup  : 2.00x", "serial_seconds=3.000",
                "parallel_seconds=1.500", "speedup=2.000"]),
    (0.25, 0.0, ["parallel_seconds=0.000", "speedup  : infx", "speedup=inf"]),
])
def test_bench_prints_the_wall_seconds_of_its_two_runs(survey_dir, tmp_path, monkeypatch, capsys,
                                                       serial_s, parallel_s, printed):
    real_run = cli.run

    def timed_run(config, manifests, log=None):
        path, report = real_run(config, manifests, log=log)
        return path, replace(report, wall_seconds=serial_s if config.mode == "serial" else parallel_s)

    monkeypatch.setattr(cli, "run", timed_run)
    assert main(["bench", "--manifest", str(survey_dir / "manifest.txt"), "--out-dir", str(tmp_path),
                 "--workers", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for text in printed:
        assert any(text in line for line in lines), text


def test_bench_fails_when_its_catalogs_differ(survey_dir, tmp_path, monkeypatch, capsys):
    serial, parallel = tmp_path / "catalog_serial.csv", tmp_path / "catalog_parallel.csv"
    real_run = cli.run

    def one_byte_off(config, manifests, log=None):
        path, report = real_run(config, manifests, log=log)
        if config.mode == "parallel":
            data = bytearray(path.read_bytes())
            data[-2] ^= 1  # the last character of the last row
            path.write_bytes(bytes(data))
        return path, report

    monkeypatch.setattr(cli, "run", one_byte_off)
    assert main(["bench", "--manifest", str(survey_dir / "manifest.txt"), "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "DIFFER [FAIL]" in captured.out and "identical=false" in captured.out  # the report still prints
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: catalogs differ: {serial} and {parallel}"]


def test_bench_runs_the_settings_of_extract_serially_then_in_parallel(survey_dir, tmp_path, monkeypatch):
    seen = []
    real_run = cli.run

    def recording_run(config, manifests, log=None):
        seen.append(config)
        return real_run(config, manifests, log=log)

    monkeypatch.setattr(cli, "run", recording_run)
    settings = ["--weightings", "mfc,linear", "--threshold-db", "95", "--min-ipi-s", "6"]
    assert main(["bench", "--manifest", str(survey_dir / "manifest.txt"), "--out-dir", str(tmp_path),
                 "--workers", "2", *settings]) == 0
    assert main(["extract", "--manifest", str(survey_dir / "manifest.txt"), "--out", str(tmp_path / "e.csv"),
                 "--mode", "parallel", "--workers", "2", *settings]) == 0
    bench_serial, bench_parallel, extract = seen
    assert bench_parallel == replace(extract, out_path=tmp_path / "catalog_parallel.csv")
    assert bench_serial == replace(extract, out_path=tmp_path / "catalog_serial.csv", mode="serial",
                                   worker_count=1)


def test_negative_only_pulse_writes_na_not_minus_inf(tmp_path):
    # a search window whose largest sample is exactly zero has p_a = 0, -inf dB
    counts = np.zeros(30 * 16000, dtype=np.int16)
    counts[5 * 16000:5 * 16000 + 50] = -1500
    write_wav(tmp_path / "ch00.wav", counts, 16000)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("calib 0 2048 126\nfile 0 ch00.wav 0.0\n")
    catalog, events = tmp_path / "catalog.csv", tmp_path / "events.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(catalog),
                 "--weightings", "linear"]) == 0
    assert main(["detect", "--manifest", str(manifest), "--out", str(events),
                 "--weighting", "linear"]) == 0
    for path in (catalog, events):
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["p_a_upa"], cells["p_a_db"]) == ("0.000000", "NA")
        assert cells["p_b_db"] == "123.295226"
        assert "inf" not in row
    assert check_catalog_cells(catalog, 16_000) == 1
