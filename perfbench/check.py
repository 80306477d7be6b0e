"""Output checks against the survey's analytic ground truth.

The checks parse the program's CSV files with the standard library, not with
the program's own reader, so a broken reader cannot pass its own output.
The tolerances are those of the acceptance suite: on the linear weighting
t_A lies within one sample of the true peak and the early-window SEL within
0.5 dB of the analytic pulse energy.
"""

from __future__ import annotations

import collections
import csv
from typing import Iterable, Sequence

SEL_TOLERANCE_DB = 0.5
TIME_SLACK_S = 1e-9


def _rows(path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def _key_problems(rows: Iterable[dict[str, str]], want: set[tuple[int, str, int]],
                  label: str) -> list[str]:
    got = collections.Counter(
        (int(r["channel_id"]), r["weighting"], int(r["pulse_index"])) for r in rows
    )
    problems = []
    for key in sorted(want - set(got)):
        problems.append(f"{label}: missing record for channel/weighting/pulse {key}")
    for key in sorted(set(got) - want):
        problems.append(f"{label}: unexpected record {key}")
    for key, n in sorted(got.items()):
        if n > 1:
            problems.append(f"{label}: {n} records for {key}")
    return problems


def _timing_problems(rows: Iterable[dict[str, str]], truths: dict, fs: float,
                     label: str) -> list[str]:
    problems = []
    for r in rows:
        if r["weighting"] != "linear":
            continue
        g = truths.get((int(r["channel_id"]), int(r["pulse_index"])))
        if g is None:
            continue
        err = abs(float(r["t_a_s"]) - g.t_true_s)
        if err > 1.0 / fs + TIME_SLACK_S:
            problems.append(
                f"{label}: channel {g.channel_id} pulse {g.pulse_index} t_a_s off by {err:.3g} s"
            )
    return problems


def check_catalog(path, truths: Sequence, weightings: Sequence[str], fs: float,
                  run_id: str) -> list[str]:
    """Problems found in one extract catalog; empty when it passes.

    Every (channel, weighting) must hold exactly one record per scheduled
    pulse, stamped with ``run_id``.
    """
    header, rows = _rows(path)
    for col in ("run_id", "channel_id", "weighting", "pulse_index", "t_a_s", "early_sel_db"):
        if col not in header:
            return [f"catalog: no {col} column"]
    problems = []
    if any(None in r or None in r.values() for r in rows):
        problems.append("catalog: a row has the wrong number of cells")
        return problems
    bad_ids = {r["run_id"] for r in rows} - {run_id}
    if bad_ids:
        problems.append(f"catalog: run_id {sorted(bad_ids)} != {run_id!r}")
    want = {(g.channel_id, w, g.pulse_index) for g in truths for w in weightings}
    problems += _key_problems(rows, want, "catalog")
    by_pulse = {(g.channel_id, g.pulse_index): g for g in truths}
    problems += _timing_problems(rows, by_pulse, fs, "catalog")
    for r in rows:
        g = by_pulse.get((int(r["channel_id"]), int(r["pulse_index"])))
        if r["weighting"] != "linear" or g is None:
            continue
        cell = r["early_sel_db"]
        if cell == "NA" or abs(float(cell) - g.sel_analytic_db) > SEL_TOLERANCE_DB:
            problems.append(
                f"catalog: channel {g.channel_id} pulse {g.pulse_index} early_sel_db {cell} "
                f"vs analytic {g.sel_analytic_db:.3f}"
            )
    return problems


def check_events(path, truths: Sequence, fs: float) -> list[str]:
    """Problems found in one ``detect`` events CSV (default linear weighting)."""
    header, rows = _rows(path)
    for col in ("channel_id", "weighting", "pulse_index", "t_a_s"):
        if col not in header:
            return [f"events: no {col} column"]
    want = {(g.channel_id, "linear", g.pulse_index) for g in truths}
    problems = _key_problems(rows, want, "events")
    by_pulse = {(g.channel_id, g.pulse_index): g for g in truths}
    return problems + _timing_problems(rows, by_pulse, fs, "events")
