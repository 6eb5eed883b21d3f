"""Correctness gate applied to the output of every benchmark operation.

An operation is one `taxisim run` or one sweep point. A `run` passes when
its exit code is 0, its outcome is `completed`, every time-series row keeps
u, v, w >= 0 and the exact substrate representation (repr_residual at most
1e-12 sup_w), the cell-mass bound holds, and max sup u, the final mass and
sup of u and the verdict match the recorded reference. A sweep point passes
when the command exits 0, its sweep.csv is byte-identical to every other
repeat (at 1 and at 2 workers), and its classification and max sup u match
the reference; where the sweep's run outcomes were collected, the point's
run must also have completed with u, v, w >= 0 throughout.

REL_TOL is loose enough for round-off reordering and for replacing the
CG solve (tolerance 1e-10) by an exact one, and tight enough to catch a
wrong answer: a dropped term or a wrong sign moves these values by far more
than 1e-6.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-6
REPR_FACTOR = 1e-12
MASS_TOL = 1e-2  # the relative slack of taxisim's own mass-bound check

REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def close(value: float, ref: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * max(abs(ref), 1e-300)


def parse_rows(text: str) -> list[dict[str, float]]:
    """Rows of a CSV table, numeric where a cell parses as a number."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, cell in raw.items():
            try:
                row[key] = float(cell)
            except (TypeError, ValueError):
                row[key] = cell
        rows.append(row)
    return rows


def parse_run_stdout(stdout: str) -> dict[str, str]:
    """The `key: value` lines that `taxisim run` prints."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _leading_number(text: str) -> float:
    try:
        return float(text.split()[0])
    except (IndexError, ValueError):
        return math.nan


def check_series(rows: list[dict], domain_measure: float) -> list[str]:
    """Invariants every time series must keep, whatever the reference."""
    problems = []
    if not rows:
        return ["empty time series"]
    for row in rows:
        t = row["t"]
        for col in ("min_u", "min_v", "min_w"):
            if not row[col] >= 0.0:
                problems.append(f"{col}={row[col]!r} < 0 at t={t!r}")
        if not row["repr_residual"] <= REPR_FACTOR * row["sup_w"]:
            problems.append(f"repr_residual={row['repr_residual']!r} above 1e-12 sup_w at t={t!r}")
    bound = max(rows[0]["mass_u"], domain_measure)
    worst = max(row["mass_u"] for row in rows)
    if not worst <= bound * (1.0 + MASS_TOL):
        problems.append(f"mass_u={worst!r} exceeds the mass bound {bound!r}")
    return problems


def check_run(exit_code: int, stdout: str, series_text: str, ref: dict, domain_measure: float) -> list[str]:
    """All problems with one `taxisim run`; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    printed = parse_run_stdout(stdout)
    problems = []
    if not printed.get("outcome", "").startswith("completed"):
        problems.append(f"outcome {printed.get('outcome')!r}")
    if not printed.get("mass bound", "").startswith("pass"):
        problems.append(f"mass bound {printed.get('mass bound')!r}")
    if printed.get("verdict") != ref["verdict"]:
        problems.append(f"verdict {printed.get('verdict')!r} != {ref['verdict']!r}")
    rows = parse_rows(series_text)
    problems += check_series(rows, domain_measure)
    if rows:
        observed = {
            "max_sup_u": _leading_number(printed.get("max sup u", "")),
            "final_mass_u": rows[-1]["mass_u"],
            "final_sup_u": rows[-1]["sup_u"],
        }
        for key, value in observed.items():
            if not close(value, ref[key]):
                problems.append(f"{key}={value!r} differs from reference {ref[key]!r}")
    return problems


def check_outcome(outcome) -> list[str]:
    """Problems with the taxisim RunOutcome of one sweep point's run."""
    problems = []
    if outcome.status != "completed":
        problems.append(f"status {outcome.status!r}")
    for name in ("min_u", "min_v", "min_w"):
        value = getattr(outcome, name)
        if not value >= 0.0:
            problems.append(f"{name}={value!r} < 0")
    return problems


def check_sweep_points(
    exit_code: int,
    table: str,
    first_table: str | None,
    ref_points: list[dict],
    outcomes: list[tuple[float, list[str]]] | None = None,
) -> list[list[str]]:
    """Problems per sweep point; each inner list empty means that point passed.

    first_table is the sweep.csv of the first repeat in this benchmark run;
    any byte difference from it fails every point. outcomes, when given,
    holds (theta, check_outcome problems) for every run the sweep made, in
    any order; each point takes the problems of one run at its theta, and a
    point that no run matches fails.
    """
    if exit_code != 0:
        return [[f"exit code {exit_code}"] for _ in ref_points]
    if first_table is not None and table != first_table:
        return [["sweep.csv differs from the first repeat"] for _ in ref_points]
    rows = parse_rows(table)
    if len(rows) != len(ref_points):
        return [[f"{len(rows)} rows for {len(ref_points)} points"] for _ in ref_points]
    unmatched = list(outcomes or ())
    result = []
    for row, ref in zip(rows, ref_points):
        problems = []
        if outcomes is not None:
            match = next((o for o in unmatched if close(o[0], row["theta"], 1e-9)), None)
            if match is None:
                problems.append(f"no run outcome at theta {row['theta']!r}")
            else:
                unmatched.remove(match)
                problems += match[1]
        if row["theta"] != ref["theta"]:
            problems.append(f"theta {row['theta']!r} != {ref['theta']!r}")
        if row["classification"] != ref["classification"]:
            problems.append(f"classification {row['classification']!r} != {ref['classification']!r}")
        if not close(row["max_sup_u"], ref["max_sup_u"]):
            problems.append(f"max_sup_u {row['max_sup_u']!r} differs from reference {ref['max_sup_u']!r}")
        result.append(problems)
    return result
