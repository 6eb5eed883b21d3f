"""Plain-text serialization: time-series CSV, field snapshots, sweep tables.

config.format_value is the one text rule for a value: a float is written
by format_number, with shortest round-trip decimal precision, so
read(write(x)) reproduces every 64-bit value bitwise and re-serialization
is byte-identical; a bool is written as true or false and None as an empty
cell. Time-series and snapshot data are floats, written by format_number
directly; every sweep.csv cell goes through format_value. The sweep.csv
schema is one table of columns and the SweepResult attribute each holds.
One helper writes and one reads (UTF-8, a leading BOM skipped) every file
taxisim touches, and a failure of either, undecodable text included, is an
OSError naming the file: ``cannot write <what> <path>`` or ``cannot read
<what> <path>``. Both are public, write_text and read_text: the command
line writes its other files and reads its configs through them.
"""

from __future__ import annotations

import io
import operator
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import format_number, format_value, lp_order
from .diagnostics import DiagnosticsRecord
from .grid import Field, GridSpec
from .sweep import SweepResult, _scan_thetas, _ThetaScan

if TYPE_CHECKING:  # pragma: no cover
    from .stepper import SimState

__all__ = [
    "BASE_COLUMNS",
    "SWEEP_COLUMNS",
    "lp_column",
    "timeseries_header",
    "write_timeseries",
    "read_timeseries",
    "write_snapshot",
    "read_snapshot",
    "write_sweep_table",
    "render_sweep_summary",
    "read_text",
    "write_text",
]

# The time-series columns before the Lp_u_<p> ones: the record fields before lp_u.
_RECORD_NAMES = tuple(f.name for f in fields(DiagnosticsRecord))
BASE_COLUMNS = _RECORD_NAMES[: _RECORD_NAMES.index("lp_u")]

# The sweep.csv schema, in column order: each column and the attribute of a
# SweepResult it holds.
_SWEEP_TABLE = {
    "theta": "theta",
    "chi": "chi",
    "mu": "mu",
    "repetition": "repetition",
    "classification": "verdict.classification",
    "max_sup_u": "max_sup_u",
    "t_of_max": "verdict.t_of_max",
    "crossing_time": "verdict.crossing_time",
    "pe_condition": "pe_condition",
    "failure": "failure",
}
SWEEP_COLUMNS = tuple(_SWEEP_TABLE)
_sweep_cells = operator.attrgetter(*_SWEEP_TABLE.values())


def write_text(path: Path, noun: str, text: str, *, parents: bool = False) -> Path:
    """Write text to path; with parents, make its missing directories first."""
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {noun} {path}: {exc}") from exc
    return path


def read_text(path: Path, noun: str) -> str:
    """The UTF-8 text of path, a leading BOM skipped; noun names the file in a failure."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {noun} {path}: {exc}") from exc


def lp_column(p: float) -> str:
    p = float(p)
    label = str(int(p)) if p.is_integer() else format_number(p)
    return f"Lp_u_{label}"


def timeseries_header(p_values: tuple[float, ...]) -> str:
    return ",".join(BASE_COLUMNS + tuple(lp_column(p) for p in p_values))


def _record_row(rec: DiagnosticsRecord, p_values: tuple[float, ...]) -> str:
    lp_map = {float(p): v for p, v in rec.lp_u}
    if set(lp_map) != {float(p) for p in p_values}:
        raise ValueError("record Lp norms do not match the configured p values")
    cells = [getattr(rec, c) for c in BASE_COLUMNS] + [lp_map[float(p)] for p in p_values]
    return ",".join(format_number(x) for x in cells)


def write_timeseries(
    records: list[DiagnosticsRecord], path: str | Path, p_values: tuple[float, ...] = (2.0,)
) -> Path:
    """Write records in time order under the fixed column schema."""
    lines = [timeseries_header(p_values)]
    lines.extend(_record_row(rec, p_values) for rec in records)
    return write_text(Path(path), "time series", "\n".join(lines) + "\n")


def _numbers(path: Path, number: int, texts: list[str], convert=float) -> list:
    """texts converted by convert; a text it rejects names the file and line."""
    try:
        return [convert(x) for x in texts]
    except ValueError as exc:
        raise ValueError(f"{path}: line {number}: {exc}") from exc


def _parse_p(path: Path, label: str) -> float:
    if label.startswith("Lp_u_"):
        try:
            return float(label[len("Lp_u_") :])
        except ValueError:
            pass
    raise ValueError(f"{path}: unexpected time-series column {label!r}")


def read_timeseries(path: str | Path) -> tuple[list[DiagnosticsRecord], tuple[float, ...]]:
    """Read a time-series CSV back into records (inverse of write_timeseries)."""
    path = Path(path)
    lines = read_text(path, "time series").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty time-series file")
    header = tuple(lines[0].split(","))
    if header[: len(BASE_COLUMNS)] != BASE_COLUMNS:
        raise ValueError(f"{path}: unexpected time-series header")
    p_values: list[float] = []
    for label in header[len(BASE_COLUMNS) :]:
        p = _parse_p(path, label)
        try:  # the rule the config applies to p_values, under the label a run writes
            p_values.append(lp_order(p, p_values))
            if label != lp_column(p):
                raise ValueError(f"taxisim writes p = {p!r} as {lp_column(p)!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: time-series column {label!r}: {exc}") from exc
    records = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {number}: row width does not match header")
        vals = _numbers(path, number, parts)
        lp = tuple(zip(p_values, vals[len(BASE_COLUMNS) :]))
        records.append(DiagnosticsRecord(**dict(zip(BASE_COLUMNS, vals)), lp_u=lp))
    return records, tuple(p_values)


def write_snapshot(state: SimState, path: str | Path) -> Path:
    """Write the fields of a state as structured text.

    Header block: dim, cells, extent and time, then the column line ``u v w``
    and one line per cell in lexicographic order.
    """
    grid = state.grid
    lines = [
        f"dim {grid.dim}",
        "cells " + " ".join(str(n) for n in grid.cells),
        "extent " + " ".join(format_number(L) for L in grid.extent),
        f"t {format_number(state.t)}",
        "u v w",
    ]
    u, v, w = state.u.values, state.v.values, state.w.values
    lines.extend(
        f"{format_number(u[i])} {format_number(v[i])} {format_number(w[i])}"
        for i in range(grid.num_cells)
    )
    return write_text(Path(path), "snapshot", "\n".join(lines) + "\n")


def read_snapshot(path: str | Path) -> tuple[GridSpec, float, Field, Field, Field]:
    """Read a snapshot file; validates the header against the data line count."""
    path = Path(path)
    lines = read_text(path, "snapshot").splitlines()
    if len(lines) < 5:
        raise ValueError(f"{path}: truncated snapshot header")

    def header_values(index: int, tag: str, convert) -> list:
        parts = lines[index].split()
        if not parts or parts[0] != tag:
            raise ValueError(f"{path}: expected {tag!r} on header line {index + 1}")
        if len(parts) == 1:
            raise ValueError(f"{path}: line {index + 1}: no value after {tag!r}")
        return _numbers(path, index + 1, parts[1:], convert)

    dim = header_values(0, "dim", int)[0]
    cells = tuple(header_values(1, "cells", int))
    extent = tuple(header_values(2, "extent", float))
    t = header_values(3, "t", float)[0]
    if lines[4] != "u v w":
        raise ValueError(f"{path}: expected column line 'u v w'")
    if len(cells) != dim or len(extent) != dim:
        raise ValueError(f"{path}: header dim does not match cells/extent")
    try:
        grid = GridSpec(extent, cells)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    data = [(number, line) for number, line in enumerate(lines[5:], start=6) if line]
    if len(data) != grid.num_cells:
        raise ValueError(
            f"{path}: {len(data)} data lines for {grid.num_cells} cells"
        )
    u = np.empty(grid.num_cells)
    v = np.empty(grid.num_cells)
    w = np.empty(grid.num_cells)
    for i, (number, line) in enumerate(data):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed data line {number}")
        u[i], v[i], w[i] = _numbers(path, number, parts)
    return grid, t, Field(grid, u), Field(grid, v), Field(grid, w)


def write_sweep_table(results: list[SweepResult], path: str | Path) -> Path:
    """Write one row per sweep point.

    failure holds the "<Type>: <message>" of what kept a point from running
    or ended its run early, and is empty otherwise; a cell with a comma or
    quote is quoted as CSV.
    Wall-clock timings are intentionally not serialized: the table must be
    bitwise reproducible across runs of the same plan.
    """
    import csv  # here, not at import: only the sweep command writes a table

    text = io.StringIO()
    table = csv.writer(text, lineterminator="\n")
    table.writerow(SWEEP_COLUMNS)
    table.writerows([format_value(x) for x in _sweep_cells(res)] for res in results)
    return write_text(Path(path), "sweep table", text.getvalue())


def _no_bracket_reason(scan: _ThetaScan) -> str:
    if scan.bounded_above is not None:
        return (
            f"non-monotone: theta={format_number(scan.bounded_above)} stayed bounded"
            f" above theta={format_number(scan.first_unbounded)}"
        )
    if scan.first_unbounded is None:
        return "every theta stayed bounded"
    if scan.theta_lo is None:
        return "no theta stayed bounded"
    return (
        f"bounded up to theta={format_number(scan.theta_lo)};"
        " no theta above it grew or blew up"
    )


def render_sweep_summary(
    results: list[SweepResult], bracket: tuple[float, float] | None, tau: int
) -> str:
    """Human-readable sweep summary: verdict per theta, then the bracket or,
    when the results give none, why. Both come from one scan of results;
    a bracket that is not estimate_threshold(results) raises ValueError."""
    scan = _scan_thetas(results)
    if bracket != scan.bracket:
        raise ValueError(
            f"bracket {bracket!r} is not the one the results give, {scan.bracket!r}"
        )
    lines = ["sweep summary"]
    for res in results:
        parts = [
            f"theta={format_number(res.theta)}",
            f"chi={format_number(res.chi)}",
            f"mu={format_number(res.mu)}",
            f"rep={res.repetition}",
            f"verdict={res.verdict.classification}",
        ]
        if tau == 0:
            parts.append(f"pe_condition={format_value(res.pe_condition)}")
        lines.append("  " + " ".join(parts))
    if bracket is None:
        lines.append(f"threshold bracket: none ({_no_bracket_reason(scan)})")
    else:
        lines.append(
            "threshold bracket: theta_lo="
            + format_number(bracket[0])
            + " theta_hi="
            + format_number(bracket[1])
        )
    return "\n".join(lines) + "\n"
