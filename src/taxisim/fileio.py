"""Plain-text serialization: time-series CSV, field snapshots, sweep tables.

All floating-point values are written with shortest round-trip decimal
precision, so read(write(x)) reproduces every 64-bit value bitwise and
re-serialization is byte-identical.
"""

from __future__ import annotations

import io
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import format_number
from .diagnostics import DiagnosticsRecord
from .grid import Field, GridSpec

if TYPE_CHECKING:  # pragma: no cover
    from .stepper import SimState
    from .sweep import SweepResult

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
]

# The time-series columns before the Lp_u_<p> ones: the record fields before lp_u.
_RECORD_NAMES = tuple(f.name for f in fields(DiagnosticsRecord))
BASE_COLUMNS = _RECORD_NAMES[: _RECORD_NAMES.index("lp_u")]

SWEEP_COLUMNS = (
    "theta",
    "chi",
    "mu",
    "repetition",
    "classification",
    "max_sup_u",
    "t_of_max",
    "crossing_time",
    "pe_condition",
    "failure",
)


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
    path = Path(path)
    lines = [timeseries_header(p_values)]
    lines.extend(_record_row(rec, p_values) for rec in records)
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write time series {path}: {exc}") from exc
    return path


def _parse_p(label: str) -> float:
    if not label.startswith("Lp_u_"):
        raise ValueError(f"unexpected time-series column {label!r}")
    return float(label[len("Lp_u_") :])


def read_timeseries(path: str | Path) -> tuple[list[DiagnosticsRecord], tuple[float, ...]]:
    """Read a time-series CSV back into records (inverse of write_timeseries)."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read time series {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path}: empty time-series file")
    header = tuple(lines[0].split(","))
    if header[: len(BASE_COLUMNS)] != BASE_COLUMNS:
        raise ValueError(f"{path}: unexpected time-series header")
    p_values = tuple(_parse_p(label) for label in header[len(BASE_COLUMNS) :])
    records = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {number}: row width does not match header")
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from exc
        lp = tuple(zip(p_values, vals[len(BASE_COLUMNS) :]))
        records.append(DiagnosticsRecord(**dict(zip(BASE_COLUMNS, vals)), lp_u=lp))
    return records, p_values


def write_snapshot(state: SimState, path: str | Path) -> Path:
    """Write the fields of a state as structured text.

    Header block: dim, cells, extent and time, then the column line ``u v w``
    and one line per cell in lexicographic order.
    """
    path = Path(path)
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
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write snapshot {path}: {exc}") from exc
    return path


def read_snapshot(path: str | Path) -> tuple[GridSpec, float, Field, Field, Field]:
    """Read a snapshot file; validates the header against the data line count."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read snapshot {path}: {exc}") from exc
    if len(lines) < 5:
        raise ValueError(f"{path}: truncated snapshot header")

    def header_parts(index: int, tag: str) -> list[str]:
        parts = lines[index].split()
        if not parts or parts[0] != tag:
            raise ValueError(f"{path}: expected {tag!r} on header line {index + 1}")
        return parts[1:]

    dim = int(header_parts(0, "dim")[0])
    cells = tuple(int(x) for x in header_parts(1, "cells"))
    extent = tuple(float(x) for x in header_parts(2, "extent"))
    t = float(header_parts(3, "t")[0])
    if lines[4] != "u v w":
        raise ValueError(f"{path}: expected column line 'u v w'")
    if len(cells) != dim or len(extent) != dim:
        raise ValueError(f"{path}: header dim does not match cells/extent")
    grid = GridSpec(extent, cells)
    data = [line for line in lines[5:] if line]
    if len(data) != grid.num_cells:
        raise ValueError(
            f"{path}: {len(data)} data lines for {grid.num_cells} cells"
        )
    u = np.empty(grid.num_cells)
    v = np.empty(grid.num_cells)
    w = np.empty(grid.num_cells)
    for i, line in enumerate(data):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed data line {i + 6}")
        u[i], v[i], w[i] = (float(x) for x in parts)
    return grid, t, Field(grid, u), Field(grid, v), Field(grid, w)


def _optional_number(x: float | None) -> str:
    return "" if x is None else format_number(x)


def write_sweep_table(results: list[SweepResult], path: str | Path) -> Path:
    """Write one row per sweep point.

    failure holds the "<Type>: <message>" of what kept a point from running
    or ended its run early, and is empty otherwise; a cell with a comma or
    quote is quoted as CSV.
    Wall-clock timings are intentionally not serialized: the table must be
    bitwise reproducible across runs of the same plan.
    """
    import csv  # here, not at import: only the sweep command writes a table

    path = Path(path)
    text = io.StringIO()
    table = csv.writer(text, lineterminator="\n")
    table.writerow(SWEEP_COLUMNS)
    for res in results:
        table.writerow(
            [
                format_number(res.theta),
                format_number(res.chi),
                format_number(res.mu),
                str(res.repetition),
                res.verdict.classification,
                format_number(res.max_sup_u),
                format_number(res.verdict.t_of_max),
                _optional_number(res.verdict.crossing_time),
                "true" if res.pe_condition else "false",
                res.failure or "",
            ]
        )
    try:
        path.write_text(text.getvalue(), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write sweep table {path}: {exc}") from exc
    return path


def render_sweep_summary(
    results: list[SweepResult], bracket: tuple[float, float] | None, tau: int
) -> str:
    """Human-readable sweep summary: verdict per theta plus the bracket."""
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
            parts.append(f"pe_condition={'true' if res.pe_condition else 'false'}")
        lines.append("  " + " ".join(parts))
    if bracket is None:
        lines.append("threshold bracket: none (outcomes all alike or non-monotone)")
    else:
        lines.append(
            "threshold bracket: theta_lo="
            + format_number(bracket[0])
            + " theta_hi="
            + format_number(bracket[1])
        )
    return "\n".join(lines) + "\n"
