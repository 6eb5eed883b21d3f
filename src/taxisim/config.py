"""Flat sectioned key=value configuration: parsing, validation, echo.

The format is plain UTF-8 text with ``[section]`` headers and ``key = value``
assignments (spaces around ``=`` optional, several assignments may share a
line, ``#`` starts a comment). Values must not contain whitespace; lists are
comma separated. Unknown sections, unknown keys and duplicate keys are
rejected. One table maps every key to the dataclass field it sets and the
parser of its value, and the echo writes the fields back through the same
table. The dataclasses own every check and start each message with the
config key it rejects (T_end and dir, though their fields are t_end and
directory), so a rejected value is reported, unchanged, as a ValidationError
naming its ``section.key``. Two helpers, grid._as_int and grid._as_float,
own the type and the range of every single value (grid.dim here too): each
converts a setting to a Python int or float and tests its interval,
refusing it as ``<key> must be in <interval>, got <value>``. Since a
setting keeps a Python int or float, a dataclass built in code echoes every
digit of its values, and its echo re-runs it exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .grid import GridSpec, _as_float, _as_int
from .model import ModelParams, ScenarioSpec
from .stepper import SolverConfig
from .sweep import SweepPlan

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "OutputOptions",
    "RunConfig",
    "parse_config",
    "render_config",
]


class ConfigError(ValueError):
    """Base class for configuration failures."""


class ParseError(ConfigError):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ConfigError):
    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key} {message}")
        self.key = key


@dataclass(frozen=True)
class OutputOptions:
    directory: Path
    p_values: tuple[float, ...] = (2.0,)
    snapshots: bool = False

    def __post_init__(self) -> None:
        # The echo writes the directory as one config value, which cannot
        # hold whitespace or a comment. The message names its config key, dir.
        if any(c.isspace() or c == "#" for c in str(self.directory)):
            raise ValueError(
                f"dir must contain no whitespace or '#', got {str(self.directory)!r};"
                " set dir to an absolute path without them"
            )
        p_values: list[float] = []
        for p in self.p_values:
            p_values.append(lp_order(p, p_values))
        object.__setattr__(self, "p_values", tuple(p_values))


def lp_order(p: object, before: list[float]) -> float:
    """p as the order of an Lp norm a run records: a float in [1, inf) that
    no order in before equals. The config and the time-series reader both
    apply this one rule."""
    p = _as_float(p, "p_values entry", 1, math.inf, "[)")
    if p in before:
        raise ValueError("p_values entries must be distinct")
    return p


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    model: ModelParams
    solver: SolverConfig
    scenario: ScenarioSpec
    outputs: OutputOptions
    sweep: SweepPlan | None = None


def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"must be a number, got {raw!r}") from None


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def _boolean(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"must be true or false, got {raw!r}")


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(_number(part) for part in raw.split(","))


def _integers(raw: str) -> tuple[int, ...]:
    return tuple(_integer(part) for part in raw.split(","))


# Every accepted key, per section, and the parser of its value. A key sets
# the dataclass field of the same name (or the one _FIELD_OF names); a key
# left out takes the dataclass default. grid.dim is checked here and sets no
# field; the echo reads it from the grid. render_config echoes the same table.
_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "grid": {"dim": _integer, "extent": _numbers, "cells": _integers},
    "model": {"chi": _number, "xi": _number, "mu": _number, "eta": _number, "tau": _integer},
    "solver": {
        "T_end": _number,
        "output_every": _number,
        "cfl_safety": _number,
        "dt_max": _number,
        "blowup_threshold": _number,
        "anchor_time": _number,
        "time_scheme": str,
    },
    "scenario": {
        "name": str,
        "amplitude": _number,
        "sigma": _number,
        "center": _numbers,
        "wbar": _number,
        "seed": _integer,
        "u0": _number,
        "v0": _number,
        "w0": _number,
    },
    "outputs": {"dir": Path, "p_values": _numbers, "snapshots": _boolean},
    "sweep": {"mode": str, "fixed_value": _number, "theta_values": _numbers, "repetitions": _integer},
}
_FIELD_OF = {"T_end": "t_end", "dir": "directory"}

_REQUIRED = {
    "grid": ("dim", "extent", "cells"),
    "model": ("chi",),
    "solver": ("T_end",),
    "sweep": ("mode", "fixed_value", "theta_values"),
}

_ASSIGN_NORMALIZE = re.compile(r"\s*=\s*")


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        line = _ASSIGN_NORMALIZE.sub("=", line).strip()
        if not line:
            continue
        for token in line.split():
            yield lineno, token


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    data: dict[str, dict[str, str]] = {}
    section: str | None = None
    for lineno, token in _tokenize(text):
        if token.startswith("["):
            if not token.endswith("]") or len(token) < 3:
                raise ParseError(lineno, f"malformed section header {token!r}")
            name = token[1:-1]
            if name not in _KEYS:
                raise ValidationError(f"[{name}]", "is not a known section")
            section = name
            data.setdefault(name, {})
            continue
        if "=" not in token:
            raise ParseError(lineno, f"expected key=value, got {token!r}")
        if section is None:
            raise ParseError(lineno, "assignment before any [section] header")
        key, _, value = token.partition("=")
        if not key or not value:
            raise ParseError(lineno, f"incomplete assignment {token!r}")
        if key not in _KEYS[section]:
            raise ValidationError(f"{section}.{key}", "is not a known key")
        if key in data[section]:
            raise ValidationError(f"{section}.{key}", "is assigned more than once")
        data[section][key] = value
    return data


def _fields(section: str, sec: dict[str, str]) -> dict[str, object]:
    """Parse the keys given in one section into {field: value}."""
    for key in _REQUIRED.get(section, ()):
        if key not in sec:
            raise ValidationError(f"{section}.{key}", "is required")
    fields = {}
    for key, raw in sec.items():
        try:
            fields[_FIELD_OF.get(key, key)] = _KEYS[section][key](raw)
        except ValueError as exc:
            raise ValidationError(f"{section}.{key}", str(exc)) from None
    return fields


def _build(section: str, cls, fields: dict[str, object]):
    """cls(**fields), with a rejection reported under the config key its
    message starts with (the dataclasses word their messages in config keys),
    or under the section when it starts with none."""
    try:
        return cls(**fields)
    except ValueError as exc:
        key, _, message = str(exc).partition(" ")
        if key in _KEYS[section]:
            raise ValidationError(f"{section}.{key}", message) from None
        raise ValidationError(f"[{section}]", str(exc)) from None


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and fully validate a configuration document.

    Relative output paths resolve against base_dir (normally the directory of
    the config file). The [solver] key output_every defaults to T_end / 50.
    A [sweep] section becomes a SweepPlan over the config's own model,
    solver, scenario and grid.
    """
    data = _read_sections(text)
    for required in ("grid", "model", "solver"):
        if required not in data:
            raise ValidationError(f"[{required}]", "section is required")
    grid_fields = _fields("grid", data["grid"])
    try:
        dim = _as_int(grid_fields.pop("dim"), "dim", 1, 3)
    except ValueError as exc:
        raise ValidationError("grid.dim", str(exc).removeprefix("dim ")) from None
    for key in ("extent", "cells"):
        if len(grid_fields[key]) != dim:
            raise ValidationError(f"grid.{key}", f"must have {dim} entries")
    grid = _build("grid", GridSpec, grid_fields)
    model = _build("model", ModelParams, _fields("model", data["model"]))
    solver = _build("solver", SolverConfig, _fields("solver", data["solver"]))
    scenario_fields = _fields("scenario", data.get("scenario", {}))
    if len(scenario_fields.get("center", ())) not in (0, dim):
        raise ValidationError("scenario.center", f"must have {dim} entries")
    scenario = _build("scenario", ScenarioSpec, scenario_fields)
    out_fields = _fields("outputs", data.get("outputs", {}))
    directory = out_fields.get("directory", Path("out"))
    if not directory.is_absolute():
        out_fields["directory"] = (Path(base_dir) / directory).resolve()
    outputs = _build("outputs", OutputOptions, out_fields)
    sweep = None
    if "sweep" in data:
        base = dict(base_model=model, base_solver=solver, scenario=scenario, grid=grid)
        sweep = _build("sweep", SweepPlan, _fields("sweep", data["sweep"]) | base)
    return RunConfig(
        grid=grid, model=model, solver=solver, scenario=scenario, outputs=outputs, sweep=sweep
    )


def format_number(x: float) -> str:
    """Shortest decimal text that round-trips the 64-bit value exactly."""
    return repr(float(x))


def format_value(value: object) -> str:
    """The text of one value, as every file taxisim writes holds it: a float
    by format_number, a bool as true or false, None as an empty string and a
    tuple as its entries joined by commas."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Canonical echo of the effective configuration.

    Every key of _KEYS that has a value is written, in table order; a key
    whose field is None is left out. Parsing the echo reproduces the
    configuration exactly (the output directory is rendered absolute), so
    re-running a tool on its own echo reproduces its outputs.
    """
    lines: list[str] = []
    for section, keys in _KEYS.items():
        obj = getattr(cfg, section)
        if obj is None:
            continue
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(obj, _FIELD_OF.get(key, key), None)
            if value is not None:
                lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)
