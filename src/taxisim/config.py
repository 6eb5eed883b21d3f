"""Flat sectioned key=value configuration: parsing, validation, echo.

The format is plain UTF-8 text with ``[section]`` headers and ``key = value``
assignments (spaces around ``=`` optional, several assignments may share a
line, ``#`` starts a comment). Values must not contain whitespace; lists are
comma separated. Unknown sections, unknown keys and duplicate keys are
rejected, and every value is validated against the target type's invariants
at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .grid import GridSpec
from .model import SCENARIO_NAMES, ModelParams, ScenarioSpec
from .stepper import SolverConfig

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "OutputOptions",
    "SweepSettings",
    "RunConfig",
    "parse_config",
    "render_config",
    "format_number",
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


_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "grid": ("dim", "extent", "cells"),
    "model": ("chi", "xi", "mu", "eta", "tau"),
    "solver": (
        "T_end",
        "output_every",
        "cfl_safety",
        "dt_max",
        "blowup_threshold",
        "anchor_time",
        "time_scheme",
    ),
    "scenario": ("name", "amplitude", "sigma", "center", "wbar", "seed", "u0", "v0", "w0"),
    "outputs": ("dir", "p_values", "snapshots", "cadence"),
    "sweep": ("mode", "fixed_value", "theta_values", "repetitions"),
}


@dataclass(frozen=True)
class OutputOptions:
    directory: Path
    p_values: tuple[float, ...] = (2.0,)
    snapshots: bool = False


@dataclass(frozen=True)
class SweepSettings:
    mode: str
    fixed_value: float
    theta_values: tuple[float, ...]
    repetitions: int = 1


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    model: ModelParams
    solver: SolverConfig
    scenario: ScenarioSpec
    outputs: OutputOptions
    sweep: SweepSettings | None = None


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
            if name not in _SECTION_KEYS:
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
        if key not in _SECTION_KEYS[section]:
            raise ValidationError(f"{section}.{key}", "is not a known key")
        if key in data[section]:
            raise ValidationError(f"{section}.{key}", "is assigned more than once")
        data[section][key] = value
    return data


def _want_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{section}.{key}", f"must be a number, got {raw!r}") from None


def _want_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{section}.{key}", f"must be an integer, got {raw!r}") from None


def _want_bool(section: str, key: str, raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValidationError(f"{section}.{key}", f"must be true or false, got {raw!r}")


def _want_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    return tuple(_want_float(section, key, part) for part in raw.split(","))


def _want_int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    return tuple(_want_int(section, key, part) for part in raw.split(","))


def _build_grid(sec: dict[str, str]) -> GridSpec:
    for key in ("dim", "extent", "cells"):
        if key not in sec:
            raise ValidationError(f"grid.{key}", "is required")
    dim = _want_int("grid", "dim", sec["dim"])
    if dim not in (1, 2, 3):
        raise ValidationError("grid.dim", "must be 1, 2 or 3")
    extent = _want_float_list("grid", "extent", sec["extent"])
    cells = _want_int_list("grid", "cells", sec["cells"])
    if len(extent) != dim:
        raise ValidationError("grid.extent", f"must have {dim} entries")
    if len(cells) != dim:
        raise ValidationError("grid.cells", f"must have {dim} entries")
    if any(x <= 0 for x in extent):
        raise ValidationError("grid.extent", "entries must be > 0")
    if any(n < 2 for n in cells):
        raise ValidationError("grid.cells", "entries must be >= 2")
    return GridSpec(extent, cells)


def _build_model(sec: dict[str, str]) -> ModelParams:
    if "chi" not in sec:
        raise ValidationError("model.chi", "is required")
    chi = _want_float("model", "chi", sec["chi"])
    if not chi > 0.0:
        raise ValidationError("model.chi", "must be > 0")
    xi = _want_float("model", "xi", sec.get("xi", "0"))
    mu = _want_float("model", "mu", sec.get("mu", "0"))
    eta = _want_float("model", "eta", sec.get("eta", "0"))
    if xi < 0.0:
        raise ValidationError("model.xi", "must be >= 0")
    if mu < 0.0:
        raise ValidationError("model.mu", "must be >= 0")
    if eta < 0.0:
        raise ValidationError("model.eta", "must be >= 0")
    tau = _want_int("model", "tau", sec.get("tau", "1"))
    if tau not in (0, 1):
        raise ValidationError("model.tau", "must be 0 or 1")
    return ModelParams(chi=chi, xi=xi, mu=mu, eta=eta, tau=tau)


def _build_solver(sec: dict[str, str]) -> SolverConfig:
    if "T_end" not in sec:
        raise ValidationError("solver.T_end", "is required")
    t_end = _want_float("solver", "T_end", sec["T_end"])
    if not t_end > 0.0:
        raise ValidationError("solver.T_end", "must be > 0")
    kwargs: dict = {"t_end": t_end}
    if "output_every" in sec:
        kwargs["output_every"] = _want_float("solver", "output_every", sec["output_every"])
        if not kwargs["output_every"] > 0.0:
            raise ValidationError("solver.output_every", "must be > 0")
    if "cfl_safety" in sec:
        kwargs["cfl_safety"] = _want_float("solver", "cfl_safety", sec["cfl_safety"])
        if not 0.0 < kwargs["cfl_safety"] <= 1.0:
            raise ValidationError("solver.cfl_safety", "must be in (0, 1]")
    if "dt_max" in sec:
        kwargs["dt_max"] = _want_float("solver", "dt_max", sec["dt_max"])
        if not kwargs["dt_max"] > 0.0:
            raise ValidationError("solver.dt_max", "must be > 0")
    if "blowup_threshold" in sec:
        kwargs["blowup_threshold"] = _want_float(
            "solver", "blowup_threshold", sec["blowup_threshold"]
        )
        if not kwargs["blowup_threshold"] > 0.0:
            raise ValidationError("solver.blowup_threshold", "must be > 0")
    if "anchor_time" in sec:
        kwargs["anchor_time"] = _want_float("solver", "anchor_time", sec["anchor_time"])
        if not 0.0 <= kwargs["anchor_time"] < t_end:
            raise ValidationError("solver.anchor_time", "must be in [0, T_end)")
    if "time_scheme" in sec:
        kwargs["time_scheme"] = sec["time_scheme"]
        if kwargs["time_scheme"] not in ("explicit", "imex-diffusion"):
            raise ValidationError(
                "solver.time_scheme", "must be explicit or imex-diffusion"
            )
    return SolverConfig(**kwargs)


def _build_scenario(sec: dict[str, str], dim: int) -> ScenarioSpec:
    name = sec.get("name", "steady")
    if name not in SCENARIO_NAMES:
        raise ValidationError("scenario.name", f"must be one of {SCENARIO_NAMES}")
    kwargs: dict = {"name": name}
    if "amplitude" in sec:
        kwargs["amplitude"] = _want_float("scenario", "amplitude", sec["amplitude"])
        if kwargs["amplitude"] < 0.0:
            raise ValidationError("scenario.amplitude", "must be >= 0")
    if "sigma" in sec:
        kwargs["sigma"] = _want_float("scenario", "sigma", sec["sigma"])
        if not kwargs["sigma"] > 0.0:
            raise ValidationError("scenario.sigma", "must be > 0")
    if "center" in sec:
        kwargs["center"] = _want_float_list("scenario", "center", sec["center"])
        if len(kwargs["center"]) != dim:
            raise ValidationError("scenario.center", f"must have {dim} entries")
    if "wbar" in sec:
        kwargs["wbar"] = _want_float("scenario", "wbar", sec["wbar"])
        if kwargs["wbar"] < 0.0:
            raise ValidationError("scenario.wbar", "must be >= 0")
    if "seed" in sec:
        kwargs["seed"] = _want_int("scenario", "seed", sec["seed"])
    for key in ("u0", "v0", "w0"):
        if key in sec:
            kwargs[key] = _want_float("scenario", key, sec[key])
            if kwargs[key] < 0.0:
                raise ValidationError(f"scenario.{key}", "must be >= 0")
    return ScenarioSpec(**kwargs)


def _build_outputs(sec: dict[str, str], base_dir: Path) -> OutputOptions:
    directory = Path(sec.get("dir", "out"))
    if not directory.is_absolute():
        directory = (base_dir / directory).resolve()
    p_values = (2.0,)
    if "p_values" in sec:
        p_values = _want_float_list("outputs", "p_values", sec["p_values"])
        if any(p < 1.0 for p in p_values):
            raise ValidationError("outputs.p_values", "entries must be >= 1")
    snapshots = _want_bool("outputs", "snapshots", sec.get("snapshots", "false"))
    return OutputOptions(directory=directory, p_values=p_values, snapshots=snapshots)


def _build_sweep(sec: dict[str, str]) -> SweepSettings:
    for key in ("mode", "fixed_value", "theta_values"):
        if key not in sec:
            raise ValidationError(f"sweep.{key}", "is required")
    mode = sec["mode"]
    if mode not in ("fix_mu_vary_chi", "fix_chi_vary_mu"):
        raise ValidationError("sweep.mode", "must be fix_mu_vary_chi or fix_chi_vary_mu")
    fixed_value = _want_float("sweep", "fixed_value", sec["fixed_value"])
    if not fixed_value > 0.0:
        raise ValidationError("sweep.fixed_value", "must be > 0")
    thetas = _want_float_list("sweep", "theta_values", sec["theta_values"])
    if any(t <= 0.0 for t in thetas):
        raise ValidationError("sweep.theta_values", "entries must be > 0")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValidationError("sweep.theta_values", "must be strictly increasing")
    repetitions = _want_int("sweep", "repetitions", sec.get("repetitions", "1"))
    if repetitions < 1:
        raise ValidationError("sweep.repetitions", "must be >= 1")
    return SweepSettings(
        mode=mode, fixed_value=fixed_value, theta_values=thetas, repetitions=repetitions
    )


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and fully validate a configuration document.

    Relative output paths resolve against base_dir (normally the directory of
    the config file). The [solver] keys output_every defaults to T_end / 50;
    [outputs] cadence, when given, is an alias that must agree with it.
    """
    data = _read_sections(text)
    for required in ("grid", "model", "solver"):
        if required not in data:
            raise ValidationError(f"[{required}]", "section is required")
    grid = _build_grid(data["grid"])
    model = _build_model(data["model"])
    solver = _build_solver(data["solver"])
    scenario = _build_scenario(data.get("scenario", {}), grid.dim)
    out_sec = data.get("outputs", {})
    if "cadence" in out_sec:
        cadence = _want_float("outputs", "cadence", out_sec["cadence"])
        if abs(cadence - solver.output_every) > 1e-12 * solver.output_every:
            raise ValidationError(
                "outputs.cadence", "must agree with solver.output_every"
            )
    outputs = _build_outputs(out_sec, Path(base_dir))
    sweep = _build_sweep(data["sweep"]) if "sweep" in data else None
    return RunConfig(
        grid=grid, model=model, solver=solver, scenario=scenario, outputs=outputs, sweep=sweep
    )


def format_number(x: float) -> str:
    """Shortest decimal text that round-trips the 64-bit value exactly."""
    return repr(float(x))


def _fmt_list(values) -> str:
    return ",".join(format_number(v) for v in values)


def render_config(cfg: RunConfig) -> str:
    """Canonical echo of the effective configuration.

    Parsing the echo reproduces the configuration exactly (the output
    directory is rendered absolute), so re-running a tool on its own echo
    reproduces its outputs.
    """
    lines: list[str] = []
    lines.append("[grid]")
    lines.append(f"dim = {cfg.grid.dim}")
    lines.append(f"extent = {_fmt_list(cfg.grid.extent)}")
    lines.append("cells = " + ",".join(str(n) for n in cfg.grid.cells))
    lines.append("")
    lines.append("[model]")
    lines.append(f"chi = {format_number(cfg.model.chi)}")
    lines.append(f"xi = {format_number(cfg.model.xi)}")
    lines.append(f"mu = {format_number(cfg.model.mu)}")
    lines.append(f"eta = {format_number(cfg.model.eta)}")
    lines.append(f"tau = {cfg.model.tau}")
    lines.append("")
    lines.append("[solver]")
    lines.append(f"T_end = {format_number(cfg.solver.t_end)}")
    lines.append(f"output_every = {format_number(cfg.solver.output_every)}")
    lines.append(f"cfl_safety = {format_number(cfg.solver.cfl_safety)}")
    if cfg.solver.dt_max != float("inf"):
        lines.append(f"dt_max = {format_number(cfg.solver.dt_max)}")
    lines.append(f"blowup_threshold = {format_number(cfg.solver.blowup_threshold)}")
    lines.append(f"anchor_time = {format_number(cfg.solver.anchor_time)}")
    lines.append(f"time_scheme = {cfg.solver.time_scheme}")
    lines.append("")
    lines.append("[scenario]")
    lines.append(f"name = {cfg.scenario.name}")
    lines.append(f"amplitude = {format_number(cfg.scenario.amplitude)}")
    if cfg.scenario.sigma is not None:
        lines.append(f"sigma = {format_number(cfg.scenario.sigma)}")
    if cfg.scenario.center is not None:
        lines.append(f"center = {_fmt_list(cfg.scenario.center)}")
    lines.append(f"wbar = {format_number(cfg.scenario.wbar)}")
    lines.append(f"seed = {cfg.scenario.seed}")
    lines.append(f"u0 = {format_number(cfg.scenario.u0)}")
    lines.append(f"v0 = {format_number(cfg.scenario.v0)}")
    lines.append(f"w0 = {format_number(cfg.scenario.w0)}")
    lines.append("")
    lines.append("[outputs]")
    lines.append(f"dir = {cfg.outputs.directory}")
    lines.append(f"p_values = {_fmt_list(cfg.outputs.p_values)}")
    lines.append(f"snapshots = {'true' if cfg.outputs.snapshots else 'false'}")
    if cfg.sweep is not None:
        lines.append("")
        lines.append("[sweep]")
        lines.append(f"mode = {cfg.sweep.mode}")
        lines.append(f"fixed_value = {format_number(cfg.sweep.fixed_value)}")
        lines.append(f"theta_values = {_fmt_list(cfg.sweep.theta_values)}")
        lines.append(f"repetitions = {cfg.sweep.repetitions}")
    lines.append("")
    return "\n".join(lines)
