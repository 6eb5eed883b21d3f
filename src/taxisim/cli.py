"""Command-line entry points: run, sweep, ode, check.

Exit codes: 0 on completion, 1 on configuration or input errors, 2 when a
simulation ends in divergence, blow-up or a step failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, ValidationError, format_number, parse_config, render_config
from .diagnostics import BoundednessVerdict, MassBoundCheck, classify, mass_bound_check, outcome_verdict
from .fileio import (
    read_text,
    read_timeseries,
    render_sweep_summary,
    write_snapshot,
    write_sweep_table,
    write_text,
    write_timeseries,
)
from .model import _rk4_samples
from .stepper import _outputs_reached, run
from .sweep import estimate_threshold, run_sweep

__all__ = ["main"]


def _load_config(path_text: str) -> RunConfig:
    path = Path(path_text)
    return parse_config(read_text(path, "config"), base_dir=path.parent)


def _prepare_outdir(cfg: RunConfig) -> Path:
    outdir = cfg.outputs.directory
    write_text(outdir / "effective.cfg", "effective config", render_config(cfg), parents=True)
    return outdir


def _report(verdict: BoundednessVerdict, mass: MassBoundCheck) -> None:
    """Print the verdict block: run prints it and check repeats it."""
    print(f"verdict: {verdict.classification}")
    print(f"max sup u: {format_number(verdict.max_sup_u)} at t={format_number(verdict.t_of_max)}")
    if verdict.crossing_time is not None:
        print(f"crossing time: {format_number(verdict.crossing_time)}")
    if mass.skipped:
        print("mass bound: skipped (needs mu > 0 and eta = 0)")
    else:
        print(
            f"mass bound: {'pass' if mass.passed else 'FAIL'}"
            + f" (bound={format_number(mass.bound)}, margin={format_number(mass.margin)})"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    outdir = _prepare_outdir(cfg)
    init = cfg.scenario.build(cfg.grid)

    snapshot_sink = None
    if cfg.outputs.snapshots:
        counter = {"i": 0}

        def snapshot_sink(state) -> None:
            write_snapshot(state, outdir / f"snapshot_{counter['i']:06d}.dat")
            counter["i"] += 1

    outcome = run(
        init,
        cfg.model,
        cfg.solver,
        p_list=cfg.outputs.p_values,
        snapshot_sink=snapshot_sink,
    )
    series_path = write_timeseries(
        outcome.records, outdir / "timeseries.csv", cfg.outputs.p_values
    )
    seen = classify(outcome.records, cfg.solver)
    verdict = outcome_verdict(seen, outcome.status, outcome.final_state.t)
    mass = mass_bound_check(outcome.records, cfg.grid, cfg.model)

    print(f"outcome: {outcome.status} (t_final={format_number(outcome.final_state.t)})")
    if outcome.failure is not None:
        print(f"failure: {outcome.failure}")
    _report(verdict, mass)
    print(f"wrote {series_path}")
    return 0 if outcome.status == "completed" else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.sweep is None:
        raise ValidationError("[sweep]", "section is required for the sweep command")
    outdir = _prepare_outdir(cfg)
    results = run_sweep(cfg.sweep)
    table_path = write_sweep_table(results, outdir / "sweep.csv")
    bracket = estimate_threshold(results)
    summary = render_sweep_summary(results, bracket, cfg.model.tau)
    write_text(outdir / "sweep_summary.txt", "sweep summary", summary)
    print(summary, end="")
    print(f"wrote {table_path}")
    return 0


def _cmd_ode(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if not cfg.scenario.is_homogeneous():
        raise ValidationError(
            "scenario.name", "must be steady or constant for the ode command"
        )
    outdir = _prepare_outdir(cfg)
    y0 = cfg.scenario.homogeneous_values()
    dt = cfg.solver.dt_max if cfg.solver.dt_max != float("inf") else cfg.solver.t_end / 1000.0

    # Thin to the output cadence while integrating, with run's output-index
    # rule: the first sample to reach each k * output_every, plus the first
    # and last samples.
    out = cfg.solver.output_every
    lines = ["t,u,v,w"]
    emitted = -1
    unwritten = None  # the last sample, while no row holds it
    for t, y, diverged in _rk4_samples(cfg.model, y0, cfg.solver.t_end, dt):
        reached = _outputs_reached(t, out)
        if reached > emitted:
            lines.append(",".join(format_number(x) for x in (t, *y)))
            emitted, unwritten = reached, None
        else:
            unwritten = (t, *y)
    if unwritten is not None:
        lines.append(",".join(format_number(x) for x in unwritten))
    path = write_text(outdir / "ode.csv", "ode trajectory", "\n".join(lines) + "\n")
    print(f"wrote {path}")
    if diverged:
        print("trajectory diverged")
        return 2
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Re-run the classifier and the mass bound on a saved series.

    The run's effective.cfg beside the series supplies the grid, the model
    and the solver settings; a series without one is an error. A completed
    run's series ends exactly at its T_end; one that stops before it ended
    early, which outcome_verdict judges as run judges an early stop.
    """
    records, _ = read_timeseries(args.timeseries)
    if not records:
        raise ConfigError(f"{args.timeseries}: no records to check")
    run_cfg = _load_config(str(Path(args.timeseries).with_name("effective.cfg")))

    status = "completed"
    if records[-1].t < run_cfg.solver.t_end:
        print(
            f"ended early: the series stops at t={format_number(records[-1].t)}"
            f" before T_end={format_number(run_cfg.solver.t_end)}"
        )
        status = "ended early"
    verdict = outcome_verdict(classify(records, run_cfg.solver), status, records[-1].t)
    _report(verdict, mass_bound_check(records, run_cfg.grid, run_cfg.model))
    return 0


# Each command: its handler, its help, and the name and help of its one
# path argument.
_COMMANDS = {
    "run": (_cmd_run, "run a single simulation", "config", "path to a configuration file"),
    "sweep": (_cmd_sweep, "run a theta sweep", "config", "path to a configuration file with [sweep]"),
    "ode": (_cmd_ode, "homogeneous reference trajectory", "config", "path to a configuration file"),
    "check": (_cmd_check, "re-evaluate checks on a saved series", "timeseries", "path to a timeseries.csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxisim",
        description="Structured-grid simulator for a cell/signal/substrate "
        "taxis system with runtime bound monitors and parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, path, path_help) in _COMMANDS.items():
        sub.add_parser(name, help=help_text).add_argument(path, help=path_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
