"""Command-line entry points: run, sweep, ode, check.

Exit codes: 0 on completion, 1 on configuration or input errors, 2 when a
simulation ends in divergence, blow-up or a step failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, RunConfig, ValidationError, format_number, parse_config, render_config
from .diagnostics import BoundednessVerdict, MassBoundCheck, classify, mass_bound_check, outcome_verdict
from .fileio import (
    read_timeseries,
    render_sweep_summary,
    write_snapshot,
    write_sweep_table,
    write_timeseries,
)
from .model import ode_reference
from .stepper import _outputs_reached, run
from .sweep import SweepPlan, estimate_threshold, run_sweep

__all__ = ["main"]


def _load_config(path_text: str) -> RunConfig:
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent)


def _prepare_outdir(cfg: RunConfig) -> Path:
    outdir = cfg.outputs.directory
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "effective.cfg").write_text(render_config(cfg), encoding="utf-8")
    return outdir


def _print_verdict(verdict: BoundednessVerdict) -> None:
    print(f"verdict: {verdict.classification}")
    print(f"max sup u: {format_number(verdict.max_sup_u)} at t={format_number(verdict.t_of_max)}")


def _print_mass_bound(mass: MassBoundCheck) -> None:
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
    verdict = outcome_verdict(outcome, classify(outcome.records, cfg.solver))
    mass = mass_bound_check(outcome.records, cfg.grid, cfg.model)

    print(f"outcome: {outcome.status} (t_final={format_number(outcome.final_state.t)})")
    if outcome.failure is not None:
        print(f"failure: {outcome.failure}")
    _print_verdict(verdict)
    _print_mass_bound(mass)
    print(f"wrote {series_path}")
    return 0 if outcome.status == "completed" else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.sweep is None:
        raise ValidationError("[sweep]", "section is required for the sweep command")
    outdir = _prepare_outdir(cfg)
    plan = SweepPlan(
        **vars(cfg.sweep),
        base_model=cfg.model,
        base_solver=cfg.solver,
        scenario=cfg.scenario,
        grid=cfg.grid,
    )
    results = run_sweep(plan)
    table_path = write_sweep_table(results, outdir / "sweep.csv")
    bracket = estimate_threshold(results)
    summary = render_sweep_summary(results, bracket, cfg.model.tau)
    (outdir / "sweep_summary.txt").write_text(summary, encoding="utf-8")
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
    traj = ode_reference(cfg.model, y0, cfg.solver.t_end, dt)

    # Thin to the output cadence with run's output-index rule: the first
    # sample to reach each k * output_every, plus the first and last samples.
    out = cfg.solver.output_every
    lines = ["t,u,v,w"]
    emitted = -1
    for i, t in enumerate(traj.times):
        reached = _outputs_reached(t, out)
        if reached > emitted or i == len(traj.times) - 1:
            u, v, w = traj.states[i]
            lines.append(",".join(format_number(x) for x in (t, u, v, w)))
            emitted = reached
    path = outdir / "ode.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    if traj.diverged:
        print("trajectory diverged")
        return 2
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Re-run the classifier and the mass bound on a saved series.

    The run's effective.cfg beside the series supplies the grid, the model
    and the solver settings; a series without one is an error. A completed
    run's series ends exactly at its T_end; one that stops before it ended
    early and is inconclusive, unless its records show blow-up.
    """
    records, _ = read_timeseries(args.timeseries)
    if not records:
        raise ConfigError(f"{args.timeseries}: no records to check")
    run_cfg = _load_config(str(Path(args.timeseries).with_name("effective.cfg")))

    verdict = classify(records, run_cfg.solver)
    if records[-1].t < run_cfg.solver.t_end:
        print(
            f"ended early: the series stops at t={format_number(records[-1].t)}"
            f" before T_end={format_number(run_cfg.solver.t_end)}"
        )
        if verdict.classification != "blew_up":
            verdict = replace(verdict, classification="inconclusive")
    _print_verdict(verdict)
    if verdict.crossing_time is not None:
        print(f"crossing time: {format_number(verdict.crossing_time)}")
    _print_mass_bound(mass_bound_check(records, run_cfg.grid, run_cfg.model))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxisim",
        description="Structured-grid simulator for a cell/signal/substrate "
        "taxis system with runtime bound monitors and parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single simulation")
    p_run.add_argument("config", help="path to a configuration file")

    p_sweep = sub.add_parser("sweep", help="run a theta sweep")
    p_sweep.add_argument("config", help="path to a configuration file with [sweep]")

    p_ode = sub.add_parser("ode", help="homogeneous reference trajectory")
    p_ode.add_argument("config", help="path to a configuration file")

    p_check = sub.add_parser("check", help="re-evaluate checks on a saved series")
    p_check.add_argument("timeseries", help="path to a timeseries.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "ode": _cmd_ode,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
