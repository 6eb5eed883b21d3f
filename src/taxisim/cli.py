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
from .diagnostics import MassBoundCheck, classify, mass_bound_check, outcome_verdict
from .fileio import (
    read_timeseries,
    render_sweep_summary,
    write_snapshot,
    write_sweep_table,
    write_timeseries,
)
from .grid import GridSpec
from .model import ModelParams, ode_reference
from .stepper import SolverConfig, _outputs_reached, run
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

    print(f"outcome: {outcome.status} (t_final={format_number(outcome.t_final)})")
    if outcome.failure is not None:
        print(f"failure: {outcome.failure}")
    print(f"verdict: {verdict.classification}")
    print(
        "max sup u: "
        + format_number(outcome.max_sup_u)
        + f" at t={format_number(outcome.t_of_max_sup_u)}"
    )
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

    The run's effective.cfg beside the series supplies the grid (domain
    measure), mu, eta and blowup_threshold; --mu, --omega and
    --blowup-threshold override them. Without it the threshold defaults to
    1e6 and the mass bound needs --mu and --omega. A completed run's series
    ends exactly at its T_end; one that stops before it ended early and is
    inconclusive, unless its records show blow-up.
    """
    records, _ = read_timeseries(args.timeseries)
    if not records:
        raise ConfigError(f"{args.timeseries}: no records to check")
    effective = Path(args.timeseries).with_name("effective.cfg")
    run_cfg = _load_config(str(effective)) if effective.is_file() else None

    threshold = args.blowup_threshold
    if threshold is None:
        threshold = run_cfg.solver.blowup_threshold if run_cfg is not None else 1e6
    t_end = max(records[-1].t, 1e-9)
    cfg = SolverConfig(t_end=t_end, output_every=t_end, blowup_threshold=threshold)
    verdict = classify(records, cfg)
    if run_cfg is not None and records[-1].t < run_cfg.solver.t_end:
        print(
            f"ended early: the series stops at t={format_number(records[-1].t)}"
            f" before T_end={format_number(run_cfg.solver.t_end)}"
        )
        if verdict.classification != "blew_up":
            verdict = replace(verdict, classification="inconclusive")
    print(f"verdict: {verdict.classification}")
    print(
        "max sup u: "
        + format_number(verdict.max_sup_u)
        + f" at t={format_number(verdict.t_of_max)}"
    )
    if verdict.crossing_time is not None:
        print(f"crossing time: {format_number(verdict.crossing_time)}")

    grid, params = (run_cfg.grid, run_cfg.model) if run_cfg is not None else (None, None)
    if args.omega is not None:
        grid = GridSpec((args.omega,), (2,))
    if args.mu is not None:
        params = ModelParams(chi=1.0, mu=args.mu) if params is None else replace(params, mu=args.mu)
    if grid is None or params is None:
        print("mass bound: skipped (pass --mu and --omega to evaluate)")
    else:
        _print_mass_bound(mass_bound_check(records, grid, params))
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
    p_check.add_argument(
        "--blowup-threshold", type=float, default=None,
        help="default: the run's effective.cfg, else 1e6",
    )
    p_check.add_argument("--mu", type=float, default=None, help="default: the run's effective.cfg")
    p_check.add_argument(
        "--omega", type=float, default=None, help="domain measure; default: the run's effective.cfg"
    )
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
