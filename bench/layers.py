"""Per-layer metrics: micro-benchmarks of single layers, and numbers derived
from the spans of traced commands.

Layers are taxisim's modules: grid, model, stepper, diagnostics, sweep,
config and fileio. Time metrics from spans are inclusive of the callee's
children unless named self_frac; self_frac is a layer's self time over the
wall time of the traced commands.
"""

from __future__ import annotations

import math
import statistics
import timeit
from collections import Counter

import numpy as np

from tracer import LAYER_OF, ROOT, self_times

KERNELS = ("laplacian", "gradient", "taxis_divergence")

# (extent per axis, cells per axis, dim). The largest array, 3d32, is
# 256 KiB, so every size fits in L2 and no roofline ratio is reported.
SIZES = {
    "1d64": (6.0, 64, 1),
    "2d64": (6.0, 64, 2),
    "3d16": (3.0, 16, 3),
    "3d32": (3.0, 32, 3),
}
WORK_SIZES = ("2d64", "3d16")
# span_metrics also returns these; they depend on how many commands fit into
# the run, so they are kept in the result record but are not metrics.
TAIL_DETAIL = ("stepper.step.tail_pct", "stepper.step.samples")
SOLVE_SIZES = ("2d64", "3d16", "3d32")

# Ordered (name, unit) of every per-layer metric the traced run reports.
PER_LAYER = (
    [(f"grid.{k}.us.{s}", "us") for k in KERNELS for s in SIZES]
    + [(f"grid.{k}.flop.{s}", "flop.computed") for k in KERNELS for s in WORK_SIZES]
    + [(f"grid.{k}.bytes.{s}", "bytes.computed") for k in KERNELS for s in WORK_SIZES]
    + [(f"grid.{k}.calls_per_step", "calls/step") for k in KERNELS]
    + [
        ("grid.self_frac", "frac"),
        ("model.rhs_u.us_per_call", "us"),
        ("model.self_frac", "frac"),
        ("model.scenario_build_ms", "ms"),
        ("stepper.step.us_p50", "us"),
        ("stepper.step.us_tail", "us"),
        ("stepper.steps", "count"),
        ("stepper.dt_halvings", "count"),
        ("stepper.stable_dt.us_per_call", "us"),
        ("stepper.laplacian_calls_per_step", "calls/step"),
        ("stepper.self_frac", "frac"),
    ]
    + [(f"stepper.solve_elliptic.ms.{s}", "ms") for s in SOLVE_SIZES]
    + [(f"stepper.solve_elliptic.iters.{s}", "count") for s in SOLVE_SIZES]
    + [
        ("diagnostics.record.us_per_call", "us"),
        ("diagnostics.records", "count"),
        ("diagnostics.self_frac", "frac"),
        ("diagnostics.classify.ms", "ms"),
        ("sweep.points", "count"),
        ("sweep.point_s_p50", "s"),
        ("sweep.wall_s.w1", "s"),
        ("sweep.wall_s.w2", "s"),
        ("sweep.speedup_w2", "ratio"),
        ("config.parse_config.us", "us"),
        ("config.render_config.us", "us"),
        ("fileio.write.ms", "ms"),
        ("fileio.bytes_written", "bytes"),
        ("trace.overhead_frac", "frac"),
    ]
)


def best_seconds_per_call(fn, repeat: int = 5, budget: float = 0.02) -> float:
    """timeit repeat-min: seconds per call of fn, with each repeat ~budget s."""
    timer = timeit.Timer(fn)
    number = max(1, int(budget / max(timer.timeit(1), 1e-9)))
    return min(timer.repeat(repeat=repeat, number=number)) / number


def _grid(taxisim, size: str):
    extent, n, dim = SIZES[size]
    return taxisim.GridSpec((extent,) * dim, (n,) * dim)


def _smooth(taxisim, grid, phase: float):
    """1 + 0.5 prod cos(pi x / L + phase): smooth, positive, non-symmetric."""
    values = np.ones(grid.cells)
    for x, length in zip(grid.meshgrid(), grid.extent):
        values = values * np.cos(np.pi * x / length + phase)
    return taxisim.Field.from_nd(grid, 1.0 + 0.5 * values)


def computed_work(kernel: str, size: str) -> tuple[float, float]:
    """(flop, bytes) of one kernel call, computed from array sizes.

    flop counts the arithmetic of the stencil formulas in taxisim.grid;
    bytes counts each float64 input read once and each output written once,
    so numpy temporaries and cache misses are not included.
    """
    _, n, dim = SIZES[size]
    cells = n**dim
    if kernel == "laplacian":
        # interior: sub, mul, add, mul, add; boundary cells: sub, mul, add
        flop = dim * (5 * cells * (n - 2) / n + 3 * 2 * cells / n)
        arrays = 2
    elif kernel == "gradient":
        flop = dim * 2 * cells  # difference and scale per component
        arrays = 1 + dim
    else:
        # per face: difference, scale, two compares, mean (2), flux (2), scatter (2)
        flop = dim * 10 * cells * (n - 1) / n
        arrays = 3
    return float(flop), float(8 * arrays * cells)


def micro_metrics(taxisim, cfg, cfg_text: str, base_dir) -> dict[str, float]:
    """Layer timings that need no workload run: stencils, elliptic solves,
    scenario build and config parse/render."""
    import taxisim.stepper as stepper_mod

    out: dict[str, float] = {}
    for size in SIZES:
        grid = _grid(taxisim, size)
        f = _smooth(taxisim, grid, 0.3)
        p = _smooth(taxisim, grid, 1.1)
        calls = {
            "laplacian": lambda: taxisim.laplacian(f),
            "gradient": lambda: taxisim.gradient(f),
            "taxis_divergence": lambda: taxisim.taxis_divergence(f, p, 1.0),
        }
        for kernel, call in calls.items():
            out[f"grid.{kernel}.us.{size}"] = 1e6 * best_seconds_per_call(call)
    for kernel in KERNELS:
        for size in WORK_SIZES:
            flop, nbytes = computed_work(kernel, size)
            out[f"grid.{kernel}.flop.{size}"] = flop
            out[f"grid.{kernel}.bytes.{size}"] = nbytes

    solver_cfg = taxisim.SolverConfig(t_end=1.0)  # default elliptic tolerance
    for size in SOLVE_SIZES:
        rhs = _smooth(taxisim, _grid(taxisim, size), 0.3)
        out[f"stepper.solve_elliptic.ms.{size}"] = 1e3 * best_seconds_per_call(
            lambda: taxisim.solve_elliptic(rhs, solver_cfg), repeat=3, budget=0.0
        )
        # CG applies the operator once for the initial residual and once per
        # iteration, each through taxisim.stepper.laplacian.
        original = stepper_mod.laplacian
        calls = Counter()

        def counting(field, _original=original):
            calls["laplacian"] += 1
            return _original(field)

        stepper_mod.laplacian = counting
        try:
            taxisim.solve_elliptic(rhs, solver_cfg)
        finally:
            stepper_mod.laplacian = original
        out[f"stepper.solve_elliptic.iters.{size}"] = float(calls["laplacian"] - 1)

    out["model.scenario_build_ms"] = 1e3 * best_seconds_per_call(lambda: cfg.scenario.build(cfg.grid))
    out["config.parse_config.us"] = 1e6 * best_seconds_per_call(
        lambda: taxisim.parse_config(cfg_text, base_dir=base_dir)
    )
    out["config.render_config.us"] = 1e6 * best_seconds_per_call(lambda: taxisim.render_config(cfg))
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of 99.9/99/95/90/75/50 that has
    at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return 50.0, statistics.median(ordered)


def span_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the traced commands, whose roots are ROOT spans.

    Counts are per command; every traced command runs the same input, so
    they are exact and repeat between runs.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    roots = by_name[ROOT]
    commands = len(roots)
    wall = sum(r.duration for r in roots)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def mean_duration(*names) -> float:
        hits = named(*names)
        return statistics.fmean(s.duration for s in hits) if hits else 0.0

    steps = named("stepper.step")
    total_steps = len(steps)
    step_of = {s.sid: s for s in steps if s.value is not None}  # None: step raised
    halvings = sum(
        round(math.log2(s.value / step_of[s.parent].value))
        for s in named("stepper.stable_dt")
        if s.parent in step_of
    )
    kernel_calls: Counter = Counter()
    for name, hits in by_name.items():
        kernel_calls[name.split(".", 1)[1]] += len(hits)
    own = self_times(spans)
    per_layer: Counter = Counter()
    for s in spans:
        per_layer[LAYER_OF[s.name]] += own[s.sid]

    step_us = [1e6 * s.duration for s in steps]
    tail_pct, tail_us = tail(step_us)
    out = {
        f"grid.{k}.calls_per_step": kernel_calls[k] / total_steps for k in KERNELS
    }
    out.update(
        {
            "grid.self_frac": per_layer["grid"] / wall,
            "model.rhs_u.us_per_call": 1e6 * mean_duration("stepper.rhs_u"),
            "model.self_frac": per_layer["model"] / wall,
            "stepper.step.us_p50": statistics.median(step_us),
            "stepper.step.us_tail": tail_us,
            "stepper.step.tail_pct": tail_pct,
            "stepper.step.samples": float(total_steps),
            "stepper.steps": total_steps / commands,
            "stepper.dt_halvings": halvings / commands,
            "stepper.stable_dt.us_per_call": 1e6 * mean_duration("stepper.stable_dt"),
            "stepper.laplacian_calls_per_step": len(named("stepper.laplacian")) / total_steps,
            "stepper.self_frac": per_layer["stepper"] / wall,
            "diagnostics.record.us_per_call": 1e6 * mean_duration("diagnostics.record"),
            "diagnostics.records": len(named("diagnostics.record")) / commands,
            "diagnostics.self_frac": per_layer["diagnostics"] / wall,
            "diagnostics.classify.ms": 1e3 * mean_duration("cli.classify", "sweep.classify"),
            "fileio.write.ms": 1e3 * mean_duration("cli.write_timeseries", "cli.write_sweep_table"),
        }
    )
    return out


def sweep_span_metrics(spans) -> dict[str, float]:
    """Points per sweep command and the median point time (its stepper.run)."""
    commands = sum(1 for s in spans if s.name == ROOT)
    points = [s.duration for s in spans if s.name == "sweep.run"]
    return {
        "sweep.points": len(points) / commands,
        "sweep.point_s_p50": statistics.median(points),
    }
