"""Parameter sweeps over the taxis-to-damping ratio theta = chi / mu.

Each sweep point runs one independent simulation per repetition, classifies
its boundedness, and the collected table yields an empirical bracket
(theta_lo, theta_hi) around the boundedness threshold when the outcomes are
monotone in theta. Points run serially in plan order (theta index, then
repetition), and seeds derive from the plan seed and the point indices, so a
sweep is deterministic end to end.
"""

from __future__ import annotations

import math
import time
from dataclasses import KW_ONLY, dataclass, replace
from typing import NamedTuple

from .diagnostics import BoundednessVerdict, classify, outcome_verdict
from .grid import GridSpec, _as_float, _as_int
from .model import ModelParams, ScenarioSpec
from .stepper import RunOutcome, SolverConfig, run

__all__ = [
    "SweepPlan",
    "SweepResult",
    "run_sweep",
    "estimate_threshold",
    "check_pe_condition",
    "params_for_theta",
]

SWEEP_MODES = ("fix_mu_vary_chi", "fix_chi_vary_mu")

# A point's scenario seed is base + _SEED_STRIDE * theta_index + repetition, so
# no two points share a seed while repetitions stay at most the stride.
_SEED_STRIDE = 7919


@dataclass(frozen=True)
class SweepPlan:
    """A sweep axis over a base problem: the [sweep] section of a config
    plus the config's model, solver, scenario and grid.

    fix_mu_vary_chi holds mu = fixed_value and sets chi = theta * mu;
    fix_chi_vary_mu holds chi = fixed_value and sets mu = chi / theta.
    """

    mode: str
    fixed_value: float
    theta_values: tuple[float, ...]
    repetitions: int = 1
    _: KW_ONLY
    base_model: ModelParams
    base_solver: SolverConfig
    scenario: ScenarioSpec
    grid: GridSpec

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be {' or '.join(SWEEP_MODES)}")
        fixed_value = _as_float(self.fixed_value, "fixed_value", 0, math.inf)
        object.__setattr__(self, "fixed_value", fixed_value)
        thetas = tuple(_as_float(t, "theta_values entry", 0, math.inf) for t in self.theta_values)
        object.__setattr__(self, "theta_values", thetas)
        if not thetas:
            raise ValueError("theta_values must be nonempty")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("theta_values must be strictly increasing")
        repetitions = _as_int(self.repetitions, "repetitions", 1, math.inf)
        object.__setattr__(self, "repetitions", repetitions)
        if self.repetitions > _SEED_STRIDE:
            raise ValueError(
                f"repetitions must be at most {_SEED_STRIDE}, the seed stride"
                " between theta values, so that no two points share a seed"
            )


@dataclass
class SweepResult:
    theta: float
    chi: float
    mu: float
    repetition: int
    verdict: BoundednessVerdict
    max_sup_u: float
    wall_time: float
    pe_condition: bool
    outcome: RunOutcome | None = None
    failure: str | None = None  # "<Type>: <message>" of what stopped or ended the run


def _coefficients(plan: SweepPlan, theta: float) -> tuple[float, float]:
    """(chi, mu) of the sweep point at theta; either may overflow to inf."""
    if plan.mode == "fix_mu_vary_chi":
        return theta * plan.fixed_value, plan.fixed_value
    return plan.fixed_value, plan.fixed_value / theta


def params_for_theta(plan: SweepPlan, theta: float) -> ModelParams:
    chi, mu = _coefficients(plan, theta)
    return replace(plan.base_model, chi=chi, mu=mu)


def check_pe_condition(params: ModelParams, dim: int) -> bool:
    """Sufficient boundedness condition for the slaved-signal (tau = 0) regime:
    mu > ((dim - 2)_+ / dim) * chi."""
    dim = _as_int(dim, "dim", 1, 3)
    return params.mu > (max(dim - 2, 0) / dim) * params.chi


def _derived_seed(base: int, theta_index: int, repetition: int) -> int:
    return base + _SEED_STRIDE * theta_index + repetition


def _execute_point(
    plan: SweepPlan, theta_index: int, repetition: int, keep_outcome: bool
) -> SweepResult:
    theta = plan.theta_values[theta_index]
    chi, mu = _coefficients(plan, theta)
    scenario = plan.scenario.with_seed(
        _derived_seed(plan.scenario.seed, theta_index, repetition)
    )
    pe = False  # stays False for a point whose model cannot be built
    tic = time.perf_counter()
    try:
        model = params_for_theta(plan, theta)
        pe = check_pe_condition(model, plan.grid.dim)
        init = scenario.build(plan.grid)
        outcome = run(init, model, plan.base_solver)
        seen = classify(outcome.records, plan.base_solver)
        verdict = outcome_verdict(seen, outcome.status, outcome.final_state.t)
        failure = outcome.failure
    except ValueError as exc:
        # Initial data or a model that cannot run fails this point only;
        # any other exception is a bug and propagates.
        failure = f"{type(exc).__name__}: {exc}"
        outcome = None
        verdict = BoundednessVerdict("inconclusive", math.nan, math.nan)
    wall = time.perf_counter() - tic
    return SweepResult(
        theta=theta,
        chi=chi,
        mu=mu,
        repetition=repetition,
        verdict=verdict,
        max_sup_u=verdict.max_sup_u,
        wall_time=wall,
        pe_condition=pe,
        outcome=outcome if keep_outcome else None,
        failure=failure,
    )


def run_sweep(plan: SweepPlan, *, keep_outcomes: bool = False) -> list[SweepResult]:
    """Run every (theta, repetition) point serially, in plan order."""
    return [
        _execute_point(plan, i, rep, keep_outcomes)
        for i in range(len(plan.theta_values))
        for rep in range(plan.repetitions)
    ]


class _ThetaScan(NamedTuple):
    """A sweep table read theta by theta, in increasing order, up to the
    first all-bounded theta above a not-bounded one (bounded_above), which
    breaks monotony. theta_lo is the last all-bounded theta before the first
    not-bounded one (first_unbounded), theta_hi the first theta with a
    blew_up or growing verdict; each is None when there is none."""

    theta_lo: float | None
    theta_hi: float | None
    first_unbounded: float | None
    bounded_above: float | None

    @property
    def bracket(self) -> tuple[float, float] | None:
        """(theta_lo, theta_hi) when the scan is monotone and has both."""
        if self.bounded_above is not None or self.theta_lo is None or self.theta_hi is None:
            return None
        return (self.theta_lo, self.theta_hi)


def _scan_thetas(results: list[SweepResult]) -> _ThetaScan:
    groups: dict[float, list[str]] = {}
    for res in results:
        groups.setdefault(res.theta, []).append(res.verdict.classification)

    theta_lo = theta_hi = first_unbounded = None
    for theta in sorted(groups):
        cls = groups[theta]
        if all(c == "bounded" for c in cls):
            if first_unbounded is not None:
                return _ThetaScan(theta_lo, theta_hi, first_unbounded, theta)
            theta_lo = theta
        else:
            if first_unbounded is None:
                first_unbounded = theta
            if theta_hi is None and any(c in ("blew_up", "growing") for c in cls):
                theta_hi = theta
    return _ThetaScan(theta_lo, theta_hi, first_unbounded, None)


def estimate_threshold(results: list[SweepResult]) -> tuple[float, float] | None:
    """Bracket the boundedness threshold from a sweep table.

    Returns (theta_lo, theta_hi) with theta_lo the largest theta whose
    repetitions all classified bounded and theta_hi the smallest theta with
    any blew_up or growing verdict, provided the outcomes are monotone in
    theta (no all-bounded theta above a non-bounded one). Growing and
    inconclusive verdicts count as not bounded. Otherwise returns None.
    """
    return _scan_thetas(results).bracket
