"""Runtime monitors and the boundedness classifier.

Every output step records masses, extrema, Lp norms, the signal-gradient
supremum, the residual of the exact substrate representation
w = w_anchor * exp(-Iv), and the slack of a pointwise lower bound on the
discrete Laplacian of the substrate built from the anchor snapshot and the
accumulated signal integral. A whole run is classified as bounded, growing,
blown up, or inconclusive from its record series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import Field, GridSpec, gradient, integrate, laplacian, lp_norm, magnitude

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelParams
    from .stepper import RunOutcome, SimState, SolverConfig

__all__ = [
    "DiagnosticsRecord",
    "BoundednessVerdict",
    "MassBoundCheck",
    "record",
    "lemma22_check",
    "lemma22_tolerance",
    "representation_residual",
    "mass_bound_check",
    "classify",
    "outcome_verdict",
]

# Classifier thresholds are artifact constants, fixed here so that sweep
# classifications are reproducible.
GROWTH_FACTOR = 2.0
PLATEAU_FRACTION = 0.05

# Curvature-bound tolerance: slack up to C * (h^2 + dt) * scale is attributed
# to discretization error; genuine scheme or accumulator faults show up as
# O(1) violations.
LEMMA22_TOL_FACTOR = 10.0

MASS_BOUND_TOL = 1e-2


@dataclass
class DiagnosticsRecord:
    """Monitored quantities at one output time.

    The fields before lp_u are the time-series columns, in column order.
    """

    t: float
    dt: float
    mass_u: float
    mass_v: float
    min_u: float
    sup_u: float
    min_v: float
    sup_v: float
    min_w: float
    sup_w: float
    sup_grad_v: float
    lemma22_violation: float
    repr_residual: float
    lp_u: tuple[tuple[float, float], ...]

    @property
    def finite(self) -> bool:
        """The six extrema are finite, so every value of u, v and w is. An inf
        Lp norm (|u|^p overflowing on a finite u) does not flag a record."""
        extrema = (self.min_u, self.sup_u, self.min_v, self.sup_v, self.min_w, self.sup_w)
        return all(map(math.isfinite, extrema))


@dataclass
class BoundednessVerdict:
    classification: str  # bounded | growing | blew_up | inconclusive
    max_sup_u: float
    t_of_max: float
    crossing_time: float | None = None


def record(state: SimState, p_list: list[float], *, eta: float = 0.0) -> DiagnosticsRecord:
    """Fill a record from the current state.

    The representation residual and the curvature-bound slack apply to the
    eta = 0 system on a finite state; otherwise they are reported as 0. The
    extrema of u, v and w come from state.field_extrema(), so a non-finite
    state yields a record whose finite property is False.
    """
    ext = state.field_extrema()
    lem = 0.0
    rep = 0.0
    if ext.finite and eta == 0.0:
        lem = float(np.max(lemma22_check(state).values))
        rep = representation_residual(state)
    return DiagnosticsRecord(
        t=state.t,
        dt=state.last_dt,
        mass_u=integrate(state.u),
        mass_v=integrate(state.v),
        min_u=ext.min_u,
        sup_u=ext.max_u,
        min_v=ext.min_v,
        sup_v=ext.max_v,
        min_w=ext.min_w,
        sup_w=ext.max_w,
        sup_grad_v=float(np.max(magnitude(gradient(state.v)).values)),
        lemma22_violation=lem,
        repr_residual=rep,
        lp_u=tuple((float(p), lp_norm(state.u, p)) for p in p_list),
    )


def lemma22_check(state: SimState) -> Field:
    """Pointwise slack of the substrate curvature lower bound.

    With E = exp(-Iv) and Igv = grad Iv, the integral of grad v since the
    anchor (the gradient is linear, so the discrete gradient of the
    trapezoidal Iv is the trapezoidal integral of grad_h v), the bound reads

        lap w(t) >= lap w(s0) E - 2 E grad w(s0) . Igv
                    - w(s0)/e - w(s0) v(t) E,

    and this returns max(0, bound - lap_h w) per cell. Positive entries beyond
    the discretization tolerance indicate a scheme or accumulator fault.
    """
    anchor = state.anchor
    env = np.exp(-state.Iv.values)
    dot = np.zeros_like(env)
    for gw, gi in zip(anchor.grad_w_s0, gradient(state.Iv)):
        dot += gw.values * gi.values
    bound = anchor.lap_w_s0.values * env
    bound -= 2.0 * env * dot
    bound -= anchor.w_s0.values / math.e
    bound -= anchor.w_s0.values * state.v.values * env
    slack = bound - laplacian(state.w).values
    return Field(state.grid, np.maximum(slack, 0.0))


def lemma22_tolerance(state: SimState, dt: float) -> float:
    """Discretization-error budget for the curvature-bound slack."""
    h = max(state.grid.spacing)
    scale = state.anchor.M * (
        1.0
        + float(np.max(state.Iv.values))
        + float(np.max(magnitude(gradient(state.Iv)).values))
    )
    return LEMMA22_TOL_FACTOR * (h * h + dt) * scale


def representation_residual(state: SimState) -> float:
    """sup |w - exp(-Iv) * w_anchor|; exactly zero for the built-in stepper."""
    predicted = np.exp(-state.Iv.values) * state.anchor.w_s0.values
    return float(np.max(np.abs(state.w.values - predicted)))


@dataclass
class MassBoundCheck:
    """Result of the cell-mass bound: integral u(t) <= max(integral u(0), |domain|)."""

    skipped: bool
    passed: bool
    bound: float
    margin: float  # bound minus the worst observed mass (negative = exceeded)


def mass_bound_check(
    series: list[DiagnosticsRecord],
    grid: GridSpec,
    params: ModelParams,
) -> MassBoundCheck:
    """Check mass_u(t) <= max(mass_u(0), |domain|) * (1 + MASS_BOUND_TOL)
    over a series.

    Applies to mu > 0 with no substrate renewal; otherwise the check is
    skipped (the bound's hypothesis does not hold).
    """
    if params.mu <= 0.0 or params.eta != 0.0 or not series:
        return MassBoundCheck(skipped=True, passed=True, bound=math.nan, margin=math.nan)
    bound = max(series[0].mass_u, grid.domain_measure)
    worst = max(r.mass_u for r in series)
    return MassBoundCheck(
        skipped=False,
        passed=worst <= bound * (1.0 + MASS_BOUND_TOL),
        bound=bound,
        margin=bound - worst,
    )


def classify(series: list[DiagnosticsRecord], cfg: SolverConfig) -> BoundednessVerdict:
    """Classify a record series as bounded, growing, blew_up or inconclusive.

    blew_up: a flagged (non-finite) record or sup_u at the blow-up threshold.
    growing: the final sup_u exceeds GROWTH_FACTOR times the first-half max.
    bounded: sup_u varies by under PLATEAU_FRACTION over the final quarter of
    the run and never exceeded GROWTH_FACTOR times its initial value.
    Windows are selected by time fraction, so the verdict is invariant under
    uniform rescaling of the timestamps.
    """
    if not series:
        raise ValueError("classify needs a nonempty series")
    sups = np.array([r.sup_u for r in series])
    times = np.array([r.t for r in series])
    flagged = np.array([not r.finite for r in series])
    crossed = flagged | (sups >= cfg.blowup_threshold)

    finite_sups = sups[~flagged]
    if finite_sups.size:
        max_sup = float(np.max(finite_sups))
        t_of_max = float(times[~flagged][int(np.argmax(finite_sups))])
    else:
        max_sup = math.inf
        t_of_max = float(times[0])

    if crossed.any():
        first = int(np.argmax(crossed))
        return BoundednessVerdict(
            "blew_up", max_sup, t_of_max, crossing_time=float(times[first])
        )

    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    slack = 1e-12 * span
    first_half = sups[times <= t0 + 0.5 * span + slack]
    if sups[-1] > GROWTH_FACTOR * float(np.max(first_half)):
        return BoundednessVerdict("growing", max_sup, t_of_max)

    quarter = sups[times >= t1 - 0.25 * span - slack]
    q_max = float(np.max(quarter))
    q_min = float(np.min(quarter))
    variation = (q_max - q_min) / max(abs(q_max), 1e-300)
    if variation < PLATEAU_FRACTION and max_sup <= GROWTH_FACTOR * float(sups[0]):
        return BoundednessVerdict("bounded", max_sup, t_of_max)
    return BoundednessVerdict("inconclusive", max_sup, t_of_max)


def outcome_verdict(outcome: RunOutcome, seen: BoundednessVerdict) -> BoundednessVerdict:
    """The verdict on a run, given seen = classify(outcome.records, cfg).

    How the run ended comes first: a run that diverged blew up at the time
    of its final state, even where its records are finite, and a run whose
    steps kept failing is inconclusive. Otherwise its records decide. The
    peak of sup u and its time come from the run, which saw every step.
    """
    if outcome.status == "blew_up":
        classification, crossing = "blew_up", outcome.final_state.t
    elif outcome.status == "cfl_failed":
        classification, crossing = "inconclusive", None
    else:
        classification, crossing = seen.classification, seen.crossing_time
    return BoundednessVerdict(
        classification, outcome.max_sup_u, outcome.t_of_max_sup_u, crossing
    )
