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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridSpec, _max, _min, gradient, integrate, laplacian, lp_norm, magnitude, sup_norm

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelParams
    from .stepper import SimState, SolverConfig

__all__ = [
    "DiagnosticsRecord",
    "BoundednessVerdict",
    "MassBoundCheck",
    "record",
    "lemma22_tolerance",
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
    peak_u is the largest sup u over the steps the run accepted since the
    previous record, this state included, and t_peak_u the time of it. The
    t = 0 record holds its own sup u at 0; a window with no finite state
    holds -inf at nan.
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
    peak_u: float
    t_peak_u: float
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


def record(
    state: SimState,
    p_list: list[float],
    *,
    eta: float,
    peak: tuple[float, float] | None = None,
) -> DiagnosticsRecord:
    """Fill a record from the current state.

    peak is (peak_u, t_peak_u), the peak of sup u over the record's window
    of steps, which run keeps; without it the window is the state alone.
    The representation residual and the curvature-bound slack apply to the
    eta = 0 system on a finite state; otherwise they are reported as 0. eta
    is the run's renewal rate and has no default, since the eta = 0 monitors
    read a renewing substrate as a scheme fault. The extrema of u, v and w
    are the state's own, so a non-finite state yields a record whose finite
    property is False.
    """
    ext = state.extrema
    peak_u, t_peak_u = (ext.max_u, state.t) if peak is None else peak
    lem = rep = 0.0
    if ext.finite and eta == 0.0:
        lem, rep = _substrate_monitors(state)
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
        sup_grad_v=_max(magnitude(gradient(state.v)).values),
        lemma22_violation=lem,
        repr_residual=rep,
        peak_u=peak_u,
        t_peak_u=t_peak_u,
        lp_u=tuple((float(p), lp_norm(state.u, p)) for p in p_list),
    )


def _substrate_monitors(state: SimState) -> tuple[float, float]:
    """(curvature-bound violation, representation residual) of a state.

    With E = exp(-Iv) and Igv = grad Iv, the integral of grad v since the
    anchor (the gradient is linear, so the discrete gradient of the
    trapezoidal Iv is the trapezoidal integral of grad_h v), the curvature
    lower bound reads

        lap w(t) >= lap w(s0) E - 2 E grad w(s0) . Igv
                    - w(s0)/e - w(s0) v(t) E,

    and the violation is the largest slack max(0, bound - lap_h w) over the
    cells; beyond the discretization tolerance it indicates a scheme or
    accumulator fault. The residual is sup |w - E w(s0)|, exactly zero for
    the built-in stepper. E is computed once for both.
    """
    anchor = state.anchor
    env = np.exp(-state.Iv.values)
    dot = np.zeros_like(env)
    for gw, gi in zip(anchor.grad_w_s0, gradient(state.Iv)):
        dot += gw.values * gi.values
    slack = anchor.lap_w_s0.values * env
    slack -= 2.0 * env * dot
    slack -= anchor.w_s0.values / math.e
    slack -= anchor.w_s0.values * state.v.values * env
    slack -= laplacian(state.w).values
    worst = _max(slack)
    violation = 0.0 if worst <= 0.0 else worst  # a NaN slack stays NaN
    residual = _max(np.abs(state.w.values - env * anchor.w_s0.values))
    return violation, residual


def lemma22_tolerance(state: SimState, dt: float) -> float:
    """Discretization-error budget for the curvature-bound slack,
    10 (h^2 + dt) M (1 + max Iv + max |grad Iv|), h the largest spacing: M is
    the largest of the anchor's extrema maxima, sup |grad w| and sup |lap w|."""
    anchor = state.anchor
    ext = anchor.extrema
    m = max(ext.max_u, ext.max_v, ext.max_w,
            sup_norm(magnitude(anchor.grad_w_s0)), sup_norm(anchor.lap_w_s0))
    h = max(state.grid.spacing)
    scale = m * (
        1.0
        + _max(state.Iv.values)
        + _max(magnitude(gradient(state.Iv)).values)
    )
    return LEMMA22_TOL_FACTOR * (h * h + dt) * scale


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


def series_peak(series: list[DiagnosticsRecord]) -> tuple[float, float]:
    """The peak of sup u over every state a run accepted, and its time: the
    largest finite peak_u of its records (the first on a tie) with its
    t_peak_u. A record flagged non-finite still carries the finite peak of
    the steps before it. (inf, the first record's t) when no peak is finite.
    """
    finite = [rec for rec in series if math.isfinite(rec.peak_u)]
    if not finite:
        return math.inf, float(series[0].t)
    best = max(finite, key=lambda rec: rec.peak_u)
    return best.peak_u, best.t_peak_u


def classify(series: list[DiagnosticsRecord], cfg: SolverConfig) -> BoundednessVerdict:
    """Classify a record series as bounded, growing, blew_up or inconclusive.

    blew_up: a flagged (non-finite) record or sup_u above the blow-up threshold.
    growing: the final sup_u exceeds GROWTH_FACTOR times the first-half max.
    bounded: sup_u varies by under PLATEAU_FRACTION over the final quarter of
    the run and never exceeded GROWTH_FACTOR times its initial value.
    The rules read the records' sup_u; the verdict reports the peak of sup u
    over the run's steps and its time, from the records' peak_u (see
    series_peak).
    Windows are selected by time fraction, so the verdict is invariant under
    uniform rescaling of the timestamps.
    """
    if not series:
        raise ValueError("classify needs a nonempty series")
    sups = np.array([r.sup_u for r in series])
    times = np.array([r.t for r in series])
    flagged = np.array([not r.finite for r in series])
    crossed = flagged | cfg.above_threshold(sups)
    max_sup, t_of_max = series_peak(series)

    if crossed.any():
        first = int(np.argmax(crossed))
        return BoundednessVerdict(
            "blew_up", max_sup, t_of_max, crossing_time=float(times[first])
        )

    t0, t1 = float(times[0]), float(times[-1])
    span = t1 - t0
    slack = 1e-12 * span
    first_half = sups[times <= t0 + 0.5 * span + slack]
    if sups[-1] > GROWTH_FACTOR * _max(first_half):
        return BoundednessVerdict("growing", max_sup, t_of_max)

    quarter = sups[times >= t1 - 0.25 * span - slack]
    q_max = _max(quarter)
    q_min = _min(quarter)
    variation = (q_max - q_min) / max(abs(q_max), 1e-300)
    if variation < PLATEAU_FRACTION and _max(sups) <= GROWTH_FACTOR * float(sups[0]):
        return BoundednessVerdict("bounded", max_sup, t_of_max)
    return BoundednessVerdict("inconclusive", max_sup, t_of_max)


def outcome_verdict(seen: BoundednessVerdict, status: str, t_final: float) -> BoundednessVerdict:
    """The verdict on a run that ended with status at t_final, given
    seen = classify(records, cfg). How it ended comes first: a run that
    diverged ("blew_up") blew up at t_final, even where its records are
    finite; a completed run is judged by its records; any other end is
    inconclusive unless its records show blow-up. The peak of sup u and its
    time come from the records, as seen reports them.
    """
    if status == "blew_up":
        return replace(seen, classification="blew_up", crossing_time=t_final)
    if status == "completed" or seen.classification == "blew_up":
        return seen
    return replace(seen, classification="inconclusive", crossing_time=None)
