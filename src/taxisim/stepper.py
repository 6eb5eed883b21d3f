"""Time integration with positivity safeguards and step-size control.

A step takes its size from stable_dt, which also names the limit that set
it and the time the step must land on, and then runs three phases in a fixed
order, each a module-level function:

- _signal_phase advances the signal v (explicit Euler, an implicit-diffusion
  variant, or a screened Poisson solve when it is slaved to the cells; both
  implicit variants call the exact cosine-transform solve that grid plans
  and runs);
- _substrate_phase advances the signal integral Iv and the substrate w;
- _cell_phase advances the cells u by explicit Euler with upwind transport,
  using the new v and w.

One trapezoidal accumulator, Iv, carries the per-cell integral of v since the
anchor snapshot; the integral of grad v is its gradient, since the gradient
is linear. With eta = 0 the substrate is evaluated directly from the
representation w = w_anchor * exp(-Iv), which keeps that identity exact to
round-off for the whole run.

Steps that produce negativity beyond round-off are rejected and retried with
a halved dt (at most 10 halvings); runs terminate cleanly on divergence
(threshold crossing or non-finite values) instead of crashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .grid import (
    Field,
    GridSpec,
    _as_float,
    _max,
    _min,
    _screened_solve,
    _wrap,
    gradient,
    laplacian,
)
from .model import _MAX_STEPS, InitialData, ModelParams, rhs_u, rhs_v, rhs_w

__all__ = [
    "CFLViolation",
    "Diverged",
    "SolverConfig",
    "Snapshot",
    "SimState",
    "RunOutcome",
    "take_snapshot",
    "initial_state",
    "stable_dt",
    "solve_elliptic",
    "step",
    "run",
]

_EPS_RATE = 1e-30
_MAX_HALVINGS = 10
_ROUNDOFF_CLAMP = 1e-13


class CFLViolation(RuntimeError):
    """A step kept producing real negativity after repeated dt halving."""


class Diverged(RuntimeError):
    """The state crossed the blow-up threshold or became non-finite.

    state is the state the check was made on; a run ends on it.
    """

    def __init__(self, message: str, state: "SimState") -> None:
        super().__init__(message)
        self.state = state


class _RetryStep(Exception):
    """Internal: reject the attempted step and retry with a smaller dt."""


@dataclass(frozen=True)
class SolverConfig:
    """Run controls for a single simulation."""

    t_end: float
    output_every: float | None = None  # defaults to t_end / 50
    cfl_safety: float = 0.4
    dt_max: float = math.inf
    blowup_threshold: float = 1e6
    anchor_time: float = 0.0
    time_scheme: str = "explicit"
    # Clock times this close count as one (landings, outputs reached); set
    # once from output_every and t_end, and ignored by eq, hash and repr.
    _landing_tol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Each message starts with the config key it rejects and names the
        # final time by its key, T_end, so config reports it unchanged.
        object.__setattr__(self, "t_end", _as_float(self.t_end, "T_end", 0, math.inf))
        if self.output_every is None:
            object.__setattr__(self, "output_every", self.t_end / 50.0)
        for key, low, high, ends in (
            ("output_every", 0, math.inf, "()"),
            ("cfl_safety", 0, 1, "(]"),
            ("dt_max", 0, math.inf, "(]"),
            ("blowup_threshold", 0, math.inf, "(]"),
            ("anchor_time", 0, math.inf, "[)"),
        ):
            object.__setattr__(self, key, _as_float(getattr(self, key), key, low, high, ends))
        # Each forces at least t_end / value steps, counted so that 1e-6 at
        # t_end = 1e9 (exactly 10^15 steps) passes: 1e-15 * t_end rounds
        # above 1e-6.
        for key, noun in (("output_every", "interval"), ("dt_max", "cap")):
            if self.t_end / getattr(self, key) > _MAX_STEPS:
                raise ValueError(
                    f"{key} must be at least T_end / {_MAX_STEPS:.0e}: a smaller "
                    f"{noun} needs more than {_MAX_STEPS:.0e} steps"
                )
        if not self.anchor_time < self.t_end:
            raise ValueError("anchor_time must be in [0, T_end)")
        if self.time_scheme not in ("explicit", "imex-diffusion"):
            raise ValueError("time_scheme must be explicit or imex-diffusion")
        object.__setattr__(self, "_landing_tol", 1e-9 * min(self.output_every, self.t_end))

    def above_threshold(self, sup_u: float | np.ndarray) -> bool | np.ndarray:
        """sup_u > blowup_threshold (elementwise for an array): the one blow-up rule."""
        return sup_u > self.blowup_threshold


@dataclass(eq=False)
class Snapshot:
    """Frozen substrate data at the anchor time s0, with the extrema of the
    state at s0: the substrate ceiling reads sup w(s0) from them, and the
    curvature budget (diagnostics.lemma22_tolerance) the suprema."""

    s0: float
    w_s0: Field
    grad_w_s0: tuple[Field, ...]  # one component per axis
    lap_w_s0: Field
    extrema: Extrema


class Extrema(NamedTuple):
    """Minimum and maximum of u, v and w over the cells of one state.

    min and max propagate NaN, so all six are finite exactly when every value
    of the three fields is.
    """

    min_u: float
    max_u: float
    min_v: float
    max_v: float
    min_w: float
    max_w: float

    @classmethod
    def of(cls, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Extrema:
        return cls(
            _min(u), _max(u),
            _min(v), _max(v),
            _min(w), _max(w),
        )

    @property
    def finite(self) -> bool:
        return all(map(math.isfinite, self))


@dataclass(eq=False)
class SimState:
    """Fields at time t plus the accumulated signal integral since the anchor.

    anchor is the snapshot taken at the anchor time s0: initial_state takes
    it at t = 0, a re-anchor replaces it, and every step carries it on.
    Iv holds the per-cell trapezoidal integral of v over (s0, t]; the integral
    of grad v is gradient(Iv), so it is not accumulated. No gradient is
    stored: its readers call gradient themselves (the records once per
    output).
    extrema holds the minima and maxima of u, v and w: initial_state takes
    them in one pass, and step on every state it accepts takes the minima
    from the positivity clamps and one pass each for the maxima. stable_dt,
    the clamp floors, the divergence check, the anchor snapshot, run and
    the records read it.
    It describes the fields as step left them. A non-finite value written
    into them later still stops the next step. Mostly it spreads into the
    new fields: u and v are read by every step (v through rhs_v or the
    implicit right-hand side; when tau = 0 only through Iv). An infinite Iv
    does not spread with eta = 0, since w = w_anchor exp(-Iv) is then 0, so
    the step checks the new Iv itself. With eta = 0 the step reads w nowhere
    but stable_dt, so stable_dt takes the range of w from w itself, never
    from extrema. A finite edit is not seen until extrema is set to
    Extrema.of the edited fields.
    """

    t: float
    u: Field
    v: Field
    w: Field
    Iv: Field
    anchor: Snapshot
    extrema: Extrema
    last_dt: float = 0.0

    @property
    def grid(self) -> GridSpec:
        return self.u.grid


def take_snapshot(t: float, w: Field, extrema: Extrema) -> Snapshot:
    """Freeze w, grad w and lap w at time t, with the extrema of the state w
    belongs to (u, v, w >= 0, so their maxima are the suprema at t)."""
    return Snapshot(
        s0=t,
        w_s0=w.copy(),
        grad_w_s0=gradient(w),
        lap_w_s0=laplacian(w),
        extrema=extrema,
    )


def _substrate_ceiling(anchor: Snapshot, eta: float) -> float:
    """The bound w keeps after the anchor time s0: sup w(s0), the anchor's
    extrema.max_w, when eta = 0, where w only decays, and max(sup w(s0), 1)
    when eta > 0, since u, v >= 0 give w_t <= eta w (1 - w)."""
    return anchor.extrema.max_w if eta == 0.0 else max(anchor.extrema.max_w, 1.0)


def initial_state(init: InitialData) -> SimState:
    u, v, w = init.u0.copy(), init.v0.copy(), init.w0.copy()
    extrema = Extrema.of(u.values, v.values, w.values)
    return SimState(
        t=0.0,
        u=u,
        v=v,
        w=w,
        Iv=Field.zeros(init.grid),
        anchor=take_snapshot(0.0, w, extrema),
        extrema=extrema,
    )


def _reanchor(state: SimState) -> SimState:
    return replace(
        state,
        anchor=take_snapshot(state.t, state.w, state.extrema),
        Iv=Field.zeros(state.grid),
    )


def _outputs_reached(t: float, cfg: SolverConfig) -> int:
    """How many output times k * output_every (k >= 1) lie before t or within
    cfg._landing_tol after it: the index of the last output the clock reached."""
    out = cfg.output_every
    k = math.floor(t / out)
    if (k + 1) * out <= t + cfg._landing_tol:
        k += 1
    return k


def _next_landing(t: float, cfg: SolverConfig) -> float:
    """The next time after t that a step must end on exactly: the next output
    time k * output_every, the pending anchor time or t_end. An output time
    within cfg._landing_tol of t_end is t_end, and an anchor time within it
    below the next landing is that landing (run re-anchors there), so no
    sliver step is left."""
    tol = cfg._landing_tol
    landing = (_outputs_reached(t, cfg) + 1) * cfg.output_every
    if landing > cfg.t_end - tol:
        landing = cfg.t_end
    if t + tol < cfg.anchor_time < landing - tol:
        landing = cfg.anchor_time
    return landing


class StepSize(float):
    """A step size that also says where it came from.

    binding names the limit that set it: "diffusion", "transport (axis a)",
    "reaction", or one of the caps "dt_max" and "landing". landing is the
    time the step must end on exactly: the next output time, the anchor time
    or t_end. Arithmetic on it and float() of it give plain floats.
    """

    __slots__ = ("binding", "landing")

    def __new__(cls, dt: float, binding: str, landing: float) -> StepSize:
        self = super().__new__(cls, dt)
        self.binding = binding
        self.landing = landing
        return self


def stable_dt(state: SimState, params: ModelParams, cfg: SolverConfig) -> StepSize:
    """Largest safe step for the explicit updates, with its binding limit and
    its landing (see StepSize).

    Takes cfl_safety times the minimum of the diffusion limit 1/(2 sum h_a^-2)
    (equal to h^2/(2 dim) on cubic cells), the reaction limit and the
    per-axis transport limit h_a / max(|chi (grad v)_a| + |xi (grad w)_a|),
    then caps the result by dt_max and by exact landing on the next output
    time, the anchor time and the final time. A cap binds only when it is
    strictly smaller than the step it caps. The reaction limit is one over
    the largest explicit rate a step applies: the cells' logistic term
    mu (1 + sup u + sup w); the signal's decay, 1, when tau = 1 (the
    implicit-diffusion scheme keeps it explicit too); and, when eta > 0, the
    renewal step of w, sup v + eta (1 + sup u + sup w).

    The central gradient of a field is at most its range R = max - min over
    2 h_a, so the transport limit on axis a is at least
    2 h_a^2 / (chi R_v + xi R_w). When that is at least twice the smaller of
    the diffusion and reaction limits on every axis, transport cannot bind
    and the gradients are not computed; the factor 2 covers the rounding of
    both sides. Otherwise the exact limit is computed as above; on an exact
    tie with the reaction limit, reaction binds. R_v comes from the state's
    extrema, R_w from w itself (see SimState). A non-finite extremum, range
    of w or transport speed raises Diverged: the state is non-finite, or its
    gradient overflows (a finite v near the float limit). A stability step
    (before the caps) below t_end / 10^15, which would take more than 10^15
    steps, raises ValueError naming the limit that binds.
    """
    ext = state.extrema
    if not ext.finite:
        raise Diverged(f"non-finite state at t={state.t!r}", state=state)
    grid = state.grid

    limit, binding = grid._diffusion_limit, "diffusion"
    load = 1.0 + ext.max_u + ext.max_w
    rate = params.mu * load
    if params.tau == 1:
        rate = max(rate, 1.0)
    if params.eta != 0.0:
        rate = max(rate, ext.max_v + params.eta * load)
    reaction = 1.0 / (rate + _EPS_RATE)
    if reaction < limit:
        limit, binding = reaction, "reaction"

    w = state.w.values
    range_w = _max(w) - _min(w)
    if not math.isfinite(range_w):
        raise Diverged(f"non-finite substrate at t={state.t!r}", state=state)
    spread = params.chi * (ext.max_v - ext.min_v) + params.xi * range_w
    if not spread * limit <= grid._h_min_sq:  # NaN and inf fail it as well
        axes = zip(grid.spacing, gradient(state.v), gradient(state.w))
        for axis, (h, grad_v, grad_w) in enumerate(axes):
            speed = np.abs(params.chi * grad_v.values)
            speed += np.abs(params.xi * grad_w.values)
            peak = _max(speed)
            if not math.isfinite(peak):
                raise Diverged(f"non-finite transport speed at t={state.t!r}", state=state)
            transport = h / (peak + _EPS_RATE)
            if transport < limit:
                limit, binding = transport, f"transport (axis {axis})"

    dt = cfg.cfl_safety * limit
    if dt < cfg.t_end / _MAX_STEPS:
        raise ValueError(
            f"the {binding} limit gives dt={dt!r} at t={state.t!r}, below "
            f"T_end / {_MAX_STEPS:.0e}: the run would need more than "
            f"{_MAX_STEPS:.0e} steps"
        )
    if cfg.dt_max < dt:
        dt, binding = cfg.dt_max, "dt_max"
    landing = _next_landing(state.t, cfg)
    if landing - state.t < dt:
        dt, binding = landing - state.t, "landing"
    if dt <= 0.0:
        raise ValueError("no positive step available (already at T_end?)")
    return StepSize(dt, binding, landing)


def solve_elliptic(u: Field, cfg: SolverConfig | None = None) -> Field:
    """Solve (I - lap) v = u with zero-flux closure, exactly up to round-off.

    The solve has no tolerance or iteration limit; cfg is accepted so that
    callers may pass their run configuration, and is not read.
    """
    if not u.is_finite():
        raise ValueError("elliptic right-hand side must be finite")
    return _wrap(u.grid, _screened_solve(u.grid, u.values, 1.0))


def _clamp_negatives(values: np.ndarray, floor: float) -> float:
    """Zero out negativity within floor in place; reject anything worse.

    Each phase passes 1e-13 times a bound it reads from the pre-step
    extrema. Returns the minimum of values after the clamp: max(low, 0.0)
    of the minimum low before it, which is low itself when it is NaN or
    -inf (a non-finite state, which no smaller dt repairs).
    """
    low = _min(values)
    if not -math.inf < low < 0.0:
        return low
    if low < -floor:
        raise _RetryStep
    np.maximum(values, 0.0, out=values)
    return max(low, 0.0)


def _signal_phase(
    state: SimState, params: ModelParams, cfg: SolverConfig, dt: float
) -> tuple[Field, float]:
    """Phase 1: v at t + dt and its minimum after the round-off clamp.

    Slaved to the cells (tau = 0) or with implicit diffusion, v solves
    (I - alpha lap) v = b. The exact inverse of I - alpha lap is nonnegative,
    so the solve only needs its transform round-off clamped. The floor
    scales with sup v at t and, for the solve, with B >= sup b: max u when
    b = u (tau = 0), (1 - dt) max v + dt max u under IMEX, where dt <= 1
    (stable_dt) makes b a nonnegative combination of u, v >= 0, and
    rounding is monotone, so b <= B exactly.
    """
    u, v, ext = state.u, state.v, state.extrema
    floor = ext.max_v  # sup v, since v >= 0
    if params.tau == 0 or cfg.time_scheme == "imex-diffusion":
        if params.tau == 0:
            b, alpha, sup_b = u.values, 1.0, ext.max_u
        else:
            b, alpha = (1.0 - dt) * v.values + dt * u.values, dt
            sup_b = (1.0 - dt) * ext.max_v + dt * ext.max_u
        v_new = _wrap(state.grid, _screened_solve(state.grid, b, alpha))
        floor = max(floor, sup_b)
    else:
        v_new = rhs_v(u, v)
        v_new.values *= dt
        v_new.values += v.values
    min_v = _clamp_negatives(v_new.values, _ROUNDOFF_CLAMP * floor)
    return v_new, min_v


def _substrate_phase(
    state: SimState, params: ModelParams, v_new: Field, dt: float
) -> tuple[Field, Field, float]:
    """Phase 2: the trapezoidal signal integral Iv and the substrate w at
    t + dt, from the old and the new v, and the minimum of w after the
    round-off clamp (sup w at t scales the clamp floor).

    With eta = 0, w = w_anchor exp(-Iv) >= 0, so the clamp only reads the
    minimum. With eta > 0 an explicit midpoint (RK2) step advances w, which
    is capped at the substrate ceiling and clamped like u and v: negativity
    beyond round-off rejects the step.
    """
    grid = state.grid
    v, w = state.v, state.w
    iv_new_vals = v.values + v_new.values
    iv_new_vals *= 0.5 * dt
    iv_new_vals += state.Iv.values
    # Iv >= 0, so its max is finite unless Iv holds +inf or NaN, which the
    # w update below can turn into a finite w = 0.
    if not math.isfinite(_max(iv_new_vals)):
        raise Diverged(f"non-finite signal integral at t={state.t!r}", state=state)

    anchor = state.anchor
    if params.eta == 0.0:
        # Exact exponential of the accumulated integral; evaluating from the
        # anchor keeps w == w_anchor * exp(-Iv) bitwise for the whole run.
        w_new_vals = np.negative(iv_new_vals)
        np.exp(w_new_vals, out=w_new_vals)
        w_new_vals *= anchor.w_s0.values
        w_new = _wrap(grid, w_new_vals)
    else:
        u = state.u
        v_half = _wrap(grid, 0.5 * (v.values + v_new.values))
        w_half = _wrap(grid, w.values + (0.5 * dt) * rhs_w(u, v, w, params).values)
        w_new = rhs_w(u, v_half, w_half, params)
        w_new_vals = w_new.values
        w_new_vals *= dt
        w_new_vals += w.values
        np.minimum(w_new_vals, _substrate_ceiling(anchor, params.eta), out=w_new_vals)
    min_w = _clamp_negatives(w_new_vals, _ROUNDOFF_CLAMP * state.extrema.max_w)
    return _wrap(grid, iv_new_vals), w_new, min_w


def _cell_phase(
    state: SimState, params: ModelParams, v_new: Field, w_new: Field, dt: float
) -> tuple[Field, float]:
    """Phase 3: u at t + dt from the new v and w, and its minimum after the
    round-off clamp (sup u at t, kept above 1e-30, scales the clamp floor)."""
    u_new = rhs_u(state.u, v_new, w_new, params, dt=dt)
    u_new.values += state.u.values
    min_u = _clamp_negatives(u_new.values, _ROUNDOFF_CLAMP * max(state.extrema.max_u, _EPS_RATE))
    return u_new, min_u


def _attempt_step(
    state: SimState, params: ModelParams, cfg: SolverConfig, dt: float
) -> SimState:
    """One step of size dt through the three phases; a clamp (of v, w or u)
    that meets more than round-off negativity raises _RetryStep. The clamp
    floors scale with the pre-step extrema; the minima of the new state's
    extrema are the ones the clamps leave."""
    v_new, min_v = _signal_phase(state, params, cfg, dt)
    iv_new, w_new, min_w = _substrate_phase(state, params, v_new, dt)
    u_new, min_u = _cell_phase(state, params, v_new, w_new, dt)
    return SimState(
        t=state.t + dt,
        u=u_new,
        v=v_new,
        w=w_new,
        Iv=iv_new,
        anchor=state.anchor,
        extrema=Extrema(
            min_u, _max(u_new.values),
            min_v, _max(v_new.values),
            min_w, _max(w_new.values),
        ),
        last_dt=dt,
    )


def _check_divergence(state: SimState, cfg: SolverConfig) -> None:
    ext = state.extrema
    if not ext.finite:
        raise Diverged(f"non-finite fields at t={state.t!r}", state=state)
    if cfg.above_threshold(ext.max_u):
        raise Diverged(
            f"sup u = {ext.max_u!r} crossed threshold at t={state.t!r}", state=state
        )


def step(state: SimState, params: ModelParams, cfg: SolverConfig) -> SimState:
    """Advance one accepted step; retries with halved dt on rejection.

    A step that ends within 1e-9 * min(output_every, t_end) of the landing
    stable_dt found (the next output, anchor or t_end) sets t to that time
    exactly, so the rounding of t + dt never accumulates into the clock. The
    new state's last_dt is a plain float.
    """
    proposed = stable_dt(state, params, cfg)
    landing, dt = proposed.landing, float(proposed)
    for _ in range(_MAX_HALVINGS + 1):
        try:
            new = _attempt_step(state, params, cfg, dt)
        except _RetryStep:
            dt *= 0.5
            continue
        if landing - new.t <= cfg._landing_tol:
            new.t = landing
        _check_divergence(new, cfg)
        return new
    raise CFLViolation(f"persistent negativity at t={state.t!r}")


@dataclass(eq=False)
class RunOutcome:
    """Terminal status of a run plus summary statistics and the record series.

    The peak of sup u is not stored: max_sup_u and t_of_max_sup_u read it
    from the records' peak_u and t_peak_u.
    """

    status: str  # "completed" | "blew_up" | "cfl_failed"
    records: list
    min_u: float
    min_v: float
    min_w: float
    max_w: float
    invariant_violations: int
    steps: int
    final_state: SimState  # the state the run ends on; its t is the end (or failure) time
    failure: str | None = None  # "<Type>: <message>" of what ended the run early

    @property
    def max_sup_u(self) -> float:
        """The largest sup u over every state the run accepted (see
        diagnostics.series_peak)."""
        return diagnostics.series_peak(self.records)[0]

    @property
    def t_of_max_sup_u(self) -> float:
        return diagnostics.series_peak(self.records)[1]


def run(
    init: InitialData,
    params: ModelParams,
    cfg: SolverConfig,
    *,
    p_list: tuple[float, ...] = (2.0,),
    snapshot_sink=None,
) -> RunOutcome:
    """Integrate from t = 0 to t_end or until divergence.

    Emits a diagnostics record at t = 0, at every output_every of simulated
    time and, exactly once, on the state the run ends on (t_end or where it
    stopped); the optional snapshot_sink receives the state at each
    emission. Each record carries the peak of sup u over the steps accepted
    since the previous record, a window maximum that run resets at each
    record. At t = anchor_time > 0 the anchor snapshot is re-captured and
    the accumulator reset. Positivity and the substrate ceiling are
    monitored after every accepted step; step failures (divergence,
    persistent negativity) become the outcome status; the t = 0 state is
    checked for divergence too, so data above blowup_threshold end the run
    at t = 0. A run that cannot proceed raises ValueError: the stability
    step falls below t_end / 10^15 (the message names the binding limit).
    """
    state = initial_state(init)
    ext = state.extrema
    records: list = []
    # The peak of sup u since the last record and its time.
    peak_u, t_peak_u = ext.max_u, state.t

    def emit(st: SimState) -> None:
        nonlocal peak_u, t_peak_u
        rec = diagnostics.record(st, list(p_list), eta=params.eta, peak=(peak_u, t_peak_u))
        records.append(rec)
        peak_u, t_peak_u = -math.inf, math.nan
        if snapshot_sink is not None:
            snapshot_sink(st)

    min_u, min_v, min_w, max_w = ext.min_u, ext.min_v, ext.min_w, ext.max_w
    violations = 0
    steps = 0
    status = "completed"
    failure: str | None = None

    emit(state)

    tol_t = cfg._landing_tol
    emitted = 0  # index k of the last output time k * output_every emitted

    try:
        _check_divergence(state, cfg)
        while state.t < cfg.t_end:
            state = step(state, params, cfg)
            steps += 1

            ext = state.extrema
            if ext.max_u > peak_u:
                peak_u, t_peak_u = ext.max_u, state.t
            min_u = min(min_u, ext.min_u)
            min_v = min(min_v, ext.min_v)
            min_w = min(min_w, ext.min_w)
            max_w = max(max_w, ext.max_w)
            if (
                ext.min_u < 0.0
                or ext.min_v < 0.0
                or ext.min_w < 0.0
                or ext.max_w > _substrate_ceiling(state.anchor, params.eta)
            ):
                violations += 1

            # s0 stays 0.0 until the re-anchor, which follows a step (t > 0).
            if cfg.anchor_time > state.anchor.s0 == 0.0 and state.t >= cfg.anchor_time - tol_t:
                state = _reanchor(state)

            reached = _outputs_reached(state.t, cfg)
            if reached > emitted:
                emit(state)
                emitted = reached
    except (Diverged, CFLViolation) as exc:
        status = "blew_up" if isinstance(exc, Diverged) else "cfl_failed"
        failure = f"{type(exc).__name__}: {exc}"
        # A Diverged ends the run on the state it carries; a CFLViolation on
        # the last state the run accepted.
        if isinstance(exc, Diverged):
            state = exc.state
            ext = state.extrema
            if ext.finite and ext.max_u > peak_u:
                peak_u, t_peak_u = ext.max_u, state.t
    # The state the run ends on (at t_end or where it stopped), recorded once.
    if state.t != records[-1].t:
        emit(state)

    return RunOutcome(
        status=status,
        records=records,
        min_u=min_u,
        min_v=min_v,
        min_w=min_w,
        max_w=max_w,
        invariant_violations=violations,
        steps=steps,
        final_state=state,
        failure=failure,
    )
