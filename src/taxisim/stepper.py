"""Time integration with positivity safeguards and step-size control.

Each step advances the fields in a fixed order: the signal v first (explicit
Euler, an implicit-diffusion variant, or a screened Poisson solve when it is
slaved to the cells; both implicit variants use one exact cosine-transform
solve), then the substrate w, then the cells u by explicit Euler
with upwind transport. One trapezoidal accumulator, Iv, carries the per-cell
integral of v since the anchor snapshot; the integral of grad v is its
gradient, since the gradient is linear. With eta = 0 the substrate is
evaluated directly from the representation w = w_anchor * exp(-Iv), which
keeps that identity exact to round-off for the whole run.

Steps that produce negativity beyond round-off are rejected and retried with
a halved dt (at most 10 halvings); runs terminate cleanly on divergence
(threshold crossing or non-finite values) instead of crashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .grid import Field, GridSpec, gradient, laplacian, magnitude, sup_norm
from .model import InitialData, ModelParams, rhs_u, rhs_v, rhs_w

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
# A stability step below this fraction of t_end means more than 10^15 steps,
# a run that cannot finish. It sits well below 1e-12: t_end = 1e9 on an
# 8-cell 1D grid has ordinary steps of ~1e-12 t_end.
_MIN_STEPS_FRACTION = 1e-15


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

    def __post_init__(self) -> None:
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be finite and > 0")
        if self.output_every is None:
            object.__setattr__(self, "output_every", self.t_end / 50.0)
        if not 0.0 < self.output_every < math.inf:
            raise ValueError("output_every must be finite and > 0")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be > 0")
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be > 0")
        if not 0.0 <= self.anchor_time < self.t_end:
            raise ValueError("anchor_time must be in [0, t_end)")
        if self.time_scheme not in ("explicit", "imex-diffusion"):
            raise ValueError("time_scheme must be explicit or imex-diffusion")


@dataclass
class Snapshot:
    """Frozen substrate data at the anchor time s0.

    M bounds the suprema of u, v, w and of |grad w|, |lap w| at s0; it
    scales the tolerance of the curvature lower-bound monitor.
    """

    s0: float
    w_s0: Field
    grad_w_s0: tuple[Field, ...]  # one component per axis
    lap_w_s0: Field
    M: float
    sup_w: float


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
            float(u.min()), float(u.max()),
            float(v.min()), float(v.max()),
            float(w.min()), float(w.max()),
        )

    @property
    def finite(self) -> bool:
        return all(map(math.isfinite, self))


@dataclass
class SimState:
    """Fields at time t plus the accumulated signal integral since the anchor.

    anchor is the snapshot taken at the anchor time s0: initial_state takes
    it at t = 0, a re-anchor replaces it, and every step carries it on.
    Iv holds the per-cell trapezoidal integral of v over (s0, t]; the integral
    of grad v is gradient(Iv), so it is not accumulated. No gradient is
    stored: its readers call gradient themselves (the records once per
    output).
    extrema holds the minima and maxima of u, v and w that step finds on
    every state it accepts: min u and min v come from the positivity clamps,
    which take them anyway, and one pass each gives the other four. The
    divergence check, run, the records and the next step read it.
    It describes the fields as step left them. A non-finite value written
    into them later still stops the next step. Mostly it spreads into the
    new fields: u and v are read by every step (v through rhs_v or the
    implicit right-hand side; when tau = 0 only through Iv). An infinite Iv
    does not spread with eta = 0, since w = w_anchor exp(-Iv) is then 0, so
    the step checks the new Iv itself. With eta = 0 the step reads w nowhere
    but stable_dt, so stable_dt takes the range of w from w itself, never
    from extrema. A finite edit is not seen until extrema is set to None,
    which makes the next step recompute it.
    """

    t: float
    u: Field
    v: Field
    w: Field
    Iv: Field
    anchor: Snapshot
    last_dt: float = 0.0
    extrema: Extrema | None = None

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def field_extrema(self) -> Extrema:
        """extrema, or a fresh pass over u, v and w when it is not set."""
        if self.extrema is not None:
            return self.extrema
        return Extrema.of(self.u.values, self.v.values, self.w.values)


def take_snapshot(t: float, u: Field, v: Field, w: Field) -> Snapshot:
    """Freeze w, grad w and lap w at time t, plus the scale bound M, which
    also reads the suprema of u and v."""
    grad_w = gradient(w)
    lap_w = laplacian(w)
    sup_w = float(np.max(w.values))
    m = max(
        sup_norm(u),
        sup_norm(v),
        sup_norm(w),
        sup_norm(magnitude(grad_w)),
        sup_norm(lap_w),
    )
    return Snapshot(
        s0=t,
        w_s0=w.copy(),
        grad_w_s0=grad_w,
        lap_w_s0=lap_w,
        M=m,
        sup_w=sup_w,
    )


def initial_state(init: InitialData) -> SimState:
    return SimState(
        t=0.0,
        u=init.u0.copy(),
        v=init.v0.copy(),
        w=init.w0.copy(),
        Iv=Field.zeros(init.grid),
        anchor=take_snapshot(0.0, init.u0, init.v0, init.w0),
        last_dt=0.0,
    )


def _reanchor(state: SimState) -> SimState:
    return replace(
        state,
        anchor=take_snapshot(state.t, state.u, state.v, state.w),
        Iv=Field.zeros(state.grid),
    )


def _outputs_reached(t: float, out: float) -> int:
    """How many output times k * out (k >= 1) lie before t or within
    1e-9 * out after it: the index of the last output the clock has reached."""
    k = math.floor(t / out)
    if (k + 1) * out <= t + 1e-9 * out:
        k += 1
    return k


def _landing_tol(cfg: SolverConfig) -> float:
    """Distance below which two clock times count as one landing."""
    return 1e-9 * min(cfg.output_every, cfg.t_end)


def _next_landing(t: float, cfg: SolverConfig) -> float:
    """The next time after t that a step must end on exactly: the next output
    time k * output_every, the pending anchor time or t_end. An output time
    within _landing_tol of t_end is t_end, so no sliver step is left."""
    tol = _landing_tol(cfg)
    landing = (_outputs_reached(t, cfg.output_every) + 1) * cfg.output_every
    if landing > cfg.t_end - tol:
        landing = cfg.t_end
    if t + tol < cfg.anchor_time < landing:
        landing = cfg.anchor_time
    return landing


def stable_dt(state: SimState, params: ModelParams, cfg: SolverConfig) -> float:
    """Largest safe step for the explicit updates.

    Takes cfl_safety times the minimum of the diffusion limit 1/(2 sum h_a^-2)
    (equal to h^2/(2 dim) on cubic cells), the per-axis transport limit
    h_a / max|chi (grad v)_a| + |xi (grad w)_a|, and the reaction limit
    1 / (mu (1 + sup u + sup w)), then caps the result by dt_max and by exact
    landing on the next output time, the anchor time and the final time.

    The central gradient of a field is at most its range R = max - min over
    2 h_a, so the transport limit on axis a is at least
    2 h_a^2 / (chi R_v + xi R_w). When that is at least twice the diffusion
    limit on every axis, transport cannot bind and the gradients are not
    computed; the factor 2 covers the rounding of both sides. Otherwise the
    exact limit is computed as above. R_v comes from the state's extrema,
    R_w from w itself (see SimState). A non-finite extremum, range of w or
    transport speed raises Diverged: the state is non-finite, or its
    gradient overflows (a finite v near the float limit). A
    stability step (before the caps) below 1e-15 * t_end, which would take
    more than 10^15 steps, raises ValueError naming the limit that binds.
    """
    ext = state.field_extrema()
    if not ext.finite:
        raise Diverged(f"non-finite state at t={state.t!r}", state=state)
    grid = state.grid

    inv_h2_sum = sum(1.0 / (h * h) for h in grid.spacing)
    limit, binding = 1.0 / (2.0 * inv_h2_sum), "diffusion"

    w = state.w.values
    range_w = float(w.max()) - float(w.min())
    if not math.isfinite(range_w):
        raise Diverged(f"non-finite substrate at t={state.t!r}", state=state)
    spread = params.chi * (ext.max_v - ext.min_v) + params.xi * range_w
    h_min = min(grid.spacing)
    if not spread * limit <= h_min * h_min:  # NaN and inf fail it as well
        axes = zip(grid.spacing, gradient(state.v), gradient(state.w))
        for axis, (h, grad_v, grad_w) in enumerate(axes):
            speed = np.abs(params.chi * grad_v.values)
            speed += np.abs(params.xi * grad_w.values)
            peak = float(speed.max())
            if not math.isfinite(peak):
                raise Diverged(f"non-finite transport speed at t={state.t!r}", state=state)
            transport = h / (peak + _EPS_RATE)
            if transport < limit:
                limit, binding = transport, f"transport (axis {axis})"

    reaction = 1.0 / (params.mu * (1.0 + ext.max_u + ext.max_w) + _EPS_RATE)
    if reaction < limit:
        limit, binding = reaction, "reaction"

    dt = cfg.cfl_safety * limit
    if dt < _MIN_STEPS_FRACTION * cfg.t_end:
        raise ValueError(
            f"the {binding} limit gives dt={dt!r} at t={state.t!r}, below "
            f"{_MIN_STEPS_FRACTION!r} * t_end: the run would need more than "
            f"{1.0 / _MIN_STEPS_FRACTION:.0e} steps"
        )
    dt = min(dt, cfg.dt_max, _next_landing(state.t, cfg) - state.t)
    if dt <= 0.0:
        raise ValueError("no positive step available (already at t_end?)")
    return dt


def _cosine_modes(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C (n x n) and the eigenvalues of -lap.

    Row k of C is the discrete Neumann eigenvector cos(pi k (j + 1/2) / n),
    whose eigenvalue under the mirror-ghost Laplacian is
    -(2 - 2 cos(pi k / n)) / h^2.
    """
    k = np.arange(n, dtype=float)
    c = np.cos(np.outer(k, k + 0.5) * (math.pi / n)) * math.sqrt(2.0 / n)
    c[0] *= math.sqrt(0.5)
    lam = (2.0 - 2.0 * np.cos(k * (math.pi / n))) / (h * h)
    return c, lam


class _Spectrum(NamedTuple):
    """The cosine transform of one grid: per-axis forward matrices, their
    inverses (the transposes) and the summed eigenvalues of -lap, laid out
    like the transformed array (the cell counts reversed)."""

    forward: tuple[np.ndarray, ...]
    inverse: tuple[np.ndarray, ...]
    lam: np.ndarray


@lru_cache(maxsize=64)
def _spectrum(grid: GridSpec) -> _Spectrum:
    """Cosine transform of grid (shared, so read-only)."""
    modes = [_cosine_modes(n, h) for n, h in zip(grid.cells, grid.spacing)]
    lam = np.zeros(grid.cells[::-1])
    for axis, (_, lam_a) in enumerate(modes):
        shape = [1] * grid.dim
        shape[grid.dim - 1 - axis] = lam_a.size
        lam += lam_a.reshape(shape)
    forward = tuple(c for c, _ in modes)
    for arr in (*forward, lam):
        arr.flags.writeable = False
    return _Spectrum(forward, tuple(c.T for c in forward), lam)


def _apply_along_axes(x: np.ndarray, mats: tuple[np.ndarray, ...]) -> np.ndarray:
    """Multiply x by mats[a] along grid axis a; x stores the last axis first.

    The last array axis is x @ m.T and the one before it m @ x, which
    broadcasts over a leading stack; axis 0 of a 3D array is swapped into
    that place and back, as views. So each axis is a stack of small matrix
    products and no copy is made to move axes. One product over all cells
    would cross BLAS's threading threshold at 32^3, where thread hand-off
    made the solve take 47 ms; stacked, it takes 0.35-0.65 ms there on a
    2-CPU host (0.9-1.2 ms when the axes were moved with copies).
    """
    last = x.ndim - 1
    for axis, m in enumerate(mats):
        pos = last - axis
        if pos == last:
            x = x @ m.T
        elif pos == last - 1:
            x = m @ x
        else:
            x = np.swapaxes(m @ np.swapaxes(x, 0, 1), 0, 1)
    return x


def _screened_solve(grid: GridSpec, b: np.ndarray, alpha: float) -> np.ndarray:
    """Exact solve of (I - alpha lap) x = b with the mirror-ghost Laplacian.

    The DCT-II diagonalises the discrete Neumann Laplacian axis by axis, so
    the solve is a forward transform, a pointwise divide by
    1 + alpha sum_a lam_a and the inverse transform. The flat layout (axis 0
    fastest) is read as a C-order array with the axes reversed.
    """
    spec = _spectrum(grid)
    x = _apply_along_axes(b.reshape(grid.cells[::-1]), spec.forward)
    x /= 1.0 + alpha * spec.lam
    x = _apply_along_axes(x, spec.inverse)
    return x.ravel()


def solve_elliptic(u: Field, cfg: SolverConfig | None = None) -> Field:
    """Solve (I - lap) v = u with zero-flux closure, exactly up to round-off.

    The solve has no tolerance or iteration limit; cfg is accepted so that
    callers may pass their run configuration, and is not read.
    """
    if not u.is_finite():
        raise ValueError("elliptic right-hand side must be finite")
    return Field(u.grid, _screened_solve(u.grid, u.values, 1.0))


def _clamp_negatives(values: np.ndarray, floor: float) -> float:
    """Zero out negativity within |floor| in place; reject anything worse.

    Returns the minimum of values after the clamp: max(low, 0.0) of the
    minimum low before it, which is low itself when it is NaN or -inf (a
    non-finite state, which no smaller dt repairs).
    """
    low = float(values.min())
    if not -math.inf < low < 0.0:
        return low
    if low < -floor:
        raise _RetryStep
    np.maximum(values, 0.0, out=values)
    return max(low, 0.0)


def _attempt_step(
    state: SimState, params: ModelParams, cfg: SolverConfig, dt: float
) -> SimState:
    grid = state.grid
    u, v, w = state.u, state.v, state.w
    # The clamp floors read max v as sup |v|: equal, since v >= 0.
    ext = state.field_extrema()

    # (1) signal update. The exact inverse of I - alpha lap is nonnegative,
    # so the solve only needs its transform round-off clamped.
    if params.tau == 0:
        # The right-hand side is u, so sup |u| comes from its extrema.
        v_new_vals = _screened_solve(grid, u.values, 1.0)
        floor = _ROUNDOFF_CLAMP * max(ext.max_u, -ext.min_u, ext.max_v)
    elif cfg.time_scheme == "imex-diffusion":
        b = (1.0 - dt) * v.values + dt * u.values
        v_new_vals = _screened_solve(grid, b, dt)
        floor = _ROUNDOFF_CLAMP * max(float(np.abs(b).max()), ext.max_v)
    else:
        v_new_vals = rhs_v(u, v, params).values
        v_new_vals *= dt
        v_new_vals += v.values
        floor = _ROUNDOFF_CLAMP * ext.max_v
    min_v = _clamp_negatives(v_new_vals, floor)
    v_new = Field(grid, v_new_vals)

    # (4, computed early so the w update can reuse it) trapezoidal accumulator
    iv_new_vals = v.values + v_new_vals
    iv_new_vals *= 0.5 * dt
    iv_new_vals += state.Iv.values
    iv_new = Field(grid, iv_new_vals)
    # Iv >= 0, so its max is finite unless Iv holds +inf or NaN, which the
    # w update below can turn into a finite w = 0.
    if not math.isfinite(iv_new_vals.max()):
        raise Diverged(f"non-finite signal integral at t={state.t!r}", state=state)

    # (2) substrate update
    anchor = state.anchor
    if params.eta == 0.0:
        # Exact exponential of the accumulated integral; evaluating from the
        # anchor keeps w == w_anchor * exp(-Iv) bitwise for the whole run.
        w_new_vals = np.negative(iv_new_vals)
        np.exp(w_new_vals, out=w_new_vals)
        w_new_vals *= anchor.w_s0.values
    else:
        v_half = Field(grid, 0.5 * (v.values + v_new_vals))
        w_half = Field(grid, w.values + (0.5 * dt) * rhs_w(u, v, w, params).values)
        k2 = rhs_w(u, v_half, w_half, params).values
        w_new_vals = np.clip(w.values + dt * k2, 0.0, anchor.sup_w)
    w_new = Field(grid, w_new_vals)

    # (3) cell update, using the fresh v and w
    u_new_vals = rhs_u(u, v_new, w_new, params, dt=dt).values
    u_new_vals += u.values
    min_u = _clamp_negatives(u_new_vals, _ROUNDOFF_CLAMP * max(ext.max_u, _EPS_RATE))

    return SimState(
        t=state.t + dt,
        u=Field(grid, u_new_vals),
        v=v_new,
        w=w_new,
        Iv=iv_new,
        anchor=anchor,
        last_dt=dt,
        extrema=Extrema(
            min_u, float(u_new_vals.max()),
            min_v, float(v_new_vals.max()),
            float(w_new_vals.min()), float(w_new_vals.max()),
        ),
    )


def _check_divergence(state: SimState, cfg: SolverConfig) -> None:
    ext = state.field_extrema()
    if not ext.finite:
        raise Diverged(f"non-finite fields at t={state.t!r}", state=state)
    sup_u = ext.max_u
    if sup_u > cfg.blowup_threshold:
        raise Diverged(
            f"sup u = {sup_u!r} crossed threshold at t={state.t!r}", state=state
        )


def step(state: SimState, params: ModelParams, cfg: SolverConfig) -> SimState:
    """Advance one accepted step; retries with halved dt on rejection.

    A step that ends within 1e-9 * min(output_every, t_end) of the next
    landing time (output, anchor or t_end) sets t to that time exactly, so
    the rounding of t + dt never accumulates into the clock.
    """
    dt = stable_dt(state, params, cfg)
    landing = _next_landing(state.t, cfg)
    for _ in range(_MAX_HALVINGS + 1):
        try:
            new = _attempt_step(state, params, cfg, dt)
        except _RetryStep:
            dt *= 0.5
            continue
        if landing - new.t <= _landing_tol(cfg):
            new.t = landing
        _check_divergence(new, cfg)
        return new
    raise CFLViolation(f"persistent negativity at t={state.t!r}")


@dataclass
class RunOutcome:
    """Terminal status of a run plus summary statistics and the record series."""

    status: str  # "completed" | "blew_up" | "cfl_failed"
    records: list
    max_sup_u: float
    t_of_max_sup_u: float
    min_u: float
    min_v: float
    min_w: float
    max_w: float
    invariant_violations: int
    steps: int
    final_state: SimState  # the state the run ends on; its t is the end (or failure) time
    failure: str | None = None  # "<Type>: <message>" of what ended the run early


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
    emission. At t = anchor_time > 0 the anchor snapshot is re-captured and
    the accumulator reset. Positivity and the substrate ceiling are
    monitored after every accepted step; step failures (divergence,
    persistent negativity) become the outcome status. A run that cannot
    proceed raises ValueError: the stability step falls below 1e-15 * t_end
    (more than 10^15 steps; the message names the binding limit).
    """
    state = initial_state(init)
    records: list = []

    def emit(st: SimState) -> None:
        rec = diagnostics.record(st, list(p_list), eta=params.eta)
        records.append(rec)
        if snapshot_sink is not None:
            snapshot_sink(st)

    ext = state.field_extrema()
    min_u, min_v, min_w, max_w = ext.min_u, ext.min_v, ext.min_w, ext.max_w
    max_sup_u = ext.max_u
    t_of_max = 0.0
    violations = 0
    steps = 0
    status = "completed"
    failure: str | None = None

    emit(state)

    out = cfg.output_every
    tol_t = _landing_tol(cfg)
    emitted = 0  # index k of the last output time k * out emitted
    anchor_pending = cfg.anchor_time > 0.0

    try:
        while state.t < cfg.t_end:
            state = step(state, params, cfg)
            steps += 1

            ext = state.field_extrema()
            if ext.max_u > max_sup_u:
                max_sup_u = ext.max_u
                t_of_max = state.t
            min_u = min(min_u, ext.min_u)
            min_v = min(min_v, ext.min_v)
            min_w = min(min_w, ext.min_w)
            max_w = max(max_w, ext.max_w)
            if (
                ext.min_u < 0.0
                or ext.min_v < 0.0
                or ext.min_w < 0.0
                or ext.max_w > state.anchor.sup_w
            ):
                violations += 1

            if anchor_pending and state.t >= cfg.anchor_time - tol_t:
                state = _reanchor(state)
                anchor_pending = False

            reached = _outputs_reached(state.t, out)
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
            ext = state.field_extrema()
            if ext.finite and ext.max_u > max_sup_u:
                max_sup_u = ext.max_u
                t_of_max = state.t
    # The state the run ends on (at t_end or where it stopped), recorded once.
    if state.t != records[-1].t:
        emit(state)

    return RunOutcome(
        status=status,
        records=records,
        max_sup_u=max_sup_u,
        t_of_max_sup_u=t_of_max,
        min_u=min_u,
        min_v=min_v,
        min_w=min_w,
        max_w=max_w,
        invariant_violations=violations,
        steps=steps,
        final_state=state,
        failure=failure,
    )
