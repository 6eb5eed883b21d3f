"""Model coefficients, right-hand sides, initial data and the homogeneous oracle.

The simulated system couples a cell density u, a diffusible signal v produced
by the cells, and an immobile substrate w degraded by the signal:

    u_t = lap(u) - chi div(u grad v) - xi div(u grad w) + mu u (1 - u - w)
    tau v_t = lap(v) - v + u
    w_t = -v w + eta w (1 - u - w)

with zero-flux boundaries. eta = 0 disables substrate renewal; tau = 0 slaves
the signal to the cells through a screened Poisson solve.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Field,
    GridSpec,
    _LENGTH_MAX,
    _LENGTH_MIN,
    _as_float,
    _as_int,
    _max,
    _min,
    _wrap,
    laplacian,
    taxis_divergence,
)

__all__ = [
    "ModelParams",
    "InitialData",
    "ScenarioSpec",
    "rhs_u",
    "rhs_v",
    "rhs_w",
    "OdeTrajectory",
    "ode_reference",
]

ODE_DIVERGENCE_LIMIT = 1e12
# A run that needs more than this many steps cannot finish: the stepper
# refuses a stability step, an output_every or a dt_max, and ode_reference
# a dt, that _over_step_budget finds over it. The floor t_end / _MAX_STEPS
# sits well below 1e-12 t_end (t_end = 1e9 on an 8-cell 1D grid has
# ordinary steps of ~1e-12 t_end) and above half the spacing of floats near
# t_end (~1.1e-16 t_end), so a step of that size still moves the clock.
_MAX_STEPS = 1e15


def _over_step_budget(t_end: float, step: float) -> bool:
    """t_end / step > _MAX_STEPS, the one budget rule; a step of 0.0 is over it."""
    return not step > 0.0 or t_end / step > _MAX_STEPS


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the cell / signal / substrate system.

    chi scales attraction up signal gradients, xi attraction up substrate
    gradients, mu the logistic growth-competition rate, eta the substrate
    renewal rate (0 turns it off), and tau in {0, 1} the signal time constant.
    """

    chi: float
    xi: float = 0.0
    mu: float = 0.0
    eta: float = 0.0
    tau: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _as_int(self.tau, "tau", 0, 1))
        object.__setattr__(self, "chi", _as_float(self.chi, "chi", 0, math.inf))
        for name in ("xi", "mu", "eta"):
            value = _as_float(getattr(self, name), name, 0, math.inf, "[)")
            object.__setattr__(self, name, value)

    def theta(self) -> float:
        """Taxis-to-damping ratio chi / mu, defined only for mu > 0."""
        if self.mu <= 0.0:
            raise ValueError("theta requires mu > 0")
        return self.chi / self.mu


@dataclass(eq=False)
class InitialData:
    """Nonnegative finite initial fields on a shared grid."""

    u0: Field
    v0: Field
    w0: Field

    def __post_init__(self) -> None:
        grid = self.u0.grid
        for name, f in (("u0", self.u0), ("v0", self.v0), ("w0", self.w0)):
            if f.grid != grid:
                raise ValueError("initial fields must share a grid")
            if not f.is_finite():
                raise ValueError(f"{name} must be finite")
            if _min(f.values) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def grid(self) -> GridSpec:
        return self.u0.grid


def rhs_u(u: Field, v: Field, w: Field, params: ModelParams, dt: float = 1.0) -> Field:
    """dt * du/dt: diffusion, both taxis fluxes, and logistic competition.

    The result is seeded with the reaction dt mu u (1 - u - w). Diffusion
    and taxis are one conservative flux divergence, so one face pass of
    taxis_divergence, with chi, xi and the cell diffusion all scaled by dt,
    subtracts both from that seed: the cell diffusion adds to the
    coefficient of the lower cell of each face and takes from that of the
    upper one (see taxis_divergence). An explicit step adds u to the result
    once.
    """
    out = 1.0 - u.values
    out -= w.values
    out *= u.values
    out *= dt * params.mu
    return taxis_divergence(
        u, v, params.chi * dt, (w, params.xi * dt), diffusion=dt, out=out
    )


def rhs_v(u: Field, v: Field) -> Field:
    """dv/dt for tau = 1: diffusion, decay, production by the cells.

    The result is seeded with u - v, and the face pass of laplacian adds
    lap v into it. It is not scaled by a step: the explicit update scales it
    by dt and adds v.
    """
    out = u.values - v.values
    return laplacian(v, out=out)


def rhs_w(u: Field, v: Field, w: Field, params: ModelParams) -> Field:
    """dw/dt: degradation by the signal plus logistic renewal at rate eta."""
    out = -v.values * w.values
    out += params.eta * w.values * (1.0 - u.values - w.values)
    return _wrap(w.grid, out)


SCENARIO_NAMES = ("steady", "constant", "gaussian-bump", "random-perturb")


@dataclass(frozen=True)
class ScenarioSpec:
    """Named initial-data generator and its parameters.

    steady          (u, v, w) = (1, 1, 0), the homogeneous coexistence state
    constant        (u, v, w) = (u0, v0, w0)
    gaussian-bump   u = 1 + A exp(-|x - x0|^2 / sigma^2), v = 1, w = wbar
    random-perturb  u, v = 1 + A * uniform(-1, 1) per cell (seeded), w = wbar
    """

    name: str = "steady"
    amplitude: float = 0.5
    sigma: float | None = None
    center: tuple[float, ...] | None = None
    wbar: float = 0.3
    seed: int = 1234
    u0: float = 1.0
    v0: float = 1.0
    w0: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"name must be one of {SCENARIO_NAMES}")
        # u, v = 1 + A d with d in [-1, 1) stay nonnegative for every seed
        # exactly when A <= 1.
        high, ends = (1, "[]") if self.name == "random-perturb" else (math.inf, "[)")
        object.__setattr__(self, "amplitude", _as_float(self.amplitude, "amplitude", 0, high, ends))
        for name in ("wbar", "u0", "v0", "w0"):
            value = _as_float(getattr(self, name), name, 0, math.inf, "[)")
            object.__setattr__(self, name, value)
        if self.sigma is not None:
            sigma = _as_float(self.sigma, "sigma", _LENGTH_MIN, _LENGTH_MAX, "[]")
            object.__setattr__(self, "sigma", sigma)
        if self.center is not None:
            center = tuple(_as_float(x, "center entry") for x in self.center)
            object.__setattr__(self, "center", center)
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0, math.inf))

    def with_seed(self, seed: int) -> ScenarioSpec:
        return replace(self, seed=seed)

    def is_homogeneous(self) -> bool:
        return self.name in ("steady", "constant")

    def homogeneous_values(self) -> tuple[float, float, float]:
        if self.name == "steady":
            return (1.0, 1.0, 0.0)
        if self.name == "constant":
            return (self.u0, self.v0, self.w0)
        raise ValueError(f"scenario {self.name!r} is not spatially homogeneous")

    def build(self, grid: GridSpec) -> InitialData:
        if self.is_homogeneous():
            u0, v0, w0 = self.homogeneous_values()
            return InitialData(
                Field.full(grid, u0), Field.full(grid, v0), Field.full(grid, w0)
            )
        if self.name == "gaussian-bump":
            sigma = self.sigma if self.sigma is not None else min(grid.extent) / 8.0
            center = self.center
            if center is None:
                center = tuple(L / 2.0 for L in grid.extent)
            if len(center) != grid.dim:
                raise ValueError("center must have one entry per axis")
            mesh = grid.meshgrid()
            r2 = np.zeros(grid.cells)
            for x, c in zip(mesh, center):
                r2 += (x - c) ** 2
            u = 1.0 + self.amplitude * np.exp(-r2 / (sigma * sigma))
            return InitialData(
                Field.from_nd(grid, u),
                Field.full(grid, 1.0),
                Field.full(grid, self.wbar),
            )
        # random-perturb: seeded uniform noise around the coexistence state;
        # u takes the first n draws and v the next n.
        n = grid.num_cells
        noise = 1.0 + self.amplitude * _uniform_draws(self.seed, 2 * n)
        return InitialData(
            Field(grid, noise[:n]), Field(grid, noise[n:]), Field.full(grid, self.wbar)
        )


# The hash constants of numpy's SeedSequence and the multiplier of its PCG64
# generator (O'Neill, HMC-CS-2014-0905, 2014).
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64), for seed >= 0.

    The seed's little-endian 32-bit words are hashed into a pool of four
    words, the pool words are mixed with each other, and any further seed
    words are mixed into every pool word. The 64-bit state words are then
    hashed from the pool, each from two 32-bit words, low word first.
    """
    seed = operator.index(seed)
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


def _uniform_draws(seed: int, n: int) -> np.ndarray:
    """numpy's default_rng(seed).uniform(-1.0, 1.0, n), bit for bit.

    default_rng seeds a PCG64 generator (128-bit LCG, XSL-RR output)
    through SeedSequence; each draw steps the state, takes the top 53 bits
    of the 64-bit output as a double d in [0, 1) and maps it to -1 + 2 d.
    The stream is computed here so that the initial data do not depend on
    numpy's Generator, whose output numpy does not keep stable across
    versions (NEP 19), and so that numpy's random module is never imported.
    """
    s0, s1, s2, s3 = _seed_state(seed)
    # Seeding: state 0, one step, add the initial state, one more step.
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _MASK128
    states = []
    for _ in range(n):
        state = state * _PCG_MULT + inc & _MASK128
        states.append(state.to_bytes(16, "little"))
    # The output rotates hi ^ lo right by the top 6 bits of the state.
    lo, hi = np.frombuffer(b"".join(states), dtype="<u8").reshape(n, 2).T
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    bits = x >> rot | x << (-rot & np.uint64(63))
    return -1.0 + 2.0 * ((bits >> np.uint64(11)) * 2.0**-53)


@dataclass(eq=False)
class OdeTrajectory:
    """Sampled trajectory of the spatially homogeneous reduction."""

    times: np.ndarray
    states: np.ndarray  # rows (u, v, w)
    diverged: bool = False

    def value_at(self, t: float) -> np.ndarray:
        """State at the stored time closest to t."""
        i = int(np.argmin(np.abs(self.times - t)))
        return self.states[i]


def _rates(y: np.ndarray, p: ModelParams) -> np.ndarray:
    u, v, w = y
    du = p.mu * u * (1.0 - u - w)
    return np.array(
        [
            du,
            du if p.tau == 0 else u - v,  # slaved, the signal moves with u
            -v * w + p.eta * w * (1.0 - u - w),
        ]
    )


def _rk4_samples(
    params: ModelParams, y0: tuple[float, float, float], t_end: float, dt: float
) -> Iterator[tuple[float, np.ndarray, bool]]:
    """The samples of ode_reference, one at a time: (t, y, diverged) at
    t = 0 and after each step, ending with the first that diverged. The
    arguments are checked when the first sample is asked for."""
    dt = _as_float(dt, "dt", 0, math.inf)
    t_end = _as_float(t_end, "t_end", 0, math.inf, "[)")
    if _over_step_budget(t_end, dt):
        raise ValueError(
            f"dt must be at least t_end / {_MAX_STEPS:.0e}: a smaller step needs"
            f" more than {_MAX_STEPS:.0e} steps"
        )
    y0 = [_as_float(y, "y0 entry", 0, math.inf, "[)") for y in y0]

    y = np.array(y0, dtype=float)
    if params.tau == 0:
        y[1] = y[0]

    # A shortfall or an excess below 1e-9 of a step (or 1e-12 of t_end) is
    # no step of its own: the last full step lands on t_end, as the run's
    # clock lands there.
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    if remainder < max(1e-9 * dt, 1e-12 * t_end):
        remainder = 0.0
    n_steps = n_full + 1 if remainder > 0.0 else n_full

    t = 0.0
    for i in range(1, n_steps + 2):  # the sample after step i - 1, then step i
        diverged = not np.isfinite(y).all() or _max(np.abs(y)) > ODE_DIVERGENCE_LIMIT
        yield t, y, diverged
        if diverged or i > n_steps:
            return
        h = dt if i <= n_full else remainder
        k1 = _rates(y, params)
        k2 = _rates(y + 0.5 * h * k1, params)
        k3 = _rates(y + 0.5 * h * k2, params)
        k4 = _rates(y + h * k3, params)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_end if i == n_steps else i * dt


def ode_reference(
    params: ModelParams, y0: tuple[float, float, float], t_end: float, dt: float
) -> OdeTrajectory:
    """Classical 4th-order fixed-step integration of the homogeneous reduction.

        u' = mu u (1 - u - w),  tau v' = u - v,  w' = -v w + eta w (1 - u - w)

    For tau = 0 the signal starts at u and takes u's rate, so every stage
    and step computes the same numbers for both and v stays u. The time
    after step i is i * dt (a running sum drifts by round-off), and the
    last time is t_end. Integration stops early, with the trajectory
    flagged as diverged, as soon as any component exceeds 1e12 in magnitude.
    """
    times, states = [], []
    for t, y, diverged in _rk4_samples(params, y0, t_end, dt):
        times.append(t)
        states.append(y)
    return OdeTrajectory(np.array(times), np.array(states), diverged=diverged)
