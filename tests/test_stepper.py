"""Time stepping: step control, positivity, elliptic solve, full runs."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import taxisim.diagnostics as diagnostics_mod
import taxisim.grid as grid_mod
import taxisim.stepper as stepper_mod
from conftest import ORACLE_GRIDS, smooth_field
from taxisim import (
    CFLViolation,
    Field,
    GridSpec,
    InitialData,
    ModelParams,
    ScenarioSpec,
    SolverConfig,
    gradient,
    initial_state,
    integrate,
    laplacian,
    lemma22_tolerance,
    magnitude,
    ode_reference,
    run,
    solve_elliptic,
    stable_dt,
    step,
)


def big_caps(t_end=1e9):
    # Solver config whose landing caps never bind.
    return SolverConfig(t_end=t_end, output_every=t_end, dt_max=math.inf)


SCHEMES = [
    pytest.param(1, "explicit", id="explicit"),
    pytest.param(0, "explicit", id="tau0"),
    pytest.param(1, "imex-diffusion", id="imex"),
]


def record_attempts(monkeypatch):
    """Patch _attempt_step to keep every state it returns, which step accepts
    unless it diverged; the attempts that raised count as rejections."""
    accepted, rejected = [], []
    original = stepper_mod._attempt_step

    def recording(state, params, cfg, dt):
        try:
            new = original(state, params, cfg, dt)
        except stepper_mod._RetryStep:
            rejected.append(dt)
            raise
        accepted.append(new)
        return new

    monkeypatch.setattr(stepper_mod, "_attempt_step", recording)
    return accepted, rejected


def assert_extrema_are_fresh(state):
    # A NaN extremum must stand where a fresh pass finds NaN as well.
    fresh = stepper_mod.Extrema.of(state.u.values, state.v.values, state.w.values)
    np.testing.assert_array_equal(np.array(state.extrema), np.array(fresh))


class TestSolverConfig:
    def test_output_every_defaults_to_fiftieth(self):
        cfg = SolverConfig(t_end=10.0)
        assert cfg.output_every == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": 0.0},
            {"t_end": 1.0, "cfl_safety": 0.0},
            {"t_end": 1.0, "cfl_safety": 1.5},
            {"t_end": 1.0, "anchor_time": 1.0},
            {"t_end": 1.0, "time_scheme": "verlet"},
            {"t_end": 1.0, "dt_max": 0.0},
            # more than 10^15 steps of dt_max: t + 1e-17 rounds to t from
            # t = 0.125 on, so such a run would never end
            {"t_end": 1.0, "dt_max": 1e-17},
            # more than 10^15 landings of output_every, for the same reason
            {"t_end": 1.0, "output_every": 1e-17},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("bad", [True, "1"])
    @pytest.mark.parametrize(
        "field, key",
        [
            ("t_end", "T_end"),
            ("output_every", "output_every"),
            ("cfl_safety", "cfl_safety"),
            ("dt_max", "dt_max"),
            ("blowup_threshold", "blowup_threshold"),
            ("anchor_time", "anchor_time"),
        ],
    )
    def test_float_keys_take_real_numbers_only(self, field, key, bad):
        # The message names the config key: T_end for the field t_end.
        with pytest.raises(ValueError, match=f"^{key} must be a real number"):
            SolverConfig(**{"t_end": 1.0, field: bad})

    def test_output_every_may_leave_exactly_1e15_landings(self):
        # t_end / 1e-6 is exactly 10^15 at t_end = 1e9 (TestStableDt admits
        # the same dt_max). Constructed only: the run would take too long.
        assert SolverConfig(t_end=1e9, output_every=1e-6).output_every == 1e-6


class TestStableDt:
    def test_diffusion_limited_for_constants(self):
        g = GridSpec((4.0,), (16,))  # h = 0.25
        init = ScenarioSpec(name="steady").build(g)
        p = ModelParams(chi=1.0, xi=1.0, mu=0.0)
        dt = stable_dt(initial_state(init), p, big_caps())
        assert dt == pytest.approx(0.4 * 0.25**2 / 2.0, rel=1e-14)

    def test_diffusion_limit_scales_with_dimension(self):
        p = ModelParams(chi=1.0, mu=0.0)
        for dim in (1, 2, 3):
            g = GridSpec((1.0,) * dim, (10,) * dim)
            init = ScenarioSpec(name="steady").build(g)
            dt = stable_dt(initial_state(init), p, big_caps())
            assert dt == pytest.approx(0.4 * 0.1**2 / (2.0 * dim), rel=1e-13)

    def test_advection_limited_by_steepest_ramp(self):
        # h = 0.1 and max |chi grad v| = 10: diffusion limit 0.005 wins over
        # the transport limit 0.01, so dt = 0.4 * 0.005.
        g = GridSpec((1.0,), (10,))
        x = g.cell_centers(0)
        init = InitialData(
            Field.full(g, 1.0), Field(g, 10.0 * x), Field.zeros(g)
        )
        p = ModelParams(chi=1.0, xi=0.0, mu=0.0)
        state = initial_state(init)
        assert np.max(np.abs(gradient(state.v)[0].values)) == pytest.approx(10.0)
        dt = stable_dt(state, p, big_caps())
        assert dt == pytest.approx(0.4 * 0.005, rel=1e-13)

    def test_reaction_limit(self):
        g = GridSpec((100.0,), (4,))  # huge cells: diffusion limit enormous
        init = ScenarioSpec(name="constant", u0=3.0, v0=0.0, w0=1.0).build(g)
        p = ModelParams(chi=1.0, mu=2.0)
        dt = stable_dt(initial_state(init), p, big_caps())
        assert dt == pytest.approx(0.4 / (2.0 * (1.0 + 3.0 + 1.0)), rel=1e-12)

    def test_reaction_limit_takes_the_renewal_rate(self):
        # eta = 50: the renewal step's rate sup v + eta (1 + sup u + sup w)
        # = 70.1 is far above mu (1 + sup u + sup w) = 1.4 and the decay 1.
        g = GridSpec((8.0,), (4,))
        init = ScenarioSpec(name="constant", u0=0.1, v0=0.1, w0=0.3).build(g)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, eta=50.0)
        cfg = big_caps()
        dt = stable_dt(initial_state(init), p, cfg)
        assert dt.binding == "reaction"
        assert dt == pytest.approx(cfg.cfl_safety / (0.1 + 50.0 * (1.0 + 0.1 + 0.3)), rel=1e-14)

    def test_reaction_limit_takes_the_signal_decay(self):
        # tau = 1 on coarse cells: diffusion allows 8 and mu (1 + sup u +
        # sup w) = 0.18 allows 5.6, but the explicit decay of v allows 1. A
        # step of 1 (the output landing) would set v to u outright and leave
        # the run 27% off the ODE; at 0.4 it is 9% off.
        g = GridSpec((16.0,), (4,))
        init = ScenarioSpec(name="constant", u0=0.5, v0=1.0, w0=0.3).build(g)
        p = ModelParams(chi=1.0, xi=1.0, mu=0.1)
        cfg = SolverConfig(t_end=4.0, output_every=1.0)
        dt = stable_dt(initial_state(init), p, cfg)
        assert dt.binding == "reaction"
        assert dt == cfg.cfl_safety * 1.0
        out = run(init, p, cfg)
        assert out.status == "completed"
        assert out.records[1].sup_v != out.records[1].sup_u
        traj = ode_reference(p, (0.5, 1.0, 0.3), 4.0, 1e-3)
        for rec in out.records:
            ref = traj.value_at(rec.t)
            np.testing.assert_allclose((rec.sup_u, rec.sup_v, rec.sup_w), ref, rtol=0.1)

    def test_doubling_cfl_doubles_dt(self):
        g = GridSpec((1.0,), (16,))
        init = ScenarioSpec(name="steady").build(g)
        p = ModelParams(chi=1.0, mu=0.0)
        state = initial_state(init)
        dt1 = stable_dt(state, p, SolverConfig(t_end=1e9, output_every=1e9, cfl_safety=0.2))
        dt2 = stable_dt(state, p, SolverConfig(t_end=1e9, output_every=1e9, cfl_safety=0.4))
        assert dt2 == pytest.approx(2.0 * dt1, rel=1e-15)

    def test_caps_bind(self):
        g = GridSpec((1.0,), (8,))
        init = ScenarioSpec(name="steady").build(g)
        p = ModelParams(chi=1.0, mu=0.0)
        state = initial_state(init)
        cfg = SolverConfig(t_end=1e9, output_every=1e9, dt_max=1e-6)
        dt = stable_dt(state, p, cfg)
        assert dt == 1e-6
        assert dt.binding == "dt_max"
        assert dt.landing == stepper_mod._next_landing(state.t, cfg)
        # landing on the next output time
        cfg = SolverConfig(t_end=10.0, output_every=1e-5)
        dt = stable_dt(state, p, cfg)
        assert dt == pytest.approx(1e-5, rel=1e-9)
        assert dt.binding == "landing"
        assert dt.landing == stepper_mod._next_landing(state.t, cfg)

    def test_unfinishable_step_names_its_limit(self):
        # mu = 1e300 gives a reaction limit of ~1e-301: reaching t_end = 0.01
        # would take ~1e298 steps, so no step is offered.
        g = GridSpec((1.0,), (4,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        p = ModelParams(chi=1.0, xi=0.0, mu=1e300)
        with pytest.raises(ValueError, match="the reaction limit gives dt="):
            stable_dt(state, p, SolverConfig(t_end=0.01))
        with pytest.raises(ValueError, match="the reaction limit gives dt="):
            run(ScenarioSpec(name="steady").build(g), p, SolverConfig(t_end=0.01))

    def test_no_step_past_the_end_names_the_config_key(self):
        # The SolverConfig field is t_end; the message names the key T_end.
        g = GridSpec((1.0,), (4,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        cfg = SolverConfig(t_end=1.0)
        state.t = cfg.t_end
        with pytest.raises(ValueError, match=r"no positive step available \(already at T_end\?\)"):
            stable_dt(state, ModelParams(chi=1.0), cfg)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_nonfinite_extrema_signal_divergence(self, mu):
        # Past the guard, an infinite u gives a NaN reaction rate at mu = 0,
        # so a step is offered, and a zero reaction limit at mu > 0, so a
        # step-floor ValueError names the wrong cause.
        from taxisim import Diverged

        g = GridSpec((1.0,), (8,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        state.u.values[2] = math.inf
        state.extrema = stepper_mod.Extrema.of(state.u.values, state.v.values, state.w.values)
        with pytest.raises(Diverged, match="non-finite state") as info:
            stable_dt(state, ModelParams(chi=1.0, mu=mu), big_caps())
        assert info.value.state is state


def exact_stable_dt(state, params, cfg):
    """stable_dt with the transport limit always computed from the gradients:
    the formula before the range bound, kept as the reference. Returns the
    step before the landing caps and the name of the binding limit."""
    ext = state.extrema
    grid = state.grid
    inv_h2_sum = sum(1.0 / (h * h) for h in grid.spacing)
    limit, binding = 1.0 / (2.0 * inv_h2_sum), "diffusion"
    # The largest explicit rate: logistic growth, the signal's decay (tau = 1)
    # and the renewal step of w (eta > 0).
    rates = [params.mu * (1.0 + ext.max_u + ext.max_w)]
    if params.tau == 1:
        rates.append(1.0)
    if params.eta != 0.0:
        rates.append(ext.max_v + params.eta * (1.0 + ext.max_u + ext.max_w))
    reaction = 1.0 / (max(rates) + stepper_mod._EPS_RATE)
    if reaction < limit:
        limit, binding = reaction, "reaction"
    grad_v = gradient(state.v)
    grad_w = gradient(state.w)
    for axis, h in enumerate(grid.spacing):
        speed = np.abs(params.chi * grad_v[axis].values)
        speed += np.abs(params.xi * grad_w[axis].values)
        transport = h / (float(np.max(speed)) + stepper_mod._EPS_RATE)
        if transport < limit:
            limit, binding = transport, f"transport (axis {axis})"
    return min(cfg.cfl_safety * limit, cfg.dt_max), binding


def _ramp_state(g, slope):
    x = g.cell_centers(0)
    return initial_state(InitialData(Field.full(g, 1.0), Field(g, slope * x), Field.zeros(g)))


def _random_state(g, seed):
    sc = ScenarioSpec(name="random-perturb", amplitude=0.9, seed=seed, wbar=0.3)
    return initial_state(sc.build(g))


def _smooth_state(g, seed):
    rng = np.random.default_rng(seed)
    u = smooth_field(g, rng, nonneg=True)
    v = smooth_field(g, rng, nonneg=True)
    w = smooth_field(g, rng, nonneg=True, amplitude=0.2)
    return initial_state(InitialData(u, v, w))


# name: (state, params, the limit that binds, whether the range bound rules
# transport out so that no gradient is computed)
DT_CASES = {
    "smooth-1d": (
        lambda: _smooth_state(GridSpec((2.0,), (64,)), 1),
        ModelParams(chi=1.0, xi=1.0, mu=1.0), "diffusion", True,
    ),
    "smooth-2d": (
        lambda: _smooth_state(GridSpec((6.0, 6.0), (64, 64)), 2),
        ModelParams(chi=1.0, xi=1.0, mu=10.0), "diffusion", True,
    ),
    "smooth-3d": (
        lambda: _smooth_state(GridSpec((3.0,) * 3, (16,) * 3), 3),
        ModelParams(chi=1.0, xi=1.0, mu=1.0), "diffusion", True,
    ),
    "rough-1d": (
        lambda: _random_state(GridSpec((6.0,), (64,)), 4),
        ModelParams(chi=1.0, xi=1.0, mu=10.0), "diffusion", True,
    ),
    "rough-2d": (
        lambda: _random_state(GridSpec((1.0, 1.5), (12, 16)), 5),
        ModelParams(chi=4.0, xi=1.0, mu=1.0), "diffusion", False,
    ),
    "rough-3d": (
        lambda: _random_state(GridSpec((1.0,) * 3, (8,) * 3), 6),
        ModelParams(chi=2.0, xi=2.0, mu=1.0), "diffusion", True,
    ),
    "anisotropic-2d-axis0": (
        lambda: _random_state(GridSpec((0.5, 6.0), (16, 8)), 7),
        ModelParams(chi=8.0, xi=1.0, mu=1.0), "transport (axis 0)", False,
    ),
    "anisotropic-2d-axis1": (
        lambda: _random_state(GridSpec((6.0, 0.5), (8, 16)), 7),
        ModelParams(chi=8.0, xi=1.0, mu=1.0), "transport (axis 1)", False,
    ),
    "anisotropic-3d": (
        lambda: _smooth_state(GridSpec((0.8, 1.9, 3.1), (4, 7, 5)), 8),
        ModelParams(chi=3.0, xi=0.5, mu=1.0), "diffusion", False,
    ),
    "steep-ramp": (
        lambda: _ramp_state(GridSpec((1.0,), (10,)), 40.0),
        ModelParams(chi=1.0, xi=0.0, mu=0.0), "transport (axis 0)", False,
    ),
    "chi64-random-1d": (
        lambda: _random_state(GridSpec((6.0,), (64,)), 9),
        ModelParams(chi=64.0, xi=1.0, mu=10.0), "transport (axis 0)", False,
    ),
    "chi64-random-2d": (
        lambda: _random_state(GridSpec((1.0, 3.0), (16, 24)), 10),
        ModelParams(chi=64.0, xi=1.0, mu=1.0), "transport (axis 0)", False,
    ),
    "reaction": (
        lambda: _random_state(GridSpec((100.0,), (4,)), 11),
        ModelParams(chi=1.0, xi=1.0, mu=2.0), "reaction", True,
    ),
    # spread * limit is 1.17 h^2 against the diffusion limit h^2 / 2 and
    # 0.75 h^2 against the smaller reaction limit 1/800, so only the latter
    # lets the range bound rule transport out.
    "reaction-rules-transport-out": (
        lambda: _ramp_state(GridSpec((1.0,), (16,)), 2.5),
        ModelParams(chi=1.0, xi=0.0, mu=400.0), "reaction", True,
    ),
}


def count_gradients(monkeypatch) -> list:
    """Wrap the gradient that taxisim.stepper calls; return the call log."""
    calls = []
    monkeypatch.setattr(stepper_mod, "gradient", lambda f: calls.append(f) or gradient(f))
    return calls


class TestStableDtRangeBound:
    """stable_dt skips the gradients when the field ranges rule transport out;
    its step must equal the exact formula bit for bit either way."""

    @pytest.mark.parametrize("case", sorted(DT_CASES))
    def test_equals_exact_formula(self, case, monkeypatch):
        make, params, binding, skips = DT_CASES[case]
        state = make()
        cfg = big_caps()
        dt, found = exact_stable_dt(state, params, cfg)
        assert found == binding
        calls = count_gradients(monkeypatch)
        proposed = stable_dt(state, params, cfg)
        assert len(calls) == (0 if skips else 2)
        assert proposed == dt
        assert proposed.binding == found
        assert proposed.landing == stepper_mod._next_landing(state.t, cfg)
        # States that step produced carry their extrema, which stable_dt
        # reads for the range of v.
        for _ in range(3):
            state = step(state, params, cfg)
            assert_extrema_are_fresh(state)
            assert stable_dt(state, params, cfg) == exact_stable_dt(state, params, cfg)[0]

    def test_steps_of_a_run_take_no_gradient(self, monkeypatch):
        # A 2D bump run: the stepper's gradient runs once, for the anchor
        # snapshot, and the records' twice per record (sup_grad_v and the
        # curvature bound's gradient of Iv), never per step.
        calls = count_gradients(monkeypatch)
        record_calls = []
        monkeypatch.setattr(
            diagnostics_mod, "gradient", lambda f: record_calls.append(f) or gradient(f)
        )
        g = GridSpec((2.0, 2.0), (16, 16))
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.4, wbar=0.3)
        out = run(
            sc.build(g),
            ModelParams(chi=1.0, xi=1.0, mu=1.0),
            SolverConfig(t_end=0.2, output_every=0.05),
        )
        assert out.status == "completed"
        assert out.steps > 10 * len(out.records)
        assert len(calls) == 1
        assert len(record_calls) == 2 * len(out.records)


class TestStep:
    def test_steady_state_is_fixed_point(self):
        g = GridSpec((2.0,), (16,))
        init = ScenarioSpec(name="steady").build(g)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        state = initial_state(init)
        for _ in range(5):
            state = step(state, p, big_caps())
        assert np.max(np.abs(state.u.values - 1.0)) <= 1e-14
        assert np.max(np.abs(state.v.values - 1.0)) <= 1e-14
        assert np.max(np.abs(state.w.values)) == 0.0
        assert state.t > 0.0

    def test_homogeneous_matches_ode_oracle(self):
        g = GridSpec((1.0,), (16,))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        init = ScenarioSpec(name="constant", u0=2.0, v0=0.5, w0=0.5).build(g)
        cfg = SolverConfig(t_end=5.0, output_every=1.0)
        out = run(init, p, cfg)
        assert out.status == "completed"
        dt = out.records[1].dt
        traj = ode_reference(p, (2.0, 0.5, 0.5), 5.0, 1e-4)
        worst = 0.0
        for rec in out.records[1:]:
            ref = traj.value_at(rec.t)
            worst = max(
                worst,
                abs(rec.sup_u - ref[0]) / max(abs(ref[0]), 1e-30),
                abs(rec.sup_v - ref[1]) / max(abs(ref[1]), 1e-30),
                abs(rec.sup_w - ref[2]) / max(abs(ref[2]), 1e-30),
            )
        assert worst <= 10.0 * dt

    @pytest.mark.parametrize(
        "extent, cells, eta, tau, scheme",
        [
            pytest.param((1.0,), (8,), 1.0, 1, "explicit", id="eta1-explicit"),
            pytest.param((1.0,), (8,), 1.0, 1, "imex-diffusion", id="eta1-imex"),
            pytest.param((1.0,), (8,), 1.0, 0, "explicit", id="eta1-tau0"),
            pytest.param((8.0,), (4,), 50.0, 1, "explicit", id="eta50"),
        ],
    )
    def test_renewal_matches_ode_oracle(self, extent, cells, eta, tau, scheme):
        # w rises above its initial 0.3 (to 0.50-0.90), past the eta = 0
        # ceiling sup w0 and below the renewal ceiling 1. With eta = 50 the
        # renewal rate sets the step.
        g = GridSpec(extent, cells)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, eta=eta, tau=tau)
        init = ScenarioSpec(name="constant", u0=0.1, v0=0.1, w0=0.3).build(g)
        out = run(init, p, SolverConfig(t_end=5.0, output_every=1.0, time_scheme=scheme))
        assert out.status == "completed"
        traj = ode_reference(p, (0.1, 0.1, 0.3), 5.0, 1e-3)
        for rec in out.records:
            ref = traj.value_at(rec.t)
            np.testing.assert_allclose((rec.sup_u, rec.sup_v, rec.sup_w), ref, rtol=0.01)
        assert out.invariant_violations == 0
        assert out.min_w >= 0.0
        assert 0.45 < out.max_w <= 1.0

    def test_frozen_signal_gives_exact_exponential_decay(self):
        # u = v = c and mu = 0 keep every field constant except w, whose exact
        # update must compose into a single exponential d e^{-c t}.
        g = GridSpec((1.0,), (16,))
        p = ModelParams(chi=1.0, xi=1.0, mu=0.0)
        init = ScenarioSpec(name="constant", u0=0.7, v0=0.7, w0=0.4).build(g)
        out = run(init, p, SolverConfig(t_end=2.0, output_every=0.25))
        for rec in out.records:
            exact = 0.4 * math.exp(-0.7 * rec.t)
            assert rec.sup_w == pytest.approx(exact, rel=1e-12)
            assert rec.repr_residual == 0.0
        assert np.max(np.abs(out.final_state.v.values - 0.7)) == 0.0

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    def test_explicit_step_keeps_the_coexistence_state_exactly(self, extent, cells):
        # At u = v = 1, w = 0 the reaction seed, every face flux and the
        # signal rate are exactly 0, so adding them to u and v changes no bit.
        g = GridSpec(extent, cells)
        state = initial_state(ScenarioSpec(name="steady").build(g))
        new = step(state, ModelParams(chi=1.3, xi=0.7, mu=1.1), big_caps())
        assert new.last_dt > 0.0
        assert np.array_equal(new.u.values, np.ones(g.num_cells))
        assert np.array_equal(new.v.values, np.ones(g.num_cells))
        assert np.array_equal(new.w.values, np.zeros(g.num_cells))

    def test_nonfinite_state_signals_divergence(self):
        from taxisim import Diverged

        g = GridSpec((1.0,), (8,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        state.u.values[2] = math.inf
        with pytest.raises(Diverged):
            step(state, ModelParams(chi=1.0), big_caps())

    @pytest.mark.parametrize(
        "name,bad,cell,tau,scheme",
        [
            pytest.param(name, bad, cell, tau, scheme, id=f"{name}-{bad}{suffix}")
            for tau, scheme, suffix in [
                (1, "explicit", ""), (0, "explicit", "-tau0"), (1, "imex-diffusion", "-imex")
            ]
            for name, bad, cell in [
                ("u", math.inf, 7), ("v", math.nan, 7), ("w", math.nan, 7),
                ("u", -math.inf, 0), ("w", math.inf, 0), ("w", -math.inf, 0),
                ("v", math.inf, 0), ("Iv", math.inf, 0),
            ]
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_state_edited_after_step_signals_divergence(
        self, monkeypatch, name, bad, cell, tau, scheme
    ):
        # step keeps the extrema of the states it accepts; a non-finite value
        # written into such a state afterwards must still stop the next step,
        # whichever way the signal is advanced. With eta = 0 only stable_dt
        # reads w, so it must take the range of w from w, not from extrema,
        # and an infinite range is divergence, not a zero transport limit.
        # A -inf that reaches a positivity clamp is divergence too, not
        # negativity to retry with a smaller dt. An infinite signal integral
        # (an edited Iv, or v when tau = 0) makes w = 0, a finite substrate,
        # so it must be caught on Iv itself. The extrema of the diverged
        # state, NaN or not, are those of its fields.
        from taxisim import Diverged

        accepted, _ = record_attempts(monkeypatch)
        g = GridSpec((1.0, 1.5), (6, 5))
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, tau=tau)
        cfg = SolverConfig(t_end=1e9, output_every=1e9, time_scheme=scheme)
        state = step(initial_state(sc.build(g)), p, cfg)
        assert_extrema_are_fresh(state)
        getattr(state, name).values[cell] = bad
        with pytest.raises(Diverged):
            step(state, p, cfg)
        for new in accepted[1:]:
            assert_extrema_are_fresh(new)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["explicit", "imex-diffusion"])
    def test_overflowing_transport_speed_signals_divergence(self, scheme):
        # A finite v near the float limit passes the extrema checks, but its
        # gradient overflows to inf. An infinite transport speed is
        # divergence, not a zero transport limit that ends the run with a
        # dt-floor ValueError.
        from taxisim import Diverged

        g = GridSpec((1.0, 1.5), (6, 5))
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=1e9, output_every=1e9, time_scheme=scheme)
        state = step(initial_state(sc.build(g)), p, cfg)
        state.v.values[0] = 1.7e308
        state.extrema = stepper_mod.Extrema.of(state.u.values, state.v.values, state.w.values)
        assert state.extrema.finite
        with pytest.raises(Diverged, match="non-finite transport speed"):
            step(state, p, cfg)

    def test_retry_exhaustion_raises_cfl_violation(self, monkeypatch):
        calls = {"n": 0}

        def always_reject(state, params, cfg, dt):
            calls["n"] += 1
            raise stepper_mod._RetryStep

        monkeypatch.setattr(stepper_mod, "_attempt_step", always_reject)
        g = GridSpec((1.0,), (8,))
        init = ScenarioSpec(name="steady").build(g)
        state = initial_state(init)
        with pytest.raises(CFLViolation):
            step(state, ModelParams(chi=1.0), big_caps())
        assert calls["n"] == 11  # initial attempt plus 10 halvings


class TestEllipticSolve:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_right_hand_side_rejected(self, bad):
        g = GridSpec((1.0,), (8,))
        u = Field.full(g, 1.0)
        u.values[3] = bad
        with pytest.raises(ValueError, match="elliptic right-hand side must be finite"):
            solve_elliptic(u)

    def test_constant_right_hand_side(self):
        g = GridSpec((1.0, 1.0), (12, 12))
        v = solve_elliptic(Field.full(g, 3.0), SolverConfig(t_end=1.0))
        assert np.allclose(v.values, 3.0, atol=1e-9)

    def test_cosine_convergence_order(self):
        errors = []
        for n in (32, 64):
            g = GridSpec((1.0,), (n,))
            x = g.cell_centers(0)
            u = Field(g, 1.0 + np.cos(np.pi * x))
            v = solve_elliptic(u, SolverConfig(t_end=1.0))
            exact = 1.0 + np.cos(np.pi * x) / (1.0 + np.pi**2)
            errors.append(np.max(np.abs(v.values - exact)))
        order = math.log2(errors[0] / errors[1])
        assert order >= 1.8

    def test_discrete_maximum_principle(self):
        rng = np.random.default_rng(77)
        cfg = SolverConfig(t_end=1.0)
        for dim in (1, 2, 3):
            g = GridSpec((1.0,) * dim, (10,) * dim)
            for _ in range(10):
                u = smooth_field(g, rng, nonneg=True)
                v = solve_elliptic(u, cfg)
                floor = -1e-13 * float(np.max(u.values))
                assert float(np.min(v.values)) >= floor

    # Grids with one long axis and short others, in each position: axis 0
    # (128, 6, 3), the slowest axis (3, 6, 128) and a middle axis under a
    # stack (40, 100, 2); and 2D grids of unequal counts, prime ones among
    # them: (100, 40), (64, 67), (128, 127). Spacings of 0.4-0.7 keep
    # I - alpha lap well conditioned, so the residual measures the solve.
    LARGE_ANISOTROPIC = [
        ((51.2, 3.0, 2.1), (128, 6, 3)),
        ((2.1, 3.0, 51.2), (3, 6, 128)),
        ((16.0, 50.0, 1.4), (40, 100, 2)),
        ((40.0, 20.0), (100, 40)),
        ((32.0, 33.5), (64, 67)),
        ((64.0, 63.5), (128, 127)),
    ]

    @pytest.mark.parametrize(
        "extent, cells",
        [((1.3,), (5,)), ((1.0, 2.7), (6, 9)), ((0.8, 1.9, 3.1), (4, 7, 5)), *LARGE_ANISOTROPIC],
    )
    @pytest.mark.parametrize("alpha", [1e-3, 1.0])
    def test_screened_solve_is_exact_on_anisotropic_grids(self, extent, cells, alpha):
        # Unequal cell counts and spacings per axis pin down the axis-0-fastest
        # layout and the per-axis h, which a cubic grid cannot.
        g = GridSpec(extent, cells)
        b = np.random.default_rng(3).random(g.num_cells)
        x = stepper_mod._screened_solve(g, b, alpha)
        residual = x - alpha * laplacian(Field(g, x)).values - b
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize(
        "extent, cells", [((6.0,), (64,)), ((1.0, 2.7), (6, 9)), ((0.8, 1.9, 3.1), (5, 7, 3))]
    )
    def test_reused_denominator_is_never_stale(self, extent, cells):
        # The grid keeps 1 + alpha lam for the last alpha; a, b, a must each
        # solve as on a grid that has never solved before.
        g = GridSpec(extent, cells)
        b = np.random.default_rng(4).random(g.num_cells)
        for alpha in (2.5e-3, 1.0, 2.5e-3):
            x = stepper_mod._screened_solve(g, b, alpha)
            fresh = stepper_mod._screened_solve(GridSpec(extent, cells), b, alpha)
            assert x.tobytes() == fresh.tobytes()

    @staticmethod
    def einsum_transform(g, b, transpose=False):
        """The orthonormal DCT-II along every axis, one np.einsum per axis on
        the nd array (the transposes when transpose), returned flat."""
        x = b.reshape(g.cells, order="F")
        letters = "abc"[: g.dim]
        for axis, n in enumerate(g.cells):
            k = np.arange(n)[:, None]
            c = np.sqrt(2.0 / n) * np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
            c[0] *= np.sqrt(0.5)
            m = c.T if transpose else c
            out = letters.replace(letters[axis], "z")
            x = np.einsum(f"z{letters[axis]},{letters}->{out}", m, x)
        return x.ravel(order="F")

    # 1D grids, whose one product is a vector product, and 3D grids of three
    # distinct counts, on which the view of every axis differs.
    @pytest.mark.parametrize(
        "extent, cells",
        [
            ((1.3,), (5,)),
            ((6.0,), (64,)),
            ((0.8, 1.9, 3.1), (4, 7, 5)),
            ((4.0, 2.7, 3.3), (16, 9, 11)),
            *LARGE_ANISOTROPIC,
        ],
    )
    def test_axis_products_are_the_per_axis_transform(self, extent, cells):
        g = GridSpec(extent, cells)
        spec = g._spectrum
        b = np.random.default_rng(8).uniform(-1.0, 1.0, g.num_cells)
        sup_b = np.max(np.abs(b))
        hat = grid_mod._transform(b, spec)
        ref = self.einsum_transform(g, b)
        assert np.max(np.abs(hat - ref)) <= 1e-13 * np.max(np.abs(ref))
        back = grid_mod._transform(b, spec, inverse=True)
        ref = self.einsum_transform(g, b, transpose=True)
        assert np.max(np.abs(back - ref)) <= 1e-13 * np.max(np.abs(ref))
        # The cosine matrices are orthonormal to ~n eps: 2.5e-14 at n = 128.
        identity = grid_mod._transform(hat, spec, inverse=True)
        assert np.max(np.abs(identity - b)) <= 1e-13 * sup_b

    @pytest.mark.parametrize("tau, scheme", [(0, "explicit"), (1, "imex-diffusion")])
    @pytest.mark.parametrize(
        "dip, rejected", [(1e-14, False), (0.9e-13, False), (1.1e-13, True), (1e-11, True)]
    )
    def test_solve_roundoff_clamped_real_negativity_rejected(
        self, monkeypatch, tau, scheme, dip, rejected
    ):
        exact = stepper_mod._screened_solve

        def dipped(grid, b, alpha):
            x = exact(grid, b, alpha)
            x[3] = -dip * np.max(np.abs(b))
            return x

        monkeypatch.setattr(stepper_mod, "_screened_solve", dipped)
        g = GridSpec((1.0,), (8,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        params = ModelParams(chi=1.0, tau=tau)
        cfg = SolverConfig(t_end=1.0, time_scheme=scheme)
        if rejected:
            with pytest.raises(stepper_mod._RetryStep):
                stepper_mod._attempt_step(state, params, cfg, 1e-3)
        else:
            new = stepper_mod._attempt_step(state, params, cfg, 1e-3)
            assert new.v.values[3] == 0.0


class TestImexScheme:
    def test_homogeneous_imex_matches_explicit(self):
        # With spatially constant fields the implicit diffusion solve is the
        # identity, so IMEX and explicit trajectories coincide.
        g = GridSpec((1.0,), (8,))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        init = ScenarioSpec(name="constant", u0=2.0, v0=0.5, w0=0.5).build(g)
        out_ex = run(init, p, SolverConfig(t_end=1.0, output_every=0.25))
        out_im = run(
            init, p, SolverConfig(t_end=1.0, output_every=0.25, time_scheme="imex-diffusion")
        )
        for a, b in zip(out_ex.records, out_im.records):
            assert b.sup_v == pytest.approx(a.sup_v, rel=1e-9)
            assert b.sup_u == pytest.approx(a.sup_u, rel=1e-9)

    def test_imex_bump_close_to_explicit(self):
        g = GridSpec((2.0,), (32,))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.4, sigma=0.3, wbar=0.2)
        out_ex = run(sc.build(g), p, SolverConfig(t_end=0.5, output_every=0.25))
        out_im = run(
            sc.build(g),
            p,
            SolverConfig(t_end=0.5, output_every=0.25, time_scheme="imex-diffusion"),
        )
        assert out_im.invariant_violations == 0
        assert out_im.records[-1].sup_u == pytest.approx(out_ex.records[-1].sup_u, rel=1e-3)


class TestRun:
    def test_records_follow_output_cadence(self):
        g = GridSpec((1.0,), (8,))
        p = ModelParams(chi=1.0, mu=1.0)
        out = run(
            ScenarioSpec(name="steady").build(g), p, SolverConfig(t_end=1.0, output_every=0.25)
        )
        times = [rec.t for rec in out.records]
        assert len(times) == 5
        assert np.allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)
        assert out.status == "completed"
        assert out.steps > 0

    def test_clock_lands_exactly_on_outputs_and_t_end(self, monkeypatch):
        # 2000 diffusion-limited steps of 0.05 between outputs 0.1 apart:
        # rounding in t + dt used to drift the clock, ending the run at
        # 99.99999999999613 instead of 100.
        dts = []
        original = stepper_mod.step

        def recording(state, params, cfg):
            new = original(state, params, cfg)
            dts.append(new.last_dt)
            return new

        monkeypatch.setattr(stepper_mod, "step", recording)
        g = GridSpec((1.0,), (2,))
        out = run(
            ScenarioSpec(name="steady").build(g),
            ModelParams(chi=1.0, mu=1.0),
            SolverConfig(t_end=100.0, output_every=0.1),
        )
        assert out.status == "completed"
        assert out.final_state.t == 100.0
        assert out.steps == 2000
        assert [rec.t for rec in out.records] == [k * 0.1 for k in range(1001)]
        assert min(dts) >= 0.05 * (1.0 - 1e-12)

    def test_one_landing_per_step_and_plain_float_steps(self, monkeypatch):
        # step reads the landing from the step size stable_dt returns, so
        # _next_landing runs once per step. Downstream of stable_dt every
        # step size is a plain float: last_dt, the step size divided by 2
        # (as the acceptance tests do) and float() of it.
        landings = []
        next_landing = stepper_mod._next_landing
        monkeypatch.setattr(
            stepper_mod, "_next_landing", lambda t, cfg: landings.append(t) or next_landing(t, cfg)
        )
        dts = []
        original = stepper_mod.step

        def recording(state, params, cfg):
            new = original(state, params, cfg)
            dts.append(new.last_dt)
            return new

        monkeypatch.setattr(stepper_mod, "step", recording)
        g = GridSpec((1.0,), (16,))
        init = ScenarioSpec(name="gaussian-bump").build(g)
        p = ModelParams(chi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=1.0, output_every=0.25, anchor_time=0.3)
        out = run(init, p, cfg)
        assert out.status == "completed"
        assert out.steps == len(dts) == len(landings) > 0
        assert {type(dt) for dt in dts} == {float}
        assert out.final_state.anchor.s0 == 0.3
        proposed = stable_dt(initial_state(init), p, cfg)
        assert isinstance(proposed, float)
        assert type(proposed / 2.0) is float
        assert type(float(proposed)) is float

    def test_step_ending_a_rounding_error_short_of_an_output_lands_on_it(self):
        g = GridSpec((1.0,), (2,))  # steady state, dt = 0.05
        p = ModelParams(chi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=1.0, output_every=0.1)
        state = initial_state(ScenarioSpec(name="steady").build(g))
        state.t = 0.05 - 1e-12
        new = step(state, p, cfg)
        assert new.last_dt == 0.05
        assert new.t == 0.1
        assert step(new, p, cfg).t == 0.1 + 0.05

    @pytest.mark.parametrize("t_end", [0.23, 0.45])
    def test_last_output_time_within_rounding_of_t_end_is_t_end(self, t_end):
        # The 50th default output time, 50 * (t_end / 50), misses t_end by
        # one rounding (below it for 0.23, above for 0.45); the run still
        # ends on t_end with one record per output and no sliver step.
        g = GridSpec((1.0,), (4,))
        p = ModelParams(chi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=t_end)
        out = run(ScenarioSpec(name="steady").build(g), p, cfg)
        assert out.final_state.t == t_end
        assert len(out.records) == 51
        assert out.records[-1].t == t_end
        assert min(rec.dt for rec in out.records[1:]) > 1e-9 * cfg.output_every

    @pytest.mark.parametrize("anchor_time", [0.25 - 1e-12, 1.0 - 1e-12])
    def test_anchor_within_rounding_below_a_landing_lands_there(self, monkeypatch, anchor_time):
        # An anchor time a rounding error below an output time or t_end is
        # that landing: the run re-anchors on it, with no sliver step and
        # no record off the output times.
        dts = []
        original = stepper_mod.step

        def recording(state, params, cfg):
            new = original(state, params, cfg)
            dts.append(new.last_dt)
            return new

        monkeypatch.setattr(stepper_mod, "step", recording)
        g = GridSpec((1.0,), (8,))
        cfg = SolverConfig(t_end=1.0, output_every=0.25, anchor_time=anchor_time)
        out = run(ScenarioSpec(name="steady").build(g), ModelParams(chi=1.0, mu=1.0), cfg)
        assert out.status == "completed"
        assert [rec.t for rec in out.records] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert min(dts) > 1e-9 * cfg.output_every
        assert out.final_state.anchor.s0 == (0.25 if anchor_time < 0.5 else 1.0)

    def test_positivity_on_rough_data(self):
        g = GridSpec((2.0,), (48,))
        p = ModelParams(chi=2.0, xi=1.0, mu=1.0)
        sc = ScenarioSpec(name="random-perturb", amplitude=0.9, seed=2024)
        out = run(sc.build(g), p, SolverConfig(t_end=1.0, output_every=0.25))
        assert out.status == "completed"
        assert out.invariant_violations == 0
        assert out.min_u >= 0.0
        assert out.min_v >= 0.0
        assert out.min_w >= 0.0

    def test_substrate_ceiling_and_monotone_sup(self):
        g = GridSpec((2.0,), (32,))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.4)
        out = run(sc.build(g), p, SolverConfig(t_end=1.0, output_every=0.1))
        sups = [rec.sup_w for rec in out.records]
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
        assert out.max_w <= 0.4

    def test_anchor_capture_and_offline_accumulator_recheck(self):
        # Re-anchoring at t = 1 resets the integrals; the stored signal series
        # recomputed with the coarse output-cadence trapezoid must agree with
        # the accumulated Iv to quadrature accuracy (cadence squared scale).
        g = GridSpec((2.0,), (32,))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.4, wbar=0.3)
        cadence = 0.05
        snaps: list[tuple[float, np.ndarray]] = []
        cfg = SolverConfig(t_end=2.0, output_every=cadence, anchor_time=1.0)
        out = run(
            sc.build(g),
            p,
            cfg,
            snapshot_sink=lambda st: snaps.append((st.t, st.v.values.copy())),
        )
        assert out.status == "completed"
        assert out.final_state.anchor.s0 == pytest.approx(1.0, abs=1e-8)
        post = [(t, v) for t, v in snaps if t >= 1.0 - 1e-9]
        offline = np.zeros_like(post[0][1])
        for (ta, va), (tb, vb) in zip(post[:-1], post[1:]):
            offline += 0.5 * (tb - ta) * (va + vb)
        diff = np.max(np.abs(out.final_state.Iv.values - offline))
        assert diff <= 5.0 * cadence**2

    @pytest.mark.parametrize("anchor_time", [0.0, 0.3, 0.5])
    def test_the_anchor_record_after_a_re_anchor(self, monkeypatch, anchor_time):
        # The run snapshots at t = 0 and once more at a positive anchor
        # time. The re-anchored state carries its own extrema in the anchor,
        # and the curvature budget reads its scale M from them and from the
        # anchor substrate's derivatives.
        taken = []
        original = stepper_mod.take_snapshot

        def counting(t, w, extrema):
            taken.append(t)
            return original(t, w, extrema)

        monkeypatch.setattr(stepper_mod, "take_snapshot", counting)
        g = GridSpec((4.0,), (32,))
        init = ScenarioSpec(name="gaussian-bump").build(g)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=1.0, output_every=0.25, anchor_time=anchor_time)
        sunk = {}
        out = run(init, p, cfg, snapshot_sink=lambda st: sunk.setdefault(st.t, st))
        assert out.status == "completed"
        assert taken == ([0.0] if anchor_time == 0.0 else [0.0, anchor_time])
        assert out.final_state.anchor.s0 == anchor_time
        if anchor_time != 0.5:
            return
        state = sunk[0.5]
        ext = state.anchor.extrema
        assert ext == stepper_mod.Extrema.of(state.u.values, state.v.values, state.w.values)
        w_s0 = state.anchor.w_s0
        m = max(
            ext.max_u, ext.max_v, ext.max_w,
            float(np.max(magnitude(gradient(w_s0)).values)),
            float(np.max(np.abs(laplacian(w_s0).values))),
        )
        h = max(g.spacing)
        scale = m * (
            1.0
            + float(np.max(state.Iv.values))
            + float(np.max(magnitude(gradient(state.Iv)).values))
        )
        tol = 10.0 * (h * h + state.last_dt) * scale
        assert lemma22_tolerance(state, state.last_dt) == tol

    @pytest.mark.parametrize("u0", [0.5, 2.0], ids=["crossed-mid-run", "above-at-t0"])
    def test_blowup_threshold_terminates_run(self, u0):
        g = GridSpec((4.0,), (8,))
        p = ModelParams(chi=1.0, mu=1.0)
        init = ScenarioSpec(name="constant", u0=u0, v0=0.5, w0=0.0).build(g)
        cfg = SolverConfig(t_end=5.0, output_every=0.5, blowup_threshold=0.9)
        out = run(init, p, cfg)
        assert out.status == "blew_up"
        assert out.failure is not None and out.final_state.t < cfg.t_end
        assert out.records[-1].sup_u >= 0.9
        # The t = 0 state is judged by the rule every step's state meets, so
        # data above the threshold end the run there, before any step.
        assert (out.steps == 0) == (u0 > 0.9)
        if u0 > 0.9:
            assert out.final_state.t == 0.0 and [rec.t for rec in out.records] == [0.0]

    def test_trackers_match_the_accepted_states(self, monkeypatch):
        # run takes its trackers from the extrema step computes; recompute
        # them from every state run saw: the initial one and each accepted one.
        seen = []
        original = stepper_mod.step

        def recording(state, params, cfg):
            if not seen:
                seen.append(state)
            new = original(state, params, cfg)
            seen.append(new)
            return new

        monkeypatch.setattr(stepper_mod, "step", recording)
        g = GridSpec((1.0, 1.5), (12, 16))
        p = ModelParams(chi=40.0, xi=1.0, mu=1.0)
        sc = ScenarioSpec(name="random-perturb", amplitude=0.3, seed=5, wbar=0.3)
        out = run(sc.build(g), p, SolverConfig(t_end=0.2, output_every=0.1))
        assert out.status == "completed"
        assert len(seen) == out.steps + 1
        sups = [float(np.max(st.u.values)) for st in seen]
        peak = int(np.argmax(sups))  # first index of the maximum
        assert 0.0 < seen[peak].t < out.final_state.t
        assert out.max_sup_u == sups[peak]
        assert out.t_of_max_sup_u == seen[peak].t
        assert out.min_u == min(float(np.min(st.u.values)) for st in seen)
        assert out.min_v == min(float(np.min(st.v.values)) for st in seen)
        assert out.min_w == min(float(np.min(st.w.values)) for st in seen)
        assert out.max_w == max(float(np.max(st.w.values)) for st in seen)

    def test_gradient_of_iv_is_the_integral_of_grad_v(self, monkeypatch):
        # The curvature bound reads the integral of grad v since the anchor
        # as gradient(Iv). Accumulate it as a trapezoid over the grad v of
        # the accepted states, as an accumulator of its own, restarting at
        # each anchor, and compare at every accepted state.
        ref = []
        worst = []
        original = stepper_mod.step

        def recording(state, params, cfg):
            if state.t == state.anchor.s0:
                ref[:] = [np.zeros(state.grid.num_cells) for _ in range(state.grid.dim)]
            new = original(state, params, cfg)
            half_dt = 0.5 * new.last_dt
            ref[:] = [
                acc + half_dt * (go.values + gn.values)
                for acc, go, gn in zip(ref, gradient(state.v), gradient(new.v))
            ]
            scale = max(float(np.max(np.abs(acc))) for acc in ref)
            err = max(
                float(np.max(np.abs(comp.values - acc)))
                for comp, acc in zip(gradient(new.Iv), ref)
            )
            worst.append((err, scale, new.anchor.s0))
            return new

        monkeypatch.setattr(stepper_mod, "step", recording)
        g = GridSpec((1.0, 1.5), (12, 16))
        p = ModelParams(chi=5.0, xi=1.0, mu=1.0, eta=0.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        cfg = SolverConfig(t_end=0.2, output_every=0.05, anchor_time=0.1)
        out = run(sc.build(g), p, cfg)
        assert out.status == "completed"
        assert len(worst) == out.steps
        assert {s0 for _, _, s0 in worst} == {0.0, out.final_state.anchor.s0}
        assert out.final_state.anchor.s0 == pytest.approx(0.1, abs=1e-12)
        for err, scale, _ in worst:
            assert scale > 0.0
            assert err <= 1e-10 * scale

    def bump_run(self, **kwargs):
        g = GridSpec((1.0,), (16,))
        init = ScenarioSpec(name="gaussian-bump").build(g)
        cfg = SolverConfig(t_end=1.0, output_every=0.25)
        return run(init, ModelParams(chi=1.0, mu=1.0), cfg, **kwargs)

    def test_a_run_whose_every_step_is_rejected_records_t0_once(self, monkeypatch):
        def always_reject(state, params, cfg, dt):
            raise stepper_mod._RetryStep

        monkeypatch.setattr(stepper_mod, "_attempt_step", always_reject)
        snaps = []
        out = self.bump_run(snapshot_sink=snaps.append)
        assert out.status == "cfl_failed"
        assert [rec.t for rec in out.records] == [0.0]
        assert len(snaps) == 1
        assert out.final_state.t == 0.0

    def test_divergence_on_a_recorded_state_is_not_recorded_again(self, monkeypatch):
        from taxisim import Diverged

        original = stepper_mod.stable_dt

        def diverge_at_quarter(state, params, cfg):
            if state.t == 0.25:
                raise Diverged("injected", state=state)
            return original(state, params, cfg)

        monkeypatch.setattr(stepper_mod, "stable_dt", diverge_at_quarter)
        out = self.bump_run()
        assert out.status == "blew_up"
        assert [rec.t for rec in out.records] == [0.0, 0.25]
        assert out.final_state.t == 0.25

    def test_a_run_scans_the_t0_fields_once(self, monkeypatch):
        # initial_state's pass serves the run's summary, the t = 0 record
        # and the first step; every later state carries the extrema its
        # step found.
        scanned = []
        original = stepper_mod.Extrema.of.__func__

        def counting(cls, u, v, w):
            scanned.append(u.copy())
            return original(cls, u, v, w)

        monkeypatch.setattr(stepper_mod.Extrema, "of", classmethod(counting))
        g = GridSpec((1.0,), (16,))
        init = ScenarioSpec(name="gaussian-bump").build(g)
        out = self.bump_run()
        assert out.status == "completed" and out.steps > 1
        assert len(scanned) == 1
        np.testing.assert_array_equal(scanned[0], init.u0.values)
        assert_extrema_are_fresh(initial_state(init))

    # name: (state, params, time scheme, whether stable_dt computes the
    # gradients)
    UNCHECKED_STEPS = {
        "imex-1d": (
            lambda: _random_state(GridSpec((6.0,), (64,)), 9),
            ModelParams(chi=64.0, xi=1.0, mu=10.0), "imex-diffusion", True,
        ),
        "explicit-2d": (
            lambda: _random_state(GridSpec((1.0, 1.5), (12, 16)), 5),
            ModelParams(chi=4.0, xi=1.0, mu=1.0), "explicit", True,
        ),
        "tau0-3d": (
            lambda: _smooth_state(GridSpec((1.0,) * 3, (6, 5, 7)), 3),
            ModelParams(chi=1.0, xi=1.0, mu=1.0, tau=0), "explicit", False,
        ),
        "renewal-1d": (
            lambda: _random_state(GridSpec((2.0,), (32,)), 4),
            ModelParams(chi=1.0, xi=1.0, mu=1.0, eta=0.5), "explicit", False,
        ),
    }

    @pytest.mark.parametrize("case", sorted(UNCHECKED_STEPS))
    def test_a_step_checks_no_field(self, monkeypatch, case):
        # Field(grid, values) checks values that come from outside. Every
        # array a step makes is one taxisim allocated, wrapped as made, so a
        # step runs no check.
        make, params, scheme, gradients = self.UNCHECKED_STEPS[case]
        state = make()
        cfg = SolverConfig(t_end=1e9, output_every=1e9, time_scheme=scheme)
        checked = []
        original = grid_mod.Field.__post_init__

        def counting(f):
            checked.append(f)
            original(f)

        monkeypatch.setattr(grid_mod.Field, "__post_init__", counting)
        calls = count_gradients(monkeypatch)
        new = step(state, params, cfg)
        assert new.t > state.t
        assert len(calls) == (2 if gradients else 0)
        assert checked == []
        # Each new field holds an array the checks would keep as it is.
        for f in (new.u, new.v, new.w, new.Iv):
            assert Field(f.grid, f.values).values is f.values
        assert_extrema_are_fresh(new)

    def test_slaved_signal_run_completes(self):
        g = GridSpec((2.0,), (24,))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, tau=0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        out = run(sc.build(g), p, SolverConfig(t_end=1.0, output_every=0.25))
        assert out.status == "completed"
        assert out.invariant_violations == 0


PEAK_GRIDS = {
    1: GridSpec((6.0,), (32,)),
    2: GridSpec((3.0, 2.5), (12, 10)),
    3: GridSpec((2.0, 1.5, 1.75), (6, 5, 7)),
}


class TestPeakWindows:
    """Each record's peak_u is the peak of sup u over its window of steps."""

    def seen_run(self, monkeypatch, dim, tau, scheme, attempt=None):
        """Run random data with chi = 8, keeping the initial state and every
        state step returns; attempt, if given, replaces _attempt_step."""
        seen = []
        original = stepper_mod.step

        def recording(state, params, cfg):
            if not seen:
                seen.append(state)
            new = original(state, params, cfg)
            seen.append(new)
            return new

        monkeypatch.setattr(stepper_mod, "step", recording)
        if attempt is not None:
            monkeypatch.setattr(stepper_mod, "_attempt_step", attempt)
        sc = ScenarioSpec(name="random-perturb", amplitude=0.3, wbar=0.3, seed=dim)
        p = ModelParams(chi=8.0, xi=1.0, mu=10.0, tau=tau)
        cfg = SolverConfig(t_end=0.1, output_every=0.025, time_scheme=scheme)
        return run(sc.build(PEAK_GRIDS[dim]), p, cfg), seen

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("tau, scheme", SCHEMES)
    def test_each_record_holds_the_peak_of_its_window(self, monkeypatch, dim, tau, scheme):
        out, seen = self.seen_run(monkeypatch, dim, tau, scheme)
        assert out.status == "completed"
        assert len(seen) == out.steps + 1
        sups = [float(np.max(st.u.values)) for st in seen]
        first = out.records[0]
        assert (first.peak_u, first.t_peak_u) == (first.sup_u, 0.0)
        for prev, rec in zip(out.records, out.records[1:]):
            window = [(s, st.t) for s, st in zip(sups, seen) if prev.t < st.t <= rec.t]
            peak = max(s for s, _ in window)
            assert rec.peak_u >= rec.sup_u
            assert prev.t < rec.t_peak_u <= rec.t
            assert (rec.peak_u, rec.t_peak_u) == next(w for w in window if w[0] == peak)
        top = int(np.argmax(sups))  # first index of the maximum
        assert max(rec.peak_u for rec in out.records) == sups[top]
        assert (out.max_sup_u, out.t_of_max_sup_u) == (sups[top], seen[top].t)

    @pytest.mark.parametrize("after_record", [False, True], ids=["mid-window", "after-record"])
    def test_a_run_ended_on_a_nonfinite_state_keeps_the_peak_of_its_steps(
        self, monkeypatch, after_record
    ):
        # The step from the record at t = 0.05 (after_record) or the first
        # to pass t = 0.06 writes a NaN into u: Diverged ends the run on that
        # state, which is not counted, and its record is flagged. The record
        # carries the finite peak of the steps since the previous record, or
        # -inf when none came.
        original = stepper_mod._attempt_step

        def poisoned(state, params, cfg, dt):
            new = original(state, params, cfg, dt)
            if (state.t >= 0.05) if after_record else (new.t > 0.06):
                new.u.values[3] = math.nan
                new.extrema = stepper_mod.Extrema.of(new.u.values, new.v.values, new.w.values)
            return new

        out, seen = self.seen_run(monkeypatch, 1, 1, "explicit", poisoned)
        assert out.status == "blew_up"
        last = out.records[-1]
        assert not last.finite and last.t == out.final_state.t
        accepted = seen  # step raised on the poisoned state, so seen lacks it
        sups = [float(np.max(st.u.values)) for st in accepted]
        top = int(np.argmax(sups))
        assert (out.max_sup_u, out.t_of_max_sup_u) == (sups[top], accepted[top].t)
        if after_record:
            assert out.records[-2].t == accepted[-1].t == 0.05
            assert last.peak_u == -math.inf and math.isnan(last.t_peak_u)
        else:
            assert out.records[-2].t < accepted[-1].t
            assert last.peak_u == max(s for s, st in zip(sups, accepted) if st.t > out.records[-2].t)

    def test_the_outcome_stores_no_peak(self):
        names = {f.name for f in dataclasses.fields(stepper_mod.RunOutcome)}
        assert not names & {"max_sup_u", "t_of_max_sup_u"}


def half_box_data(grid):
    """u = 0 on the upper half of axis 0 and a bump below it; v and w vary
    along every axis."""
    mesh = grid.meshgrid()
    x0 = mesh[0] / grid.extent[0]
    u = np.where(x0 < 0.5, 1.0 + np.cos(2.0 * np.pi * x0), 0.0)
    v = np.ones(grid.cells)
    w = np.full(grid.cells, 0.3)
    for x, length in zip(mesh, grid.extent):
        v = v + 0.3 * np.cos(np.pi * x / length)
        w = w + 0.1 * np.sin(np.pi * x / length)
    return InitialData(Field.from_nd(grid, u), Field.from_nd(grid, v), Field.from_nd(grid, w))


class TestPositivityAndExtrema:
    @pytest.mark.parametrize("tau, scheme", SCHEMES)
    @pytest.mark.parametrize(
        "extent, cells", [((2.0,), (32,)), ((1.0, 1.5), (12, 10)), ((1.0,) * 3, (6, 5, 4))]
    )
    def test_compact_support_stays_nonnegative_and_keeps_mass(
        self, monkeypatch, extent, cells, tau, scheme
    ):
        # Strong taxis against a front with u = 0 beyond it. mu = eta = 0
        # leaves transport alone to move u, so its mass holds to round-off.
        accepted, rejected = record_attempts(monkeypatch)
        g = GridSpec(extent, cells)
        init = half_box_data(g)
        p = ModelParams(chi=4.0, xi=2.0, tau=tau)
        cfg = SolverConfig(t_end=0.02, output_every=0.01, time_scheme=scheme)
        out = run(init, p, cfg)
        assert out.status == "completed"
        assert rejected == []
        assert len(accepted) == out.steps
        assert out.min_u >= 0.0
        assert out.invariant_violations == 0
        mass0 = integrate(init.u0)
        assert abs(integrate(out.final_state.u) - mass0) <= 1e-13 * mass0
        # The front moved: cells that started empty now hold cells.
        assert np.max(out.final_state.u.values[init.u0.values == 0.0]) > 0.0
        for state in accepted:
            assert_extrema_are_fresh(state)

    @pytest.mark.parametrize("tau, scheme", SCHEMES)
    def test_extrema_after_clamps_match_the_fields(self, monkeypatch, tau, scheme):
        # Dip u (all schemes) and the solved v (tau = 0, IMEX) 1e-16 below
        # zero in one cell per step: the clamps fire, and the minima they
        # report must be those of the clamped fields.
        accepted, rejected = record_attempts(monkeypatch)
        exact_solve = stepper_mod._screened_solve
        exact_rhs_u = stepper_mod.rhs_u

        def dipped_solve(grid, b, alpha):
            x = exact_solve(grid, b, alpha)
            x[3] = -1e-16 * np.max(np.abs(b))
            return x

        def dipped_rhs_u(u, v, w, params, dt=1.0):
            # u is 0 in cell 9, so a negative increment there dips u_new below 0.
            out = exact_rhs_u(u, v, w, params, dt)
            out.values[9] = -1e-16 * np.max(u.values)
            return out

        monkeypatch.setattr(stepper_mod, "_screened_solve", dipped_solve)
        monkeypatch.setattr(stepper_mod, "rhs_u", dipped_rhs_u)
        g = GridSpec((1.0, 1.5), (6, 5))
        init = half_box_data(g)
        init.u0.values[9] = 0.0
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, tau=tau)
        out = run(init, p, SolverConfig(t_end=0.01, output_every=0.01, time_scheme=scheme))
        assert out.status == "completed"
        assert rejected == []
        assert out.min_u == 0.0
        for state in accepted:
            assert state.u.values[9] == 0.0
            assert_extrema_are_fresh(state)
        if tau == 0 or scheme == "imex-diffusion":
            assert out.min_v == 0.0
            assert all(state.v.values[3] == 0.0 for state in accepted)

    @staticmethod
    def renewal_run(monkeypatch, shift, calls=math.inf):
        """An eta = 1 run on half_box_data with w = 0 in cell 9, whose
        rate of w the first `calls` calls of rhs_w set to shift times the sup
        of the w it is given; returns the outcome and the recorded attempts."""
        accepted, rejected = record_attempts(monkeypatch)
        exact_rhs_w = stepper_mod.rhs_w
        made = 0

        def shifted_rhs_w(u, v, w, params):
            nonlocal made
            out = exact_rhs_w(u, v, w, params)
            if made < calls:
                out.values[9] = shift * np.max(w.values)
            made += 1
            return out

        monkeypatch.setattr(stepper_mod, "rhs_w", shifted_rhs_w)
        g = GridSpec((1.0, 1.5), (6, 5))
        init = half_box_data(g)
        init.w0.values[9] = 0.0
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, eta=1.0)
        out = run(init, p, SolverConfig(t_end=0.01, output_every=0.01))
        return out, accepted, rejected

    def test_renewal_clamp_zeroes_roundoff(self, monkeypatch):
        # A 1e-16 sup w dip of the renewal step is round-off: zeroed, with no
        # rejection, and the minimum of w is the clamp's.
        out, accepted, rejected = self.renewal_run(monkeypatch, -1e-16)
        assert out.status == "completed"
        assert rejected == []
        assert out.min_w == 0.0
        assert out.invariant_violations == 0
        for state in accepted:
            assert state.w.values[9] == 0.0
            assert_extrema_are_fresh(state)

    def test_renewal_clamp_rejects_real_negativity(self, monkeypatch):
        # A 1e-6 sup w dip on the first attempt only (both of its rhs_w
        # calls) is real negativity: the step is retried at half the size.
        out, accepted, rejected = self.renewal_run(monkeypatch, -1e-6, calls=2)
        assert out.status == "completed"
        assert len(rejected) == 1
        assert accepted[0].last_dt == 0.5 * rejected[0]
        assert out.min_w == 0.0
        assert out.invariant_violations == 0
        for state in accepted:
            assert_extrema_are_fresh(state)

    def test_renewal_caps_w_at_its_ceiling(self, monkeypatch):
        # A rate of 1000 sup w in cell 9 lifts w past 1 in one step: the
        # cap holds it at the ceiling max(sup w0, 1) = 1, which the run's
        # invariant count reads too.
        out, accepted, rejected = self.renewal_run(monkeypatch, 1e3)
        assert out.status == "completed"
        assert rejected == []
        assert out.max_w == 1.0
        assert out.invariant_violations == 0
        for state in accepted:
            assert state.w.values[9] == 1.0
            assert_extrema_are_fresh(state)

    def test_clamp_reports_the_minimum_it_leaves(self):
        clamp, floor = stepper_mod._clamp_negatives, 1e-13
        values = np.array([2.0, -1e-15, 0.5])
        assert clamp(values, floor) == 0.0
        assert np.array_equal(values, [2.0, 0.0, 0.5])
        assert clamp(np.array([2.0, 0.25]), floor) == 0.25
        assert math.isnan(clamp(np.array([1.0, math.nan]), floor))
        assert clamp(np.array([1.0, -math.inf]), floor) == -math.inf
        with pytest.raises(stepper_mod._RetryStep):
            clamp(np.array([1.0, -1e-12]), floor)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("tau, scheme", SCHEMES)
    def test_clamp_floors_read_the_pre_step_extrema(self, monkeypatch, tau, scheme, eta):
        # v, w and u in phase order: 1e-13 times sup v (explicit) or
        # max(sup v, B) with B >= sup b (the solve), sup w, and sup u.
        floors = []
        original = stepper_mod._clamp_negatives

        def recording(values, floor):
            floors.append(floor)
            return original(values, floor)

        monkeypatch.setattr(stepper_mod, "_clamp_negatives", recording)
        state = initial_state(half_box_data(GridSpec((1.0, 1.5), (6, 5))))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0, eta=eta, tau=tau)
        dt = 1e-3
        stepper_mod._attempt_step(state, p, SolverConfig(t_end=1.0, time_scheme=scheme), dt)
        ext = state.extrema
        signal = ext.max_v
        if tau == 0:
            signal = max(signal, ext.max_u)
        elif scheme == "imex-diffusion":
            signal = max(signal, (1.0 - dt) * ext.max_v + dt * ext.max_u)
        assert floors == [1e-13 * signal, 1e-13 * ext.max_w, 1e-13 * ext.max_u]

    def test_imex_right_hand_side_is_at_most_its_bound(self):
        # b = (1 - dt) v + dt u on u, v >= 0 and 0 < dt < 1 never exceeds
        # B = (1 - dt) max v + dt max u, bit for bit, at any magnitude.
        rng = np.random.default_rng(32)
        for _ in range(2000):
            n = int(rng.integers(1, 64))
            u = 10.0 ** rng.uniform(-300, 300) * rng.random(n)
            v = 10.0 ** rng.uniform(-300, 300) * rng.random(n)
            dt = 10.0 ** rng.uniform(-17, 0)
            b = (1.0 - dt) * v + dt * u
            bound = (1.0 - dt) * float(np.max(v)) + dt * float(np.max(u))
            assert float(np.max(b)) <= bound


class TestSpatialConvergence:
    def test_self_convergence_order_near_two(self):
        # Weak taxis keeps the upwind error subdominant; the dominant spatial
        # error is the second-order stencil error.
        p = ModelParams(chi=0.05, xi=0.05, mu=1.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.4, wbar=0.3)
        finals = {}
        for n in (32, 64, 128):
            g = GridSpec((2.0,), (n,))
            cfg = SolverConfig(t_end=0.05, output_every=0.05, dt_max=1e-5)
            out = run(sc.build(g), p, cfg)
            assert out.status == "completed"
            finals[n] = out.final_state.u.values

        def restrict(fine: np.ndarray) -> np.ndarray:
            return 0.5 * (fine[0::2] + fine[1::2])

        e1 = np.max(np.abs(finals[32] - restrict(finals[64])))
        e2 = np.max(np.abs(finals[64] - restrict(finals[128])))
        assert math.log2(e1 / e2) >= 1.8


class TestEqualityIsIdentity:
    """Objects that hold arrays compare by identity: == on two equal-valued
    instances returns False instead of raising on an array's truth value."""

    GRID = GridSpec((1.0,), (8,))
    PARAMS = ModelParams(chi=1.0, mu=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda g, p: Field(g, np.linspace(0.0, 1.0, g.num_cells)),
            lambda g, p: ScenarioSpec(name="gaussian-bump").build(g),
            lambda g, p: initial_state(ScenarioSpec(name="gaussian-bump").build(g)),
            lambda g, p: initial_state(ScenarioSpec(name="gaussian-bump").build(g)).anchor,
            lambda g, p: run(ScenarioSpec(name="gaussian-bump").build(g), p, SolverConfig(t_end=0.01)),
            lambda g, p: ode_reference(p, (2.0, 0.5, 0.5), 0.1, 0.01),
        ],
        ids=["Field", "InitialData", "SimState", "Snapshot", "RunOutcome", "OdeTrajectory"],
    )
    def test_eq_returns_a_bool(self, build):
        a, b = build(self.GRID, self.PARAMS), build(self.GRID, self.PARAMS)
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True

    def test_field_is_hashable(self):
        f = Field.zeros(self.GRID)
        assert {f: 1}[f] == 1
