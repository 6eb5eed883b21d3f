"""Model parameters, right-hand sides, scenarios, homogeneous oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import ORACLE_GRIDS, grid_for_dim, smooth_field
from taxisim import (
    Field,
    GridSpec,
    InitialData,
    ModelParams,
    ScenarioSpec,
    integrate,
    laplacian,
    ode_reference,
    rhs_u,
    rhs_v,
    rhs_w,
    taxis_divergence,
)
from taxisim.model import _uniform_draws


class TestModelParams:
    def test_theta(self):
        p = ModelParams(chi=2.0, mu=10.0)
        assert p.theta() == pytest.approx(0.2)

    def test_theta_requires_positive_mu(self):
        with pytest.raises(ValueError):
            ModelParams(chi=1.0, mu=0.0).theta()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chi": 0.0},
            {"chi": -1.0},
            {"chi": 1.0, "xi": -0.5},
            {"chi": 1.0, "mu": -1.0},
            {"chi": 1.0, "eta": -0.1},
            {"chi": 1.0, "tau": 2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestInitialData:
    def test_rejects_negative(self):
        g = GridSpec((1.0,), (4,))
        with pytest.raises(ValueError, match="u0"):
            InitialData(Field(g, [-0.1, 0, 0, 0]), Field.zeros(g), Field.zeros(g))

    def test_rejects_nonfinite(self):
        g = GridSpec((1.0,), (4,))
        bad = Field(g, [1.0, np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="v0"):
            InitialData(Field.zeros(g), bad, Field.zeros(g))


class TestRightHandSides:
    def steady(self, grid):
        return (Field.full(grid, 1.0), Field.full(grid, 1.0), Field.zeros(grid))

    def test_rhs_u_steady_state_is_zero(self):
        g = GridSpec((1.0, 1.0), (8, 8))
        u, v, w = self.steady(g)
        p = ModelParams(chi=1.3, xi=0.7, mu=2.0)
        assert np.allclose(rhs_u(u, v, w, p).values, 0.0, atol=1e-14)

    def test_rhs_u_zero_cells_stay_zero(self):
        rng = np.random.default_rng(4)
        g = GridSpec((1.0,), (16,))
        v, w = smooth_field(g, rng, nonneg=True), smooth_field(g, rng, nonneg=True)
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        assert np.array_equal(rhs_u(Field.zeros(g), v, w, p).values, np.zeros(16))

    def test_rhs_u_pure_diffusion_reduction(self):
        rng = np.random.default_rng(6)
        g = GridSpec((1.0,), (16,))
        u = smooth_field(g, rng, nonneg=True)
        v, w = smooth_field(g, rng), smooth_field(g, rng)
        p = ModelParams(chi=1e-300, xi=0.0, mu=0.0)  # chi must be positive
        out = rhs_u(u, v, w, p)
        ref = laplacian(u)
        assert np.allclose(out.values, ref.values, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("xi,mu", [(0.0, 0.0), (0.8, 0.0), (0.8, 1.5)])
    def test_rhs_u_matches_separate_diffusion_and_taxis(self, extent, cells, xi, mu):
        # rhs_u computes diffusion and taxis in one face pass; the reference
        # is the separate form: laplacian - taxis_divergence + reaction.
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(13 * sum(cells))
        u = Field(g, rng.uniform(0.0, 3.0, g.num_cells))
        v = Field(g, rng.uniform(0.0, 2.0, g.num_cells))
        w = Field(g, rng.uniform(0.0, 1.0, g.num_cells))
        p = ModelParams(chi=1.7, xi=xi, mu=mu)
        ref = laplacian(u).values - taxis_divergence(u, v, p.chi, (w, p.xi)).values
        ref += mu * u.values * (1.0 - u.values - w.values)
        out = rhs_u(u, v, w, p).values
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("mu", [0.0, 1.5])
    def test_rhs_u_with_dt_is_the_scaled_rate(self, extent, cells, mu):
        # rhs_u(..., dt) scales the reaction seed and the face coefficients by
        # dt instead of the result: the same increment to round-off.
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(17 * sum(cells))
        u = Field(g, rng.uniform(0.0, 3.0, g.num_cells))
        v = Field(g, rng.uniform(0.0, 2.0, g.num_cells))
        w = Field(g, rng.uniform(0.0, 1.0, g.num_cells))
        p = ModelParams(chi=1.7, xi=0.8, mu=mu)
        dt = 3.7e-3
        ref = dt * rhs_u(u, v, w, p).values
        out = rhs_u(u, v, w, p, dt).values
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rhs_v_matches_diffusion_decay_and_production(self):
        rng = np.random.default_rng(21)
        g = GridSpec((1.0, 0.4), (6, 5))
        u, v = smooth_field(g, rng, nonneg=True), smooth_field(g, rng, nonneg=True)
        ref = laplacian(v).values - v.values + u.values
        out = rhs_v(u, v, ModelParams(chi=1.0)).values
        assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_transport_part_conserves_mass(self, dim):
        from taxisim import lp_norm

        rng = np.random.default_rng(40 + dim)
        g = grid_for_dim(dim)
        for _ in range(10):
            u = smooth_field(g, rng, nonneg=True)
            v = smooth_field(g, rng, nonneg=True)
            w = smooth_field(g, rng, nonneg=True)
            chi, xi = rng.uniform(0.5, 2.0, size=2)
            transport = laplacian(u).values
            transport -= taxis_divergence(u, v, chi).values
            transport -= taxis_divergence(u, w, xi).values
            total = integrate(Field(g, transport))
            assert abs(total) <= 1e-12 * lp_norm(u, 1.0)

    def test_rhs_v_examples(self):
        g = GridSpec((1.0,), (8,))
        p = ModelParams(chi=1.0)
        ones = Field.full(g, 1.0)
        assert np.allclose(rhs_v(ones, ones, p).values, 0.0, atol=1e-15)
        c = Field.full(g, 2.7)
        assert np.allclose(rhs_v(c, c, p).values, 0.0, atol=1e-15)
        out = rhs_v(Field.zeros(g), Field.full(g, 2.7), p)
        assert np.allclose(out.values, -2.7, rtol=1e-15)

    def test_rhs_w_examples(self):
        g = GridSpec((1.0,), (8,))
        p0 = ModelParams(chi=1.0, eta=0.0)
        u = Field.full(g, 0.3)
        assert np.array_equal(
            rhs_w(u, Field.full(g, 1.0), Field.zeros(g), p0).values, np.zeros(8)
        )
        out = rhs_w(u, Field.full(g, 2.0), Field.full(g, 0.5), p0)
        assert np.allclose(out.values, -1.0, rtol=1e-15)
        p1 = ModelParams(chi=1.0, eta=0.8)
        out = rhs_w(Field.zeros(g), Field.zeros(g), Field.full(g, 1.0), p1)
        assert np.allclose(out.values, 0.0, atol=1e-15)

    def test_rhs_w_nonpositive_without_renewal(self):
        rng = np.random.default_rng(8)
        g = GridSpec((1.0, 1.0), (6, 6))
        p = ModelParams(chi=1.0, eta=0.0)
        for _ in range(5):
            u = smooth_field(g, rng, nonneg=True)
            v = smooth_field(g, rng, nonneg=True)
            w = smooth_field(g, rng, nonneg=True)
            assert np.max(rhs_w(u, v, w, p).values) <= 0.0

    def test_coexistence_state_is_fixed_point(self):
        rng = np.random.default_rng(12)
        g = GridSpec((1.0,), (8,))
        u, v, w = self.steady(g)
        for _ in range(5):
            p = ModelParams(
                chi=rng.uniform(0.1, 5),
                xi=rng.uniform(0, 5),
                mu=rng.uniform(0, 5),
                eta=rng.uniform(0, 2),
                tau=1,
            )
            assert np.allclose(rhs_u(u, v, w, p).values, 0.0, atol=1e-13)
            assert np.allclose(rhs_v(u, v, p).values, 0.0, atol=1e-13)
            assert np.allclose(rhs_w(u, v, w, p).values, 0.0, atol=1e-13)


class TestScenarios:
    def test_steady(self):
        g = GridSpec((1.0,), (8,))
        init = ScenarioSpec(name="steady").build(g)
        assert np.array_equal(init.u0.values, np.ones(8))
        assert np.array_equal(init.v0.values, np.ones(8))
        assert np.array_equal(init.w0.values, np.zeros(8))

    def test_gaussian_bump_peaks_at_center(self):
        g = GridSpec((2.0, 2.0), (16, 16))
        init = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.2).build(g)
        u = init.u0.nd
        assert u.max() == pytest.approx(1.0 + 0.5 * math.exp(-2 * (1.0 / 16) ** 2 / 0.09), rel=1e-12)
        assert np.unravel_index(np.argmax(u), u.shape) in {(7, 7), (7, 8), (8, 7), (8, 8)}
        assert np.array_equal(init.w0.values, np.full(g.num_cells, 0.2))

    def test_random_perturb_is_seeded(self):
        g = GridSpec((1.0,), (32,))
        a = ScenarioSpec(name="random-perturb", amplitude=0.3, seed=42).build(g)
        b = ScenarioSpec(name="random-perturb", amplitude=0.3, seed=42).build(g)
        c = ScenarioSpec(name="random-perturb", amplitude=0.3, seed=43).build(g)
        assert np.array_equal(a.u0.values, b.u0.values)
        assert np.array_equal(a.v0.values, b.v0.values)
        assert not np.array_equal(a.u0.values, c.u0.values)
        assert a.u0.values.min() >= 0.7 - 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="vortex")


    def test_homogeneous_values(self):
        spec = ScenarioSpec(name="constant", u0=2.0, v0=0.5, w0=0.5)
        assert spec.homogeneous_values() == (2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ScenarioSpec(name="gaussian-bump").homogeneous_values()


# One to seven 32-bit seed words: a zero word, the word boundaries, and
# seeds longer than the four-word SeedSequence pool.
EDGE_SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 10**30, 2**128 + 5, 10**60]


class TestRandomPerturbStream:
    """The random-perturb noise is numpy's default_rng stream, computed
    without numpy.random (the test process may import it as the oracle)."""

    @pytest.mark.parametrize("n", [0, 1, 64, 130])
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_draws_equal_numpy_bitwise(self, seed, n):
        ours = _uniform_draws(seed, n)
        assert ours.dtype == np.float64 and ours.shape == (n,)
        assert ours.tobytes() == np.random.default_rng(seed).uniform(-1.0, 1.0, n).tobytes()

    def test_build_equals_two_numpy_calls_for_sweep_seeds(self):
        # Every seed class of the 1D/64 benchmark sweep (seed mod 16) and the
        # seeds a sweep derives from it (base + 7919 i for 8 thetas).
        g = GridSpec((4.0,), (64,))
        spec = ScenarioSpec(name="random-perturb", amplitude=0.3, wbar=0.3)
        for base in range(16):
            for seed in (base + 7919 * i for i in range(8)):
                init = spec.with_seed(seed).build(g)
                rng = np.random.default_rng(seed)
                u = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=64)
                v = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=64)
                assert init.u0.values.tobytes() == u.tobytes(), seed
                assert init.v0.values.tobytes() == v.tobytes(), seed


class TestOdeReference:
    def test_equilibrium_stays_put(self):
        p = ModelParams(chi=1.0, xi=1.0, mu=3.0)
        traj = ode_reference(p, (1.0, 1.0, 0.0), 4.0, 1e-2)
        assert not traj.diverged
        assert np.allclose(traj.states, [1.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_logistic_monotone_approach(self, a):
        p = ModelParams(chi=1.0, mu=1.0, eta=0.0)
        traj = ode_reference(p, (a, 1.0, 0.0), 10.0, 1e-3)
        u = traj.states[:, 0]
        diffs = np.diff(u)
        if a < 1.0:
            assert np.all(diffs >= -1e-14)
        else:
            assert np.all(diffs <= 1e-14)
        assert abs(u[-1] - 1.0) < 1e-3

    def test_decoupled_closed_form(self):
        # u = 0 forever; v = b e^{-t}; w = c exp(-b (1 - e^{-t})).
        b, c = 1.0, 0.7
        p = ModelParams(chi=1.0, mu=2.0, eta=0.0)
        traj = ode_reference(p, (0.0, b, c), 1.0, 1e-3)
        u, v, w = traj.value_at(1.0)
        assert u == 0.0
        assert v == pytest.approx(b * math.exp(-1.0), rel=1e-6)
        assert w == pytest.approx(c * math.exp(-b * (1.0 - math.exp(-1.0))), rel=1e-6)

    def test_divergence_flag(self):
        p = ModelParams(chi=1.0, mu=1.0)
        traj = ode_reference(p, (2e12, 0.0, 0.0), 1.0, 1e-2)
        assert traj.diverged

    def test_slaved_signal_equals_cells(self):
        p = ModelParams(chi=1.0, mu=1.0, tau=0)
        traj = ode_reference(p, (0.5, 0.9, 0.2), 2.0, 1e-3)
        assert np.array_equal(traj.states[:, 0], traj.states[:, 1])

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_slaved_signal_matches_a_two_component_rk4(self, eta):
        # tau = 0 reduces the system to (u, w) with v = u; integrate that
        # pair with a separate RK4, ten steps of 0.1 and a remainder of 0.05.
        p = ModelParams(chi=1.0, mu=1.5, eta=eta, tau=0)
        traj = ode_reference(p, (2.0, 0.3, 0.5), 1.05, 0.1)

        def rates(y):
            u, w = y
            return np.array([p.mu * u * (1.0 - u - w), -u * w + p.eta * w * (1.0 - u - w)])

        y = np.array([2.0, 0.5])
        ref = [y]
        for h in [0.1] * 10 + [1.05 - 10 * 0.1]:
            k1 = rates(y)
            k2 = rates(y + 0.5 * h * k1)
            k3 = rates(y + 0.5 * h * k2)
            k4 = rates(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ref.append(y)
        ref = np.array(ref)
        assert not traj.diverged
        assert traj.times[-1] == 1.05 and len(traj.times) == 12
        assert np.array_equal(traj.states[:, 0], ref[:, 0])
        assert np.array_equal(traj.states[:, 1], ref[:, 0])
        assert np.array_equal(traj.states[:, 2], ref[:, 1])

    def test_input_validation(self):
        p = ModelParams(chi=1.0)
        with pytest.raises(ValueError):
            ode_reference(p, (1.0, 1.0, 0.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            ode_reference(p, (-1.0, 1.0, 0.0), 1.0, 1e-2)

    @pytest.mark.parametrize(
        "y0", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf)]
    )
    def test_nonfinite_start_is_rejected(self, y0):
        # As InitialData does: a NaN start would otherwise return a NaN
        # trajectory that is not flagged as diverged.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ode_reference(ModelParams(chi=1.0), y0, 0.0, 1e-2)
