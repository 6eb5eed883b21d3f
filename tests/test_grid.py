"""Grid geometry, discrete operators, reductions."""

from __future__ import annotations

import copy
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from conftest import ORACLE_GRIDS, grid_for_dim, smooth_field
import taxisim.grid as grid_mod
import taxisim.stepper as stepper_mod
from taxisim import (
    Field,
    GridSpec,
    gradient,
    integrate,
    laplacian,
    lp_norm,
    magnitude,
    sup_norm,
    taxis_divergence,
)


class TestGridSpec:
    def test_derived_quantities(self):
        g = GridSpec((2.0, 3.0), (4, 6))
        assert g.dim == 2
        assert g.spacing == (0.5, 0.5)
        assert g.volume_element == 0.25
        assert g.domain_measure == 6.0
        assert g.num_cells == 24
        assert GridSpec((2.0, 3.0), (np.int64(4), np.int32(6))).cells == (4, 6)

    def test_cell_centers(self):
        g = GridSpec((1.0,), (4,))
        assert np.allclose(g.cell_centers(0), [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize(
        "extent,cells",
        [
            ((1.0,), (1,)),
            ((0.0,), (4,)),
            ((-1.0,), (4,)),
            ((1.0, 1.0), (4,)),
            ((1.0,) * 4, (4,) * 4),
            ((1.0,), (2.7,)),
            ((1.0,), (4.0,)),
        ],
    )
    def test_rejects_bad_geometry(self, extent, cells):
        with pytest.raises(ValueError):
            GridSpec(extent, cells)

    @pytest.mark.parametrize("bad", [True, "1", "1.5"])
    def test_extent_entries_take_real_numbers_only(self, bad):
        with pytest.raises(ValueError, match="^extent entry must be a real number"):
            GridSpec((1.0, bad), (4, 4))

    @pytest.mark.parametrize(
        "value", [0.25, 3, np.float32(0.1), np.float64(2.5), np.int64(7), np.float16(1.5)]
    )
    def test_as_float_takes_any_real_that_is_not_a_bool(self, value):
        x = grid_mod._as_float(value, "chi")
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(False), "1", None, 1 + 0j, np.array(1.0), 10**400],
        ids=["bool", "numpy-bool", "str", "None", "complex", "0-d-array", "10**400"],
    )
    def test_as_float_rejects_anything_else_naming_the_key(self, value):
        with pytest.raises(ValueError, match="^chi must be a real number"):
            grid_mod._as_float(value, "chi")

    @pytest.mark.parametrize(
        "low, high, ends, inside, outside, interval",
        [
            (0, math.inf, "()", [5e-324, 1e308], [0.0, math.inf, math.nan], "(0, inf)"),
            (0, math.inf, "[)", [0.0, -0.0, 1e308], [-5e-324, math.inf, math.nan], "[0, inf)"),
            (0, 1, "(]", [5e-324, 1.0], [0.0, 1.0000000000000002, math.nan], "(0, 1]"),
            (0, math.inf, "(]", [1.0, math.inf], [0.0, math.nan], "(0, inf]"),
            (
                -math.inf, math.inf, "()", [-1e308, 1e308],
                [-math.inf, math.inf, math.nan], "(-inf, inf)",
            ),
        ],
    )
    def test_as_float_tests_its_interval(
        self, low, high, ends, inside, outside, interval
    ):
        for x in inside:
            assert grid_mod._as_float(x, "chi", low, high, ends) == x
        for x in outside:
            message = f"chi must be in {interval}, got {x!r}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                grid_mod._as_float(x, "chi", low, high, ends)

    def test_as_int_tests_its_closed_interval(self):
        assert grid_mod._as_int(np.int64(3), "tau", 0, 3) == 3
        assert grid_mod._as_int(10**30, "seed", 0, math.inf) == 10**30
        with pytest.raises(ValueError, match=r"^tau must be in \[0, 3\], got 4$"):
            grid_mod._as_int(4, "tau", 0, 3)
        with pytest.raises(ValueError, match=r"^seed must be in \[0, inf\), got -1$"):
            grid_mod._as_int(-1, "seed", 0, math.inf)

    @pytest.mark.parametrize("length", [1e160, 1e101, 7e-100, 1e-160])
    def test_extent_whose_squares_are_not_finite_positive_floats_rejected(self, length):
        # 8 cells: the spacing L / 8 must be at least 1e-100.
        message = f"extent entry must be in [8e-100, 1e+100], got {length!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            GridSpec((1.0, length), (4, 8))

    @pytest.mark.parametrize("length", [8e-100, 1e100])
    def test_extent_at_its_bounds_has_finite_positive_constants(self, length):
        g = GridSpec((length,) * 3, (8,) * 3)
        for value in (g.domain_measure, g.volume_element, g._diffusion_limit, g._h_min_sq):
            assert 0.0 < value < math.inf
        assert all(np.isfinite(faces.inv_h2).all() for faces in g._face_table)
        assert np.all(laplacian(Field.full(g, 1.0)).values == 0.0)

    def test_field_length_must_match(self):
        g = GridSpec((1.0,), (4,))
        with pytest.raises(ValueError):
            Field(g, [1.0, 2.0])


class TestField:
    def test_flat_native_float64_array_is_kept(self):
        values = np.linspace(0.0, 1.0, 6)
        assert Field(GridSpec((1.0,), (6,)), values).values is values

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(6.0)[::-1],
            np.arange(12.0)[::2],
            np.arange(6.0).astype(">f8"),
            np.arange(6, dtype=np.float32),
        ],
        ids=["negative-stride", "strided", "big-endian", "float32"],
    )
    def test_other_arrays_become_flat_native_float64(self, values):
        kept = Field(GridSpec((1.0,), (6,)), values).values
        assert kept.dtype == np.float64 and kept.dtype.isnative
        assert kept.ndim == 1 and kept.flags.c_contiguous
        assert np.array_equal(kept, np.asarray(values, dtype=float).ravel())

    @pytest.mark.parametrize(
        "extent, cells, shape",
        [((1.0,), (6,), (2, 3)), ((1.0, 2.0), (2, 3), (2, 3)), ((1.0, 2.0), (2, 3), (6, 1))],
        ids=["2d-on-1d", "nd-on-2x3", "column"],
    )
    def test_arrays_that_are_not_flat_are_refused(self, extent, cells, shape):
        # A C-order ravel would not give the axis-0-fastest layout.
        g = GridSpec(extent, cells)
        with pytest.raises(ValueError, match=r"must be flat, got 2 dimensions.*Field\.from_nd"):
            Field(g, np.arange(6.0).reshape(shape))

    def test_from_nd_keeps_the_array(self):
        g = GridSpec((1.0, 2.0), (2, 3))
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(Field.from_nd(g, a).nd, a)
        assert np.array_equal(Field.from_nd(g, a).values, [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])

    @pytest.mark.parametrize("shape", [(3, 2), (6,)], ids=["transposed", "flat"])
    def test_from_nd_refuses_arrays_not_of_the_grid_shape(self, shape):
        # A transposed array would be raveled into the wrong cells, and a
        # flat one has no axes to ravel.
        g = GridSpec((1.0, 2.0), (2, 3))
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}, grid has cells (2, 3)")):
            Field.from_nd(g, np.arange(6.0).reshape(shape))


def _fill_cache(g):
    """Build every per-grid constant, including a screened-solve divisor."""
    stepper_mod._screened_solve(g, np.ones(g.num_cells), 0.5)
    laplacian(Field.zeros(g))
    return g._diffusion_limit, g._h_min_sq


class TestPerGridCache:
    GRIDS = [((6.0,), (64,)), ((1.0, 2.7), (6, 9)), ((0.8, 1.9, 3.1), (5, 7, 3))]

    def test_constants_are_built_once_per_grid(self):
        g = GridSpec((1.0, 2.7), (6, 9))
        assert g._face_table is g._face_table
        assert g._spectrum is g._spectrum

    @pytest.mark.parametrize("filled", [False, True])
    def test_cache_is_not_part_of_the_value(self, filled):
        g = GridSpec((1.0, 2.7), (6, 9))
        if filled:
            _fill_cache(g)
        fresh = GridSpec((1.0, 2.7), (6, 9))
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)

    @pytest.mark.parametrize("extent, cells", GRIDS)
    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                             ids=["deepcopy", "pickle"])
    def test_copies_compare_equal_and_solve_bitwise_alike(self, extent, cells, duplicate):
        g = GridSpec(extent, cells)
        _fill_cache(g)
        twin = duplicate(g)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        b = np.random.default_rng(5).random(g.num_cells)
        for alpha in (1e-3, 1.0):
            x = stepper_mod._screened_solve(g, b, alpha)
            assert x.tobytes() == stepper_mod._screened_solve(twin, b, alpha).tobytes()
        f = Field(g, b)
        assert laplacian(f).values.tobytes() == laplacian(Field(twin, b)).values.tobytes()

    def test_copies_rebuild_their_caches_from_extent_and_cells(self):
        g = GridSpec((1.0, 2.0), (2, 3))
        laplacian(Field.zeros(g))
        stepper_mod._screened_solve(g, np.ones(g.num_cells), 0.5)
        fresh_size = len(pickle.dumps(GridSpec((1.0, 2.0), (2, 3))))
        for duplicate in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
            twin = duplicate(g)
            assert twin == g
            assert "_face_table" not in vars(twin) and "_spectrum" not in vars(twin)
            arrays = [a for faces in twin._face_table for a in (faces.inv_h2, faces.inv_2h)]
            arrays += [c for _, c in twin._spectrum.axes] + [twin._spectrum.lam]
            assert not any(a.flags.writeable for a in arrays)
            assert len(pickle.dumps(twin)) == fresh_size

    def test_no_lru_cache_left(self):
        for module in (grid_mod, stepper_mod):
            assert "lru_cache" not in inspect.getsource(module)


class TestLaplacian:
    def test_constant_is_zero(self):
        g = GridSpec((2.0, 1.0), (8, 6))
        out = laplacian(Field.full(g, 3.7))
        assert np.array_equal(out.values, np.zeros(g.num_cells))

    def test_three_point_mirror_stencil(self):
        # h = 1; boundary cells use their own value as ghost.
        g = GridSpec((3.0,), (3,))
        out = laplacian(Field(g, [1.0, 2.0, 4.0]))
        assert np.allclose(out.values, [1.0, 1.0, -2.0], rtol=0, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cosine_eigenfunction_convergence(self, dim):
        # cos(pi x / L) satisfies the mirror boundary condition exactly, so the
        # error against -(pi/L)^2 f must shrink like h^2 under refinement.
        length = 1.0
        errors = []
        for n in (16, 32):
            g = GridSpec((length,) * dim, (n,) * dim)
            x = g.meshgrid()[0]
            f = Field.from_nd(g, np.cos(np.pi * x / length))
            exact = -((np.pi / length) ** 2) * f.values
            errors.append(np.max(np.abs(laplacian(f).values - exact)))
        assert errors[1] < errors[0] / 3.5

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_volume_sum_is_zero(self, dim):
        rng = np.random.default_rng(11 + dim)
        g = grid_for_dim(dim)
        for _ in range(10):
            f = smooth_field(g, rng)
            total = integrate(laplacian(f))
            scale = integrate(Field(g, np.abs(laplacian(f).values))) + 1e-300
            assert abs(total) <= 1e-12 * scale

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = GridSpec((1.0, 2.0), (8, 8))
        f1, f2 = smooth_field(g, rng), smooth_field(g, rng)
        combo = laplacian(Field(g, 2.0 * f1.values - 3.0 * f2.values))
        parts = 2.0 * laplacian(f1).values - 3.0 * laplacian(f2).values
        assert np.allclose(combo.values, parts, rtol=1e-12, atol=1e-12)


class TestGradient:
    def test_constant_is_zero(self):
        g = GridSpec((1.0, 1.0, 1.0), (4, 4, 4))
        out = gradient(Field.full(g, -2.5))
        assert type(out) is tuple and len(out) == g.dim
        for comp in out:
            assert np.array_equal(comp.values, np.zeros(g.num_cells))

    def test_mirror_ghost_hand_values(self):
        g = GridSpec((3.0,), (3,))
        out = gradient(Field(g, [1.0, 2.0, 4.0]))
        assert np.allclose(out[0].values, [0.5, 1.5, 1.0], rtol=0, atol=0)

    def test_interior_ramp_slope(self):
        g = GridSpec((2.0,), (64,))
        x = g.cell_centers(0)
        out = gradient(Field(g, 3.0 * x))
        # Exact in the interior; boundary cells hold half the slope by mirroring.
        assert np.allclose(out[0].values[1:-1], 3.0, rtol=1e-13)
        assert np.allclose(out[0].values[[0, -1]], 1.5, rtol=1e-13)

    def test_magnitude(self):
        g = GridSpec((1.0, 1.0), (4, 4))
        out = magnitude((Field.full(g, 3.0), Field.full(g, 4.0)))
        assert out.grid is g
        assert np.allclose(out.values, 5.0)

    def test_linearity(self):
        rng = np.random.default_rng(19)
        g = GridSpec((1.0,), (16,))
        f1, f2 = smooth_field(g, rng), smooth_field(g, rng)
        combo = gradient(Field(g, 1.5 * f1.values + 2.0 * f2.values))
        for axis in range(g.dim):
            parts = 1.5 * gradient(f1)[axis].values
            parts += 2.0 * gradient(f2)[axis].values
            assert np.allclose(combo[axis].values, parts, rtol=1e-12, atol=1e-13)


class TestTaxisDivergence:
    def test_constant_potential_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        g = GridSpec((1.0, 1.0), (6, 6))
        carrier = smooth_field(g, rng, nonneg=True)
        out = taxis_divergence(carrier, Field.full(g, 4.2), 2.0)
        assert np.array_equal(out.values, np.zeros(g.num_cells))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_constant_carrier_matches_laplacian(self, dim):
        rng = np.random.default_rng(23 + dim)
        g = grid_for_dim(dim, n=8)
        pot = smooth_field(g, rng)
        coeff = 1.7
        const = 2.5
        out = taxis_divergence(Field.full(g, const), pot, coeff)
        ref = const * coeff * laplacian(pot).values
        scale = np.max(np.abs(ref)) + 1e-300
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * scale

    def test_upwind_takes_upstream_cell(self):
        # h = 1, rising potential: face velocity q = 1 > 0, upstream is the
        # left cell (value 2), flux 2, divergence [2, -2].
        g = GridSpec((2.0,), (2,))
        carrier = Field(g, [2.0, 0.0])
        out = taxis_divergence(carrier, Field(g, [0.0, 1.0]), 1.0)
        assert np.allclose(out.values, [2.0, -2.0], rtol=0, atol=0)
        # Falling potential: q = -1 < 0, upstream is the right cell (value 0).
        out = taxis_divergence(carrier, Field(g, [1.0, 0.0]), 1.0)
        assert np.array_equal(out.values, [0.0, 0.0])

    @pytest.mark.parametrize(
        "dim, diffusion",
        [
            pytest.param(dim, d, id=f"{dim}-diffusion" if d else f"{dim}")
            for d in (0.0, 1.0)
            for dim in (1, 2, 3)
        ],
    )
    def test_volume_sum_telescopes_to_zero(self, dim, diffusion):
        rng = np.random.default_rng(5 * dim + 1)
        g = grid_for_dim(dim)
        for _ in range(10):
            carrier = smooth_field(g, rng, nonneg=True)
            pot = smooth_field(g, rng)
            out = taxis_divergence(carrier, pot, 1.3, diffusion=diffusion)
            scale = integrate(Field(g, np.abs(out.values))) + 1e-300
            assert abs(integrate(out)) <= 1e-12 * scale

    def test_linear_in_carrier_for_fixed_potential(self):
        rng = np.random.default_rng(31)
        g = GridSpec((1.0,), (16,))
        pot = smooth_field(g, rng)
        c1 = smooth_field(g, rng, nonneg=True)
        c2 = smooth_field(g, rng, nonneg=True)
        combo = taxis_divergence(Field(g, 2.0 * c1.values + 0.5 * c2.values), pot, 1.0)
        parts = 2.0 * taxis_divergence(c1, pot, 1.0).values
        parts += 0.5 * taxis_divergence(c2, pot, 1.0).values
        assert np.allclose(combo.values, parts, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("two_pairs", [False, True])
    @pytest.mark.parametrize("diffusion", [1.0, 0.25])
    def test_diffusion_folds_into_the_face_flux(self, extent, cells, two_pairs, diffusion):
        # diffusion=d subtracts d * lap(carrier) within the same face pass.
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(11 * sum(cells))
        carrier = Field(g, rng.uniform(0.0, 3.0, g.num_cells))
        pot_v = Field(g, rng.uniform(-2.0, 2.0, g.num_cells))
        pot_w = Field(g, rng.uniform(0.0, 1.0, g.num_cells))
        more = ((pot_w, 0.6),) if two_pairs else ()
        out = taxis_divergence(carrier, pot_v, 1.7, *more, diffusion=diffusion).values
        taxis = taxis_divergence(carrier, pot_v, 1.7, *more).values
        diff = diffusion * laplacian(carrier).values
        sup = max(np.max(np.abs(taxis)), np.max(np.abs(diff)))
        assert np.max(np.abs(out - (taxis - diff))) <= 1e-15 * sup
        pairs = [(pot_v, 1.7), *more]
        ref = reference_branch_free_taxis(carrier, pairs, diffusion)
        assert np.array_equal(Field(g, out).nd, ref)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("diffusion", [0.0, 0.4])
    def test_empty_cells_never_lose_mass(self, dim, diffusion):
        # At a cell with c = 0 every face flux is up * c_L >= 0 from below or
        # total * c_R <= 0 from above (total = sum q- - D <= up exactly), so
        # the rate -div is >= 0 there bit for bit, not just to round-off.
        rng = np.random.default_rng(17 + dim)
        g = grid_for_dim(dim, n=9)
        for _ in range(20):
            carrier = rng.uniform(0.0, 3.0, g.num_cells)
            carrier[rng.random(g.num_cells) < 0.4] = 0.0
            pot_v = Field(g, rng.uniform(-2.0, 2.0, g.num_cells))
            pot_w = Field(g, rng.uniform(-1.0, 1.0, g.num_cells))
            chi, xi = rng.uniform(-3.0, 3.0, 2)
            rate = taxis_divergence(
                Field(g, carrier), pot_v, chi, (pot_w, xi), diffusion=diffusion,
                out=np.zeros(g.num_cells),
            ).values
            assert np.all(rate[carrier == 0.0] >= 0.0)

    def test_diffusion_only_is_minus_the_laplacian(self):
        # A constant potential leaves only the diffusion part of the flux.
        g = GridSpec((3.0,), (3,))
        carrier = Field(g, [1.0, 2.0, 4.0])
        out = taxis_divergence(carrier, Field.full(g, 0.5), 1.0, diffusion=1.0)
        assert np.array_equal(out.values, -laplacian(carrier).values)

    def test_grid_mismatch_rejected(self):
        a = GridSpec((1.0,), (4,))
        b = GridSpec((2.0,), (4,))
        with pytest.raises(ValueError):
            taxis_divergence(Field.zeros(a), Field.zeros(b), 1.0)
        with pytest.raises(ValueError):
            taxis_divergence(Field.zeros(a), Field.zeros(a), 1.0, (Field.zeros(b), 1.0))
        with pytest.raises(ValueError):
            taxis_divergence(Field.zeros(a), Field.zeros(a), 1.0, (Field.zeros(a), np.inf))
        with pytest.raises(ValueError):
            taxis_divergence(Field.zeros(a), Field.zeros(a), 1.0, diffusion=np.nan)


def _slices(ndim, axis):
    below = [slice(None)] * ndim
    above = list(below)
    below[axis] = slice(None, -1)
    above[axis] = slice(1, None)
    return tuple(below), tuple(above)


def reference_laplacian(f):
    """The nd-slice stencils the flat-stride kernels replaced, kept as oracles."""
    a = f.nd
    out = np.zeros_like(a)
    for axis, h in enumerate(f.grid.spacing):
        below, above = _slices(a.ndim, axis)
        flux = (a[above] - a[below]) * (1.0 / (h * h))
        out[below] += flux
        out[above] -= flux
    return out


def reference_gradient(f):
    a = f.nd
    comps = []
    for axis, h in enumerate(f.grid.spacing):
        below, above = _slices(a.ndim, axis)
        half = (a[above] - a[below]) * (1.0 / (2.0 * h))
        g = np.zeros_like(a)
        g[below] = half
        g[above] += half
        comps.append(g)
    return comps


def reference_taxis_divergence(carrier, potential, coeff):
    c, p = carrier.nd, potential.nd
    out = np.zeros_like(c)
    for axis, h in enumerate(carrier.grid.spacing):
        below, above = _slices(c.ndim, axis)
        q = (p[above] - p[below]) * (coeff / h)
        upwind = np.where(q > 0.0, c[below], c[above])
        upwind = np.where(q == 0.0, 0.5 * (c[below] + c[above]), upwind)
        flux = (q * upwind) * (1.0 / h)
        out[below] += flux
        out[above] -= flux
    return out


def reference_taxis_divergence_pairs(carrier, pairs):
    """Both terms in one pass: per face, the upwind fluxes of all
    (potential, coeff) pairs are summed, then scaled by 1/h and scattered."""
    c = carrier.nd
    out = np.zeros_like(c)
    for axis, h in enumerate(carrier.grid.spacing):
        below, above = _slices(c.ndim, axis)
        fluxes = []
        for potential, coeff in pairs:
            p = potential.nd
            q = (p[above] - p[below]) * (coeff / h)
            fluxes.append(q * np.where(q > 0.0, c[below], c[above]))
        flux = fluxes[0]
        for more in fluxes[1:]:
            flux = flux + more
        flux = flux * (1.0 / h)
        out[below] += flux
        out[above] -= flux
    return out


def reference_branch_free_taxis(carrier, pairs, diffusion=0.0):
    """The kernel's face arithmetic on nd slices: per face the upwind flux
    (up c_L + total c_R) / h^2 with q = k dp, up = sum max(q, 0) + diffusion
    and total = sum q - up (the sum of min(q, 0), minus diffusion), then
    scattered."""
    c = carrier.nd
    out = np.zeros_like(c)
    for axis, h in enumerate(carrier.grid.spacing):
        below, above = _slices(c.ndim, axis)
        qs = [(p.nd[above] - p.nd[below]) * coeff for p, coeff in pairs]
        total, up = qs[0], np.maximum(qs[0], 0.0)
        for q in qs[1:]:
            total = total + q
            up = up + np.maximum(q, 0.0)
        up = up + diffusion
        total = total - up
        flux = (up * c[below] + total * c[above]) * (1.0 / (h * h))
        out[below] += flux
        out[above] -= flux
    return out


def assert_close_to_scheme(out, ref):
    """The branch-free flux and the select-based upwind flux agree to
    round-off, measured against the largest value of the reference."""
    sup = np.max(np.abs(ref))
    assert np.max(np.abs(out - ref)) <= 1e-15 * sup


class TestFlatStrideOracle:
    """The flat-stride stencils equal the nd-slice ones bit for bit, on
    unequal extents and cell counts, so every axis has row wraps whose zero
    weights must scatter nothing, including a 2-cell axis. The taxis kernel
    is also held to the select-based upwind scheme, within round-off."""

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    def test_random_signed_fields(self, extent, cells):
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(sum(cells))
        for _ in range(5):
            f = Field(g, rng.uniform(-2.0, 2.0, g.num_cells))
            pot = Field(g, rng.uniform(-2.0, 2.0, g.num_cells))
            assert np.array_equal(laplacian(f).nd, reference_laplacian(f))
            for comp, ref in zip(gradient(f), reference_gradient(f)):
                assert np.array_equal(comp.nd, ref)
            for coeff in (1.7, -0.4, 0.0):
                out = taxis_divergence(f, pot, coeff)
                assert np.array_equal(out.nd, reference_branch_free_taxis(f, [(pot, coeff)]))
                assert_close_to_scheme(out.nd, reference_taxis_divergence(f, pot, coeff))

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    def test_potentials_with_exact_ties(self, extent, cells):
        # Few distinct potential values make q == 0 on many faces, where the
        # scheme reference takes the mean of both cells and the kernel adds
        # 0 * (c_L + c_R) and 0 * (c_L - c_R).
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(7 * sum(cells))
        carrier = Field(g, rng.uniform(-1.0, 3.0, g.num_cells))
        pot = Field(g, rng.integers(0, 2, g.num_cells).astype(float))
        for coeff in (2.3, 0.0):
            out = taxis_divergence(carrier, pot, coeff)
            ref = reference_branch_free_taxis(carrier, [(pot, coeff)])
            assert np.array_equal(out.nd, ref)
            assert_close_to_scheme(out.nd, reference_taxis_divergence(carrier, pot, coeff))

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("chi,xi", [(1.7, 0.9), (1.7, -0.4), (2.3, 0.0)])
    def test_two_potentials_in_one_call(self, extent, cells, chi, xi):
        # One call with an extra (potential, coeff) pair sums both terms per
        # face before it scatters; the second potential has exact ties.
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(3 * sum(cells))
        carrier = Field(g, rng.uniform(-1.0, 3.0, g.num_cells))
        pot_v = Field(g, rng.uniform(-2.0, 2.0, g.num_cells))
        pot_w = Field(g, rng.integers(0, 2, g.num_cells).astype(float))
        pairs = [(pot_v, chi), (pot_w, xi)]
        out = taxis_divergence(carrier, pot_v, chi, (pot_w, xi))
        assert np.array_equal(out.nd, reference_branch_free_taxis(carrier, pairs))
        assert_close_to_scheme(out.nd, reference_taxis_divergence_pairs(carrier, pairs))
        # The same as two single-term calls, up to the order of the sums.
        single_v = taxis_divergence(carrier, pot_v, chi).values
        single_w = taxis_divergence(carrier, pot_w, xi).values
        sup = max(np.max(np.abs(single_v)), np.max(np.abs(single_w)))
        assert np.max(np.abs(out.values - (single_v + single_w))) <= 1e-15 * sup


# Outs a stencil must refuse before it writes: another dtype, byte order,
# stride, shape or size, or no array; and ("input <i>") the array of one of
# its inputs, which the face pass reads while it writes out.
BAD_OUTS = {
    "float32": lambda g: np.zeros(g.num_cells, np.float32),
    "strided": lambda g: np.zeros(2 * g.num_cells)[::2],
    "big-endian": lambda g: np.zeros(g.num_cells, ">f8"),
    "column": lambda g: np.zeros((g.num_cells, 1)),
    "short": lambda g: np.zeros(g.num_cells - 1),
    "list": lambda g: [0.0] * g.num_cells,
}


def assert_out_refused(stencil, g, inputs, bad):
    """stencil(out) raises a ValueError naming out and writes nothing."""
    out = inputs[int(bad[len("input "):])] if bad.startswith("input ") else BAD_OUTS[bad](g)
    before = [np.array(out, copy=True), *(x.copy() for x in inputs)]
    with pytest.raises(ValueError, match="^out must"):
        stencil(out)
    for old, new in zip(before, [out, *inputs]):
        np.testing.assert_array_equal(np.asarray(new), old)


class TestAccumulators:
    """With out, the face pass of a stencil adds its rate into out in place;
    an out it cannot add into is refused."""

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("bad", [None, *BAD_OUTS, "input 0"])
    def test_laplacian_adds_into_out(self, extent, cells, bad):
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(7 * sum(cells))
        f = Field(g, rng.uniform(-1.0, 2.0, g.num_cells))
        if bad is not None:
            assert_out_refused(lambda out: laplacian(f, out=out), g, [f.values], bad)
            return
        lap = laplacian(f).values
        acc = rng.uniform(-1.0, 1.0, g.num_cells) * np.max(np.abs(lap))
        ref = acc + lap
        out = laplacian(f, out=acc)
        assert out.values is acc
        sup = max(np.max(np.abs(ref)), np.max(np.abs(lap)))
        assert np.max(np.abs(acc - ref)) <= 1e-15 * sup

    @pytest.mark.parametrize("extent,cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("diffusion", [0.0, 0.3])
    @pytest.mark.parametrize("bad", [None, *BAD_OUTS, "input 0", "input 1", "input 2"])
    def test_taxis_divergence_subtracts_from_out(self, extent, cells, diffusion, bad):
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(5 * sum(cells))
        carrier = Field(g, rng.uniform(0.0, 3.0, g.num_cells))
        pot_v = Field(g, rng.uniform(-2.0, 2.0, g.num_cells))
        pot_w = Field(g, rng.uniform(0.0, 1.0, g.num_cells))
        args = (carrier, pot_v, 1.7, (pot_w, 0.6))
        if bad is not None:
            inputs = [carrier.values, pot_v.values, pot_w.values]
            assert_out_refused(
                lambda out: taxis_divergence(*args, diffusion=diffusion, out=out), g, inputs, bad
            )
            return
        div = taxis_divergence(*args, diffusion=diffusion).values
        acc = rng.uniform(-1.0, 1.0, g.num_cells) * np.max(np.abs(div))
        ref = acc - div
        out = taxis_divergence(*args, diffusion=diffusion, out=acc)
        assert out.values is acc
        sup = max(np.max(np.abs(ref)), np.max(np.abs(div)))
        assert np.max(np.abs(acc - ref)) <= 1e-15 * sup


class TestReductions:
    def test_integrate_constant_gives_measure(self):
        g = GridSpec((2.0, 3.0), (5, 7))
        assert integrate(Field.full(g, 1.0)) == pytest.approx(6.0, rel=1e-14)

    def test_integrate_hand_value(self):
        g = GridSpec((3.0,), (3,))
        assert integrate(Field(g, [1.0, 2.0, 4.0])) == 7.0

    def test_integrate_nonnegative(self):
        rng = np.random.default_rng(2)
        g = GridSpec((1.0, 1.0), (6, 6))
        f = smooth_field(g, rng, nonneg=True)
        assert integrate(f) >= 0.0

    def test_integrate_is_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        g = GridSpec((1.0,), (1024,))
        f = Field(g, rng.uniform(size=g.num_cells))
        assert integrate(f) == integrate(f.copy())

    def test_lp_norm_hand_value(self):
        g = GridSpec((2.0,), (2,))
        f = Field(g, [3.0, -4.0])
        assert lp_norm(f, 2.0) == pytest.approx(5.0, rel=1e-15)
        assert sup_norm(f) == 4.0

    def test_lp_norm_constant(self):
        g = GridSpec((4.0,), (8,))
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(Field.full(g, -2.0), p) == pytest.approx(
                2.0 * 4.0 ** (1.0 / p), rel=1e-13
            )

    def test_lp_requires_p_at_least_one(self):
        g = GridSpec((1.0,), (4,))
        with pytest.raises(ValueError):
            lp_norm(Field.zeros(g), 0.5)

    def test_holder_bound(self):
        rng = np.random.default_rng(17)
        g = GridSpec((1.5, 0.5), (8, 8))
        for _ in range(10):
            f = smooth_field(g, rng)
            for p in (1.0, 2.0, 4.0):
                bound = sup_norm(f) * g.domain_measure ** (1.0 / p)
                assert lp_norm(f, p) <= bound * (1.0 + 1e-12)

    def test_lp_norm_does_not_overflow_on_a_finite_field(self):
        # 50^200 overflows a double, but the norm is at most
        # sup |f| |Omega|^(1/p) = 50 * 2^(1/200). Two cells of volume 1/2
        # hold |f| = 50, so the norm is 50 to round-off.
        g = GridSpec((2.0,), (4,))
        f = Field(g, [50.0, -50.0, 1.0, 0.0])
        norm = lp_norm(f, 200.0)
        assert norm == pytest.approx(50.0, rel=1e-14)
        assert norm <= 50.0 * g.domain_measure ** (1.0 / 200.0)
        assert lp_norm(Field.full(g, 1e300), 4.0) == pytest.approx(
            1e300 * 2.0**0.25, rel=1e-14
        )

    def test_lp_norm_of_zero_and_of_a_non_finite_field(self):
        g = GridSpec((2.0,), (4,))
        assert lp_norm(Field.zeros(g), 3.0) == 0.0
        assert lp_norm(Field(g, [1.0, np.inf, 0.0, 2.0]), 2.0) == np.inf
        assert np.isnan(lp_norm(Field(g, [1.0, np.nan, 0.0, 2.0]), 2.0))


class TestExtremaHelpers:
    """grid._min and grid._max return an element of the array as a float."""

    @pytest.mark.parametrize("n", [1, 2, 64, 4096, 32768])
    def test_match_numpy_min_and_max(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        for a in (x, x[::3], x[::-1]):
            assert grid_mod._min(a) == np.min(a)
            assert grid_mod._max(a) == np.max(a)

    def test_match_numpy_on_a_2d_array_and_its_transpose(self):
        x = np.random.default_rng(5).normal(size=(17, 9))
        for a in (x, x.T, x[1::2, ::-1]):
            assert grid_mod._min(a) == np.min(a)
            assert grid_mod._max(a) == np.max(a)

    def test_return_python_floats(self):
        x = np.array([3.0, -1.0, 2.0])
        for value in (grid_mod._min(x), grid_mod._max(x)):
            assert type(value) is float
        assert (grid_mod._min(x), grid_mod._max(x)) == (-1.0, 3.0)

    @pytest.mark.parametrize("at", [0, 31, 63])
    @pytest.mark.parametrize("beside", [None, np.inf, -np.inf])
    def test_nan_propagates_from_any_cell(self, at, beside):
        x = np.random.default_rng(at).uniform(size=64)
        x[at] = np.nan
        if beside is not None:
            x[(at + 1) % 64] = beside
            x[(at - 1) % 64] = -beside
        assert math.isnan(grid_mod._min(x))
        assert math.isnan(grid_mod._max(x))
        ext = stepper_mod.Extrema.of(np.ones(64), x, np.ones(64))
        assert not ext.finite
