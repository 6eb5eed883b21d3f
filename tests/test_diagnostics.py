"""Monitors: records, curvature bound, representation residual, classifier."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import ORACLE_GRIDS, smooth_field
from taxisim import (
    BoundednessVerdict,
    DiagnosticsRecord,
    Field,
    GridSpec,
    InitialData,
    ModelParams,
    ScenarioSpec,
    SolverConfig,
    classify,
    gradient,
    initial_state,
    laplacian,
    lemma22_tolerance,
    magnitude,
    mass_bound_check,
    outcome_verdict,
    record,
    run,
    step,
    take_snapshot,
)
from taxisim.stepper import Extrema


def make_record(t: float, sup_u: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        t=t,
        dt=0.01,
        mass_u=sup_u,
        mass_v=1.0,
        min_u=0.0,
        sup_u=sup_u,
        min_v=0.0,
        sup_v=1.0,
        min_w=0.0,
        sup_w=0.0,
        sup_grad_v=0.0,
        lemma22_violation=0.0,
        repr_residual=0.0,
        peak_u=sup_u,
        t_peak_u=t,
        lp_u=((2.0, sup_u),),
    )


def series(sups, t_end=1.0):
    ts = np.linspace(0.0, t_end, len(sups))
    return [make_record(t, s) for t, s in zip(ts, sups)]


CFG = SolverConfig(t_end=1.0, output_every=0.5, blowup_threshold=1e6)


class TestRecord:
    def test_steady_state_record(self):
        g = GridSpec((1.0,), (10,))  # unit measure
        state = initial_state(ScenarioSpec(name="steady").build(g))
        rec = record(state, [2.0], eta=0.0)
        assert rec.mass_u == pytest.approx(1.0, rel=1e-14)
        assert rec.mass_v == pytest.approx(1.0, rel=1e-14)
        assert rec.sup_u == 1.0
        assert rec.sup_grad_v == 0.0
        assert rec.repr_residual == 0.0
        assert rec.lemma22_violation == 0.0
        assert rec.finite

    def test_two_cell_hand_values(self):
        g = GridSpec((1.0,), (2,))  # h = 0.5
        init = InitialData(Field(g, [0.0, 2.0]), Field.zeros(g), Field.zeros(g))
        rec = record(initial_state(init), [2.0], eta=0.0)
        assert rec.mass_u == pytest.approx(1.0, rel=1e-15)
        assert rec.sup_u == 2.0
        assert rec.min_u == 0.0
        assert rec.lp_u[0][1] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_power_mean_monotonicity(self):
        rng = np.random.default_rng(3)
        g = GridSpec((2.0,), (32,))
        u = Field(g, rng.uniform(0.1, 3.0, size=32))
        init = InitialData(u, Field.zeros(g), Field.zeros(g))
        rec = record(initial_state(init), [1.0, 2.0, 4.0], eta=0.0)
        measure = g.domain_measure
        normalized = [val / measure ** (1.0 / p) for p, val in rec.lp_u]
        assert normalized == sorted(normalized)

    def test_nonfinite_state_is_flagged(self):
        g = GridSpec((1.0,), (4,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        state.u.values[1] = np.nan
        state.extrema = Extrema.of(state.u.values, state.v.values, state.w.values)
        rec = record(state, [2.0], eta=0.0)
        assert not rec.finite

    def test_eta_has_no_default(self):
        # The eta = 0 monitors misread a renewing substrate, so a caller
        # must say which system the state belongs to.
        state = initial_state(ScenarioSpec(name="steady").build(GridSpec((1.0,), (4,))))
        with pytest.raises(TypeError, match="eta"):
            record(state, [2.0])


def wrapper_record(state, p_list):
    """record's columns with every reduction through the np.max and np.sum
    wrappers, as they were computed before the ufunc reductions."""
    g = state.grid

    def mass(f):
        return float(g.volume_element * np.sum(f.values))

    def lp(f, p):
        scaled = np.abs(f.values)
        s = float(scaled.max())
        scaled /= s
        scaled **= p
        return s * float(g.volume_element * np.sum(scaled)) ** (1.0 / p)

    slack, error = monitor_oracle(state)
    return (
        mass(state.u),
        mass(state.v),
        float(np.max(magnitude(gradient(state.v)).values)),
        float(np.max(slack)),
        float(np.max(error)),
        tuple((float(p), lp(state.u, p)) for p in p_list),
    )


class TestUfuncReductions:
    """record, lemma22_tolerance and take_snapshot reduce with the ufuncs'
    own reduce methods; every value stays what the wrappers gave, bit for bit."""

    @pytest.mark.parametrize("extent, cells", ORACLE_GRIDS)
    def test_equal_to_the_wrappers_on_stepped_states(self, extent, cells):
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(5 + sum(cells))
        u, v, w = (smooth_field(g, rng, nonneg=True) for _ in range(3))
        state = initial_state(InitialData(u, v, w))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=1.0)
        p_list = [1.0, 2.0, 3.5]
        for _ in range(4):
            state = step(state, p, cfg)
            rec = record(state, p_list, eta=0.0)
            got = (
                rec.mass_u, rec.mass_v, rec.sup_grad_v,
                rec.lemma22_violation, rec.repr_residual, rec.lp_u,
            )
            assert got == wrapper_record(state, p_list)
            Iv = state.Iv.values
            scale = state.anchor.M * (
                1.0 + float(np.max(Iv)) + float(np.max(magnitude(gradient(state.Iv)).values))
            )
            h = max(g.spacing)
            tol = 10.0 * (h * h + state.last_dt) * scale
            assert lemma22_tolerance(state, state.last_dt) == tol
            snap = take_snapshot(state.t, state.w, state.extrema)
            grad_w = magnitude(gradient(state.w)).values
            sups = [np.abs(f.values) for f in (state.u, state.v, state.w)]
            sups += [grad_w, np.abs(laplacian(state.w).values)]
            assert snap.M == max(float(np.max(a)) for a in sups)
            assert snap.sup_w == float(np.max(state.w.values))


def monitor_oracle(state):
    """Per-cell slack of the curvature bound, max(0, bound - lap_h w), and
    per-cell representation error |w - exp(-Iv) w(s0)|, from gradient,
    laplacian and the anchor substrate."""
    w0 = state.anchor.w_s0
    env = np.exp(-state.Iv.values)
    dot = sum(gw.values * gi.values for gw, gi in zip(gradient(w0), gradient(state.Iv)))
    bound = (
        laplacian(w0).values * env
        - 2.0 * env * dot
        - w0.values / math.e
        - w0.values * state.v.values * env
    )
    slack = np.maximum(bound - laplacian(state.w).values, 0.0)
    error = np.abs(state.w.values - env * w0.values)
    return slack, error


def bump_state(g):
    # A strongly varying substrate against constant u and v.
    x = g.cell_centers(0)
    w_bump = Field(g, 0.2 + 0.5 * np.exp(-((x - 1.0) ** 2) / 0.09))
    return initial_state(InitialData(Field.full(g, 1.0), Field.full(g, 1.0), w_bump))


class TestSubstrateMonitors:
    def test_zero_at_anchor_time(self):
        g = GridSpec((2.0,), (32,))
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        rec = record(initial_state(sc.build(g)), [2.0], eta=0.0)
        assert rec.lemma22_violation == 0.0
        assert rec.repr_residual == 0.0

    def test_zero_slack_for_frozen_constants(self):
        # v constant c, w0 constant d: every spatial derivative vanishes and
        # the bound reduces to -d/e - d c e^{-c t} <= 0.
        g = GridSpec((1.0,), (8,))
        p = ModelParams(chi=1.0, xi=1.0, mu=0.0)
        init = ScenarioSpec(name="constant", u0=0.5, v0=0.5, w0=0.8).build(g)
        out = run(init, p, SolverConfig(t_end=1.0, output_every=0.25))
        for rec in out.records:
            assert rec.lemma22_violation == 0.0

    def test_poisoned_accumulator_is_detected(self):
        # Corrupt Iv against a strongly varying substrate, so that its
        # gradient (the integral of grad v) is -10 grad w(s0): the bound must
        # report a strictly positive violation.
        g = GridSpec((2.0,), (64,))
        state = bump_state(g)
        poisoned = replace(state, Iv=Field(g, -10.0 * state.anchor.w_s0.values))
        assert record(state, [2.0], eta=0.0).lemma22_violation == 0.0
        assert record(poisoned, [2.0], eta=0.0).lemma22_violation > 1.0

    def test_perturbed_substrate_is_detected(self):
        g = GridSpec((1.0,), (8,))
        state = initial_state(ScenarioSpec(name="gaussian-bump", wbar=0.5).build(g))
        state.w.values[3] += 1e-3
        assert record(state, [2.0], eta=0.0).repr_residual == pytest.approx(1e-3, rel=1e-10)

    def test_residual_exact_through_full_run(self):
        g = GridSpec((2.0,), (32,))
        p = ModelParams(chi=1.5, xi=0.5, mu=2.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        out = run(sc.build(g), p, SolverConfig(t_end=1.0, output_every=0.2))
        for rec in out.records:
            assert rec.repr_residual == 0.0

    @pytest.mark.parametrize("extent, cells", ORACLE_GRIDS)
    @pytest.mark.parametrize("kind", ["stepped", "poisoned", "perturbed"])
    def test_columns_equal_the_oracle(self, extent, cells, kind):
        # The record's two columns are the maxima of the oracle's per-cell
        # values, bit for bit, on a state a few steps past its anchor, with
        # a corrupted accumulator, and with a perturbed substrate.
        g = GridSpec(extent, cells)
        rng = np.random.default_rng(sum(cells))
        u, v, w = (smooth_field(g, rng, nonneg=True) for _ in range(3))
        state = initial_state(InitialData(u, v, w))
        p = ModelParams(chi=1.0, xi=1.0, mu=1.0)
        cfg = SolverConfig(t_end=1.0)
        for _ in range(3):
            state = step(state, p, cfg)
        if kind == "poisoned":
            iv = smooth_field(g, rng, amplitude=3.0)
            state = replace(state, Iv=iv)
        elif kind == "perturbed":
            state.w.values[g.num_cells // 2] *= 1.0 + 1e-3
            state.extrema = Extrema.of(state.u.values, state.v.values, state.w.values)
        slack, error = monitor_oracle(state)
        rec = record(state, [2.0], eta=0.0)
        assert rec.lemma22_violation == float(np.max(slack))
        assert rec.repr_residual == float(np.max(error))
        if kind == "stepped":
            assert rec.repr_residual == 0.0
        else:
            assert rec.repr_residual > 0.0
        if kind == "poisoned":
            assert rec.lemma22_violation > 0.0


class TestMassBound:
    def grid(self):
        return GridSpec((1.0,), (8,))

    def test_steady_passes_with_zero_margin(self):
        recs = [make_record(t, 1.0) for t in (0.0, 0.5, 1.0)]
        res = mass_bound_check(recs, self.grid(), ModelParams(chi=1.0, mu=1.0))
        assert not res.skipped
        assert res.passed
        assert res.bound == 1.0
        assert res.margin == 0.0

    def test_decaying_mass_respects_initial_bound(self):
        p = ModelParams(chi=1.0, xi=0.0, mu=1.0)
        g = GridSpec((1.0,), (8,))
        init = ScenarioSpec(name="constant", u0=2.0, v0=1.0, w0=0.0).build(g)
        out = run(init, p, SolverConfig(t_end=3.0, output_every=0.25))
        res = mass_bound_check(out.records, g, p)
        assert res.passed
        assert res.bound == pytest.approx(2.0, rel=1e-12)
        masses = [rec.mass_u for rec in out.records]
        assert all(b < a for a, b in zip(masses, masses[1:]))

    def test_skipped_without_positive_mu(self):
        recs = [make_record(0.0, 1.0)]
        res = mass_bound_check(recs, self.grid(), ModelParams(chi=1.0, mu=0.0))
        assert res.skipped

    def test_skipped_with_renewal(self):
        recs = [make_record(0.0, 1.0)]
        res = mass_bound_check(recs, self.grid(), ModelParams(chi=1.0, mu=1.0, eta=0.5))
        assert res.skipped

    def test_violation_detected(self):
        recs = [make_record(0.0, 1.0), make_record(1.0, 1.5)]
        res = mass_bound_check(recs, self.grid(), ModelParams(chi=1.0, mu=1.0))
        assert not res.passed
        assert res.margin < 0.0


class TestClassify:
    def test_steady_is_bounded(self):
        v = classify(series([1.0] * 9), CFG)
        assert v.classification == "bounded"
        assert v.max_sup_u == 1.0

    def test_single_record_is_bounded(self):
        v = classify([make_record(0.0, 2.0)], CFG)
        assert v.classification == "bounded"

    def test_threshold_crossing_is_blew_up(self):
        # sup u = 10 sits at the threshold and does not cross it; 12 does.
        cfg = SolverConfig(t_end=1.0, output_every=0.5, blowup_threshold=10.0)
        recs = series([1.0, 2.0, 5.0, 10.0, 12.0])
        v = classify(recs, cfg)
        assert v.classification == "blew_up"
        assert v.crossing_time == pytest.approx(1.0)
        assert classify(series([10.0] * 9), cfg).classification == "bounded"

    def test_nonfinite_record_is_blew_up(self):
        recs = series([1.0, 2.0, 3.0])
        recs.append(make_record(1.5, math.nan))
        v = classify(recs, CFG)
        assert v.classification == "blew_up"
        assert v.crossing_time == pytest.approx(1.5)

    def test_all_nonfinite_series_blew_up_at_its_start(self):
        recs = series([math.nan, math.inf, math.nan], t_end=2.0)
        v = classify(recs, CFG)
        assert v.classification == "blew_up"
        assert v.max_sup_u == math.inf
        assert v.t_of_max == 0.0 and v.crossing_time == 0.0

    def test_fast_growth_is_growing(self):
        v = classify(series([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0]), CFG)
        assert v.classification == "growing"

    def test_slow_monotone_growth_is_inconclusive(self):
        # Ends at 1.5x the initial supremum: not growing (under the factor-2
        # gate), not a plateau either.
        sups = list(np.linspace(1.0, 1.5, 21))
        v = classify(series(sups), CFG)
        assert v.classification == "inconclusive"

    def test_invariant_under_time_rescaling(self):
        for sups in ([1.0] * 9, list(np.linspace(1.0, 1.5, 21)), [1.0, 1.0, 1.0, 5.0, 9.0]):
            base = classify(series(sups), CFG)
            scaled_cfg = SolverConfig(t_end=1000.0, output_every=1.0, blowup_threshold=1e6)
            scaled = classify(series(sups, t_end=1000.0), scaled_cfg)
            assert base.classification == scaled.classification

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            classify([], CFG)


class TestOutcomeVerdict:
    """How a run ended comes before what its records show."""

    BOUNDED = BoundednessVerdict("bounded", 2.5, 0.25)
    BLEW_UP = BoundednessVerdict("blew_up", 12.0, 0.75, crossing_time=0.5)

    @pytest.mark.parametrize(
        "status, seen, classification, crossing",
        [
            ("completed", BOUNDED, "bounded", None),
            ("completed", BLEW_UP, "blew_up", 0.5),
            # A run that diverged blew up at its final time, 0.9.
            ("blew_up", BOUNDED, "blew_up", 0.9),
            ("blew_up", BLEW_UP, "blew_up", 0.9),
            ("cfl_failed", BOUNDED, "inconclusive", None),
            ("cfl_failed", BLEW_UP, "blew_up", 0.5),
            ("ended early", BOUNDED, "inconclusive", None),
            ("ended early", BLEW_UP, "blew_up", 0.5),
        ],
    )
    def test_status_then_records(self, status, seen, classification, crossing):
        v = outcome_verdict(seen, status, 0.9)
        assert v.classification == classification
        assert v.crossing_time == crossing
        assert (v.max_sup_u, v.t_of_max) == (seen.max_sup_u, seen.t_of_max)
