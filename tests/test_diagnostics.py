"""Monitors: records, curvature bound, representation residual, classifier."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from taxisim import (
    DiagnosticsRecord,
    Field,
    GridSpec,
    InitialData,
    ModelParams,
    ScenarioSpec,
    SolverConfig,
    classify,
    initial_state,
    lemma22_check,
    mass_bound_check,
    record,
    representation_residual,
    run,
)


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
        rec = record(state, [2.0])
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
        rec = record(initial_state(init), [2.0])
        assert rec.mass_u == pytest.approx(1.0, rel=1e-15)
        assert rec.sup_u == 2.0
        assert rec.min_u == 0.0
        assert rec.lp_u[0][1] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_power_mean_monotonicity(self):
        rng = np.random.default_rng(3)
        g = GridSpec((2.0,), (32,))
        u = Field(g, rng.uniform(0.1, 3.0, size=32))
        init = InitialData(u, Field.zeros(g), Field.zeros(g))
        rec = record(initial_state(init), [1.0, 2.0, 4.0])
        measure = g.domain_measure
        normalized = [val / measure ** (1.0 / p) for p, val in rec.lp_u]
        assert normalized == sorted(normalized)

    def test_nonfinite_state_is_flagged(self):
        g = GridSpec((1.0,), (4,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        state.u.values[1] = np.nan
        rec = record(state, [2.0])
        assert not rec.finite


class TestCurvatureBound:
    def test_zero_slack_at_anchor_time(self):
        g = GridSpec((2.0,), (32,))
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        state = initial_state(sc.build(g))
        slack = lemma22_check(state)
        assert np.max(slack.values) == 0.0

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
        x = g.cell_centers(0)
        w_bump = Field(g, 0.2 + 0.5 * np.exp(-((x - 1.0) ** 2) / 0.09))
        init = InitialData(Field.full(g, 1.0), Field.full(g, 1.0), w_bump)
        state = initial_state(init)
        clean = float(np.max(lemma22_check(state).values))
        poisoned = replace(state, Iv=Field(g, -10.0 * state.anchor.w_s0.values))
        dirty = float(np.max(lemma22_check(poisoned).values))
        assert clean == 0.0
        assert dirty > 1.0


class TestRepresentationResidual:
    def test_zero_at_anchor(self):
        g = GridSpec((1.0,), (8,))
        state = initial_state(ScenarioSpec(name="gaussian-bump").build(g))
        assert representation_residual(state) == 0.0

    def test_detects_perturbed_substrate(self):
        g = GridSpec((1.0,), (8,))
        state = initial_state(ScenarioSpec(name="gaussian-bump", wbar=0.5).build(g))
        state.w.values[3] += 1e-3
        assert representation_residual(state) == pytest.approx(1e-3, rel=1e-10)

    def test_exact_through_full_run(self):
        g = GridSpec((2.0,), (32,))
        p = ModelParams(chi=1.5, xi=0.5, mu=2.0)
        sc = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3)
        out = run(sc.build(g), p, SolverConfig(t_end=1.0, output_every=0.2))
        for rec in out.records:
            assert rec.repr_residual == 0.0


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
        cfg = SolverConfig(t_end=1.0, output_every=0.5, blowup_threshold=10.0)
        recs = series([1.0, 2.0, 5.0, 12.0])
        v = classify(recs, cfg)
        assert v.classification == "blew_up"
        assert v.crossing_time == pytest.approx(1.0)

    def test_nonfinite_record_is_blew_up(self):
        recs = series([1.0, 2.0, 3.0])
        recs.append(make_record(1.5, math.nan))
        v = classify(recs, CFG)
        assert v.classification == "blew_up"
        assert v.crossing_time == pytest.approx(1.5)

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
