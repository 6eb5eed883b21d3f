"""Sweep harness: plan arithmetic, determinism, threshold bracketing."""

from __future__ import annotations

import csv
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taxisim
import taxisim.stepper as stepper_mod
import taxisim.sweep as sweep_mod
from taxisim import (
    BoundednessVerdict,
    GridSpec,
    ModelParams,
    ScenarioSpec,
    SolverConfig,
    SweepPlan,
    SweepResult,
    check_pe_condition,
    estimate_threshold,
    params_for_theta,
    run_sweep,
)
from taxisim.fileio import write_sweep_table


def tiny_plan(**overrides):
    defaults = dict(
        mode="fix_mu_vary_chi",
        fixed_value=10.0,
        theta_values=(0.1,),
        base_model=ModelParams(chi=1.0, xi=1.0, mu=10.0),
        base_solver=SolverConfig(t_end=1.0, output_every=0.25),
        scenario=ScenarioSpec(name="steady"),
        grid=GridSpec((2.0,), (16,)),
    )
    defaults.update(overrides)
    return SweepPlan(**defaults)


def fake_result(theta, classification, rep=0):
    return SweepResult(
        theta=theta,
        chi=theta,
        mu=1.0,
        repetition=rep,
        verdict=BoundednessVerdict(classification, 1.0, 0.0),
        max_sup_u=1.0,
        wall_time=0.0,
        pe_condition=True,
    )


class TestPeCondition:
    def test_three_dimensional_cases(self):
        assert check_pe_condition(ModelParams(chi=2.0, mu=1.0), 3) is True
        assert check_pe_condition(ModelParams(chi=2.0, mu=0.5), 3) is False

    def test_low_dimensions_always_hold(self):
        for dim in (1, 2):
            assert check_pe_condition(ModelParams(chi=100.0, mu=1e-6), dim) is True

    def test_dim_validated(self):
        with pytest.raises(ValueError, match=r"^dim must be in \[1, 3\], got 4$"):
            check_pe_condition(ModelParams(chi=1.0, mu=1.0), 4)


class TestPlan:
    def test_mode_arithmetic_fix_mu(self):
        plan = tiny_plan(theta_values=(0.05, 0.1, 0.2))
        chis = [params_for_theta(plan, t).chi for t in plan.theta_values]
        assert chis == [0.5, 1.0, 2.0]
        assert all(params_for_theta(plan, t).mu == 10.0 for t in plan.theta_values)

    def test_mode_arithmetic_fix_chi(self):
        plan = tiny_plan(mode="fix_chi_vary_mu", fixed_value=2.0, theta_values=(0.1, 0.4))
        pts = [params_for_theta(plan, t) for t in plan.theta_values]
        assert [p.chi for p in pts] == [2.0, 2.0]
        assert [p.mu for p in pts] == [20.0, 5.0]

    def test_theta_ratio_holds_to_roundoff(self):
        plan = tiny_plan(theta_values=(0.05, 0.1, 0.2))
        for t in plan.theta_values:
            p = params_for_theta(plan, t)
            assert p.chi / p.mu == pytest.approx(t, rel=1e-15)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"theta_values": ()},
            {"theta_values": (0.2, 0.1)},
            {"theta_values": (0.0, 0.1)},
            {"mode": "spiral"},
            {"fixed_value": 0.0},
            {"repetitions": 0},
            {"repetitions": 1.5},
            {"repetitions": True},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            tiny_plan(**overrides)

    @pytest.mark.parametrize("bad", [True, "1"])
    def test_float_keys_take_real_numbers_only(self, bad):
        with pytest.raises(ValueError, match="^fixed_value must be a real number"):
            tiny_plan(fixed_value=bad)
        with pytest.raises(ValueError, match="^theta_values entry must be a real number"):
            tiny_plan(theta_values=(0.05, bad))

    def test_repetitions_stop_at_the_seed_stride(self):
        # Seeds step by 7919 per theta, so 7920 repetitions would give
        # (theta 0, rep 7919) and (theta 1, rep 0) the same seed.
        plan = tiny_plan(theta_values=(0.1, 0.2), repetitions=7919)
        seeds = {
            sweep_mod._derived_seed(plan.scenario.seed, i, rep)
            for i in range(2)
            for rep in range(plan.repetitions)
        }
        assert len(seeds) == 2 * 7919
        with pytest.raises(ValueError, match="^repetitions must be at most 7919"):
            tiny_plan(repetitions=7920)


class TestRunSweep:
    def test_single_steady_point_is_bounded(self):
        results = run_sweep(tiny_plan())
        assert len(results) == 1
        assert results[0].verdict.classification == "bounded"
        assert results[0].theta == 0.1

    def test_results_ordered_and_deterministic(self):
        plan = tiny_plan(theta_values=(0.05, 0.1, 0.2), repetitions=2)
        a = run_sweep(plan)
        b = run_sweep(plan)
        assert [(r.theta, r.repetition) for r in a] == [
            (t, rep) for t in (0.05, 0.1, 0.2) for rep in (0, 1)
        ]
        for ra, rb in zip(a, b):
            assert ra.verdict.classification == rb.verdict.classification
            assert ra.max_sup_u == rb.max_sup_u
            assert ra.chi == rb.chi

    def test_keep_outcomes_is_keyword_only(self):
        with pytest.raises(TypeError):
            run_sweep(tiny_plan(), True)
        (result,) = run_sweep(tiny_plan(), keep_outcomes=True)
        assert result.outcome is not None

    def test_peak_and_its_time_come_from_the_run(self):
        # The records carry the peak of sup u over every step in their
        # peak_u column, so the verdict pairs the run's peak with the run's
        # time of it, even off the output times. On this plan most points
        # peak between outputs.
        plan = tiny_plan(
            theta_values=(0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4),
            base_solver=SolverConfig(
                t_end=0.25, output_every=0.05, time_scheme="imex-diffusion"
            ),
            scenario=ScenarioSpec(name="random-perturb", amplitude=0.3, wbar=0.3, seed=0),
            grid=GridSpec((6.0,), (64,)),
        )
        results = run_sweep(plan, keep_outcomes=True)
        for res in results:
            assert res.max_sup_u == res.outcome.max_sup_u
            assert res.verdict.max_sup_u == res.outcome.max_sup_u
            assert res.verdict.t_of_max == res.outcome.t_of_max_sup_u
        record_times = {rec.t for res in results for rec in res.outcome.records}
        assert any(res.verdict.t_of_max not in record_times for res in results)

    def test_point_failure_becomes_inconclusive(self, monkeypatch):
        def always_reject(state, params, cfg, dt):
            raise stepper_mod._RetryStep

        monkeypatch.setattr(stepper_mod, "_attempt_step", always_reject)
        plan = tiny_plan(
            base_model=ModelParams(chi=1.0, xi=1.0, mu=10.0, tau=0),
            scenario=ScenarioSpec(name="gaussian-bump"),
            grid=GridSpec((2.0,), (16,)),
        )
        results = run_sweep(plan)
        assert results[0].verdict.classification == "inconclusive"
        assert results[0].failure == "CFLViolation: persistent negativity at t=0.0"

    def test_divergence_on_a_finite_state_is_blow_up(self, monkeypatch, tmp_path):
        # Diverged may carry a state whose fields and records are finite (a
        # non-finite Iv, an overflowing gradient); classify, which reads only
        # the records, would call such a run bounded. How the run ended
        # decides: blew_up at its failure time, with the cause in the row.
        from taxisim import Diverged

        original = stepper_mod._attempt_step
        attempts = {"n": 0}

        def diverge_at_200(state, params, cfg, dt):
            attempts["n"] += 1
            if attempts["n"] == 200:
                raise Diverged("injected", state=state)
            return original(state, params, cfg, dt)

        monkeypatch.setattr(stepper_mod, "_attempt_step", diverge_at_200)
        plan = tiny_plan(
            fixed_value=1.0,
            base_model=ModelParams(chi=1.0, xi=1.0, mu=1.0),
            scenario=ScenarioSpec(name="gaussian-bump"),
        )
        (result,) = run_sweep(plan, keep_outcomes=True)
        outcome = result.outcome
        assert outcome.status == "blew_up" and outcome.records[-1].finite
        assert 0.0 < outcome.final_state.t < 1.0
        assert result.verdict.classification == "blew_up"
        assert result.verdict.crossing_time == outcome.final_state.t
        assert result.failure == "Diverged: injected"
        (row,) = csv.DictReader(io.StringIO(
            write_sweep_table([result], tmp_path / "sweep.csv").read_text()
        ))
        assert row["classification"] == "blew_up"
        assert row["crossing_time"] == repr(outcome.final_state.t)
        assert row["failure"] == "Diverged: injected"

    def test_point_bug_propagates(self, monkeypatch):
        def broken_run(*args, **kwargs):
            raise TypeError("run() got an unexpected keyword argument")

        monkeypatch.setattr(sweep_mod, "run", broken_run)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_sweep(tiny_plan())

    def test_point_value_error_keeps_its_cause(self, monkeypatch):
        def unrunnable(*args, **kwargs):
            raise ValueError("no positive step available")

        monkeypatch.setattr(sweep_mod, "run", unrunnable)
        (result,) = run_sweep(tiny_plan())
        assert result.verdict.classification == "inconclusive"
        assert result.failure == "ValueError: no positive step available"

    def test_overflowing_coefficient_becomes_inconclusive(self):
        # theta * fixed_value overflows to chi = inf, which ModelParams rejects.
        (result,) = run_sweep(tiny_plan(fixed_value=1e300, theta_values=(1e10,)))
        assert result.verdict.classification == "inconclusive"
        assert result.failure == "ValueError: chi must be in (0, inf), got inf"
        assert result.chi == math.inf and result.mu == 1e300

    def test_unfinishable_point_becomes_inconclusive(self):
        # theta = 1e-300 with mu = 1e300 gives chi = 1, a finite point whose
        # reaction limit (~1e-301) would need ~1e298 steps to reach t_end.
        (result,) = run_sweep(tiny_plan(fixed_value=1e300, theta_values=(1e-300,)))
        assert result.chi == 1.0 and result.mu == 1e300
        assert result.verdict.classification == "inconclusive"
        assert result.failure.startswith("ValueError: the reaction limit gives dt=")


    def test_failure_reaches_the_sweep_table(self, tmp_path):
        # The cause of a point that could not run is written to sweep.csv,
        # quoted where it holds a comma; a point that ran has an empty cell.
        ok = run_sweep(tiny_plan())
        failed = run_sweep(tiny_plan(fixed_value=1e300, theta_values=(1e-300, 1e10)))
        text = write_sweep_table(ok + failed, tmp_path / "sweep.csv").read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [row["failure"] for row in rows] == ["", failed[0].failure, failed[1].failure]
        assert "," in failed[0].failure
        assert rows[1]["classification"] == "inconclusive"
        assert rows[1]["max_sup_u"] == "nan"
        lines = text.splitlines()
        assert lines[0].endswith(",pe_condition,failure")
        assert lines[1] == ",".join(
            ["0.1", "1.0", "10.0", "0", ok[0].verdict.classification]
            + [repr(ok[0].max_sup_u), repr(ok[0].verdict.t_of_max), "", "true", ""]
        )

class TestEstimateThreshold:
    def test_simple_bracket(self):
        results = [
            fake_result(0.1, "bounded"),
            fake_result(0.2, "bounded"),
            fake_result(0.4, "growing"),
        ]
        assert estimate_threshold(results) == (0.2, 0.4)

    def test_all_bounded_gives_none(self):
        results = [fake_result(t, "bounded") for t in (0.1, 0.2, 0.4)]
        assert estimate_threshold(results) is None

    def test_non_monotone_gives_none(self):
        results = [
            fake_result(0.1, "bounded"),
            fake_result(0.2, "growing"),
            fake_result(0.4, "bounded"),
        ]
        assert estimate_threshold(results) is None

    def test_inconclusive_gap_is_spanned(self):
        results = [
            fake_result(0.1, "bounded"),
            fake_result(0.2, "inconclusive"),
            fake_result(0.4, "blew_up"),
        ]
        assert estimate_threshold(results) == (0.1, 0.4)

    def test_no_bounded_prefix_gives_none(self):
        results = [fake_result(0.1, "growing"), fake_result(0.2, "growing")]
        assert estimate_threshold(results) is None

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "reversed"])
    def test_repetitions_grouped(self, order):
        # Grouping by theta makes the input order irrelevant.
        results = [
            fake_result(0.1, "bounded", rep=0),
            fake_result(0.1, "bounded", rep=1),
            fake_result(0.2, "bounded", rep=0),
            fake_result(0.2, "growing", rep=1),
        ]
        assert estimate_threshold(results[::order]) == (0.1, 0.2)


class TestImportFootprint:
    def test_import_loads_no_pool_or_logging(self):
        # The benchmark's setup_s times `import taxisim`, so the package
        # keeps heavy standard modules off its import path. (fileio, which
        # `import taxisim` never loads, imports csv inside its sweep table
        # writer, since only the sweep command writes a table.)
        env = dict(os.environ, PYTHONPATH=str(Path(taxisim.__file__).parents[1]))
        code = (
            "import sys, taxisim\n"
            "print(' '.join(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == ""

    def test_random_perturb_sweep_loads_no_numpy_random(self):
        # The random-perturb noise is computed without numpy.random, whose
        # import is most of a small sweep's peak memory.
        env = dict(os.environ, PYTHONPATH=str(Path(taxisim.__file__).parents[1]))
        code = (
            "import sys\n"
            "from taxisim import *\n"
            "g = GridSpec((2.0,), (16,))\n"
            "sc = ScenarioSpec(name='random-perturb', amplitude=0.3, seed=5)\n"
            "plan = SweepPlan(mode='fix_mu_vary_chi', fixed_value=10.0, theta_values=(0.1,),\n"
            "    base_model=ModelParams(chi=1.0, xi=1.0, mu=10.0),\n"
            "    base_solver=SolverConfig(t_end=0.05, output_every=0.05), scenario=sc, grid=g)\n"
            "[r] = run_sweep(plan)\n"
            "print(r.failure, 'numpy.random' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["None", "False"]


class TestPackageApi:
    # The package re-exports each module's __all__; this pins the result.
    NAMES = sorted(
        """
        BoundednessVerdict CFLViolation ConfigError DiagnosticsRecord
        Diverged Field GridSpec InitialData MassBoundCheck ModelParams OdeTrajectory
        OutputOptions ParseError RunConfig RunOutcome ScenarioSpec SimState Snapshot
        SolverConfig SweepPlan SweepResult ValidationError
        check_pe_condition classify estimate_threshold gradient initial_state
        integrate laplacian lemma22_tolerance lp_norm magnitude
        mass_bound_check ode_reference outcome_verdict params_for_theta
        parse_config record render_config rhs_u rhs_v rhs_w
        run run_sweep solve_elliptic stable_dt step sup_norm take_snapshot
        taxis_divergence
        """.split()
    )

    def test_exports_the_pinned_names_once(self):
        assert len(self.NAMES) == 50
        assert sorted(taxisim.__all__) == self.NAMES

    def test_each_name_is_the_object_its_module_defines(self):
        for name in taxisim.__all__:
            obj = getattr(taxisim, name)
            module = importlib.import_module(obj.__module__)
            assert module.__name__.startswith("taxisim.")
            assert name in module.__all__
            assert getattr(module, name) is obj

    def test_star_import_binds_exactly_the_exports(self):
        namespace: dict = {}
        exec("from taxisim import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == self.NAMES
