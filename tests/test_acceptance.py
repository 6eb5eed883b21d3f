"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints an explicit [acceptance] line.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import grid_for_dim, smooth_field
from taxisim import (
    BoundednessVerdict,
    Field,
    GridSpec,
    ModelParams,
    RunOutcome,
    ScenarioSpec,
    SolverConfig,
    SweepPlan,
    SweepResult,
    classify,
    estimate_threshold,
    initial_state,
    integrate,
    laplacian,
    lemma22_tolerance,
    lp_norm,
    mass_bound_check,
    ode_reference,
    run,
    run_sweep,
    solve_elliptic,
    stable_dt,
    taxis_divergence,
)
from taxisim.cli import main
from taxisim.fileio import read_snapshot, read_timeseries, write_snapshot, write_timeseries


@dataclass
class RunArtifact:
    name: str
    grid: GridSpec
    params: ModelParams
    cfg: SolverConfig
    outcome: RunOutcome
    wall: float


def execute(name, grid, params, cfg, scenario) -> RunArtifact:
    tic = time.perf_counter()
    outcome = run(scenario.build(grid), params, cfg)
    return RunArtifact(name, grid, params, cfg, outcome, time.perf_counter() - tic)


def report(number: int, slug: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({slug}): PASS")


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def steady_run() -> RunArtifact:
    return execute(
        "steady-1d",
        GridSpec((8.0,), (64,)),
        ModelParams(chi=1.0, xi=1.0, mu=1.0),
        SolverConfig(t_end=10.0, output_every=0.5),
        ScenarioSpec(name="steady"),
    )


@pytest.fixture(scope="module")
def ode_pair():
    grid = GridSpec((1.0,), (16,))
    params = ModelParams(chi=1.0, xi=1.0, mu=1.0)
    scenario = ScenarioSpec(name="constant", u0=2.0, v0=0.5, w0=0.5)
    init = scenario.build(grid)
    base = SolverConfig(t_end=5.0, output_every=0.5)
    dt_default = stable_dt(initial_state(init), params, base)
    art_full = execute("ode-equiv-dt", grid, params, base, scenario)
    art_half = execute(
        "ode-equiv-dt/2",
        grid,
        params,
        SolverConfig(t_end=5.0, output_every=0.5, dt_max=dt_default / 2.0),
        scenario,
    )
    oracle = ode_reference(params, (2.0, 0.5, 0.5), 5.0, 1e-4)
    return art_full, art_half, oracle, dt_default


@pytest.fixture(scope="module")
def bump_refinement():
    params = ModelParams(chi=1.0, xi=1.0, mu=1.0)
    scenario = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.5, wbar=0.3)
    arts: dict[tuple[int, float], RunArtifact] = {}
    tic = time.perf_counter()
    for n in (128, 256):
        for dt in (6e-5, 3e-5):
            cfg = SolverConfig(t_end=1.0, output_every=0.25, anchor_time=0.1, dt_max=dt)
            arts[(n, dt)] = execute(
                f"bump-n{n}-dt{dt}", GridSpec((4.5,), (n,)), params, cfg, scenario
            )
    total = time.perf_counter() - tic
    return arts, total


@pytest.fixture(scope="module")
def theta_small_runs():
    params = ModelParams(chi=1.0, xi=1.0, mu=10.0)
    scenario = ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.75, wbar=0.3)
    cfg = SolverConfig(t_end=50.0, output_every=1.0)
    one_d = execute("theta0.1-1d", GridSpec((6.0,), (64,)), params, cfg, scenario)
    two_d = execute("theta0.1-2d", GridSpec((6.0, 6.0), (64, 64)), params, cfg, scenario)
    return one_d, two_d


@pytest.fixture(scope="module")
def tau0_sweep():
    grid = GridSpec((3.0, 3.0, 3.0), (16, 16, 16))
    plan = SweepPlan(
        mode="fix_mu_vary_chi",
        fixed_value=1.0,
        theta_values=(1.0,),
        base_model=ModelParams(chi=1.0, xi=1.0, mu=1.0, tau=0),
        base_solver=SolverConfig(t_end=10.0, output_every=0.5),
        scenario=ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.375, wbar=0.3),
        grid=grid,
        repetitions=1,
    )
    tic = time.perf_counter()
    results = run_sweep(plan, keep_outcomes=True)
    return plan, results, time.perf_counter() - tic


@pytest.fixture(scope="module")
def extra_runs():
    arts = [
        execute(
            "random-perturb-1d",
            GridSpec((2.0,), (32,)),
            ModelParams(chi=1.0, xi=0.5, mu=1.0),
            SolverConfig(t_end=2.0, output_every=0.25),
            ScenarioSpec(name="random-perturb", amplitude=0.3, seed=321),
        ),
        execute(
            "renewal-eta-1d",
            GridSpec((2.0,), (32,)),
            ModelParams(chi=1.0, xi=1.0, mu=1.0, eta=0.5),
            SolverConfig(t_end=1.5, output_every=0.25),
            ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3),
        ),
        execute(
            "imex-bump-1d",
            GridSpec((2.0,), (32,)),
            ModelParams(chi=1.0, xi=1.0, mu=1.0),
            SolverConfig(t_end=1.0, output_every=0.25, time_scheme="imex-diffusion"),
            ScenarioSpec(name="gaussian-bump", amplitude=0.5, sigma=0.3, wbar=0.3),
        ),
        execute(
            "homogeneous-decay",
            GridSpec((1.0,), (16,)),
            ModelParams(chi=1.0, xi=0.0, mu=1.0),
            SolverConfig(t_end=3.0, output_every=0.25),
            ScenarioSpec(name="constant", u0=2.0, v0=1.0, w0=0.0),
        ),
    ]
    return arts


@pytest.fixture(scope="module")
def scenario_suite(steady_run, ode_pair, bump_refinement, theta_small_runs, tau0_sweep, extra_runs):
    arts: list[RunArtifact] = [steady_run, ode_pair[0], ode_pair[1]]
    arts.extend(bump_refinement[0].values())
    arts.extend(theta_small_runs)
    plan, results, _ = tau0_sweep
    for res in results:
        if res.outcome is not None:
            arts.append(
                RunArtifact(
                    f"tau0-sweep-theta{res.theta}",
                    plan.grid,
                    ModelParams(chi=res.chi, xi=plan.base_model.xi, mu=res.mu, tau=0),
                    plan.base_solver,
                    res.outcome,
                    res.wall_time,
                )
            )
    arts.extend(extra_runs)
    return arts


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_steady_state_fidelity(steady_run):
    art = steady_run
    assert art.outcome.status == "completed"
    for rec in art.outcome.records:
        assert abs(rec.sup_u - 1.0) <= 1e-10 and abs(rec.min_u - 1.0) <= 1e-10
        assert abs(rec.sup_v - 1.0) <= 1e-10 and abs(rec.min_v - 1.0) <= 1e-10
        assert abs(rec.sup_w) <= 1e-10 and abs(rec.min_w) <= 1e-10
    final = art.outcome.final_state
    assert np.max(np.abs(final.u.values - 1.0)) <= 1e-10
    assert np.max(np.abs(final.v.values - 1.0)) <= 1e-10
    assert np.max(np.abs(final.w.values)) <= 1e-10
    verdict = classify(art.outcome.records, art.cfg)
    assert verdict.classification == "bounded"
    assert art.wall < 5.0
    report(1, "steady-state fidelity")


def test_criterion_02_ode_oracle_equivalence(ode_pair):
    art_full, art_half, oracle, dt_default = ode_pair

    def worst_error(art: RunArtifact) -> float:
        worst = 0.0
        for rec in art.outcome.records[1:]:
            ref = oracle.value_at(rec.t)
            worst = max(
                worst,
                abs(rec.sup_u - ref[0]) / max(abs(ref[0]), 1e-30),
                abs(rec.sup_v - ref[1]) / max(abs(ref[1]), 1e-30),
                abs(rec.sup_w - ref[2]) / max(abs(ref[2]), 1e-30),
            )
        return worst

    err_full = worst_error(art_full)
    err_half = worst_error(art_half)
    assert err_full <= 1e-3
    ratio = err_full / err_half
    assert 1.7 <= ratio <= 2.3
    report(2, f"ode-oracle equivalence, err={err_full:.2e}, ratio={ratio:.2f}")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_criterion_03_discrete_conservation(dim):
    rng = np.random.default_rng(100 + dim)
    grid = grid_for_dim(dim, n={1: 48, 2: 16, 3: 8}[dim])
    for _ in range(50):
        u = smooth_field(grid, rng, nonneg=True)
        v = smooth_field(grid, rng, nonneg=True)
        w = smooth_field(grid, rng, nonneg=True)
        chi, xi = rng.uniform(0.5, 2.0, size=2)
        transport = laplacian(u).values
        transport -= taxis_divergence(u, v, chi).values
        transport -= taxis_divergence(u, w, xi).values
        assert abs(integrate(Field(grid, transport))) <= 1e-12 * lp_norm(u, 1.0)
    report(3, f"discrete conservation dim={dim}")


def test_criterion_04_positivity_invariants(scenario_suite):
    for art in scenario_suite:
        assert art.outcome.invariant_violations == 0, art.name
        assert art.outcome.min_u >= 0.0, art.name
        assert art.outcome.min_v >= 0.0, art.name
        assert art.outcome.min_w >= 0.0, art.name
    report(4, f"positivity and substrate ceiling, {len(scenario_suite)} runs")


def test_criterion_05_representation_identity(scenario_suite):
    checked = 0
    for art in scenario_suite:
        if art.params.eta != 0.0:
            continue
        for rec in art.outcome.records:
            assert rec.repr_residual <= 1e-12 * max(rec.sup_w, 1e-300), art.name
        checked += 1
    assert checked >= 8
    report(5, f"substrate representation identity, {checked} runs")


def test_criterion_06_curvature_bound_refinement(bump_refinement):
    arts, total_wall = bump_refinement
    viol = {}
    for (n, dt), art in arts.items():
        assert art.outcome.status == "completed"
        v = max(rec.lemma22_violation for rec in art.outcome.records)
        tol = lemma22_tolerance(art.outcome.final_state, dt)
        assert v <= tol, (n, dt, v, tol)
        viol[(n, dt)] = v
    # Non-increasing along each refinement direction and their diagonal.
    assert viol[(128, 6e-5)] >= viol[(256, 6e-5)] - 1e-300
    assert viol[(128, 3e-5)] >= viol[(256, 3e-5)] - 1e-300
    assert viol[(128, 6e-5)] >= viol[(128, 3e-5)] - 1e-300
    assert viol[(256, 6e-5)] >= viol[(256, 3e-5)] - 1e-300
    assert viol[(128, 6e-5)] >= viol[(256, 3e-5)] - 1e-300
    assert total_wall < 30.0
    report(6, f"curvature lower bound, max violation {max(viol.values()):.2e}")


def test_criterion_07_mass_bound(scenario_suite):
    checked = 0
    for art in scenario_suite:
        if art.params.mu <= 0.0 or art.params.eta != 0.0:
            continue
        result = mass_bound_check(art.outcome.records, art.grid, art.params)
        assert not result.skipped
        assert result.passed, (art.name, result)
        checked += 1
    assert checked >= 8
    report(7, f"cell-mass bound, {checked} runs")


def test_criterion_08_bounded_at_small_theta(theta_small_runs):
    one_d, two_d = theta_small_runs
    for art in theta_small_runs:
        assert art.outcome.status == "completed"
        assert art.params.theta() == pytest.approx(0.1)
        verdict = classify(art.outcome.records, art.cfg)
        assert verdict.classification == "bounded", art.name
        assert art.outcome.max_sup_u <= 5.0, art.name
    assert two_d.wall < 120.0
    report(8, f"bounded at theta=0.1, sup_u <= {max(a.outcome.max_sup_u for a in theta_small_runs):.3f}")


def test_criterion_09_slaved_signal_regime(tau0_sweep, tmp_path):
    from taxisim.fileio import render_sweep_summary, write_sweep_table

    plan, results, _wall = tau0_sweep
    res = results[0]
    assert res.verdict.classification == "bounded"
    assert res.pe_condition is True
    table = write_sweep_table(results, tmp_path / "sweep.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(table)))
    assert rows[0]["pe_condition"] == "true"
    assert rows[0]["failure"] == ""
    summary = render_sweep_summary(results, estimate_threshold(results), plan.base_model.tau)
    assert "pe_condition=true" in summary
    report(9, "slaved-signal comparison regime")


def test_criterion_10_elliptic_accuracy():
    errors = {}
    for n in (32, 64):
        grid = GridSpec((1.0,), (n,))
        x = grid.cell_centers(0)
        u = Field(grid, 1.0 + np.cos(np.pi * x))
        v = solve_elliptic(u, SolverConfig(t_end=1.0))
        exact = 1.0 + np.cos(np.pi * x) / (1.0 + np.pi**2)
        errors[n] = float(np.max(np.abs(v.values - exact)))
    order = math.log2(errors[32] / errors[64])
    assert order >= 1.8
    report(10, f"elliptic solve accuracy, order {order:.2f}")


def test_criterion_11_sweep_determinism_and_bracketing(tmp_path):
    from taxisim.fileio import write_sweep_table

    plan = SweepPlan(
        mode="fix_mu_vary_chi",
        fixed_value=10.0,
        theta_values=(0.02, 0.05, 0.1, 0.2, 0.4, 0.8),
        base_model=ModelParams(chi=1.0, xi=1.0, mu=10.0),
        base_solver=SolverConfig(t_end=1.0, output_every=0.25),
        scenario=ScenarioSpec(name="random-perturb", amplitude=0.2, seed=11),
        grid=GridSpec((2.0,), (16,)),
    )
    first = write_sweep_table(run_sweep(plan), tmp_path / "a.csv").read_bytes()
    second = write_sweep_table(run_sweep(plan), tmp_path / "b.csv").read_bytes()
    assert first == second

    def fake(theta, classification):
        return SweepResult(
            theta=theta,
            chi=theta,
            mu=1.0,
            repetition=0,
            verdict=BoundednessVerdict(classification, 1.0, 0.0),
            max_sup_u=1.0,
            wall_time=0.0,
            pe_condition=True,
        )

    assert estimate_threshold(
        [fake(0.1, "bounded"), fake(0.2, "bounded"), fake(0.4, "growing")]
    ) == (0.2, 0.4)
    assert estimate_threshold([fake(t, "bounded") for t in (0.1, 0.2, 0.4)]) is None
    assert (
        estimate_threshold([fake(0.1, "bounded"), fake(0.2, "growing"), fake(0.4, "bounded")])
        is None
    )
    report(11, "sweep determinism and bracketing")


def test_criterion_12_io_round_trips(tmp_path, capsys):
    # snapshot and time-series round trips
    grid = GridSpec((2.0,), (24,))
    params = ModelParams(chi=1.0, xi=0.5, mu=1.0)
    cfg = SolverConfig(t_end=0.5, output_every=0.125)
    out = run(ScenarioSpec(name="gaussian-bump", wbar=0.3).build(grid), params, cfg)
    snap_path = write_snapshot(out.final_state, tmp_path / "snap.dat")
    g2, t2, u2, v2, w2 = read_snapshot(snap_path)
    assert g2 == grid and t2 == out.final_state.t
    assert np.array_equal(u2.values, out.final_state.u.values)
    assert np.array_equal(v2.values, out.final_state.v.values)
    assert np.array_equal(w2.values, out.final_state.w.values)

    ts1 = write_timeseries(out.records, tmp_path / "ts1.csv", (2.0,))
    records, p_values = read_timeseries(ts1)
    ts2 = write_timeseries(records, tmp_path / "ts2.csv", p_values)
    assert ts1.read_bytes() == ts2.read_bytes()

    # config echo idempotence through the CLI
    outdir = tmp_path / "cli_out"
    cfg_text = (
        "[grid] dim=1 extent=2 cells=24\n"
        "[model] chi=1 xi=0.5 mu=1\n"
        "[solver] T_end=0.5 output_every=0.125\n"
        "[scenario] name=gaussian-bump wbar=0.3\n"
        f"[outputs] dir={outdir}\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    assert main(["run", str(cfg_path)]) == 0
    series_first = (outdir / "timeseries.csv").read_bytes()
    echo_first = (outdir / "effective.cfg").read_bytes()
    assert main(["run", str(outdir / "effective.cfg")]) == 0
    assert (outdir / "timeseries.csv").read_bytes() == series_first
    assert (outdir / "effective.cfg").read_bytes() == echo_first
    capsys.readouterr()
    report(12, "serialization round trips and echo idempotence")
