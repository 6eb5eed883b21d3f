"""Self-checks of the benchmark: the correctness gate, the tracer's self-time
arithmetic, the workload generator and BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import taxisim  # noqa: E402
import taxisim.cli  # noqa: E402
from tracer import SITES, Span, Tracer, covered_length, self_times  # noqa: E402
from workloads import WORKLOADS, bump_image, symmetries  # noqa: E402

REFERENCES = gate.load_references()


@pytest.fixture(scope="module")
def explicit_run(tmp_path_factory):
    """Exit code, stdout and time series of one real explicit-2d command."""
    config = tmp_path_factory.mktemp("explicit") / "workload.cfg"
    config.write_text(WORKLOADS["explicit-2d"].config(5))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = taxisim.cli.main(["run", str(config)])
    return code, (config.parent / "out" / "timeseries.csv").read_text(), stdout.getvalue()


def _perturb(series: str, column: str, value: float, row: int = -1) -> str:
    lines = series.splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = repr(value)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _check(series: str, stdout: str, code: int = 0) -> list[str]:
    return gate.check_run(code, stdout, series, REFERENCES["explicit-2d"]["0"], 36.0)


def test_real_run_passes_the_gate(explicit_run):
    code, series, stdout = explicit_run
    assert _check(series, stdout, code) == []


def test_session_counts_each_failed_operation(tmp_path):
    wrong = json.loads(json.dumps(REFERENCES))
    wrong["explicit-2d"]["0"]["final_mass_u"] *= 1.01
    session = run.Session(WORKLOADS["explicit-2d"], 5, wrong, tmp_path)
    session.command(taxisim.cli.main)
    assert (session.attempted, session.failed) == (1, 1)
    assert any("final_mass_u" in p for p in session.problems)


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("min_u", -1e-3, "min_u"),
        ("min_v", -1e-12, "min_v"),
        ("min_w", -1e-300, "min_w"),
        ("repr_residual", 1e-6, "repr_residual"),
        ("mass_u", 1e3, "mass bound"),
        ("sup_u", 0.7985, "final_sup_u"),
    ],
)
def test_gate_rejects_a_perturbed_series(explicit_run, column, value, message):
    _, series, stdout = explicit_run
    problems = _check(_perturb(series, column, value), stdout)
    assert any(message in p for p in problems), problems


def test_gate_accepts_round_off_and_rejects_a_wrong_answer(explicit_run):
    _, series, stdout = explicit_run
    ref = REFERENCES["explicit-2d"]["0"]["final_mass_u"]
    assert _check(_perturb(series, "mass_u", ref * (1 + 1e-9)), stdout) == []
    assert _check(_perturb(series, "mass_u", ref * (1 + 1e-4)), stdout)


def test_gate_rejects_bad_status_verdict_and_exit_code(explicit_run):
    _, series, stdout = explicit_run
    assert _check(series, stdout.replace("completed", "blew_up"))
    assert _check(series, stdout.replace("verdict: bounded", "verdict: growing"))
    assert _check(series, stdout.replace("mass bound: pass", "mass bound: FAIL"))
    assert _check(series, stdout, code=2) == ["exit code 2"]


def _sweep_table(points: list[dict]) -> str:
    lines = ["theta,chi,mu,repetition,classification,max_sup_u,t_of_max,crossing_time,pe_condition"]
    for p in points:
        lines.append(f"{p['theta']!r},1,10,0,{p['classification']},{p['max_sup_u']!r},0,,true")
    return "\n".join(lines) + "\n"


def test_gate_rejects_a_flipped_classification():
    ref = REFERENCES["imex-sweep-1d"]["0"]
    table = _sweep_table(ref)
    assert gate.check_sweep_points(0, table, None, ref) == [[] for _ in ref]
    flipped = [dict(p) for p in ref]
    flipped[2]["classification"] = "growing"
    result = gate.check_sweep_points(0, _sweep_table(flipped), None, ref)
    assert [bool(p) for p in result] == [i == 2 for i in range(len(ref))]


def test_gate_rejects_a_sweep_point_whose_run_failed():
    ref = REFERENCES["imex-sweep-1d"]["0"]
    table = _sweep_table(ref)
    good = SimpleNamespace(status="completed", min_u=0.0, min_v=1e-3, min_w=0.2)
    assert gate.check_outcome(good) == []
    assert gate.check_outcome(SimpleNamespace(**{**vars(good), "status": "cfl_failed"}))
    assert gate.check_outcome(SimpleNamespace(**{**vars(good), "min_v": -1e-15}))
    # 2-worker sweeps finish their points in any order
    outcomes = [(p["theta"], []) for p in reversed(ref)]
    assert gate.check_sweep_points(0, table, None, ref, outcomes) == [[] for _ in ref]
    outcomes[0] = (ref[-1]["theta"], ["status 'cfl_failed'"])
    result = gate.check_sweep_points(0, table, None, ref, outcomes)
    assert [bool(p) for p in result] == [i == len(ref) - 1 for i in range(len(ref))]
    result = gate.check_sweep_points(0, table, None, ref, outcomes[1:])
    assert result[-1] == [f"no run outcome at theta {ref[-1]['theta']!r}"]


def test_session_gates_the_outcome_of_every_sweep_run(tmp_path):
    session = run.Session(WORKLOADS["imex-sweep-1d"], 3, REFERENCES, tmp_path)
    with run.sweep_outcomes() as outcomes:
        session.command(taxisim.cli.main)
    assert len(outcomes) == 8 and all(o.status == "completed" for _, o in outcomes)
    session.command(taxisim.cli.main, workers=2, check_outcomes=True)
    assert (session.attempted, session.failed) == (16, 0), session.problems
    assert [p["status"] for p in REFERENCES["imex-sweep-1d"]["3"]] == ["completed"] * 8


def test_gate_fails_every_point_when_sweep_tables_differ():
    ref = REFERENCES["imex-sweep-1d"]["0"]
    table = _sweep_table(ref)
    result = gate.check_sweep_points(0, table.replace(",true", ",false", 1), table, ref)
    assert all(result)
    assert all(gate.check_sweep_points(1, table, None, ref))


def _span(sid, parent, start, end, name="stepper.step"):
    return Span(sid, parent, name, 1, start, end)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, None, 0.0, 10.0, "cli.main"),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps its sibling: counted once
        _span(3, 0, 8.0, 12.0),  # sticks out of its parent: clipped at 10
        _span(4, 1, 1.5, 2.5),  # grandchild: not subtracted from the root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert covered_length(0.0, 1.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(4.0, 6.0), (-1.0, 1.0), (5.0, 7.0)]) == pytest.approx(4.0)


def test_tracer_nests_per_thread_and_restores_sites():
    import taxisim.stepper as stepper

    original = stepper.laplacian
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert root.parent is None
    parents = sorted(str(s.parent) for s in by_name["inner"])
    assert parents == sorted([str(root.sid), str(root.sid), "None"])
    with tracer.patched():
        assert stepper.laplacian is not original
    assert stepper.laplacian is original
    for module, attr, _ in SITES:
        assert not hasattr(getattr(getattr(taxisim, module), attr), "__wrapped__")


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert layers.tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert layers.tail([float(i) for i in range(100)])[0] == 90.0
    assert layers.tail([1.0, 2.0, 3.0])[0] == 50.0


def test_configs_are_seeded_and_valid():
    for workload in WORKLOADS.values():
        assert workload.config(7) == workload.config(7)
        cfg = taxisim.parse_config(workload.config(7))
        assert cfg.grid.dim == workload.dim
    for name in WORKLOADS:
        assert WORKLOADS[name].config(1) != WORKLOADS[name].config(2)
        assert set(REFERENCES[name]) == {str(c) for c in range(WORKLOADS[name].seed_classes)}
    assert len(symmetries(3)) == 48
    images = {bump_image((1.2, 1.65, 1.4), 3.0, s) for s in range(48)}
    assert len(images) == 48


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
