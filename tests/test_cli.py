"""Command-line interface: exit codes, outputs, offline checks."""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taxisim
from taxisim import GridSpec, ModelParams, ScenarioSpec, SolverConfig, SweepPlan, run_sweep
from taxisim.cli import main
from taxisim.fileio import write_sweep_table

STEADY_CFG = """
[grid] dim=1 extent=4 cells=16
[model] chi=1 xi=1 mu=1
[solver] T_end=1 output_every=0.25
[scenario] name=steady
[outputs] dir={out}
"""

BUMP_CFG = STEADY_CFG.replace("name=steady", "name=gaussian-bump")

BLOWUP_CFG = """
[grid] dim=1 extent=4 cells=32
[model] chi=30 xi=0 mu=0.1 tau=0
[solver] T_end=2 output_every=0.25 blowup_threshold=3
[scenario] name=gaussian-bump amplitude=0.5 sigma=0.5 wbar=0.3
[outputs] dir={out}
"""

RENEWAL_CFG = BUMP_CFG.replace("mu=1", "mu=1 eta=0.5")

# sup u starts at the blowup_threshold of 3, and mu = 0 keeps the constant
# data still; with u0=4 it starts above it.
THRESHOLD_CFG = """
[grid] dim=1 extent=1 cells=8
[model] chi=1 mu=0
[solver] T_end=1 blowup_threshold=3
[scenario] name=constant u0=3 v0=3 w0=0
[outputs] dir={out}
"""

SWEEP_CFG = """
[grid] dim=1 extent=2 cells=16
[model] chi=1 xi=1 mu=10
[solver] T_end=1 output_every=0.25
[scenario] name=steady
[outputs] dir={out}
[sweep] mode=fix_mu_vary_chi fixed_value=10 theta_values=0.05,0.1
"""

# sup u peaks at t = 0.0015, between the records at 0 and 0.05.
PEAK_CFG = """
[grid] dim=1 extent=6 cells=64
[model] chi=8 xi=1 mu=10 tau=1
[solver] T_end=0.25 output_every=0.05 time_scheme=imex-diffusion
[scenario] name=random-perturb amplitude=0.3 wbar=0.3 seed=0
[outputs] dir={out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def verdict_block(lines):
    """The printed lines from verdict: through mass bound:."""
    start = next(i for i, x in enumerate(lines) if x.startswith("verdict:"))
    end = next(i for i, x in enumerate(lines) if x.startswith("mass bound:"))
    return lines[start : end + 1]


class TestCommandLayer:
    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage: taxisim [-h] {run,sweep,ode,check} ..." in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, path",
        [("run", "config"), ("sweep", "config"), ("ode", "config"), ("check", "timeseries")],
    )
    def test_each_command_names_its_path_in_its_help(self, capsys, command, path):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        assert f"usage: taxisim {command} [-h] {path}\n" in capsys.readouterr().out


class TestEntryPoint:
    @pytest.mark.parametrize(
        "text, code",
        [(STEADY_CFG, 0), (STEADY_CFG.replace("chi=1", "chi=-1"), 1), (BLOWUP_CFG, 2)],
        ids=["completed", "refused", "blew-up"],
    )
    def test_python_m_taxisim_cli_exits_with_main_s_code(self, tmp_path, text, code):
        # python -m runs the module's sys.exit(main()), which in-process
        # calls of main never reach.
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "out"))
        path = [str(Path(taxisim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "taxisim.cli", "run", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert ("model.chi" in proc.stderr) == (code == 1)


class TestRunCommand:
    def test_steady_run_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 0
        captured = capsys.readouterr().out
        assert "verdict: bounded" in captured
        assert "failure:" not in captured
        assert (tmp_path / "out" / "timeseries.csv").exists()
        assert (tmp_path / "out" / "effective.cfg").exists()

    def test_a_config_with_a_byte_order_mark_runs_as_without_it(self, tmp_path, capsys):
        plain = write_cfg(tmp_path, BUMP_CFG.format(out=tmp_path / "plain"))
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + BUMP_CFG.format(out=tmp_path / "bom").encode())
        assert main(["run", str(plain)]) == 0
        assert main(["run", str(bom)]) == 0
        expected = (tmp_path / "plain" / "timeseries.csv").read_bytes()
        assert (tmp_path / "bom" / "timeseries.csv").read_bytes() == expected

    def test_malformed_config_exits_one_and_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[grid] dim=1 extent=1 cells=8\n[model] chi=-1\n[solver] T_end=1")
        assert main(["run", str(cfg)]) == 1
        assert "model.chi" in capsys.readouterr().err

    @pytest.mark.parametrize("folder", ["sp ace", "h#sh", "my directory"])
    def test_output_dir_the_echo_cannot_hold_exits_one(self, tmp_path, capsys, folder):
        # effective.cfg holds the directory as one value: whitespace would
        # split it and '#' would start a comment, so the echo could not
        # re-run its run and check could not read it. The message quotes the
        # path as given, even where it holds the word "directory".
        (tmp_path / folder).mkdir()
        text = STEADY_CFG.split("[outputs]")[0]
        assert main(["run", str(write_cfg(tmp_path / folder, text))]) == 1
        err = capsys.readouterr().err
        assert "outputs.dir" in err and "absolute" in err
        assert repr(str(tmp_path / folder / "out")) in err
        assert not (tmp_path / folder / "out").exists()

    @pytest.mark.parametrize(
        "command, text, blocked, noun",
        [
            ("run", STEADY_CFG, "effective.cfg", "effective config"),
            ("sweep", SWEEP_CFG, "sweep_summary.txt", "sweep summary"),
            ("ode", STEADY_CFG, "ode.csv", "ode trajectory"),
        ],
        ids=["run", "sweep", "ode"],
    )
    def test_an_output_that_is_a_directory_exits_one(
        self, tmp_path, capsys, command, text, blocked, noun
    ):
        # Every file the commands write goes through fileio's writer, whose
        # error names what it wrote and where, not only the errno.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([command, str(write_cfg(tmp_path, text.format(out=out)))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {noun} {out / blocked}: ")
        assert "Traceback" not in err

    def test_an_output_dir_that_is_a_file_exits_one(self, tmp_path, capsys):
        # The directory is made by the writer of effective.cfg, the first
        # file a command writes, so its failure names that file.
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main(["run", str(write_cfg(tmp_path, STEADY_CFG.format(out=out)))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write effective config {out / 'effective.cfg'}: ")
        assert out.read_text() == "not a directory"

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config {tmp_path / 'nope.cfg'}: ")

    def test_unfinishable_run_exits_one_and_names_the_limit(self, tmp_path, capsys):
        text = (
            "[grid] dim=1 extent=1 cells=4\n"
            "[model] chi=1 xi=0 mu=1e300\n"
            "[solver] T_end=0.01\n"
            "[scenario] name=steady\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg)]) == 1
        assert "reaction limit" in capsys.readouterr().err

    def test_step_floor_names_the_config_key(self, tmp_path, capsys):
        # Diffusion gives dt = 0.003125 on 8 cells, below T_end / 1e15: the
        # run stops at its first step, and the message names the key T_end.
        text = (
            "[grid] dim=1 extent=1 cells=8\n"
            "[model] chi=1 mu=1\n"
            "[solver] T_end=1e13\n"
            "[scenario] name=steady\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        assert main(["run", str(write_cfg(tmp_path, text))]) == 1
        err = capsys.readouterr().err
        assert "the diffusion limit gives dt=" in err
        assert "T_end" in err and "t_end" not in err

    @pytest.mark.parametrize(
        "command, scenario, extent, key",
        [
            ("run", "name=random-perturb amplitude=1.5", "1", "scenario.amplitude"),
            ("sweep", "name=random-perturb amplitude=1.5", "1", "scenario.amplitude"),
            ("run", "name=steady", "1e160", "grid.extent"),
            ("run", "name=gaussian-bump", "1e160", "grid.extent"),
            ("run", "name=gaussian-bump sigma=1e-170 center=0.0625", "1", "scenario.sigma"),
        ],
        ids=["amplitude-run", "amplitude-sweep", "extent-steady", "extent-bump", "sigma"],
    )
    def test_setting_that_cannot_run_is_refused_by_its_key(
        self, tmp_path, capsys, command, scenario, extent, key
    ):
        # Each once ran into a failure under another key (u0 must be
        # nonnegative or finite), a sweep of failed rows that exited 0, or a
        # ZeroDivisionError from the diffusion limit.
        text = (
            f"[grid] dim=1 extent={extent} cells=8\n"
            "[model] chi=1 mu=1\n"
            "[solver] T_end=0.1\n"
            f"[scenario] {scenario}\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
            "[sweep] mode=fix_mu_vary_chi fixed_value=1 theta_values=0.5,1\n"
        )
        assert main([command, str(write_cfg(tmp_path, text))]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not (tmp_path / "out").exists()

    def test_blowup_exits_two(self, tmp_path, capsys):
        text = (
            "[grid] dim=1 extent=4 cells=8\n"
            "[model] chi=1 mu=1\n"
            "[solver] T_end=5 output_every=0.5 blowup_threshold=0.9\n"
            "[scenario] name=constant u0=0.5 v0=0.5 w0=0\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("outcome: blew_up")
        assert out[1].startswith("failure: Diverged: sup u = ")
        assert "verdict: blew_up" in out

    def test_divergence_on_a_finite_state_is_blow_up(self, tmp_path, capsys, monkeypatch):
        # The verdict follows how the run ended, not only its records, which
        # stay finite when Diverged is raised on a finite state.
        import taxisim.stepper as stepper_mod
        from taxisim import Diverged

        def diverge(state, params, cfg, dt):
            raise Diverged("injected", state=state)

        monkeypatch.setattr(stepper_mod, "_attempt_step", diverge)
        cfg = write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [
            "outcome: blew_up (t_final=0.0)",
            "failure: Diverged: injected",
            "verdict: blew_up",
        ]

    def test_snapshots_written_when_enabled(self, tmp_path):
        text = (
            "[grid] dim=1 extent=4 cells=16\n"
            "[model] chi=1 xi=1 mu=1\n"
            "[solver] T_end=0.5 output_every=0.25\n"
            "[scenario] name=steady\n"
            f"[outputs] dir={tmp_path / 'out'} snapshots=true\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg)]) == 0
        snaps = sorted((tmp_path / "out").glob("snapshot_*.dat"))
        assert len(snaps) == 3  # t = 0, 0.25, 0.5


class TestOdeCommand:
    def test_steady_constant_trajectory(self, tmp_path):
        cfg = write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out"))
        assert main(["ode", str(cfg)]) == 0
        lines = (tmp_path / "out" / "ode.csv").read_text().splitlines()
        assert lines[0] == "t,u,v,w"
        for line in lines[1:]:
            _, u, v, w = (float(x) for x in line.split(","))
            assert (u, v, w) == (1.0, 1.0, 0.0)

    def test_slaved_signal_trajectory_keeps_v_equal_to_u(self, tmp_path):
        text = (
            "[grid] dim=1 extent=4 cells=4\n"
            "[model] chi=1 mu=1 eta=0.5 tau=0\n"
            "[solver] T_end=2 output_every=0.25 dt_max=0.01\n"
            "[scenario] name=constant u0=2 v0=0.5 w0=0.5\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        assert main(["ode", str(write_cfg(tmp_path, text))]) == 0
        rows = (tmp_path / "out" / "ode.csv").read_text().splitlines()[1:]
        assert len(rows) == 9
        for row in rows:
            _, u, v, _ = row.split(",")
            assert v == u

    def test_requires_homogeneous_scenario(self, tmp_path, capsys):
        text = (
            "[grid] dim=1 extent=4 cells=16\n"
            "[model] chi=1\n"
            "[solver] T_end=1\n"
            "[scenario] name=gaussian-bump\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["ode", str(cfg)]) == 1
        assert "scenario.name" in capsys.readouterr().err

    def test_divergent_start_exits_two(self, tmp_path, capsys):
        text = (
            "[grid] dim=1 extent=4 cells=8\n"
            "[model] chi=1 mu=1\n"
            "[solver] T_end=1 output_every=0.5\n"
            "[scenario] name=constant u0=2e12 v0=0 w0=0\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["ode", str(cfg)]) == 2
        assert "diverged" in capsys.readouterr().out

    @pytest.mark.parametrize("t_end,dt_max", [(100, 0.01), (2000, 0.05)])
    def test_clock_is_exact_at_output_times(self, tmp_path, t_end, dt_max):
        text = (
            "[grid] dim=1 extent=4 cells=4\n"
            "[model] chi=1 mu=1\n"
            f"[solver] T_end={t_end} output_every=0.1 dt_max={dt_max}\n"
            "[scenario] name=constant u0=2 v0=0.5 w0=0.5\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["ode", str(cfg)]) == 0
        rows = (tmp_path / "out" / "ode.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert len(times) == math.floor(t_end / 0.1) + 1
        assert times[-1] == t_end
        for k, t in enumerate(times):
            assert abs(t - k * 0.1) <= 4 * math.ulp(t)

    def test_a_final_time_off_the_output_grid_is_the_last_row(self, tmp_path):
        # 0, 0.3, 0.6 and 0.9 are output times; T_end = 1 is not, so its
        # sample is written after the loop.
        text = (
            "[grid] dim=1 extent=4 cells=4\n"
            "[model] chi=1 mu=1\n"
            "[solver] T_end=1 output_every=0.3\n"
            "[scenario] name=constant u0=2 v0=0.5 w0=0.5\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        assert main(["ode", str(write_cfg(tmp_path, text))]) == 0
        rows = (tmp_path / "out" / "ode.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert len(times) == 5
        assert times[-1] == 1.0
        for k, t in enumerate(times[:-1]):
            assert abs(t - k * 0.3) <= 4 * math.ulp(1.0)

    def test_rows_are_thinned_while_integrating(self, tmp_path):
        # 2 * 10^4 RK4 steps thinned to 51 rows: the command holds the rows,
        # not a state per step (a peak of ~4.8 MB when it kept them all).
        import tracemalloc

        text = (
            "[grid] dim=1 extent=4 cells=4\n"
            "[model] chi=1 mu=1 eta=0.5\n"
            "[solver] T_end=20 dt_max=0.001\n"
            "[scenario] name=constant u0=2 v0=0.5 w0=0.5\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        tracemalloc.start()
        try:
            assert main(["ode", str(cfg)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = (tmp_path / "out" / "ode.csv").read_text().splitlines()[1:]
        assert len(rows) == 51
        assert peak < 512 * 1024

    def test_a_last_step_within_1e_9_of_a_step_of_t_end_lands_on_it(self, tmp_path):
        # Three steps of dt fall 3.3e-11 (1e-10 of a step) short of T_end = 1:
        # the third lands on T_end, leaving no sliver step and no fifth row.
        text = (
            "[grid] dim=1 extent=4 cells=4\n"
            "[model] chi=1 mu=1\n"
            "[solver] T_end=1 output_every=0.25 dt_max=0.3333333333222222\n"
            "[scenario] name=constant u0=2 v0=0.5 w0=0.5\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        assert main(["ode", str(write_cfg(tmp_path, text))]) == 0
        rows = (tmp_path / "out" / "ode.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert len(times) == 4
        assert times[-1] == 1.0

    def test_matches_closed_form_decay(self, tmp_path):
        text = (
            "[grid] dim=1 extent=4 cells=8\n"
            "[model] chi=1 mu=2\n"
            "[solver] T_end=1 output_every=0.5 dt_max=0.001\n"
            "[scenario] name=constant u0=0 v0=1 w0=0.7\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["ode", str(cfg)]) == 0
        last = (tmp_path / "out" / "ode.csv").read_text().splitlines()[-1]
        t, u, v, w = (float(x) for x in last.split(","))
        assert t == pytest.approx(1.0, abs=1e-9)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert w == pytest.approx(0.7 * math.exp(-(1.0 - math.exp(-1.0))), rel=1e-6)


class TestSweepCommand:
    def test_requires_sweep_section(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out"))
        assert main(["sweep", str(cfg)]) == 1
        assert "[sweep]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            SWEEP_CFG,
            # sup u starts at the threshold, which it never crosses, and
            # decays from there: no run ends on a crossing.
            THRESHOLD_CFG.replace("mu=0", "mu=1")
            + "[sweep] mode=fix_mu_vary_chi fixed_value=1 theta_values=0.5,1\n",
        ],
        ids=["steady", "at-threshold"],
    )
    def test_writes_table_and_summary(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "out"))
        assert main(["sweep", str(cfg)]) == 0
        table = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert table[0].startswith("theta,chi,mu,")
        assert len(table) == 3
        # A blew_up row is a run that ended on a crossing, and its failure
        # cell names the Diverged that ended it.
        for row in csv.DictReader(table):
            assert row["failure"] or row["classification"] != "blew_up"
        out = capsys.readouterr().out
        assert "threshold bracket" in out
        assert (tmp_path / "out" / "sweep_summary.txt").exists()

    def test_table_matches_run_sweep_on_a_hand_built_plan(self, tmp_path, capsys):
        text = (
            "[grid] dim=1 extent=2 cells=16\n"
            "[model] chi=1 xi=1 mu=10\n"
            "[solver] T_end=0.5 output_every=0.25\n"
            "[scenario] name=random-perturb amplitude=0.2 seed=7\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
            "[sweep] mode=fix_mu_vary_chi fixed_value=10 theta_values=0.05,0.1,0.2 repetitions=2\n"
        )
        assert main(["sweep", str(write_cfg(tmp_path, text))]) == 0
        plan = SweepPlan(
            mode="fix_mu_vary_chi",
            fixed_value=10.0,
            theta_values=(0.05, 0.1, 0.2),
            repetitions=2,
            base_model=ModelParams(chi=1.0, xi=1.0, mu=10.0),
            base_solver=SolverConfig(t_end=0.5, output_every=0.25),
            scenario=ScenarioSpec(name="random-perturb", amplitude=0.2, seed=7),
            grid=GridSpec((2.0,), (16,)),
        )
        expected = write_sweep_table(run_sweep(plan), tmp_path / "hand.csv").read_bytes()
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == expected

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_workers_variable_is_ignored(self, tmp_path, monkeypatch, workers):
        # Sweeps run serially; a leftover TAXISIM_WORKERS setting (bench/run.py
        # still sets it) must neither fail nor change a sweep.
        text = (
            "[grid] dim=1 extent=2 cells=16\n"
            "[model] chi=1 xi=1 mu=10\n"
            "[solver] T_end=0.5 output_every=0.25\n"
            "[scenario] name=random-perturb amplitude=0.2 seed=7\n"
            "[outputs] dir={out}\n"
            "[sweep] mode=fix_mu_vary_chi fixed_value=10 theta_values=0.05,0.1,0.2\n"
        )
        monkeypatch.delenv("TAXISIM_WORKERS", raising=False)
        plain = write_cfg(tmp_path, text.format(out=tmp_path / "plain"), "plain.cfg")
        assert main(["sweep", str(plain)]) == 0
        monkeypatch.setenv("TAXISIM_WORKERS", workers)
        env = write_cfg(tmp_path, text.format(out=tmp_path / "env"), "env.cfg")
        assert main(["sweep", str(env)]) == 0
        expected = (tmp_path / "plain" / "sweep.csv").read_bytes()
        assert (tmp_path / "env" / "sweep.csv").read_bytes() == expected


class TestCheckCommand:
    def test_reevaluates_saved_series(self, tmp_path, capsys):
        # The domain measure (4) and mu come from the run's effective.cfg.
        cfg = write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["check", str(tmp_path / "out" / "timeseries.csv")]) == 0
        out = capsys.readouterr().out
        assert "verdict: bounded" in out
        assert "mass bound: pass (bound=4.0," in out

    @pytest.mark.parametrize(
        "text, exit_code, verdict, mass",
        [
            # The run crosses its own blowup_threshold of 3 and ends early.
            (BLOWUP_CFG, 2, "verdict: blew_up", "mass bound: pass"),
            # Substrate renewal (eta > 0): the mass bound does not apply.
            (RENEWAL_CFG, 0, "verdict: bounded", "mass bound: skipped (needs mu > 0 and eta = 0)"),
            # sup u stays at the threshold, which it never crosses.
            (THRESHOLD_CFG, 0, "verdict: bounded", "mass bound: skipped"),
            # sup u starts above the threshold: the run ends at t = 0.
            (THRESHOLD_CFG.replace("u0=3", "u0=4"), 2, "verdict: blew_up", "mass bound: skipped"),
        ],
        ids=["blowup", "renewal", "at-threshold", "above-threshold"],
    )
    def test_repeats_the_run_verdict_from_its_effective_cfg(
        self, tmp_path, capsys, text, exit_code, verdict, mass
    ):
        assert main(["run", str(write_cfg(tmp_path, text.format(out=tmp_path / "out")))]) == exit_code
        ran = capsys.readouterr().out.splitlines()
        assert main(["check", str(tmp_path / "out" / "timeseries.csv")]) == 0
        checked = capsys.readouterr().out.splitlines()
        assert verdict in ran
        # The block from verdict: to mass bound:, crossing time: included
        # when the run blew up, is the same in both.
        assert verdict_block(checked) == verdict_block(ran)
        assert any(x.startswith("crossing time: ") for x in ran) == (exit_code == 2)
        assert any(x.startswith(mass) for x in checked)
        ended_early = any(x.startswith("ended early: the series stops at t=") for x in checked)
        assert ended_early == (exit_code == 2)

    def test_repeats_a_run_peak_that_falls_between_records(self, tmp_path, capsys):
        # The records' sup u never reaches the peak; their peak_u column
        # holds it, so check prints the run's line.
        assert main(["run", str(write_cfg(tmp_path, PEAK_CFG.format(out=tmp_path / "out")))]) == 0
        ran = capsys.readouterr().out.splitlines()
        series = tmp_path / "out" / "timeseries.csv"
        assert main(["check", str(series)]) == 0
        checked = capsys.readouterr().out.splitlines()
        for prefix in ("verdict:", "max sup u:", "mass bound:"):
            (line,) = [x for x in ran if x.startswith(prefix)]
            assert line in checked
        (line,) = [x for x in ran if x.startswith("max sup u:")]
        peak, t_peak = (float(x) for x in line[len("max sup u: ") :].split(" at t="))
        assert peak == pytest.approx(1.8072861009391383, rel=1e-9)
        with open(series, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(row["sup_u"]) < peak for row in rows)
        assert t_peak not in {float(row["t"]) for row in rows}

    def test_a_series_of_only_its_header_is_an_error(self, tmp_path, capsys):
        assert main(["run", str(write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out")))]) == 0
        capsys.readouterr()
        series = tmp_path / "out" / "timeseries.csv"
        series.write_text(series.read_text().splitlines()[0] + "\n")
        assert main(["check", str(series)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {series}: no records to check\n"

    def test_a_series_without_its_effective_cfg_is_an_error(self, tmp_path, capsys):
        assert main(["run", str(write_cfg(tmp_path, BLOWUP_CFG.format(out=tmp_path / "out")))]) == 2
        capsys.readouterr()
        alone = tmp_path / "alone"
        alone.mkdir()
        series = alone / "timeseries.csv"
        series.write_bytes((tmp_path / "out" / "timeseries.csv").read_bytes())
        assert main(["check", str(series)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot read config {alone / 'effective.cfg'}" in captured.err

    def test_a_missing_series_is_an_error(self, tmp_path, capsys):
        series = tmp_path / "timeseries.csv"
        assert main(["check", str(series)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read time series {series}: ")

    @pytest.mark.parametrize(
        "label, message",
        [
            ("Lp_u_0.5", "p_values entry must be in [1, inf), got 0.5"),
            # p = 2 is accepted, but no run writes it under this label.
            ("Lp_u_2.0", "taxisim writes p = 2.0 as 'Lp_u_2'"),
        ],
        ids=["p-refused", "label-not-written"],
    )
    def test_a_series_with_a_column_no_run_writes_is_an_error(
        self, tmp_path, capsys, label, message
    ):
        assert main(["run", str(write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out")))]) == 0
        capsys.readouterr()
        series = tmp_path / "out" / "timeseries.csv"
        series.write_text(series.read_text().replace(",Lp_u_2\n", f",{label}\n", 1))
        assert main(["check", str(series)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {series}: time-series column {label!r}: {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_lp_norm_is_not_blow_up(self, tmp_path, capsys):
        # |u|^200 overflows at t = 0 on this bump (sup u = 50.2), but the
        # norm is computed from |u| / sup |u|, so Lp_u_200 stays finite and
        # below its Hoelder bound sup u |Omega|^(1/200), with no warning.
        text = (
            "[grid] dim=1 extent=1 cells=32\n"
            "[model] chi=0.1 xi=0 mu=1\n"
            "[solver] T_end=2\n"
            "[scenario] name=gaussian-bump amplitude=50\n"
            f"[outputs] dir={tmp_path / 'out'} p_values=2,200\n"
        )
        assert main(["run", str(write_cfg(tmp_path, text))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        ran = captured.out.splitlines()
        series = tmp_path / "out" / "timeseries.csv"
        with open(series, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            lp, sup_u = float(row["Lp_u_200"]), float(row["sup_u"])
            assert math.isfinite(lp)
            assert lp <= sup_u * (1.0 + 1e-12)  # |Omega| = 1
        assert main(["check", str(series)]) == 0
        checked = capsys.readouterr().out.splitlines()
        assert "verdict: inconclusive" in ran
        for prefix in ("verdict:", "max sup u:", "mass bound:"):
            (line,) = [x for x in ran if x.startswith(prefix)]
            assert line in checked
        assert not any(x.startswith("crossing time:") for x in checked)

    def run_then_check(self, tmp_path, capsys, monkeypatch, attempt):
        """Run the bump with attempt as _attempt_step, then check its series."""
        import taxisim.stepper as stepper_mod

        monkeypatch.setattr(stepper_mod, "_attempt_step", attempt)
        assert main(["run", str(write_cfg(tmp_path, BUMP_CFG.format(out=tmp_path / "out")))]) == 2
        ran = capsys.readouterr().out.splitlines()
        assert main(["check", str(tmp_path / "out" / "timeseries.csv")]) == 0
        return ran, capsys.readouterr().out.splitlines()

    def test_a_run_that_diverged_on_a_finite_state_is_not_bounded(
        self, tmp_path, capsys, monkeypatch
    ):
        # The records stop at the finite state Diverged carried and look
        # settled; only the missing rest of the run shows it ended early.
        import taxisim.stepper as stepper_mod
        from taxisim import Diverged

        original = stepper_mod._attempt_step
        attempts = {"n": 0}

        def diverge_at_50(state, params, cfg, dt):
            attempts["n"] += 1
            if attempts["n"] == 50:
                raise Diverged("injected", state=state)
            return original(state, params, cfg, dt)

        ran, checked = self.run_then_check(tmp_path, capsys, monkeypatch, diverge_at_50)
        assert "verdict: blew_up" in ran
        assert checked[0].startswith("ended early: the series stops at t=")
        assert checked[0].endswith(" before T_end=1.0")
        assert "verdict: inconclusive" in checked

    def test_a_run_whose_steps_kept_failing_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        import taxisim.stepper as stepper_mod

        def always_reject(state, params, cfg, dt):
            raise stepper_mod._RetryStep

        ran, checked = self.run_then_check(tmp_path, capsys, monkeypatch, always_reject)
        assert ran[0].startswith("outcome: cfl_failed")
        assert "verdict: inconclusive" in ran
        assert checked[0] == "ended early: the series stops at t=0.0 before T_end=1.0"
        assert "verdict: inconclusive" in checked
        rows = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        assert len(rows) == 2  # the header and the one row at t = 0
