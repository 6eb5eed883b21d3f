"""Command-line interface: exit codes, outputs, offline checks."""

from __future__ import annotations

import csv
import math

import pytest

from taxisim.cli import main

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


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunCommand:
    def test_steady_run_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, STEADY_CFG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 0
        captured = capsys.readouterr().out
        assert "verdict: bounded" in captured
        assert "failure:" not in captured
        assert (tmp_path / "out" / "timeseries.csv").exists()
        assert (tmp_path / "out" / "effective.cfg").exists()

    def test_malformed_config_exits_one_and_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[grid] dim=1 extent=1 cells=8\n[model] chi=-1\n[solver] T_end=1")
        assert main(["run", str(cfg)]) == 1
        assert "model.chi" in capsys.readouterr().err

    @pytest.mark.parametrize("folder", ["sp ace", "h#sh"])
    def test_output_dir_the_echo_cannot_hold_exits_one(self, tmp_path, capsys, folder):
        # effective.cfg holds the directory as one value: whitespace would
        # split it and '#' would start a comment, so the echo could not
        # re-run its run and check could not read it.
        (tmp_path / folder).mkdir()
        text = STEADY_CFG.split("[outputs]")[0]
        assert main(["run", str(write_cfg(tmp_path / folder, text))]) == 1
        err = capsys.readouterr().err
        assert "outputs.dir" in err and "absolute" in err
        assert not (tmp_path / folder / "out").exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

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

    def test_writes_table_and_summary(self, tmp_path, capsys):
        text = (
            "[grid] dim=1 extent=2 cells=16\n"
            "[model] chi=1 xi=1 mu=10\n"
            "[solver] T_end=1 output_every=0.25\n"
            "[scenario] name=steady\n"
            f"[outputs] dir={tmp_path / 'out'}\n"
            "[sweep] mode=fix_mu_vary_chi fixed_value=10 theta_values=0.05,0.1\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", str(cfg)]) == 0
        table = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert table[0].startswith("theta,chi,mu,")
        assert len(table) == 3
        out = capsys.readouterr().out
        assert "threshold bracket" in out
        assert (tmp_path / "out" / "sweep_summary.txt").exists()

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
        ],
        ids=["blowup", "renewal"],
    )
    def test_repeats_the_run_verdict_from_its_effective_cfg(
        self, tmp_path, capsys, text, exit_code, verdict, mass
    ):
        assert main(["run", str(write_cfg(tmp_path, text.format(out=tmp_path / "out")))]) == exit_code
        ran = capsys.readouterr().out.splitlines()
        assert main(["check", str(tmp_path / "out" / "timeseries.csv")]) == 0
        checked = capsys.readouterr().out.splitlines()
        assert verdict in ran
        for prefix in ("verdict:", "max sup u:", "mass bound:"):
            (line,) = [x for x in ran if x.startswith(prefix)]
            assert line in checked
        assert any(x.startswith(mass) for x in checked)
        ended_early = any(x.startswith("ended early: the series stops at t=") for x in checked)
        assert ended_early == (exit_code == 2)

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
