"""Configuration parsing, validation messages, canonical echo."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from taxisim import (
    GridSpec,
    ModelParams,
    ParseError,
    ScenarioSpec,
    SolverConfig,
    SweepPlan,
    ValidationError,
    parse_config,
    render_config,
    run,
)
from taxisim.config import OutputOptions, RunConfig, format_value
from taxisim.config import _KEYS

MINIMAL = """
[grid] dim=1 extent=2 cells=16
[model] chi=1
[solver] T_end=1
"""


# A valid document with a [sweep] section, one dict of key -> value text per
# section; with_value() swaps in one bad value.
VALID = {
    "grid": {"dim": "1", "extent": "2", "cells": "16"},
    "model": {"chi": "1"},
    "solver": {"T_end": "1"},
    "scenario": {},
    "outputs": {},
    "sweep": {"mode": "fix_mu_vary_chi", "fixed_value": "10", "theta_values": "0.1,0.2"},
}


def with_value(key: str, value: str, *more: tuple[str, str]) -> str:
    doc = {sec: dict(keys) for sec, keys in VALID.items()}
    for k, v in ((key, value), *more):
        section, name = k.split(".")
        doc[section][name] = v
    return "\n".join(
        f"[{sec}] " + " ".join(f"{k}={v}" for k, v in keys.items()) for sec, keys in doc.items()
    )


OUT_OF_RANGE = [
    ("grid.dim", "4"),
    ("grid.extent", "-1"),
    ("grid.cells", "1"),
    ("model.chi", "0"),
    ("model.xi", "-1"),
    ("model.mu", "-1"),
    ("model.eta", "-1"),
    ("model.tau", "2"),
    ("solver.T_end", "0"),
    ("solver.output_every", "0"),
    ("solver.cfl_safety", "2"),
    ("solver.dt_max", "0"),
    # T_end = 1: more than 10^15 steps of dt_max or of output_every
    ("solver.dt_max", "1e-17"),
    ("solver.dt_max", "1e-300"),
    ("solver.output_every", "1e-17"),
    ("solver.output_every", "1e-300"),
    ("solver.blowup_threshold", "0"),
    ("solver.anchor_time", "1"),
    ("solver.anchor_time", "-0.5"),
    ("solver.time_scheme", "magic"),
    ("scenario.name", "vortex"),
    ("scenario.amplitude", "-1"),
    ("scenario.sigma", "0"),
    ("scenario.center", "0.5,0.5"),
    ("scenario.wbar", "-1"),
    ("scenario.u0", "-1"),
    ("scenario.v0", "-1"),
    ("scenario.w0", "-1"),
    ("scenario.seed", "-1"),
    ("outputs.p_values", "0.5"),
    ("outputs.p_values", "2,2.0"),
    ("sweep.mode", "fix_nothing"),
    ("sweep.fixed_value", "0"),
    ("sweep.theta_values", "0,0.1"),
    ("sweep.theta_values", "0.2,0.1"),
    ("sweep.repetitions", "0"),
]
NON_FINITE = [
    ("solver.T_end", "inf"),
    ("solver.output_every", "inf"),
    ("scenario.amplitude", "nan"),
    ("scenario.sigma", "inf"),
    ("scenario.center", "nan"),
    ("scenario.wbar", "inf"),
    ("scenario.u0", "nan"),
    ("sweep.fixed_value", "inf"),
    ("sweep.theta_values", "nan"),
    ("sweep.theta_values", "0.1,inf"),
    ("model.chi", "inf"),
    ("model.xi", "nan"),
    ("model.mu", "nan"),
    ("model.eta", "inf"),
    ("grid.extent", "inf"),
    ("outputs.p_values", "inf"),
]

# The message of every case above that bounds one value, and of more such
# cases (a third entry sets one more key): <section>.<key> must be in
# <interval>, got <value>. The grid has 16 cells, so an extent entry's
# spacing bound 1e-100 puts it at 1.6e-99 or more.
RANGE_MESSAGES = {
    ("grid.dim", "4"): "grid.dim must be in [1, 3], got 4",
    ("grid.extent", "-1"): "grid.extent entry must be in [1.6e-99, 1e+100], got -1.0",
    ("grid.extent", "inf"): "grid.extent entry must be in [1.6e-99, 1e+100], got inf",
    ("grid.extent", "1e160"): "grid.extent entry must be in [1.6e-99, 1e+100], got 1e+160",
    ("grid.extent", "1e-160"): "grid.extent entry must be in [1.6e-99, 1e+100], got 1e-160",
    ("grid.cells", "1"): "grid.cells entry must be in [2, inf), got 1",
    ("model.chi", "0"): "model.chi must be in (0, inf), got 0.0",
    ("model.chi", "inf"): "model.chi must be in (0, inf), got inf",
    ("model.xi", "-1"): "model.xi must be in [0, inf), got -1.0",
    ("model.xi", "nan"): "model.xi must be in [0, inf), got nan",
    ("model.mu", "-1"): "model.mu must be in [0, inf), got -1.0",
    ("model.mu", "nan"): "model.mu must be in [0, inf), got nan",
    ("model.eta", "-1"): "model.eta must be in [0, inf), got -1.0",
    ("model.eta", "inf"): "model.eta must be in [0, inf), got inf",
    ("model.tau", "2"): "model.tau must be in [0, 1], got 2",
    ("solver.T_end", "0"): "solver.T_end must be in (0, inf), got 0.0",
    ("solver.T_end", "inf"): "solver.T_end must be in (0, inf), got inf",
    ("solver.output_every", "0"): "solver.output_every must be in (0, inf), got 0.0",
    ("solver.output_every", "inf"): "solver.output_every must be in (0, inf), got inf",
    ("solver.cfl_safety", "2"): "solver.cfl_safety must be in (0, 1], got 2.0",
    ("solver.dt_max", "0"): "solver.dt_max must be in (0, inf], got 0.0",
    ("solver.blowup_threshold", "0"): "solver.blowup_threshold must be in (0, inf], got 0.0",
    ("solver.anchor_time", "-0.5"): "solver.anchor_time must be in [0, inf), got -0.5",
    ("scenario.amplitude", "-1"): "scenario.amplitude must be in [0, inf), got -1.0",
    ("scenario.amplitude", "nan"): "scenario.amplitude must be in [0, inf), got nan",
    ("scenario.sigma", "0"): "scenario.sigma must be in [1e-100, 1e+100], got 0.0",
    ("scenario.sigma", "inf"): "scenario.sigma must be in [1e-100, 1e+100], got inf",
    ("scenario.sigma", "1e-170"): "scenario.sigma must be in [1e-100, 1e+100], got 1e-170",
    ("scenario.amplitude", "1.5", ("scenario.name", "random-perturb")): (
        "scenario.amplitude must be in [0, 1], got 1.5"
    ),
    ("scenario.center", "nan"): "scenario.center entry must be in (-inf, inf), got nan",
    ("scenario.wbar", "-1"): "scenario.wbar must be in [0, inf), got -1.0",
    ("scenario.wbar", "inf"): "scenario.wbar must be in [0, inf), got inf",
    ("scenario.u0", "-1"): "scenario.u0 must be in [0, inf), got -1.0",
    ("scenario.u0", "nan"): "scenario.u0 must be in [0, inf), got nan",
    ("scenario.v0", "-1"): "scenario.v0 must be in [0, inf), got -1.0",
    ("scenario.w0", "-1"): "scenario.w0 must be in [0, inf), got -1.0",
    ("scenario.seed", "-1"): "scenario.seed must be in [0, inf), got -1",
    ("outputs.p_values", "0.5"): "outputs.p_values entry must be in [1, inf), got 0.5",
    ("outputs.p_values", "inf"): "outputs.p_values entry must be in [1, inf), got inf",
    ("sweep.fixed_value", "0"): "sweep.fixed_value must be in (0, inf), got 0.0",
    ("sweep.fixed_value", "inf"): "sweep.fixed_value must be in (0, inf), got inf",
    ("sweep.theta_values", "0,0.1"): "sweep.theta_values entry must be in (0, inf), got 0.0",
    ("sweep.theta_values", "nan"): "sweep.theta_values entry must be in (0, inf), got nan",
    ("sweep.theta_values", "0.1,inf"): "sweep.theta_values entry must be in (0, inf), got inf",
    ("sweep.repetitions", "0"): "sweep.repetitions must be in [1, inf), got 0",
}
# The cases above whose rule relates two values, or picks one of named
# choices, keep their own wording.
OTHER_MESSAGES = {
    ("solver.dt_max", "1e-17"): "solver.dt_max must be at least T_end / 1e+15:"
    " a smaller cap needs more than 1e+15 steps",
    ("solver.dt_max", "1e-300"): "solver.dt_max must be at least T_end / 1e+15:"
    " a smaller cap needs more than 1e+15 steps",
    ("solver.output_every", "1e-17"): "solver.output_every must be at least T_end / 1e+15:"
    " a smaller interval needs more than 1e+15 steps",
    ("solver.output_every", "1e-300"): "solver.output_every must be at least T_end / 1e+15:"
    " a smaller interval needs more than 1e+15 steps",
    ("solver.anchor_time", "1"): "solver.anchor_time must be in [0, T_end)",
    ("solver.time_scheme", "magic"): "solver.time_scheme must be explicit or imex-diffusion",
    ("scenario.name", "vortex"): "scenario.name must be one of"
    " ('steady', 'constant', 'gaussian-bump', 'random-perturb')",
    ("scenario.center", "0.5,0.5"): "scenario.center must have 1 entries",
    ("outputs.p_values", "2,2.0"): "outputs.p_values entries must be distinct",
    ("sweep.mode", "fix_nothing"): "sweep.mode must be fix_mu_vary_chi or fix_chi_vary_mu",
    ("sweep.theta_values", "0.2,0.1"): "sweep.theta_values must be strictly increasing",
}
RANGE_FORM = re.compile(r"^\S+( entry)? must be in [\[(]\S+, \S+[\])], got \S+$")


class TestParsing:

    def test_model_defaults(self):
        cfg = parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=1 mu=10 xi=1\n[solver] T_end=1")
        m = cfg.model
        assert (m.chi, m.xi, m.mu, m.eta, m.tau) == (1.0, 1.0, 10.0, 0.0, 1)

    def test_grid_spacing_example(self):
        cfg = parse_config(
            "[grid] dim=3 extent=1,1,1 cells=32,32,32\n[model] chi=1\n[solver] T_end=1"
        )
        assert cfg.grid.spacing == (1.0 / 32, 1.0 / 32, 1.0 / 32)

    def test_spaces_around_equals_and_comments(self):
        cfg = parse_config(
            """
            [grid]
            dim = 1          # one dimensional
            extent = 2.5
            cells = 10
            [model] chi = 0.5
            [solver] T_end = 2.0
            """
        )
        assert cfg.grid.extent == (2.5,)
        assert cfg.model.chi == 0.5

    def test_solver_defaults(self):
        cfg = parse_config(MINIMAL)
        s = cfg.solver
        assert s.output_every == pytest.approx(1.0 / 50)
        assert s.cfl_safety == 0.4
        assert s.dt_max == math.inf
        assert s.blowup_threshold == 1e6
        assert s.anchor_time == 0.0
        assert s.time_scheme == "explicit"

    def test_outputs_defaults(self):
        cfg = parse_config(MINIMAL, base_dir="/tmp/somewhere")
        assert cfg.outputs.p_values == (2.0,)
        assert cfg.outputs.snapshots is False
        assert cfg.outputs.directory.is_absolute()
        assert str(cfg.outputs.directory).endswith("somewhere/out")

    def test_sweep_section(self):
        cfg = parse_config(
            MINIMAL + "[sweep] mode=fix_mu_vary_chi fixed_value=10 theta_values=0.05,0.1,0.2"
        )
        assert cfg.sweep is not None
        assert cfg.sweep.theta_values == (0.05, 0.1, 0.2)
        assert cfg.sweep.repetitions == 1

    def test_sweep_section_is_a_plan_over_the_config_problem(self):
        cfg = parse_config(
            MINIMAL + "[sweep] mode=fix_chi_vary_mu fixed_value=2 theta_values=0.5,1 repetitions=3"
        )
        plan = cfg.sweep
        assert type(plan) is SweepPlan
        assert plan.base_model is cfg.model
        assert plan.base_solver is cfg.solver
        assert plan.scenario is cfg.scenario
        assert plan.grid is cfg.grid
        assert plan == SweepPlan(
            mode="fix_chi_vary_mu",
            fixed_value=2.0,
            theta_values=(0.5, 1.0),
            repetitions=3,
            base_model=cfg.model,
            base_solver=cfg.solver,
            scenario=cfg.scenario,
            grid=cfg.grid,
        )


class TestValidation:
    def test_negative_chi_names_key_and_constraint(self):
        with pytest.raises(ValidationError, match=r"^model\.chi must be in \(0, inf\), got -1\.0$"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=-1\n[solver] T_end=1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match=r"model\.sigma"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=1 sigma=2\n[solver] T_end=1")
        # The output cadence is solver.output_every; outputs has no alias.
        with pytest.raises(ValidationError, match=r"outputs\.cadence"):
            parse_config(MINIMAL + "[outputs] cadence=0.02")

    @pytest.mark.parametrize("key", ["elliptic_tol", "elliptic_max_iter"])
    def test_retired_solver_keys_rejected(self, key):
        # The exact elliptic solve has no tolerance or iteration limit.
        with pytest.raises(ValidationError, match=rf"solver\.{key}"):
            parse_config(f"[grid] dim=1 extent=1 cells=8\n[model] chi=1\n[solver] T_end=1 {key}=5")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match=r"\[physics\]"):
            parse_config("[physics] c=3e8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="more than once"):
            parse_config("[model] chi=1 chi=2")

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match=r"solver\.T_end is required"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=1\n[solver] cfl_safety=0.5")

    def test_missing_required_section(self):
        with pytest.raises(ValidationError, match=r"\[model\] section is required"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[solver] T_end=1")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=1\nnonsense-token\n")

    @pytest.mark.parametrize(
        "line, message",
        [("[grid", "malformed section header '[grid'"), ("[model] chi=", "incomplete assignment 'chi='")],
        ids=["open-header", "no-value"],
    )
    def test_malformed_token_is_a_parse_error(self, line, message):
        with pytest.raises(ParseError, match="line 2: " + re.escape(message)):
            parse_config(f"[grid] dim=1 extent=1 cells=8\n{line}\n[solver] T_end=1")

    @pytest.mark.parametrize(
        "key, value, message",
        [("grid.cells", "8.5", "must be an integer, got '8.5'"),
         ("outputs.snapshots", "maybe", "must be true or false, got 'maybe'")],
        ids=["integer", "boolean"],
    )
    def test_bad_integer_or_boolean_reports_key(self, key, value, message):
        with pytest.raises(ValidationError, match="^" + re.escape(f"{key} {message}") + "$"):
            parse_config(with_value(key, value))

    def test_assignment_before_section(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("chi=1")

    def test_extent_arity_checked(self):
        with pytest.raises(ValidationError, match=r"grid\.extent must have 2 entries"):
            parse_config("[grid] dim=2 extent=1 cells=8,8\n[model] chi=1\n[solver] T_end=1")

    def test_center_arity_checked(self):
        with pytest.raises(ValidationError, match=r"scenario\.center"):
            parse_config(MINIMAL + "[scenario] name=gaussian-bump center=0.5,0.5")

    def test_bad_number_reports_key(self):
        with pytest.raises(ValidationError, match=r"solver\.T_end must be a number"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=1\n[solver] T_end=soon")

    @pytest.mark.parametrize(
        "key,value", OUT_OF_RANGE + NON_FINITE, ids=[f"{k}={v}" for k, v in OUT_OF_RANGE + NON_FINITE]
    )
    def test_bad_value_names_its_key(self, key, value):
        with pytest.raises(ValidationError, match="^" + re.escape(key) + " "):
            parse_config(with_value(key, value))

    def test_every_bad_value_case_has_its_full_message(self):
        assert set(OUT_OF_RANGE + NON_FINITE) <= RANGE_MESSAGES.keys() | OTHER_MESSAGES.keys()
        assert not RANGE_MESSAGES.keys() & OTHER_MESSAGES.keys()

    @pytest.mark.parametrize(
        "case", list(RANGE_MESSAGES), ids=[f"{c[0]}={c[1]}" for c in RANGE_MESSAGES]
    )
    def test_value_out_of_range_gives_key_interval_and_value(self, case):
        message = RANGE_MESSAGES[case]
        assert RANGE_FORM.match(message)
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            parse_config(with_value(*case))

    @pytest.mark.parametrize(
        "key,value", list(OTHER_MESSAGES), ids=[f"{k}={v}" for k, v in OTHER_MESSAGES]
    )
    def test_relational_and_choice_rules_keep_their_wording(self, key, value):
        message = OTHER_MESSAGES[key, value]
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            parse_config(with_value(key, value))

    @pytest.mark.parametrize(
        "solver,key",
        [
            ("T_end=1 dt_max=1e-300", "solver.dt_max"),
            ("T_end=1 output_every=1e-300", "solver.output_every"),
            ("T_end=1 anchor_time=1", "solver.anchor_time"),
        ],
    )
    def test_messages_name_the_config_key_t_end(self, solver, key):
        # The SolverConfig field is t_end; the message names the key T_end.
        with pytest.raises(ValidationError) as info:
            parse_config(f"[grid] dim=1 extent=1 cells=8\n[model] chi=1\n[solver] {solver}")
        message = str(info.value)
        assert message.startswith(key + " ")
        assert "T_end" in message
        assert "t_end" not in message

    def test_repetitions_past_the_seed_stride_rejected(self):
        assert parse_config(with_value("sweep.repetitions", "7919")).sweep.repetitions == 7919
        with pytest.raises(ValidationError, match=r"^sweep\.repetitions must be at most 7919"):
            parse_config(with_value("sweep.repetitions", "7920"))

    @pytest.mark.parametrize("bad", [True, "1"])
    def test_p_values_entries_take_real_numbers_only(self, tmp_path, bad):
        with pytest.raises(ValueError, match="^p_values entry must be a real number"):
            OutputOptions(tmp_path, p_values=(2.0, bad))

    def test_bad_time_scheme(self):
        with pytest.raises(ValidationError, match=r"solver\.time_scheme"):
            parse_config("[grid] dim=1 extent=1 cells=8\n[model] chi=1\n[solver] T_end=1 time_scheme=magic")


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (True, "true"),
        (False, "false"),
        (3, "3"),
        (np.int64(3), "3"),
        (0.1, "0.1"),
        (np.float64(0.1), "0.1"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        ((1.0, 2.5, 3), "1.0,2.5,3"),
    ],
)
def test_format_value(value, text):
    # The one text rule for a value: the config echo, every sweep.csv cell
    # and the sweep summary's pe_condition are written by it.
    assert format_value(value) == text


class TestEcho:
    def test_echo_round_trip_is_idempotent(self, tmp_path):
        text = (
            "[grid] dim=2 extent=1.5,2 cells=12,16\n"
            "[model] chi=0.7 xi=0.2 mu=3 eta=0.1 tau=1\n"
            "[solver] T_end=2 output_every=0.25 cfl_safety=0.3 dt_max=0.001\n"
            "  blowup_threshold=50 anchor_time=0.5 time_scheme=imex-diffusion\n"
            "[scenario] name=gaussian-bump amplitude=0.4 sigma=0.33 center=0.5,1.25\n"
            "  wbar=0.2 seed=99 u0=2 v0=3 w0=0.5\n"
            "[outputs] dir=results p_values=1,2,4 snapshots=true\n"
            "[sweep] mode=fix_chi_vary_mu fixed_value=2 theta_values=0.1,0.2 repetitions=2\n"
        )
        cfg = parse_config(text, base_dir=tmp_path)
        echo = render_config(cfg)
        # Every key is echoed.
        echoed = {line.split(" = ")[0] for line in echo.splitlines() if " = " in line}
        assert echoed == {key for keys in _KEYS.values() for key in keys}
        cfg2 = parse_config(echo, base_dir=tmp_path)
        assert cfg2 == cfg
        assert render_config(cfg2) == echo
        # The echoed plan is the parsed one, over the echoed problem.
        assert cfg2.sweep == cfg.sweep
        assert cfg2.sweep.base_model is cfg2.model and cfg2.sweep.grid is cfg2.grid

    def test_float32_settings_rerun_identically_from_their_echo(self, tmp_path):
        # Each float setting is kept as the Python float of its value, so the
        # echo writes every digit of it and a run of the echo is the same run.
        f32 = np.float32
        cfg = RunConfig(
            grid=GridSpec((f32(1.7),), (16,)),
            model=ModelParams(chi=f32(0.1), xi=f32(0.3), mu=f32(1.3), eta=f32(0.2)),
            solver=SolverConfig(t_end=f32(0.3), output_every=f32(0.1), cfl_safety=f32(0.3)),
            scenario=ScenarioSpec(name="gaussian-bump", amplitude=f32(0.7), wbar=f32(0.1)),
            outputs=OutputOptions(tmp_path, p_values=(f32(2.5),)),
        )
        again = parse_config(render_config(cfg), base_dir=tmp_path)
        assert again == cfg
        first, second = (
            run(c.scenario.build(c.grid), c.model, c.solver, p_list=c.outputs.p_values)
            for c in (cfg, again)
        )
        assert first.steps == second.steps
        assert first.max_sup_u == second.max_sup_u
        for name in ("u", "v", "w"):
            a = getattr(first.final_state, name).values
            b = getattr(second.final_state, name).values
            assert a.tobytes() == b.tobytes()

    def test_echo_parses_without_base_dir_dependence(self, tmp_path):
        # The echo carries an absolute output directory, so re-parsing it from
        # any base directory yields the same configuration.
        cfg = parse_config(MINIMAL + "[outputs] dir=out", base_dir=tmp_path)
        echo = render_config(cfg)
        cfg2 = parse_config(echo, base_dir="/completely/else")
        assert cfg2 == cfg
