"""Serialization: time-series CSV, snapshots, sweep tables."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from taxisim import (
    BoundednessVerdict,
    GridSpec,
    ModelParams,
    ScenarioSpec,
    SolverConfig,
    SweepResult,
    classify,
    estimate_threshold,
    initial_state,
    run,
)
from taxisim.fileio import (
    BASE_COLUMNS,
    SWEEP_COLUMNS,
    lp_column,
    read_snapshot,
    read_text,
    read_timeseries,
    render_sweep_summary,
    timeseries_header,
    write_snapshot,
    write_sweep_table,
    write_timeseries,
)

EXPECTED_HEADER = (
    "t,dt,mass_u,mass_v,min_u,sup_u,min_v,sup_v,min_w,sup_w,"
    "sup_grad_v,lemma22_violation,repr_residual,peak_u,t_peak_u"
)


def small_run():
    g = GridSpec((2.0,), (16,))
    p = ModelParams(chi=1.0, xi=0.5, mu=1.0)
    sc = ScenarioSpec(name="gaussian-bump", amplitude=0.4, sigma=0.3, wbar=0.25)
    return run(sc.build(g), p, SolverConfig(t_end=0.5, output_every=0.1), p_list=(1.0, 2.0))


class TestTimeseries:
    def test_header_is_pinned(self):
        assert ",".join(BASE_COLUMNS) == EXPECTED_HEADER
        assert timeseries_header((2.0,)) == EXPECTED_HEADER + ",Lp_u_2"
        assert timeseries_header((1.0, 2.5)) == EXPECTED_HEADER + ",Lp_u_1,Lp_u_2.5"

    def test_lp_column_naming(self):
        assert lp_column(2.0) == "Lp_u_2"
        assert lp_column(2.5) == "Lp_u_2.5"

    def test_empty_records_gives_header_only(self, tmp_path):
        path = write_timeseries([], tmp_path / "ts.csv", (2.0,))
        assert path.read_text().strip() == EXPECTED_HEADER + ",Lp_u_2"

    def test_steady_record_row(self, tmp_path):
        g = GridSpec((1.0,), (8,))
        from taxisim import record

        state = initial_state(ScenarioSpec(name="steady").build(g))
        rec = record(state, [2.0], eta=0.0)
        path = write_timeseries([rec], tmp_path / "ts.csv", (2.0,))
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[2]) == pytest.approx(1.0, rel=1e-14)  # mass_u = measure
        assert float(row[5]) == 1.0  # sup_u

    def test_round_trip_is_bitwise(self, tmp_path):
        out = small_run()
        first = write_timeseries(out.records, tmp_path / "a.csv", (1.0, 2.0))
        records, p_values = read_timeseries(first)
        assert p_values == (1.0, 2.0)
        second = write_timeseries(records, tmp_path / "b.csv", p_values)
        assert first.read_bytes() == second.read_bytes()
        assert records == out.records

    def test_an_infinite_lp_norm_keeps_the_record_finite(self, tmp_path):
        # |u|^p overflows to inf on finite fields for a large p. Only the
        # extrema say whether a record is finite, before and after the file.
        recs = [replace(r, lp_u=(r.lp_u[0], (2.0, math.inf))) for r in small_run().records]
        path = write_timeseries(recs, tmp_path / "ts.csv", (1.0, 2.0))
        assert path.read_text().splitlines()[1].endswith(",inf")
        back, _ = read_timeseries(path)
        assert all(r.finite for r in recs) and all(r.finite for r in back)
        cfg = SolverConfig(t_end=0.5, output_every=0.1)
        assert classify(back, cfg) == classify(recs, cfg)
        assert classify(back, cfg).classification != "blew_up"

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,stuff\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_timeseries(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:-1] + ["abc"], "could not convert string to float: 'abc'"),
            (lambda cells: cells[:-1], "row width does not match header"),
        ],
        ids=["bad-cell", "short-row"],
    )
    def test_read_names_the_file_and_line_of_a_bad_row(self, tmp_path, edit, message):
        path = write_timeseries(small_run().records, tmp_path / "ts.csv", (1.0, 2.0))
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_timeseries(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty time-series file"),
            (EXPECTED_HEADER + ",Lq_u_2\n", "unexpected time-series column 'Lq_u_2'"),
            (EXPECTED_HEADER + ",Lp_u_abc\n", "unexpected time-series column 'Lp_u_abc'"),
            # No run writes a p the config refuses: p lies in [1, inf) and no
            # two are equal, by the one rule OutputOptions applies.
            (
                EXPECTED_HEADER + ",Lp_u_0.5\n",
                "time-series column 'Lp_u_0.5': p_values entry must be in [1, inf), got 0.5",
            ),
            (
                EXPECTED_HEADER + ",Lp_u_-3\n",
                "time-series column 'Lp_u_-3': p_values entry must be in [1, inf), got -3.0",
            ),
            (
                EXPECTED_HEADER + ",Lp_u_nan\n",
                "time-series column 'Lp_u_nan': p_values entry must be in [1, inf), got nan",
            ),
            (
                EXPECTED_HEADER + ",Lp_u_inf\n",
                "time-series column 'Lp_u_inf': p_values entry must be in [1, inf), got inf",
            ),
            (
                EXPECTED_HEADER + ",Lp_u_2,Lp_u_2.0\n",
                "time-series column 'Lp_u_2.0': p_values entries must be distinct",
            ),
            # An accepted p under a label lp_column does not write: reading
            # and writing it back would change the header.
            *(
                (
                    EXPECTED_HEADER + f",{label}\n",
                    f"time-series column {label!r}: taxisim writes p = {p} as {written!r}",
                )
                for label, p, written in [
                    ("Lp_u_2.0", 2.0, "Lp_u_2"),
                    ("Lp_u_02", 2.0, "Lp_u_2"),
                    ("Lp_u_ 2", 2.0, "Lp_u_2"),
                    ("Lp_u_1e0", 1.0, "Lp_u_1"),
                    ("Lp_u_+2", 2.0, "Lp_u_2"),
                    ("Lp_u_2e0", 2.0, "Lp_u_2"),
                ]
            ),
        ],
        ids=[
            "empty", "foreign-norm-column", "non-numeric-p",
            "p-below-one", "p-negative", "p-nan", "p-inf", "p-repeated",
            "label-2.0", "label-02", "label-space", "label-1e0", "label-plus", "label-2e0",
        ],
    )
    def test_read_rejects_an_empty_file_and_a_foreign_column(self, tmp_path, text, message):
        path = tmp_path / "ts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_timeseries(path)

    def test_read_skips_a_blank_row(self, tmp_path):
        path = write_timeseries(small_run().records, tmp_path / "ts.csv", (1.0, 2.0))
        lines = path.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        assert read_timeseries(blank) == read_timeseries(path)

    def test_mismatched_p_values_rejected(self, tmp_path):
        out = small_run()
        with pytest.raises(ValueError, match="p values"):
            write_timeseries(out.records, tmp_path / "ts.csv", (3.0,))


class TestSnapshot:
    def test_round_trip_is_bitwise(self, tmp_path):
        out = small_run()
        state = out.final_state
        path = write_snapshot(state, tmp_path / "snap.dat")
        grid, t, u, v, w = read_snapshot(path)
        assert grid == state.grid
        assert t == state.t
        assert np.array_equal(u.values, state.u.values)
        assert np.array_equal(v.values, state.v.values)
        assert np.array_equal(w.values, state.w.values)

    def test_steady_three_cell_layout(self, tmp_path):
        g = GridSpec((3.0,), (3,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        path = write_snapshot(state, tmp_path / "snap.dat")
        lines = path.read_text().splitlines()
        assert lines[0] == "dim 1"
        assert lines[1] == "cells 3"
        assert lines[4] == "u v w"
        assert lines[5:] == ["1.0 1.0 0.0"] * 3

    def test_cell_count_validated_on_read(self, tmp_path):
        g = GridSpec((1.0,), (4,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        path = write_snapshot(state, tmp_path / "snap.dat")
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one data line
        with pytest.raises(ValueError, match="data lines"):
            read_snapshot(path)


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:4], "truncated snapshot header"),
            (lambda lines: ["cells 4", *lines[1:]], "expected 'dim' on header line 1"),
            (lambda lines: [*lines[:4], "u w v", *lines[5:]], "expected column line 'u v w'"),
            (lambda lines: [lines[0], "cells 4 4", *lines[2:]], "header dim does not match cells/extent"),
            (lambda lines: [*lines[:-1], "1.0 1.0"], "malformed data line 9"),
            (lambda lines: ["dim", *lines[1:]], "line 1: no value after 'dim'"),
            (lambda lines: [*lines[:3], "t", *lines[4:]], "line 4: no value after 't'"),
            (
                lambda lines: ["dim one", *lines[1:]],
                "line 1: invalid literal for int() with base 10: 'one'",
            ),
            (
                lambda lines: [*lines[:3], "t abc", *lines[4:]],
                "line 4: could not convert string to float: 'abc'",
            ),
            (
                lambda lines: [*lines[:-1], "1.0 abc 0.0"],
                "line 9: could not convert string to float: 'abc'",
            ),
            (lambda lines: [lines[0], "cells 1", *lines[2:]], "cells entry must be in [2, inf), got 1"),
        ],
        ids=[
            "truncated",
            "wrong-tag",
            "columns",
            "dim",
            "short-data-line",
            "dim-without-value",
            "t-without-value",
            "non-integer-dim",
            "non-numeric-t",
            "non-numeric-data",
            "one-cell",
        ],
    )
    def test_malformed_snapshot_rejected(self, tmp_path, edit, message):
        g = GridSpec((1.0,), (4,))
        state = initial_state(ScenarioSpec(name="steady").build(g))
        path = write_snapshot(state, tmp_path / "snap.dat")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_snapshot(path)


class TestWriteErrors:
    """A write into a missing directory raises OSError naming the file."""

    def test_time_series(self, tmp_path):
        path = tmp_path / "missing" / "ts.csv"
        with pytest.raises(OSError, match=re.escape(f"cannot write time series {path}")):
            write_timeseries([], path, (2.0,))

    def test_snapshot(self, tmp_path):
        state = initial_state(ScenarioSpec(name="steady").build(GridSpec((1.0,), (4,))))
        path = tmp_path / "missing" / "snap.dat"
        with pytest.raises(OSError, match=re.escape(f"cannot write snapshot {path}")):
            write_snapshot(state, path)

    def test_sweep_table(self, tmp_path):
        path = tmp_path / "missing" / "sweep.csv"
        with pytest.raises(OSError, match=re.escape(f"cannot write sweep table {path}")):
            write_sweep_table([], path)


class TestReadErrors:
    """Text that is not UTF-8 raises OSError naming the file."""

    def test_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"# caf\xe9\n[grid] dim=1 extent=1 cells=8\n")
        with pytest.raises(OSError, match=f"^{re.escape(f'cannot read config {path}: ')}"):
            read_text(path, "config")

    def test_time_series(self, tmp_path):
        path = write_timeseries(small_run().records, tmp_path / "ts.csv", (1.0, 2.0))
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(OSError, match=f"^{re.escape(f'cannot read time series {path}: ')}"):
            read_timeseries(path)


class TestSweepTable:
    def test_columns(self):
        assert SWEEP_COLUMNS == (
            "theta",
            "chi",
            "mu",
            "repetition",
            "classification",
            "max_sup_u",
            "t_of_max",
            "crossing_time",
            "pe_condition",
            "failure",
        )


def sweep_result(theta, classification, pe_condition=True):
    return SweepResult(
        theta=theta,
        chi=theta,
        mu=1.0,
        repetition=0,
        verdict=BoundednessVerdict(classification, 1.0, 0.0),
        max_sup_u=1.0,
        wall_time=0.0,
        pe_condition=pe_condition,
    )


class TestSweepSummary:
    RESULTS = [sweep_result(0.1, "bounded"), sweep_result(0.5, "growing", pe_condition=False)]

    def test_bracket_line(self):
        assert render_sweep_summary(self.RESULTS, (0.1, 0.5), tau=1) == (
            "sweep summary\n"
            "  theta=0.1 chi=0.1 mu=1.0 rep=0 verdict=bounded\n"
            "  theta=0.5 chi=0.5 mu=1.0 rep=0 verdict=growing\n"
            "threshold bracket: theta_lo=0.1 theta_hi=0.5\n"
        )

    def test_tau_zero_lines_carry_the_pe_condition(self):
        lines = render_sweep_summary(self.RESULTS, (0.1, 0.5), tau=0).splitlines()
        assert lines[1:3] == [
            "  theta=0.1 chi=0.1 mu=1.0 rep=0 verdict=bounded pe_condition=true",
            "  theta=0.5 chi=0.5 mu=1.0 rep=0 verdict=growing pe_condition=false",
        ]

    @pytest.mark.parametrize(
        "results, bracket",
        [
            (RESULTS, None),
            (RESULTS, (0.1, 0.2)),
            ([sweep_result(0.1, "bounded"), sweep_result(0.5, "inconclusive")], (0.1, 0.5)),
        ],
        ids=["bracketed-passed-none", "bracketed-passed-another", "none-passed-one"],
    )
    def test_a_bracket_the_results_do_not_give_is_refused(self, results, bracket):
        # Given None for results that bracket (bounded 0.1, growing 0.5),
        # the summary once printed "none (bounded up to theta=0.1; no theta
        # above it grew or blew up)", which is false.
        with pytest.raises(ValueError, match="is not the one the results give"):
            render_sweep_summary(results, bracket, tau=1)

    def test_no_bracket_line(self):
        results = [sweep_result(0.1, "bounded"), sweep_result(0.5, "inconclusive")]
        lines = render_sweep_summary(results, None, tau=1).splitlines()
        assert lines[-1] == (
            "threshold bracket: none (bounded up to theta=0.1; no theta above it grew or blew up)"
        )

    # The verdicts per theta of three imex-sweep-1d seed classes (b bounded,
    # i inconclusive) and of a sweep where no theta stays bounded.
    THETAS = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4)
    VERDICTS = {"b": "bounded", "i": "inconclusive", "g": "growing"}

    @pytest.mark.parametrize(
        "pattern, reason",
        [
            ("bbbbbbbi", "bounded up to theta=3.2; no theta above it grew or blew up"),
            ("bbbbbiib", "non-monotone: theta=6.4 stayed bounded above theta=1.6"),
            ("bbbbbbbb", "every theta stayed bounded"),
            ("iiiggggg", "no theta stayed bounded"),
        ],
    )
    def test_no_bracket_names_its_case(self, pattern, reason):
        results = [
            sweep_result(theta, self.VERDICTS[c]) for theta, c in zip(self.THETAS, pattern)
        ]
        assert estimate_threshold(results) is None
        summary = render_sweep_summary(results, None, tau=1)
        assert summary.splitlines()[-1] == f"threshold bracket: none ({reason})"
