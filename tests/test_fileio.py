"""Serialization: time-series CSV, snapshots, sweep tables."""

from __future__ import annotations

import numpy as np
import pytest

from taxisim import (
    GridSpec,
    ModelParams,
    ScenarioSpec,
    SolverConfig,
    initial_state,
    run,
)
from taxisim.fileio import (
    BASE_COLUMNS,
    SWEEP_COLUMNS,
    lp_column,
    read_snapshot,
    read_timeseries,
    timeseries_header,
    write_snapshot,
    write_timeseries,
)

EXPECTED_HEADER = (
    "t,dt,mass_u,mass_v,min_u,sup_u,min_v,sup_v,min_w,sup_w,"
    "sup_grad_v,lemma22_violation,repr_residual"
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
        rec = record(state, [2.0])
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

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,stuff\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_timeseries(path)

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
