import math

import pytest

from gadengine import (
    QubitEngineConfig,
    SweepSpec,
    SweptAxis,
    UnknownPresetError,
    cycle_work,
    emit_csv,
    preset,
    run_sweep,
)
from gadengine.errors import OutOfRangeError
from gadengine.sweeps import PRESET_NAMES, SweepTable, with_points


def rows_as_dicts(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


class TestPresets:
    def test_all_presets_exist(self):
        assert PRESET_NAMES == ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
        for name in PRESET_NAMES:
            spec = preset(name)
            assert spec.swept.points >= 2

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            preset("fig99")

    def test_fig1_series(self):
        spec = preset("fig1")
        assert spec.target == "work_vs_f"
        assert spec.swept.name == "f"
        assert (spec.swept.start, spec.swept.stop) == (0.0, 1.0)
        assert spec.series.name == "gamma"
        assert spec.series.values == (0.1, 0.2, 0.5, 0.7, 1.0)

    def test_fig2_series(self):
        spec = preset("fig2")
        assert spec.target == "work_vs_pg"
        assert spec.swept.name == "pg"
        assert spec.series.name == "dh"
        assert spec.series.values == (1.0, 5.0, 10.0, 20.0, 50.0)

    def test_fig3_series(self):
        spec = preset("fig3")
        assert spec.series.name == "pg"
        assert spec.series.values == (0.0, 0.4, 0.5, 0.9)


class TestRunSweep:
    def test_fig1_records_match_engine_oracle(self):
        spec = with_points(preset("fig1"), 21)
        table = run_sweep(spec)
        rows = rows_as_dicts(table)
        assert len(rows) == 5 * 21
        for row in rows[::7]:
            cfg = QubitEngineConfig(
                initial_pg=row["pg"], f=row["f"], gamma=row["gamma"],
                hot_gap=row["dh"], cold_gap=row["dc"],
            )
            assert row["work"] == pytest.approx(cycle_work(cfg), abs=1e-12)
            assert row["work"] == pytest.approx(row["q_hot"] + row["q_cold"], abs=1e-12)

    def test_series_major_ordering(self):
        table = run_sweep(with_points(preset("fig1"), 11))
        rows = rows_as_dicts(table)
        gammas = [row["gamma"] for row in rows]
        assert gammas == sorted(gammas, key=lambda g: (0.1, 0.2, 0.5, 0.7, 1.0).index(g))
        first_block = rows[:11]
        assert [r["f"] for r in first_block] == sorted(r["f"] for r in first_block)

    def test_noncyclic_target(self):
        spec = SweepSpec(
            target="work_vs_f_noncyclic",
            fixed_params={"pg": 0.9, "gamma": 0.5, "k": 0.4, "dh": 1.0, "dc": 0.5},
            swept=SweptAxis("f", 0.0, 1.0, 11),
        )
        rows = rows_as_dicts(run_sweep(spec))
        assert len(rows) == 11
        assert all(not r["cyclic"] for r in rows)
        assert any(r["deviation"] > 0 for r in rows)

    def test_degenerate_sweep_all_zero(self):
        spec = SweepSpec(
            target="work_vs_f",
            fixed_params={"pg": 0.9, "gamma": 0.0, "dh": 1.0, "dc": 0.5},
            swept=SweptAxis("f", 0.0, 1.0, 11),
        )
        for row in rows_as_dicts(run_sweep(spec)):
            assert abs(row["work"]) < 1e-12

    def test_zero_crossing_at_high_emission(self):
        table = run_sweep(preset("fig1"))
        rows = [r for r in rows_as_dicts(table) if r["gamma"] == 0.5]
        near = min(rows, key=lambda r: abs(r["f"] - 0.9))
        assert abs(near["work"]) < 1e-12
        below = [r["work"] for r in rows if r["f"] < 0.9 - 1e-9]
        above = [r["work"] for r in rows if r["f"] > 0.9 + 1e-9]
        assert all(w > 0 for w in below)
        assert all(w < 0 for w in above)

    def test_fig4_emits_cyclic_then_noncyclic(self):
        rows = rows_as_dicts(run_sweep(with_points(preset("fig4"), 11)))
        assert len(rows) == 22
        assert all(r["cyclic"] for r in rows[:11])
        assert not any(r["cyclic"] for r in rows[11:])
        # the work deficit matches the recorded redistribution cost
        for cyc, non in zip(rows[:11], rows[11:]):
            assert cyc["f"] == non["f"]
            assert cyc["work"] - non["work"] == pytest.approx(non["delta_w"], abs=1e-12)

    def test_fig5_has_both_systems(self):
        rows = rows_as_dicts(run_sweep(with_points(preset("fig5"), 11)))
        systems = {r["system"] for r in rows}
        assert systems == {"qubit", "qutrit"}
        qubit_rows = [r for r in rows if r["system"] == "qubit"]
        qutrit_rows = [r for r in rows if r["system"] == "qutrit"]
        for qb, qt in zip(qubit_rows, qutrit_rows):
            assert qt["work"] >= qb["work"] - 1e-12

    def test_fig6_efficiency_columns(self):
        rows = rows_as_dicts(run_sweep(with_points(preset("fig6"), 11)))
        qubit_rows = [r for r in rows if r["system"] == "qubit"]
        assert all(not r["cyclic"] for r in qubit_rows)
        low_f = [r for r in qubit_rows if r["f"] < 0.5]
        assert all(not math.isnan(r["efficiency"]) for r in low_f)

    def test_fig7_long_form(self):
        table = run_sweep(with_points(preset("fig7"), 21))
        assert table.columns == ("f", "t", "w_qutrit", "w_qubit", "dw")
        assert len(table.rows) == 21 * 21
        assert any(line.startswith("# qutrit_only_cells=") for line in table.preamble)

    def test_unknown_parameter_rejected(self):
        spec = SweepSpec(
            target="work_vs_f",
            fixed_params={"pg": 0.9, "bogus": 1.0, "gamma": 0.5, "dh": 1.0, "dc": 0.5},
            swept=SweptAxis("f", 0.0, 1.0, 5),
        )
        with pytest.raises(OutOfRangeError):
            run_sweep(spec)

    def test_bad_axis_rejected(self):
        with pytest.raises(OutOfRangeError):
            SweptAxis("f", 0.0, 1.0, 1)
        with pytest.raises(OutOfRangeError):
            SweptAxis("f", 1.0, 0.0, 10)
        for start, stop in [(0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
                            (-1e308, 1e308)]:
            with pytest.raises(OutOfRangeError, match="sweep must have finite bounds"):
                SweptAxis("f", start, stop, 3)

    def test_every_engine_preset_balances_heat_and_work(self):
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
            table = run_sweep(with_points(preset(name), 9))
            for rec in rows_as_dicts(table):
                assert rec["work"] == pytest.approx(
                    rec["q_hot"] + rec["q_cold"], abs=1e-12
                ), name

    def test_error_annotated_with_grid_point(self):
        spec = SweepSpec(
            target="qutrit_vs_qubit_work",
            fixed_params={
                "pg": 1.0, "gamma": 0.4, "k": 1.0, "dh": 1.0, "dc": 0.5,
                "p0": 1.0, "p1": 0.0, "p2": 0.0,
                "lam1": 0.8, "lam2": 0.8, "k1": 0.4, "k2": 0.4,
                "dh10": 1.0, "dh20": 2.0, "dc10": 0.5, "dc20": 1.0,
            },
            swept=SweptAxis("f", 0.0, 1.0, 5),
        )
        with pytest.raises(Exception) as err:
            run_sweep(spec)
        assert "lambda" in str(err.value)
        assert "at f=" in str(err.value)


class TestEmitCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepTable(columns=("a", "b"), rows=()), path)
        assert path.read_text() == "a,b\n"

    def test_fig1_schema(self, tmp_path):
        path = tmp_path / "fig1.csv"
        emit_csv(run_sweep(with_points(preset("fig1"), 5)), path)
        header = path.read_text().splitlines()[0].split(",")
        for col in ("f", "gamma", "pg", "dh", "dc", "work"):
            assert col in header

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = with_points(preset("fig3"), 31)
        emit_csv(run_sweep(spec), a)
        emit_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_formatting_rules(self, tmp_path):
        path = tmp_path / "fmt.csv"
        table = SweepTable(
            columns=("x", "flag", "label"),
            rows=((1.0 / 3.0, True, "qubit"), (float("nan"), False, "")),
        )
        emit_csv(table, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert "0.333333333333" in text  # 12 significant digits
        assert "true" in text and "false" in text
        assert "nan" in text

    def test_newlines_are_unix(self, tmp_path):
        path = tmp_path / "nl.csv"
        emit_csv(run_sweep(with_points(preset("fig1"), 3)), path)
        assert b"\r" not in path.read_bytes()
