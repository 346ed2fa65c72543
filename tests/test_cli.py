import hashlib
import re
import subprocess
import sys

import pytest

from gadengine.cli import main
from gadengine.sweeps import PRESET_NAMES, PRESETS, REPORT_ENGINES, preset


def run_cli(*args):
    return main(list(args))


class TestSweepCommand:
    def test_preset_to_file(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("sweep", "fig1", "--points", "11", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("pg,pe,f,gamma,k,dh,dc,")
        assert len(lines) == 1 + 5 * 11

    def test_stdout_default(self, capsys):
        assert run_cli("sweep", "fig3", "--points", "3") == 0
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1 + 4 * 3

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli(
            "sweep", "fig1", "--points", "3", "--set", "pg=0.8", "--out", str(out)
        ) == 0
        assert ",0.8," not in out.read_text().splitlines()[0]
        first_row = out.read_text().splitlines()[1].split(",")
        assert first_row[0] == "0.8"

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "target=work_vs_f\n"
            "sweep=f:0:1:5\n"
            "series=gamma:0.5,1\n"
            "pg=0.9\n"
            "dh=1\n"
            "dc=0.5\n"
            "# comment line\n"
        )
        out = tmp_path / "out.csv"
        assert run_cli("sweep", str(spec), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 5

    def test_unknown_preset_is_bad_input(self, capsys):
        assert run_cli("sweep", "fig99") == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_set_is_bad_input(self, capsys):
        assert run_cli("sweep", "fig1", "--set", "pg") == 2

    def test_hash_in_a_set_value_is_no_comment(self, capsys):
        assert run_cli("sweep", "fig1", "--points", "3", "--set", "pg=0.5#x") == 2
        assert "pg must be a number, got '0.5#x'" in capsys.readouterr().err

    def test_set_cannot_change_the_target(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli("sweep", "fig1", "--points", "3", "--set", "target=work_vs_pg",
                       "--out", str(out)) == 2
        assert "'target'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("sweep", "f:0:1:2.5"), ("sweep", "f:0:abc:3"),
                                            ("series", "gamma:0.1,x"), ("sweep", "f:0:inf:3"),
                                            ("sweep", "f:-inf:1:3"), ("sweep", "f:nan:1:3"),
                                            ("sweep", "f:-1e308:1e308:3")])
    def test_malformed_axis_names_its_key(self, tmp_path, capsys, recwarn, key, value):
        out = tmp_path / "out.csv"
        assert run_cli("sweep", "fig1", "--points", "3", "--set", f"{key}={value}",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key} must ", err)
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_non_finite_sweep_bound_in_a_spec_file(self, tmp_path, capsys, recwarn):
        spec = tmp_path / "spec.txt"
        spec.write_text("".join(f"{key}={value}\n" for key, value in PRESETS["fig1"].items()
                                if key != "sweep") + "sweep=f:0:inf:3\n")
        assert run_cli("sweep", str(spec)) == 2
        assert "sweep must have finite bounds" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_written_as_spec_file_gives_the_same_bytes(self, tmp_path, capsys, name):
        spec = tmp_path / f"{name}.txt"
        spec.write_text("".join(f"{key}={value}\n" for key, value in PRESETS[name].items()))
        assert run_cli("sweep", name, "--points", "21") == 0
        from_preset = capsys.readouterr().out
        assert run_cli("sweep", str(spec), "--points", "21") == 0
        assert capsys.readouterr().out == from_preset

    def test_unwritable_out_is_bad_input(self, tmp_path, capsys):
        assert run_cli("sweep", "fig1", "--points", "3",
                       "--out", str(tmp_path / "no" / "dir.csv")) == 2

    @pytest.mark.parametrize("name, key", [("fig1", "dh"), ("fig1", "dc"), ("fig6", "dh10")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_gap_is_bad_input(self, tmp_path, capsys, name, key, value):
        out = tmp_path / "out.csv"
        assert run_cli("sweep", name, "--points", "5", "--set", f"{key}={value}",
                       "--out", str(out)) == 2
        assert f"{key}={value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6"])
    def test_series_on_two_part_target_is_bad_input(self, tmp_path, capsys, name):
        out = tmp_path / "out.csv"
        assert run_cli("sweep", name, "--points", "3", "--set", "series=k:0.1,0.9",
                       "--out", str(out)) == 2
        assert "series parameter 'k'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [("sweep", "fig5"), ("sweep", "fig6"), ("ergomap",)])
    def test_swept_name_other_than_f_is_bad_input(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert run_cli(*command, "--points", "3", "--set", "sweep=pg:0:1:3",
                       "--out", str(out)) == 2
        assert "swept parameter 'pg'" in capsys.readouterr().err
        assert not out.exists()

    def test_two_part_qubit_target_sweeps_any_qubit_parameter(self, capsys):
        assert run_cli("sweep", "fig4", "--points", "3", "--set", "sweep=pg:0:1:3",
                       "--set", "f=0.5") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.5", "1"] * 2


@pytest.mark.parametrize("command", [("sweep", "fig1"), ("ergomap",)])
@pytest.mark.parametrize("points", ["0", "-3", "1"])
def test_too_few_points_is_bad_input(tmp_path, capsys, command, points):
    out = tmp_path / "out.csv"
    assert run_cli(*command, "--points", points, "--out", str(out)) == 2
    assert f"f needs at least 2 points, got {points}" in capsys.readouterr().err
    assert not out.exists()


def _rejected_by_argparse(*args) -> int:
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    return exc.value.code


class TestValidateCommand:
    def test_stock_build_passes(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "FAIL" not in out.replace("FAILED", "")

    def test_paper_literal_fails(self, capsys):
        assert run_cli("validate", "--paper-literal") == 1
        out = capsys.readouterr().out
        assert "FAIL qutrit_channel_completeness_uncorrected_f3" in out
        assert "FAIL noncyclic_populations_composition_uncorrected_pe" in out

    @pytest.mark.parametrize("flag", [("--out", "v.csv"), ("--points", "7"),
                                      ("--set", "bogus=nan")])
    def test_takes_no_output_flags(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert _rejected_by_argparse("validate", *flag) == 2
        assert flag[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestErgomapCommand:
    def test_default_diff_map(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--points", "9", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "f,t,w_qutrit,w_qubit,dw"
        assert len(lines) == header_idx + 1 + 9 * 9

    def test_single_system_map(self, tmp_path):
        out = tmp_path / "qb.csv"
        assert run_cli("ergomap", "--points", "5", "--set", "system=qubit",
                       "--set", "tmax=3.0", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert "# system_dim=2" in lines
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "f,t,value"

    def test_infeasible_grid_is_bad_input(self, capsys):
        assert run_cli("ergomap", "--points", "5", "--set", "system=qutrit",
                       "--set", "tmax=10") == 2
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("tmax", ["nan", "inf"])
    def test_non_finite_tmax_is_bad_input(self, tmp_path, capsys, tmax):
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--points", "5", "--set", "system=qubit",
                       "--set", f"tmax={tmax}", "--out", str(out)) == 2
        assert "tmax" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_is_bad_input(self, tmp_path, capsys, rate):
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--points", "5", "--set", "system=qubit",
                       "--set", f"rate={rate}", "--out", str(out)) == 2
        assert "rates" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("system, key, value", [
        ("qubit", "pg", "1.7"), ("qubit", "pg", "-0.2"), ("qubit", "pg", "nan"),
        ("qutrit", "p0", "0.5"), ("qutrit", "p1", "0.3"), ("qutrit", "p2", "-inf"),
        ("diff", "pg", "1.5"), ("diff", "p2", "0.5"),
    ])
    def test_invalid_population_is_bad_input(self, tmp_path, capsys, system, key, value):
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--points", "5", "--set", f"system={system}",
                       "--set", f"{key}={value}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{key}={value}" in err and "initial populations" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "3.9", "1"])
    def test_bad_tpoints_is_bad_input(self, tmp_path, capsys, value):
        # --points would overwrite tpoints, so the run is shrunk with sweep=...
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--set", "sweep=f:0:1:3", "--set", f"tpoints={value}",
                       "--out", str(out)) == 2
        assert "tpoints must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_tpoints_accepted(self, capsys):
        assert run_cli("ergomap", "--set", "sweep=f:0:1:3", "--set", "tpoints=4.0") == 0
        assert len(capsys.readouterr().out.splitlines()) == 10 + 3 * 4

    @pytest.mark.parametrize("value", ["7", "2.9", "3.5", "nan", "inf", "0"])
    def test_bad_dim_is_bad_input(self, tmp_path, capsys, value):
        spec = tmp_path / "spec.txt"
        spec.write_text("target=ergotropy_map\nsweep=f:0:1:3\npg=0.2\n"
                        f"p0=0.1\np1=0.3\np2=0.6\ndim={value}\n")
        out = tmp_path / "map.csv"
        assert run_cli("sweep", str(spec), "--out", str(out)) == 2
        assert "dim must be 2 or 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system", [(), ("--set", "system=qubit"), ("--set", "system=qutrit")])
    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_dim_on_ergomap_is_bad_input(self, tmp_path, capsys, system, dim):
        # system chooses the medium; a dim beside it would be one more way to say it
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--points", "3", *system, "--set", f"dim={dim}",
                       "--out", str(out)) == 2
        assert "parameter 'dim' does not apply" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, key", [
        *(("qubit", key) for key in ("p0", "p1", "p2", "rate1", "rate2", "gap10", "gap20")),
        *(("qutrit", key) for key in ("pg", "rate", "gap")),
    ])
    def test_other_medium_key_is_bad_input(self, tmp_path, capsys, system, key):
        out = tmp_path / "map.csv"
        assert run_cli("ergomap", "--points", "3", "--set", f"system={system}",
                       "--set", f"{key}=0.5", "--out", str(out)) == 2
        assert f"parameter {key!r} does not apply" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim, key", [("2", "p0"), ("2", "gap20"), ("3", "pg"), ("3", "rate")])
    def test_other_medium_key_in_spec_file_is_bad_input(self, tmp_path, capsys, dim, key):
        spec = tmp_path / "spec.txt"
        populations = "pg=1\n" if dim == "2" else "p0=1\np1=0\np2=0\n"
        spec.write_text(f"target=ergotropy_map\nsweep=f:0:1:3\ndim={dim}\n"
                        f"{populations}{key}=0.5\n")
        out = tmp_path / "map.csv"
        assert run_cli("sweep", str(spec), "--out", str(out)) == 2
        assert f"parameter {key!r} does not apply to a dim={dim} map" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_population_is_bad_input(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("target=ergotropy_map\nsweep=f:0:1:3\n")
        assert run_cli("sweep", str(spec)) == 2
        assert "parameter 'pg' is not set" in capsys.readouterr().err


NON_FINITE = ("nan", "inf", "-inf")
# the non-finite numbers, then values that are no number
BAD_VALUES = NON_FINITE + ("abc", "")


def _names_key(err: str, key: str, value: str) -> bool:
    """The error names the key with its value (key=value) or as the subject (key must ...)."""
    return re.search(rf"\b{key}(={re.escape(value)}\b| must )", err) is not None


@pytest.mark.parametrize("value", BAD_VALUES, ids=lambda value: value or "empty")
@pytest.mark.parametrize("name, key", [(name, key) for name in PRESET_NAMES
                                       for key in sorted(preset(name).fixed_params)])
def test_non_finite_preset_key_is_bad_input(tmp_path, capsys, name, key, value):
    swept = preset(name).swept
    out = tmp_path / "out.csv"
    assert run_cli("sweep", name, "--set", f"sweep={swept.name}:{swept.start:g}:{swept.stop:g}:3",
                   "--set", f"{key}={value}", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert _names_key(err, key, value), err
    assert not out.exists()


# sha256 of outputs that no change to the input path may alter
@pytest.mark.parametrize("args, digest", [
    (("ergomap", "--points", "41", "--set", "system=qubit"),
     "73b93bf88d549c2c2c331a0182688659e7cd0c3532a96e4bcce76c001ca65b09"),
    (("ergomap", "--points", "41", "--set", "system=qutrit"),
     "a6ab1b18a07a75f6ebdc2d793017c834456837aa51dc26945c06e49631e49083"),
    (("sweep", "fig5", "--points", "21", "--paper-literal"),
     "5a6136a777460a15f2bf5f6e56360bb2b06d4bba5a17e5f1ded66a7375ac1f0c"),
    (("sweep", "fig6", "--points", "21", "--paper-literal"),
     "180f7179cae1c2766653027811bc568fbb64700b4e813f9e4db2493080129a46"),
], ids=["qubit", "qutrit", "fig5-literal", "fig6-literal"])
def test_output_bytes_hold(capsys, args, digest):
    assert run_cli(*args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestPaperLiteralFlag:
    @pytest.mark.parametrize("command", [
        ("ergomap",),
        ("sweep", "fig1"), ("sweep", "fig2"), ("sweep", "fig3"), ("sweep", "fig4"),
        ("sweep", "fig7"),
    ])
    def test_rejected_where_no_literal_variant(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert run_cli(*command, "--points", "5", "--paper-literal", "--out", str(out)) == 2
        assert "--paper-literal" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_mixed_presets_add_literal_column(self, tmp_path, name):
        out = tmp_path / "out.csv"
        assert run_cli("sweep", name, "--points", "5", "--paper-literal", "--out", str(out)) == 0
        assert out.read_text().splitlines()[0].endswith(",q_cold_literal")


_QUBIT_PARAMS = "pg=0.9\nf=0.2\ngamma=0.5\ndh=1\ndc=0.5\n"
_REPORT_PARAMS = {
    "cyclic": _QUBIT_PARAMS,
    "noncyclic": _QUBIT_PARAMS,
    "qutrit": "p0=0.6\np1=0.3\np2=0.1\nf=0.4\nlam1=0.3\nlam2=0.25\nk1=0.2\nk2=0.35\n"
              "dh10=1\ndh20=2\ndc10=0.5\ndc20=1\n",
}


class TestReportCommand:
    def test_cyclic_report(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text(
            "engine=cyclic\npg=0.9\nf=0.2\ngamma=0.5\nk=1\ndh=1\ndc=0.5\n"
        )
        assert run_cli("report", str(spec)) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["work"]) == pytest.approx(0.175, abs=1e-12)
        assert float(row["efficiency"]) == pytest.approx(0.5, abs=1e-12)
        assert row["cyclic"] == "true"

    def test_qutrit_report_with_literal_column(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text(
            "engine=qutrit\np0=0.6\np1=0.3\np2=0.1\nf=0.4\n"
            "lam1=0.3\nlam2=0.25\nk1=0.2\nk2=0.35\n"
            "dh10=1\ndh20=2\ndc10=0.5\ndc20=1\n"
        )
        assert run_cli("report", str(spec)) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "q_cold_literal" not in header
        assert run_cli("report", str(spec), "--paper-literal") == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("q_cold_literal")

    def test_missing_engine_is_bad_input(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text("pg=0.9\nf=0.2\ngamma=0.5\n")
        assert run_cli("report", str(spec)) == 2

    def test_missing_file_is_bad_input(self, capsys):
        assert run_cli("report", "/nonexistent/file.txt") == 2

    def test_takes_no_points_flag(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text("engine=cyclic\n" + _QUBIT_PARAMS)
        assert _rejected_by_argparse("report", str(spec), "--points", "99") == 2
        assert "--points" in capsys.readouterr().err

    def test_set_overrides_a_file_key(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text("engine=cyclic\n" + _QUBIT_PARAMS)
        assert run_cli("report", str(spec), "--set", "f=0.3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert dict(zip(lines[0].split(","), lines[1].split(",")))["f"] == "0.3"

    @pytest.mark.parametrize("engine, extra, key", [
        ("cyclic", "lam1=7\nbogus=3\n", "lam1"),
        ("noncyclic", "bogus=3\n", "bogus"),
        ("qutrit", "pg=0.9\n", "pg"),
    ])
    def test_unknown_key_is_bad_input(self, tmp_path, capsys, engine, extra, key):
        spec = tmp_path / "run.txt"
        spec.write_text(f"engine={engine}\n" + _REPORT_PARAMS[engine] + extra)
        out = tmp_path / "out.csv"
        assert run_cli("report", str(spec), "--out", str(out)) == 2
        assert f"parameter {key!r} does not apply to engine {engine!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_set_without_equals_is_malformed(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text("engine=cyclic\n" + _QUBIT_PARAMS)
        assert run_cli("report", str(spec), "--set", "dh") == 2
        assert "expected key=value, got 'dh'" in capsys.readouterr().err

    def test_missing_key_is_bad_input(self, tmp_path, capsys):
        spec = tmp_path / "run.txt"
        spec.write_text("engine=cyclic\npg=0.9\nf=0.2\ngamma=0.5\ndh=1\n")
        assert run_cli("report", str(spec)) == 2
        assert "parameter 'dc' is not set" in capsys.readouterr().err


def _engine_keys(engine):
    """The keys of an engine's report file, and the qubit engines' optional k."""
    keys = [line.split("=")[0] for line in _REPORT_PARAMS[engine].split()]
    return keys + (["k"] if engine != "qutrit" else [])


_REPORT_KEYS = [(engine, key) for engine in REPORT_ENGINES for key in _engine_keys(engine)]


@pytest.mark.parametrize("value", BAD_VALUES, ids=lambda value: value or "empty")
@pytest.mark.parametrize("engine, key", _REPORT_KEYS)
def test_non_finite_report_key_is_bad_input(tmp_path, capsys, engine, key, value):
    spec = tmp_path / "run.txt"
    spec.write_text(f"engine={engine}\n" + _REPORT_PARAMS[engine])
    out = tmp_path / "out.csv"
    assert run_cli("report", str(spec), "--set", f"{key}={value}", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert _names_key(err, key, value), err
    assert not out.exists()


class TestEndToEnd:
    def test_module_entrypoint(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gadengine", "sweep", "fig1",
             "--points", "5", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
