"""The benchmark still runs: e2ebench looks up names in the package and imports from its CLI."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPORT_FILE = "engine=cyclic\npg=0.9\nf=0.2\ngamma=0.5\ndh=1\ndc=0.5\n"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# (command, lines of its CSV)
@pytest.mark.parametrize("command, lines", [
    (("sweep", "fig1", "--points", "5"), 26),
    (("sweep", "fig6", "--points", "5"), 11),
    (("ergomap", "--points", "5"), 35),
    (("report", "{report}"), 2),
], ids=["fig1", "fig6", "ergomap", "report"])
def test_tracer_runs_a_sweep(tmp_path, command, lines):
    spec = tmp_path / "report.txt"
    spec.write_text(REPORT_FILE)
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "tracer.py"), str(report), "--",
         *(arg.format(report=spec) for arg in command), "--out", str(tmp_path / "out.csv")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert report.exists()
    assert (tmp_path / "out.csv").read_text().count("\n") == lines


def _setup_probe() -> str:
    """The source of the setup probe that e2ebench/run.py runs in fresh processes."""
    tree = ast.parse((ROOT / "e2ebench" / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_SETUP_PROBE")


def test_setup_probe_imports_from_the_cli():
    probe = _setup_probe()
    assert "from gadengine.cli import preset, with_points" in probe
    presets = [f"fig{i}:0" for i in range(1, 8)] + ["fig7:21"]
    proc = subprocess.run([sys.executable, "-c", probe, *presets], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
