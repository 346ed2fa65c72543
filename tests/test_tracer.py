"""The traced benchmark still runs: e2ebench/tracer.py wraps names it looks up in the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("preset", ["fig1", "fig6"])
def test_tracer_runs_a_sweep(tmp_path, preset):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "tracer.py"), str(report), "--",
         "sweep", preset, "--points", "5", "--out", str(tmp_path / "out.csv")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert report.exists()
    assert (tmp_path / "out.csv").read_text().count("\n") > 5
