"""Every declared runtime dependency must import in the test environment."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_import():
    with PYPROJECT.open("rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    assert requirements
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_").lower())
