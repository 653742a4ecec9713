import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qso

ROOT = Path(__file__).resolve().parent.parent


def assert_rejected_before_output(script, args, message):
    # the scripts import the qso these tests import: the source tree or an installed copy
    env = {**os.environ, "PYTHONPATH": str(Path(qso.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(f"{script}: error: {message}\n")


@pytest.mark.parametrize("alphas, message", [
    ("0.6", "each alpha must lie in (0, 1/2), got 0.6"),
    ("0", "each alpha must lie in (0, 1/2), got 0.0"),
    ("x", "--alphas must be comma-separated numbers, got 'x'"),
    ("0.1,,0.2", "--alphas must be comma-separated numbers, got '0.1,,0.2'"),
])
def test_trait_sweep_rejects_bad_alphas_before_sweeping(alphas, message):
    assert_rejected_before_output("trait_sweep.py", ["--alphas", alphas], message)


@pytest.mark.parametrize("script, args, message", [
    ("blood_groups.py", ["--tol", "-1"], "--tol must be positive, got -1.0"),
    ("blood_groups.py", ["--tol", "0"], "--tol must be positive, got 0.0"),
    ("blood_groups.py", ["--tol", "nan"], "--tol must be positive, got nan"),
    ("trait_sweep.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
])
def test_scripts_reject_bad_numbers_before_output(script, args, message):
    assert_rejected_before_output(script, args, message)


def test_sources_parse_under_the_declared_python_floor():
    """CI runs a newer Python than the oldest ``requires-python`` admits, so
    parse every module and script with that floor's grammar: ``except*``
    fails here."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    paths = sorted((ROOT / "src" / "qso").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))
