import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("alphas, message", [
    ("0.6", "each alpha must lie in (0, 1/2), got 0.6"),
    ("0", "each alpha must lie in (0, 1/2), got 0.0"),
    ("x", "--alphas must be comma-separated numbers, got 'x'"),
    ("0.1,,0.2", "--alphas must be comma-separated numbers, got '0.1,,0.2'"),
])
def test_trait_sweep_rejects_bad_alphas_before_sweeping(alphas, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trait_sweep.py"), "--alphas", alphas],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(f"trait_sweep.py: error: {message}\n")
