"""Golden CLI outputs: exit codes and stdout SHA-256 digests pinned in
``cli_golden.json``, so a change that moves one printed digit, or one exit
code, fails here even when both commits agree with themselves.

The digests were recorded with NumPy 2.4 on x86-64.  After a deliberate
output change, rewrite the table with ``PYTHONPATH=src python
tests/test_cli_golden.py`` and review its diff before committing it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qso.cli import main
from qso.models import _table_path

GOLDEN = Path(__file__).with_name("cli_golden.json")
EXPECTED = json.loads(GOLDEN.read_text())

# the 16-row Rh counts file of the CI's ingest round trip
RH_COUNTS = """\
# space: +,-
mother,father,child_gender,child_type,count
+,+,f,+,985
+,+,f,-,15
+,+,m,+,985
+,+,m,-,15
+,-,f,+,646
+,-,f,-,354
+,-,m,+,646
+,-,m,-,354
-,+,f,+,655
-,+,f,-,345
-,+,m,+,655
-,+,m,-,345
-,-,f,+,100
-,-,f,-,900
-,-,m,+,100
-,-,m,-,900
"""

INVOCATIONS = {
    "run-trait-0.2499-csv": ["run", "--model", "trait", "--alpha", "0.2499"],
    "run-rh-random42-json": ["run", "--model", "rh", "--start", "random:42",
                             "--format", "json", "--stride", "100"],
    "run-multi-json": ["run", "--model", "multi", "--alphas", "0.2,0.2,0.05,0.05",
                       "--format", "json"],
    "fixpoint-abo": ["fixpoint", "--model", "abo"],
    "fixpoint-rh": ["fixpoint", "--model", "rh"],
    "fixpoint-trait-0.25": ["fixpoint", "--model", "trait", "--alpha", "0.25"],
    "validate-rh-1e-3": ["validate", "{rh}", "--tol", "1e-3"],
    "validate-rh-1e-6": ["validate", "{rh}", "--tol", "1e-6"],
    "validate-abo-1e-3": ["validate", "{abo}", "--tol", "1e-3"],
    "validate-abo-1e-6": ["validate", "{abo}", "--tol", "1e-6"],
    "fixpoint-coeff-file-ingested": ["fixpoint", "--coeff-file", "{family}"],
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def golden_outputs(workdir: Path) -> dict:
    """Exit code and digest of every pinned invocation; the ingest entry
    digests the written family file, whose path stdout would print."""
    counts, family = workdir / "counts.csv", workdir / "family.csv"
    counts.write_text(RH_COUNTS)
    code, _ = _run(["ingest", str(counts), str(family)])
    results = {"ingest-rh-counts": {
        "exit": code, "sha256": hashlib.sha256(family.read_bytes()).hexdigest()}}
    paths = {"rh": str(_table_path("rh.csv")), "abo": str(_table_path("abo.csv")),
             "family": str(family)}
    for name, argv in INVOCATIONS.items():
        code, digest = _run([arg.format(**paths) for arg in argv])
        results[name] = {"exit": code, "sha256": digest}
    code, _ = _run(["run", "--model", "rh", "--start", "0.5,0.6"])
    results["run-rh-start-off-simplex"] = {"exit": code}
    return results


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_output_matches_golden(outputs, name):
    assert outputs[name] == EXPECTED[name]


def test_golden_covers_every_invocation(outputs):
    assert set(outputs) == set(EXPECTED)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = golden_outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
