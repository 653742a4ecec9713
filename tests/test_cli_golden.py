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

from helpers import RH_COUNTS

GOLDEN = Path(__file__).with_name("cli_golden.json")
EXPECTED = json.loads(GOLDEN.read_text())

# the same counts with padded fields, a comment and a blank line between rows,
# and CRLF endings: the per-line reader's input, which must ingest to the
# bytes of the canonical file's family
_odd = RH_COUNTS.splitlines()
_odd[4] = " " + _odd[4].replace(",", " , ")
_odd[8:8] = ["# a comment between rows", ""]
ODD_RH_COUNTS = "\r\n".join(_odd) + "\r\n"

# one male count off by 1e-6: the (+, +) pair's halves differ by 5e-10, under
# the 1e-9 asymmetry bound, so it ingests without --symmetrize and that pair's
# halves are written from their own values while the other pairs share theirs
NEAR_RH_COUNTS = RH_COUNTS.replace("+,+,m,+,985", "+,+,m,+,985.000001")

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
    # n = 3, a boundary point whose polish tries halving candidates that
    # leave the simplex
    "fixpoint-multi-0.25,0.15,0.1": ["fixpoint", "--model", "multi",
                                     "--alphas", "0.25,0.15,0.1"],
    # n = 5, a polish whose halving images go through the einsum step
    "fixpoint-multi-0.2,0.1,0.1,0.05,0.05": ["fixpoint", "--model", "multi",
                                             "--alphas", "0.2,0.1,0.1,0.05,0.05"],
    "fixpoint-abo-random7": ["fixpoint", "--model", "abo", "--start", "random:7"],
    "run-abo-3000-stride7-csv": ["run", "--model", "abo", "--max-iters", "3000",
                                 "--stride", "7"],
    # a start 1e-12 outside the simplex doubles away from it until a step's
    # total is zero: the run prints its NaN rows with no warning, and the
    # fixpoint stops with an error before any LAPACK call
    "run-trait-0.1-leaves-simplex": ["run", "--model", "trait", "--alpha", "0.1",
                                     "--start", "1.000000000001,-1e-12", "--tol", "1e-300",
                                     "--max-iters", "200"],
    "fixpoint-trait-0.1-leaves-simplex": ["fixpoint", "--model", "trait", "--alpha", "0.1",
                                          "--start", "1.000000000001,-1e-12"],
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def golden_outputs(workdir: Path) -> dict:
    """Exit code and digest of every pinned invocation; the ingest entries
    digest the written family file, whose path stdout would print."""
    results = {}
    for name, text in (("ingest-rh-counts", RH_COUNTS), ("ingest-rh-counts-odd", ODD_RH_COUNTS),
                       ("ingest-rh-counts-near-symmetric", NEAR_RH_COUNTS)):
        counts, family = workdir / f"{name}.csv", workdir / f"{name}-family.csv"
        counts.write_bytes(text.encode())
        code, _ = _run(["ingest", str(counts), str(family)])
        results[name] = {"exit": code, "sha256": hashlib.sha256(family.read_bytes()).hexdigest()}
    paths = {"rh": str(_table_path("rh.csv")), "abo": str(_table_path("abo.csv")),
             "family": str(workdir / "ingest-rh-counts-family.csv")}
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
