import json
import subprocess
import sys

import numpy as np
import pytest

import qso
from qso import cli
from qso.cli import main, random_simplex_point
from qso.dynamics import Trajectory, iterate
from qso.models import _table_path

from helpers import RH_COUNTS, cyclic_shift_operator, random_regular_qso, random_simplex, rng


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_csv_row(out):
    line = out.strip().splitlines()[-1]
    parts = line.split(",")
    return int(parts[0]), [float(v) for v in parts[1:]]


# --- run ---------------------------------------------------------------------

def test_run_trait_low_alpha_converges_to_second_vertex(capsys):
    code, out, _ = run_cli(capsys, "run", "--model", "trait", "--alpha", "0.1",
                           "--start", "uniform", "--stride", "50")
    assert code == 0
    _, final = last_csv_row(out)
    assert abs(final[0]) < 1e-9 and abs(final[1] - 1.0) < 1e-9


def test_run_rh_reaches_quadratic_root(capsys):
    code, out, _ = run_cli(capsys, "run", "--model", "rh", "--start", "uniform",
                           "--stride", "50")
    assert code == 0
    _, final = last_csv_row(out)
    q, _ = qso.rh_model()
    a, b, c = float(q.p[0, 0, 0]), float(q.p[0, 1, 0]), float(q.p[1, 1, 0])
    roots = np.roots([a - 2 * b + c, 2 * b - 2 * c - 1, c])
    root = next(r.real for r in roots if 0 <= r.real <= 1)
    assert final[0] == pytest.approx(root, abs=1e-9)


def test_run_identity_echoes_input(capsys):
    code, out, _ = run_cli(capsys, "run", "--model", "trait", "--alpha", "0.25",
                           "--start", "0.3,0.7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "iter,y1,y2"
    assert len(lines) == 3  # start and the single converged step
    _, final = last_csv_row(out)
    assert final == [0.3, 0.7]


def row_by_row_csv(traj):
    """The ``run`` CSV written one row at a time, as the CLI once wrote it."""
    n = traj.points.shape[1]
    line = "%d" + ",%.12g" * n + "\n"
    rows = zip(traj.indices.tolist(), traj.points.tolist())
    return ("iter," + ",".join(f"y{k + 1}" for k in range(n)) + "\n"
            + "".join(line % (k, *point) for k, point in rows))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_csv_matches_the_row_by_row_writer(n):
    gen = rng(300 + n)
    operators = [random_regular_qso(gen, n)] + [cyclic_shift_operator(n)] * (n > 1)
    for q in operators:
        start = qso.ReducedDistribution(random_simplex(gen, n))
        for stride in (1, 7, 10**6):
            for budget in (0, 1, 1025):
                traj = iterate(q, start, max_iters=budget, tol=1e-300, stride=stride)
                assert cli._csv(traj) == row_by_row_csv(traj)
    odd = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e300, 0.1]
    points = np.resize(odd, (len(odd) + 1, n))
    traj = Trajectory(points, np.arange(len(points)) * 10**6, False, 10**6, np.nan)
    assert cli._csv(traj) == row_by_row_csv(traj)
    assert "inf" in cli._csv(traj) and "nan" in cli._csv(traj)


def test_run_json_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--model", "trait", "--alpha", "0.4",
                           "--start", "uniform", "--format", "json", "--stride", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["final_residual"] < 1e-12
    assert payload["points"][-1][0] == pytest.approx(1.0, abs=1e-9)
    assert payload["indices"][-1] == payload["iterations"]


def test_run_nonconvergence_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "--model", "rh", "--start", "uniform",
                           "--max-iters", "3")
    assert code == 2


def test_run_stride_subsamples(capsys):
    code, out, _ = run_cli(capsys, "run", "--model", "rh", "--start", "uniform",
                           "--stride", "10")
    rows = out.strip().splitlines()[1:]
    iters = [int(r.split(",")[0]) for r in rows]
    assert iters[0] == 0
    assert all(b - a == 10 for a, b in zip(iters[:-2], iters[1:-1]))


# --- fixpoint ----------------------------------------------------------------

def test_fixpoint_abo(capsys):
    code, out, _ = run_cli(capsys, "fixpoint", "--model", "abo")
    assert code == 0
    payload = json.loads(out)
    target = [0.084, 0.516, 0.058, 0.342]
    assert np.abs(np.array(payload["point"]) - target).max() < 5e-3
    assert payload["classification"] == "attracting"
    assert payload["regularity"]["holds"] is False
    assert "delta" not in payload  # n = 4


def test_fixpoint_trait_identity_is_neutral(capsys):
    code, out, _ = run_cli(capsys, "fixpoint", "--model", "trait", "--alpha", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "neutral"


def test_fixpoint_rh_reports_delta(capsys):
    code, out, _ = run_cli(capsys, "fixpoint", "--model", "rh")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(0.0964, abs=5e-4)
    assert payload["point"][0] == pytest.approx(0.95286, abs=1e-3)


def test_fixpoint_nonconvergence_partial_report(capsys):
    code, out, _ = run_cli(capsys, "fixpoint", "--model", "rh", "--max-iters", "0",
                           "--tol", "1e-30")
    assert code == 2
    payload = json.loads(out)
    assert payload["residual"] > 1e-30


def strict_json(text):
    """Parse JSON, refusing the NaN/Infinity tokens that json.loads accepts."""
    def refuse(token):
        raise ValueError(f"{token} is not valid JSON")
    return json.loads(text, parse_constant=refuse)


def test_fixpoint_one_allele_space_emits_valid_json(capsys, tmp_path):
    # one type: the tangent space is empty, so the spectral radius is undefined
    path = tmp_path / "one.csv"
    family = qso.MeasureFamily(qso.build_space([["A"]]), np.array([[[0.5, 0.5]]]))
    qso.save_measure_family(family, path)
    code, out, _ = run_cli(capsys, "fixpoint", "--coeff-file", str(path))
    assert code == 0
    payload = strict_json(out)
    assert payload["jacobian_spectral_radius"] is None
    assert payload["classification"] == "undetermined"
    assert payload["point"] == [1.0]


def test_run_then_fixpoint_residual_within_run_tolerance(capsys):
    tol = 1e-10
    code, out, _ = run_cli(capsys, "run", "--model", "abo", "--start", "uniform",
                           "--tol", str(tol), "--stride", "1000")
    assert code == 0
    _, final = last_csv_row(out)
    code, out, _ = run_cli(capsys, "fixpoint", "--model", "abo",
                           "--start", ",".join(str(v) for v in final),
                           "--tol", str(tol))
    assert code == 0
    assert json.loads(out)["residual"] <= tol


# --- validate / ingest ----------------------------------------------------------

def test_validate_embedded_tables(capsys):
    code, out, _ = run_cli(capsys, "validate", str(_table_path("rh.csv")))
    assert code == 0
    assert out.startswith("ok")
    code, out, _ = run_cli(capsys, "validate", str(_table_path("abo.csv")))
    assert code == 0


def test_validate_flags_perturbed_file(capsys, tmp_path):
    text = _table_path("rh.csv").read_text()
    bad = tmp_path / "rh_bad.csv"
    bad.write_text(text.replace("+,+,f,+,0.4925", "+,+,f,+,0.6925"))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "normalization" in out
    assert "+ x +" in out


def test_validate_tolerance_flag(capsys):
    code, out, _ = run_cli(capsys, "validate", str(_table_path("abo.csv")),
                           "--tol", "1e-6")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_validate_rejects_a_negative_or_nan_tolerance(capsys, tol):
    code, out, err = run_cli(capsys, "validate", str(_table_path("abo.csv")), "--tol", tol)
    assert code == 1
    assert out == ""
    assert "tolerance must be >= 0" in err


def test_fixpoint_rejects_a_nan_tolerance(capsys):
    code, out, err = run_cli(capsys, "fixpoint", "--model", "abo", "--tol", "nan")
    assert code == 1
    assert out == ""
    assert "tol must be positive" in err


def test_ingest_then_validate(capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    lines = ["# space: +,-", "mother,father,child_gender,child_type,count"]
    per_pair = {
        ("+", "+"): (985, 15), ("+", "-"): (646, 354),
        ("-", "+"): (655, 345), ("-", "-"): (100, 900),
    }
    for (mo, fa), (plus, minus) in per_pair.items():
        for g in ("f", "m"):
            lines.append(f"{mo},{fa},{g},+,{plus}")
            lines.append(f"{mo},{fa},{g},-,{minus}")
    counts.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "family.csv"
    code, out, _ = run_cli(capsys, "ingest", str(counts), str(out_path),
                           "--symmetrize")
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(out_path))
    assert code == 0
    family = qso.load_measure_family(out_path)
    assert family.mu[0, 0, 0] == 0.4925


def test_run_on_an_ingested_family_prints_valid_json(capsys, tmp_path):
    counts, family = tmp_path / "counts.csv", tmp_path / "family.csv"
    counts.write_text(RH_COUNTS)
    assert run_cli(capsys, "ingest", str(counts), str(family))[0] == 0
    code, out, _ = run_cli(capsys, "run", "--coeff-file", str(family), "--format", "json")
    assert code == 0
    assert strict_json(out)["converged"] is True


def test_coeff_file_model_matches_builtin(capsys, tmp_path):
    exported = tmp_path / "rh.csv"
    qso.export_table("rh", exported)
    code, out_file, _ = run_cli(capsys, "fixpoint", "--coeff-file", str(exported))
    assert code == 0
    code, out_builtin, _ = run_cli(capsys, "fixpoint", "--model", "rh")
    assert code == 0
    assert out_file == out_builtin


def two_type_table(path, rows):
    """Write a ``+,-`` coefficient table whose child rows, for each parent
    pair, are the same for both child genders."""
    path.write_text("# space: +,-\nmother,father,child_gender,child_type,value\n" + "".join(
        f"{pair},{gender},{child},{value}\n" for pair, values in rows.items()
        for gender in "fm" for child, value in zip("+-", values)))


def test_fixpoint_on_a_near_identity_table_emits_valid_json(capsys, tmp_path):
    # within validation tolerance, yet its closed-form quadratic has a zero
    # slope and a negligible leading term: not a crash, and the one closed-form
    # fixed point is the vertex y = 1 that a = 1 fixes exactly
    path = tmp_path / "flat.csv"
    rows = {"+,+": ("0.5", "0"), "+,-": ("0.2500000000000005", "0.2499999999999995"),
            "-,+": ("0.2500000000000005", "0.2499999999999995"),
            "-,-": ("5e-16", "0.4999999999999995")}
    two_type_table(path, rows)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and out.startswith("ok")
    code, out, _ = run_cli(capsys, "fixpoint", "--coeff-file", str(path))
    assert code == 0
    payload = strict_json(out)
    assert payload["closed_form_fixed_points"] == [1.0]


def test_fixpoint_reports_the_vertex_double_root_of_a_table(capsys, tmp_path):
    # a = 1, b = 1/2, c = 1/10: y = 1 is a double root whose discriminant
    # rounds below zero; the orbit creeps towards it and the closed form has it
    path = tmp_path / "vertex.csv"
    two_type_table(path, {"+,+": ("0.5", "0"), "+,-": ("0.25", "0.25"),
                          "-,+": ("0.25", "0.25"), "-,-": ("0.05", "0.45")})
    code, out, _ = run_cli(capsys, "fixpoint", "--coeff-file", str(path),
                           "--max-iters", "1000")
    assert code == 0
    payload = strict_json(out)
    assert payload["delta"] == 0.0
    assert payload["closed_form_fixed_points"] == [1.0]
    assert payload["point"][0] == pytest.approx(1.0, abs=1e-7)


# --- determinism and starts --------------------------------------------------------

def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "run", "--model", "abo", "--start", "random:42",
                          "--stride", "100")
    _, second, _ = run_cli(capsys, "run", "--model", "abo", "--start", "random:42",
                           "--stride", "100")
    assert first == second
    _, third, _ = run_cli(capsys, "run", "--model", "abo", "--start", "random:43",
                          "--stride", "100")
    assert first != third


def test_seed_flag_matches_start_spec(capsys):
    _, a, _ = run_cli(capsys, "run", "--model", "rh", "--start", "random",
                      "--seed", "7", "--stride", "25")
    _, b, _ = run_cli(capsys, "run", "--model", "rh", "--start", "random:7",
                      "--stride", "25")
    assert a == b


def test_random_simplex_point_is_documented_algorithm():
    seed = 123
    rng = np.random.Generator(np.random.PCG64(seed))
    e = -np.log(1.0 - rng.random(4))
    assert np.array_equal(random_simplex_point(4, seed), e / e.sum())


def test_numbers_printed_with_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "run", "--model", "rh", "--start", "random:1",
                        "--stride", "1000")
    value = out.strip().splitlines()[1].split(",")[1]
    mantissa = value.replace(".", "").lstrip("0")
    assert len(mantissa) <= 12


# --- error handling -----------------------------------------------------------------

def test_errors_exit_one(capsys, tmp_path):
    # no model source
    code, _, err = run_cli(capsys, "run", "--start", "uniform")
    assert code == 1 and "error:" in err
    # both model sources
    code, _, err = run_cli(capsys, "run", "--model", "rh", "--coeff-file", "x.csv")
    assert code == 1
    # unknown model name
    code, _, err = run_cli(capsys, "run", "--model", "zebra")
    assert code == 1
    # bad start vector
    code, _, err = run_cli(capsys, "run", "--model", "rh", "--start", "0.6,0.6")
    assert code == 1
    code, _, err = run_cli(capsys, "run", "--model", "rh", "--start", "nope")
    assert code == 1
    # wrong length
    code, _, err = run_cli(capsys, "run", "--model", "abo", "--start", "0.5,0.5")
    assert code == 1
    # missing file
    code, _, err = run_cli(capsys, "validate", "does-not-exist.csv")
    assert code == 1
    # a space that repeats an allele, named by its line
    dup = tmp_path / "dup.csv"
    dup.write_text("# space: +,+\nmother,father,child_gender,child_type,value\n")
    code, _, err = run_cli(capsys, "validate", str(dup))
    assert code == 1 and err.startswith("error: line 1: component 0 repeats an allele label")
    # a counts file whose line 3 holds a byte that is not UTF-8, at column 9
    bad = tmp_path / "bad-byte.csv"
    bad.write_bytes(b"# space: +,-\nmother,father,child_gender,child_type,count\n+,+,f,+,\xff\n")
    code, out, err = run_cli(capsys, "ingest", str(bad), str(tmp_path / "family.csv"))
    assert (code, out, err) == (1, "", "error: line 3, column 9: invalid UTF-8 byte 0xff\n")


# a total of huge finite values overflows to inf; NumPy's overflow warning,
# an error under pytest's warnings-as-errors, must not reach the user
@pytest.mark.parametrize("argv,message", [
    (["fixpoint", "--model", "multi", "--alphas", "1e308,1e308"],
     "error: weights must sum to 1/2, got inf"),
    (["fixpoint", "--model", "rh", "--start", "1e308,1e308"], "error: total mass inf != 1"),
])
def test_a_total_that_overflows_is_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", message + "\n")


def test_validate_reports_a_row_sum_that_overflows(capsys, tmp_path):
    text = _table_path("rh.csv").read_text()
    huge = tmp_path / "rh_huge.csv"
    huge.write_text(text.replace("+,+,f,+,0.4925", "+,+,f,+,1e308")
                    .replace("+,+,m,+,0.4925", "+,+,m,+,1e308"))
    assert run_cli(capsys, "validate", str(huge)) == (
        2, "1 violation(s) at tolerance 0.001:\n"
           "  [normalization] pair (+ x +) sums to inf, expected 1\n", "")


# a space of 16 biallelic components needs a 4 PiB family array (NumPy's
# MemoryError) and one of 20 more bytes than an array can hold (its
# "array is too big" ValueError); no smaller size may be used, since 9
# components already fill gigabytes
@pytest.mark.parametrize("components", [16, 20])
@pytest.mark.parametrize("command", ["validate", "ingest", "fixpoint"])
def test_a_space_too_large_to_hold_is_one_error_line(tmp_path, components, command):
    head = f"# space: {';'.join(['a,b'] * components)}\nmother,father,child_gender,child_type,"
    path = tmp_path / "table.csv"
    path.write_text(head + ("count" if command == "ingest" else "value") + "\n")
    argv = {"validate": ["validate", str(path)],
            "ingest": ["ingest", str(path), str(tmp_path / "family.csv")],
            "fixpoint": ["fixpoint", "--coeff-file", str(path)]}[command]
    proc = subprocess.run([sys.executable, "-m", "qso", *argv], capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_bad_random_seed_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "run", "--model", "rh", "--start", "random:x")
    assert (code, out, err) == (1, "", "error: bad seed in start spec 'random:x'\n")


@pytest.mark.parametrize("seed", [["--start", "random", "--seed", "-1"], ["--start", "random:-1"]])
def test_negative_seed_is_one_error_line_naming_it(capsys, seed):
    code, out, err = run_cli(capsys, "run", "--model", "rh", *seed)
    assert (code, out, err) == (1, "", "error: seed must be non-negative, got -1\n")


@pytest.mark.parametrize("command", ["run", "fixpoint"])
def test_a_start_of_the_wrong_length_is_one_error_line(capsys, command):
    code, out, err = run_cli(capsys, command, "--model", "rh", "--start", "0.2,0.3,0.5")
    assert (code, out, err) == (1, "", "error: start has 3 types, operator expects 2\n")


@pytest.mark.parametrize("command", ["run", "fixpoint"])
def test_negative_max_iters_is_one_error_line(command):
    proc = subprocess.run(
        [sys.executable, "-m", "qso", command, "--model", "rh", "--max-iters", "-2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: max_iters must be >= 0\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qso", "fixpoint", "--model", "trait",
         "--alpha", "0.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["point"][1] == pytest.approx(1.0, abs=1e-9)
