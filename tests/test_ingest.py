import contextlib
import copy
import dataclasses
import gc
import io
import itertools
import math
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qso
from qso import (
    CountRow,
    CountsTable,
    build_space,
    estimate_measures,
    load_counts,
    load_measure_family,
    read_measure_family,
    save_counts,
    save_measure_family,
)
from qso import ingest, operators
from qso.cli import main
from qso.errors import (
    AsymmetricMeasure,
    DimensionMismatch,
    InvariantViolation,
    MissingParentPair,
    ParseError,
    QsoError,
    SchemaError,
    ZeroTotal,
)
from qso.genotype import GENDERS

from helpers import random_symmetric_family, rng

RH = build_space([["+", "-"]])


def rh_counts(rows_by_pair):
    rows = []
    for (mo, fa), per_child in rows_by_pair.items():
        for (gender, child), count in per_child.items():
            rows.append(CountRow(mo, fa, gender, child, count))
    return CountsTable(RH, tuple(rows))


def full_counts(value=10.0):
    return {
        (mo, fa): {(g, c): value for g in ("f", "m") for c in ("+", "-")}
        for mo in ("+", "-")
        for fa in ("+", "-")
    }


# --- estimate_measures ---------------------------------------------------------

def test_estimate_reproduces_frequencies():
    table = full_counts()
    table[("+", "+")] = {
        ("m", "+"): 985.0, ("m", "-"): 15.0,
        ("f", "+"): 985.0, ("f", "-"): 15.0,
    }
    family = estimate_measures(RH, rh_counts(table))
    assert family.mu[0, 0].tolist() == [0.4925, 0.0075, 0.4925, 0.0075]


def test_estimate_uniform_counts():
    family = estimate_measures(RH, rh_counts(full_counts(7.0)))
    assert np.allclose(family.mu, 0.25, atol=0)


def test_estimate_symmetrize_pools_genders():
    table = full_counts()
    table[("+", "+")] = {
        ("m", "+"): 99.0, ("f", "+"): 101.0,
        ("m", "-"): 1.0, ("f", "-"): 3.0,
    }
    family = estimate_measures(RH, rh_counts(table), symmetrize=True)
    total = 204.0
    assert family.mu[0, 0, 0] == pytest.approx(100.0 / total, abs=1e-15)
    assert family.mu[0, 0, 2] == pytest.approx(100.0 / total, abs=1e-15)
    assert not family.validate(1e-9)


def test_estimate_rejects_asymmetry_without_symmetrize():
    table = full_counts()
    table[("+", "+")][("f", "+")] = 12.0
    with pytest.raises(AsymmetricMeasure):
        estimate_measures(RH, rh_counts(table))


def test_estimate_missing_pair():
    table = full_counts()
    del table[("-", "+")]
    with pytest.raises(MissingParentPair):
        estimate_measures(RH, rh_counts(table))


def test_estimate_rejects_counts_of_another_space():
    # the labels of RH are all in this space, so only the space check names the fault
    with pytest.raises(DimensionMismatch, match="different space"):
        estimate_measures(build_space([["+", "-", "x"]]), rh_counts(full_counts()))


def test_estimate_accepts_an_equal_space():
    equal = build_space([["+", "-"]])
    assert equal is not RH
    family = estimate_measures(equal, rh_counts(full_counts()))
    assert family.space == RH
    assert family.mu.tobytes() == estimate_measures(RH, rh_counts(full_counts())).mu.tobytes()


def test_estimate_zero_total():
    table = full_counts()
    table[("-", "-")] = {("f", "+"): 0.0, ("m", "+"): 0.0}
    with pytest.raises(ZeroTotal):
        estimate_measures(RH, rh_counts(table))


def test_estimate_rejects_negative_counts():
    table = full_counts()
    table[("+", "-")][("f", "+")] = -1.0
    with pytest.raises(ValueError):
        estimate_measures(RH, rh_counts(table))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_estimate_rejects_non_finite_counts(bad):
    table = full_counts()
    table[("+", "-")][("f", "+")] = bad
    with pytest.raises(ValueError, match="non-finite count"):
        estimate_measures(RH, rh_counts(table))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_save_counts_rejects_what_estimate_rejects(tmp_path, bad):
    # such tables used to be written, and the counts reader then rejected them
    table = full_counts()
    table[("-", "+")][("m", "-")] = bad
    counts = rh_counts(table)
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError) as saved:
        save_counts(counts, path)
    assert not path.exists()
    with pytest.raises(ValueError) as estimated:
        estimate_measures(RH, counts)
    assert str(saved.value) == str(estimated.value)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf")])
def test_measure_family_rejects_infinity(bad):
    # such a family used to save without error and then fail to load
    mu = qso.rh_measure_family().mu.copy()
    mu[0, 0, 0] = bad
    with pytest.raises(ValueError, match=r"non-finite measure value -?inf at index \(0, 0, 0\)"):
        qso.MeasureFamily(RH, mu)


def test_estimate_converges_statistically():
    # frequencies from multinomial samples approach the true measure
    gen = rng(41)
    true = np.array([0.4925, 0.0075, 0.4925, 0.0075])
    n = 1_000_000
    table = full_counts()
    sample = gen.multinomial(n, true)
    table[("+", "+")] = {
        ("f", "+"): float(sample[0]), ("f", "-"): float(sample[1]),
        ("m", "+"): float(sample[2]), ("m", "-"): float(sample[3]),
    }
    family = estimate_measures(RH, rh_counts(table), symmetrize=True)
    est = family.mu[0, 0]
    pooled = np.concatenate([0.5 * (true[:2] + true[2:])] * 2)
    se = np.sqrt(pooled * (1 - pooled) / n)
    assert np.all(np.abs(est - pooled) <= 3 * se + 1e-12)


# --- file round-trips -------------------------------------------------------------

def test_save_load_roundtrip_is_decimal_exact(tmp_path):
    family = random_symmetric_family(rng(42), build_space([["a", "b", "c"]]))
    path = tmp_path / "family.csv"
    save_measure_family(family, path)
    loaded = load_measure_family(path, tol=1e-9)
    assert np.array_equal(loaded.mu, family.mu)


def test_counts_roundtrip(tmp_path):
    table = full_counts(3.0)
    table[("+", "+")][("f", "+")] = 654.6
    counts = rh_counts(table)
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    loaded = load_counts(path)
    assert loaded == counts
    assert loaded.space == RH
    by_key = {(r.mother, r.father, r.child_gender, r.child_type): r.count
              for r in loaded.rows}
    assert by_key[("+", "+", "f", "+")] == 654.6


def test_count_row_is_an_immutable_value():
    row = CountRow("+", "-", "f", "+", 3.0)
    assert row == CountRow(mother="+", father="-", child_gender="f", child_type="+",
                           count=3.0)
    assert (row.mother, row.father, row.child_gender, row.child_type, row.count) == \
        ("+", "-", "f", "+", 3.0)
    assert row != CountRow("+", "-", "f", "+", 4.0)
    assert row != ("+", "-", "f", "+", 3.0)  # a row, not a tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.count = 4.0
    with pytest.raises((AttributeError, TypeError)):
        row.note = "x"  # slots: no other attribute either
    assert not hasattr(row, "__dict__")
    assert hash(row) == hash(CountRow("+", "-", "f", "+", 3.0))
    assert len({row, CountRow("+", "-", "f", "+", 3.0)}) == 1
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row and type(copy) is CountRow
    assert dataclasses.replace(row, count=5.0) == CountRow("+", "-", "f", "+", 5.0)


def write_counts_unchecked(counts, path):
    """The counts file format with no check at all, to see what the reader
    makes of a faulty table."""
    lines = [f"# space: {';'.join(','.join(c) for c in counts.space.components)}",
             "mother,father,child_gender,child_type,count"]
    lines += [f"{r.mother},{r.father},{r.child_gender},{r.child_type},{r.count!r}"
              for r in counts.rows]
    path.write_text("\n".join(lines) + "\n")


def changed(rows, k, **fields):
    return rows[:k] + [dataclasses.replace(rows[k], **fields)] + rows[k + 1:]


# fault -> the rows of the full Rh table with that fault
COUNTS_FAULTS = {
    "first (+, +) row moved to the end": lambda rows: rows[1:] + rows[:1],
    "repeated cell": lambda rows: rows[:2] + rows[1:],
    "unknown mother": lambda rows: changed(rows, 5, mother="?"),
    "unknown father": lambda rows: changed(rows, 5, father="?"),
    "unknown child type": lambda rows: changed(rows, 5, child_type="?"),
    "unknown child gender": lambda rows: changed(rows, 5, child_gender="x"),
    "comma in a label": lambda rows: changed(rows, 5, mother="+,-"),
    "line break in a label": lambda rows: changed(rows, 5, child_type="+\n-"),
    "negative count": lambda rows: changed(rows, 5, count=-1.0),
    "nan count": lambda rows: changed(rows, 5, count=float("nan")),
    "inf count": lambda rows: changed(rows, 5, count=float("inf")),
    "-inf count": lambda rows: changed(rows, 5, count=-float("inf")),
}


@pytest.mark.parametrize("fault", sorted(COUNTS_FAULTS))
def test_save_counts_refuses_every_table_load_counts_rejects(tmp_path, fault):
    counts = CountsTable(RH, tuple(COUNTS_FAULTS[fault](list(rh_counts(full_counts()).rows))))
    unchecked = tmp_path / "unchecked.csv"
    write_counts_unchecked(counts, unchecked)
    with pytest.raises(QsoError) as loaded:
        load_counts(unchecked)
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError) as saved:
        save_counts(counts, path)
    assert not path.exists()
    if isinstance(loaded.value, SchemaError):
        # the writer runs the reader: same message, same line
        assert str(saved.value) == f"counts table would not load: {loaded.value}"


@pytest.mark.parametrize("fault", ["unknown mother", "unknown father", "unknown child type",
                                   "unknown child gender"])
def test_estimate_names_a_bad_label_as_the_reader_does(tmp_path, fault):
    counts = CountsTable(RH, tuple(COUNTS_FAULTS[fault](list(rh_counts(full_counts()).rows))))
    path = tmp_path / "counts.csv"
    write_counts_unchecked(counts, path)
    with pytest.raises(SchemaError) as loaded:
        load_counts(path)
    with pytest.raises(ValueError) as estimated:
        estimate_measures(RH, counts)
    assert type(estimated.value) is ValueError
    assert str(loaded.value) == f"line 8: {estimated.value}"  # row 5


@pytest.mark.parametrize("mother", ["#+", " +"])
def test_save_counts_refuses_a_table_that_reads_back_differently(tmp_path, mother):
    # the reader skips a line that starts with '#' and strips every field
    counts = CountsTable(RH, tuple(changed(list(rh_counts(full_counts()).rows), 0,
                                           mother=mother)))
    unchecked = tmp_path / "unchecked.csv"
    write_counts_unchecked(counts, unchecked)
    assert load_counts(unchecked) != counts
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError, match="would load as a different table"):
        save_counts(counts, path)
    assert not path.exists()


@pytest.mark.parametrize("components", [
    [["a,b", "c"]],
    [["a;b", "c"]],
    [["a\nb", "c"]],
    [["a|x", "b"], ["c", "d"]],
    [[" a", "b"]],
    [["#a", "b"]],
    [["", "a"]],  # this '# space:' line and the next do not parse
    [["a", " a"]],
])
def test_save_measure_family_refuses_a_space_that_reads_back_differently(tmp_path,
                                                                         components):
    path = tmp_path / "family.csv"
    with pytest.raises(ValueError, match="would not read back"):
        save_measure_family(qso.MeasureFamily.uniform(build_space(components)), path)
    assert not path.exists()


def write_family_unchecked(family, path):
    """The measure-family file format with no check at all.  Values go
    through ``float`` first: the repr of an ``np.float64`` is not a number
    the reader takes."""
    space = family.space
    labels = space.label_table[0]
    children = [f"{g},{label}" for g in GENDERS for label in labels]
    lines = [f"# space: {';'.join(','.join(c) for c in space.components)}",
             "mother,father,child_gender,child_type,value"]
    lines += [f"{labels[i]},{labels[j]},{child},{float(v)!r}"
              for i in range(space.m) for j in range(space.m)
              for child, v in zip(children, family.mu[i, j])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


ALLELE = st.text(alphabet="ab,;|# \n\r\t", max_size=3)


@settings(max_examples=200, deadline=None)
@given(components=st.lists(st.lists(ALLELE, min_size=1, max_size=3, unique=True),
                           min_size=1, max_size=2))
def test_save_measure_family_refuses_exactly_the_spaces_that_read_back_differently(components):
    family = qso.MeasureFamily.uniform(build_space(components))
    with tempfile.TemporaryDirectory() as tmp:
        unchecked = Path(tmp) / "unchecked.csv"
        write_family_unchecked(family, unchecked)
        try:
            loaded = load_measure_family(unchecked)
            reads_back = loaded.space == family.space and np.array_equal(loaded.mu, family.mu)
        except QsoError:
            reads_back = False
        path = Path(tmp) / "family.csv"
        if reads_back:
            save_measure_family(family, path)
            assert path.read_text(encoding="utf-8") == unchecked.read_text(encoding="utf-8")
        else:
            with pytest.raises(ValueError, match="would not read back"):
                save_measure_family(family, path)
            assert not path.exists()


def test_load_accepts_crlf(tmp_path):
    path = tmp_path / "family.csv"
    save_measure_family(qso.rh_measure_family(), path)
    crlf = path.read_text().replace("\n", "\r\n")
    path.write_bytes(crlf.encode())
    loaded = load_measure_family(path)
    assert np.array_equal(loaded.mu, qso.rh_measure_family().mu)


def test_embedded_tables_load_cleanly():
    rh = qso.rh_measure_family()
    assert not rh.validate(1e-9)
    abo = qso.abo_measure_family()
    assert not abo.validate(1e-3)
    assert abo.validate(1e-6)  # published rounding shows up below 1e-3


# --- file error reporting -----------------------------------------------------------

def write_family(tmp_path, body, space="+,-"):
    path = tmp_path / "bad.csv"
    path.write_text(f"# space: {space}\nmother,father,child_gender,child_type,value\n{body}")
    return path


FULL_BODY_TEMPLATE = """\
+,+,f,+,{v00}
+,+,f,-,{v01}
+,+,m,+,{v00}
+,+,m,-,{v01}
+,-,f,+,0.3230
+,-,f,-,0.1770
+,-,m,+,0.3230
+,-,m,-,0.1770
-,+,f,+,0.3273
-,+,f,-,0.1727
-,+,m,+,0.3273
-,+,m,-,0.1727
-,-,f,+,0.05
-,-,f,-,0.45
-,-,m,+,0.05
-,-,m,-,0.45
"""


def test_load_flags_negative_value(tmp_path):
    body = FULL_BODY_TEMPLATE.format(v00="-0.01", v01="1.01")
    with pytest.raises(InvariantViolation) as exc:
        load_measure_family(write_family(tmp_path, body))
    kinds = {v.kind for v in exc.value.report.violations}
    assert "negative" in kinds


def test_load_flags_asymmetry_and_bad_sum(tmp_path):
    body = FULL_BODY_TEMPLATE.format(v00="0.4", v01="0.2")  # sums 1.2, f != m ok
    body = body.replace("+,+,m,+,0.4", "+,+,m,+,0.3")
    with pytest.raises(InvariantViolation) as exc:
        load_measure_family(write_family(tmp_path, body))
    kinds = {v.kind for v in exc.value.report.violations}
    assert "normalization" in kinds
    assert "gender-symmetry" in kinds


def test_load_flags_missing_pair(tmp_path):
    body = "\n".join(FULL_BODY_TEMPLATE.format(v00="0.4925", v01="0.0075").splitlines()[:-4])
    with pytest.raises(InvariantViolation) as exc:
        load_measure_family(write_family(tmp_path, body))
    assert any(v.kind == "missing" for v in exc.value.report.violations)


def test_parse_error_reports_line_and_column(tmp_path):
    body = FULL_BODY_TEMPLATE.format(v00="0.4925", v01="oops")
    with pytest.raises(ParseError) as exc:
        load_measure_family(write_family(tmp_path, body))
    assert exc.value.line == 4
    assert exc.value.column == 9


def test_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    # wrong header
    path.write_text("# space: +,-\nmum,dad,kid,type,value\n")
    with pytest.raises(SchemaError):
        load_measure_family(path)
    # missing space line
    path.write_text("mother,father,child_gender,child_type,value\n")
    with pytest.raises(SchemaError):
        load_measure_family(path)
    # unknown label
    body = FULL_BODY_TEMPLATE.format(v00="0.4925", v01="0.0075").replace("-,-,m,-,0.45", "-,?,m,-,0.45")
    with pytest.raises(SchemaError):
        load_measure_family(write_family(tmp_path, body))
    # wrong field count
    body = FULL_BODY_TEMPLATE.format(v00="0.4925", v01="0.0075") + "+,+,f\n"
    with pytest.raises(SchemaError):
        load_measure_family(write_family(tmp_path, body))
    # duplicate row
    body = FULL_BODY_TEMPLATE.format(v00="0.4925", v01="0.0075") + "-,-,m,-,0.45\n"
    with pytest.raises(SchemaError):
        load_measure_family(write_family(tmp_path, body))


@pytest.mark.parametrize("reader,header", [(read_measure_family, "value"),
                                           (load_counts, "count")])
def test_space_that_repeats_an_allele_is_a_schema_error_with_its_line(tmp_path, reader, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"# space: +,+\nmother,father,child_gender,child_type,{header}\n")
    with pytest.raises(SchemaError, match=r"^line 1: component 0 repeats an allele label"):
        reader(path)


def test_non_contiguous_pair_rows_rejected(tmp_path):
    lines = FULL_BODY_TEMPLATE.format(v00="0.4925", v01="0.0075").splitlines()
    # move one (+,+) row to the end, after other pairs have started
    body = "\n".join(lines[1:] + [lines[0]])
    with pytest.raises(SchemaError):
        read_measure_family(write_family(tmp_path, body))


def test_missing_child_rows_are_zero(tmp_path):
    lines = FULL_BODY_TEMPLATE.format(v00="0.4925", v01="0.0075").splitlines()
    body = "\n".join(line for line in lines if line != "-,-,m,+,0.05")
    family = read_measure_family(write_family(tmp_path, body))
    assert family.mu[1, 1, 2] == 0.0


def test_multi_component_labels_roundtrip(tmp_path):
    space = build_space([["A", "a"], ["B", "b"]])
    family = random_symmetric_family(rng(43), space)
    path = tmp_path / "multi.csv"
    save_measure_family(family, path)
    text = path.read_text()
    assert "# space: A,a;B,b" in text
    assert "A|B" in text
    loaded = load_measure_family(path, tol=1e-9)
    assert np.array_equal(loaded.mu, family.mu)


# --- non-finite values and undecodable bytes -------------------------------------------

RH_COUNTS = """\
# space: +,-
mother,father,child_gender,child_type,count
+,+,f,+,985
+,+,f,-,15
+,+,m,+,985
+,+,m,-,15
+,-,f,+,3
+,-,m,+,3
-,+,f,-,2
-,+,m,-,2
-,-,f,+,1
-,-,m,+,1
"""


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
def test_non_finite_count_is_a_parse_error(tmp_path, value):
    path = tmp_path / "counts.csv"
    path.write_text(RH_COUNTS.replace("+,-,m,+,3", f"+,-,m,+,{value}"))
    with pytest.raises(ParseError) as exc:
        load_counts(path)
    assert (exc.value.line, exc.value.column) == (8, 9)
    assert str(exc.value) == f"line 8, column 9: {value!r} is not a finite number"


def test_ingest_exits_one_on_non_finite_counts(tmp_path, capsys):
    # such files used to be ingested with the affected parent pairs dropped
    path = tmp_path / "counts.csv"
    path.write_text(RH_COUNTS.replace("-,+,f,-,2", "-,+,f,-,inf"))
    assert main(["ingest", str(path), str(tmp_path / "out.csv")]) == 1
    assert "line 9, column 9" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_nan_measure_value_is_a_parse_error(tmp_path):
    # a NaN cell used to read as 0.0 and to hide a later duplicate of itself
    body = FULL_BODY_TEMPLATE.format(v00="nan", v01="0.0075") + "+,+,f,+,0.4925\n"
    with pytest.raises(ParseError) as exc:
        read_measure_family(write_family(tmp_path, body))
    assert (exc.value.line, exc.value.column) == (3, 9)


@pytest.mark.parametrize("text, line, column", [
    (b"# space: +,-\nmother,father,child_gender,child_type,count\n+,\xff,f,+,1\n", 3, 3),
    (b"# space: +,-\r\n# caf\xc3\xa9 \xe9\r\n", 2, 8),
    (b"# space: +,-\r# note\rmother\x80", 3, 7),
    (b"\xff# space: +,-\n", 1, 1),
    # the whole file is checked first: a bad byte wins over an earlier unknown label
    (b"# space: +,-\nmother,father,child_gender,child_type,count\n?,+,f,+,1\n+,+,f,-,\xff\n",
     4, 9),
])
def test_undecodable_byte_is_a_parse_error(tmp_path, text, line, column):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    for reader in (load_counts, read_measure_family):
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).startswith(f"line {line}, column {column}: invalid UTF-8 byte")


# --- loaded tables -------------------------------------------------------------------------

def oracle_counts_table(lines):
    """``load_counts``' table as it was built before tables held columns: one
    ``CountRow`` per parsed row, in file order."""
    space, cells, values = ingest._parse_table(lines, ingest.COUNTS_HEADER, nonnegative=True)
    labels, _ = space.label_table
    m, total = space.m, space.total
    rows = []
    for cell, v in zip(cells.tolist(), values.tolist()):
        pair, s = divmod(cell, total)
        i, j = divmod(pair, m)
        rows.append(CountRow(labels[i], labels[j], GENDERS[s // m], labels[s % m], v))
    return CountsTable(space, tuple(rows))


LOADED = {
    # canonical rows: the fast reader
    "rh": "# space: +,-\nmother,father,child_gender,child_type,count\n" + "".join(
        f"{mo},{fa},{g},{c},{k}\n" for k, (mo, fa, g, c) in enumerate(
            (mo, fa, g, c) for mo in "+-" for fa in "+-" for g in "fm" for c in "+-")),
    # fractional and signed-zero counts, and multi-component labels
    "multi": "# space: A,a;B,b\nmother,father,child_gender,child_type,count\n" + "".join(
        f"{x},{y},{g},A|B,{v}\n"
        for x in ("A|B", "A|b", "a|B", "a|b") for y in ("A|B", "A|b", "a|B", "a|b")
        for g, v in (("f", 0.1), ("m", -0.0))),
    # padding, a comment and a blank line between rows: the per-line reader
    "odd": RH_COUNTS.replace("+,+,f,-,15", " +, + ,f,-, 15 ").replace(
        "-,+,f,-,2", "# a comment\n\n-,+,f,-,2.5"),
}


def load(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_text(LOADED[name])
    return load_counts(path)


@pytest.mark.parametrize("name", sorted(LOADED))
def test_loaded_table_rows_match_the_row_loop(tmp_path, name):
    table = load(tmp_path, name)
    want = oracle_counts_table(ingest._split_lines(LOADED[name]))
    assert "rows" not in vars(table)  # built on first access
    rows = table.rows
    assert type(rows) is tuple and rows == want.rows
    assert [repr(r.count) for r in rows] == [repr(r.count) for r in want.rows]
    assert all(type(r.count) is float for r in rows)
    assert table.rows is rows  # once


@pytest.mark.parametrize("name", sorted(LOADED))
@pytest.mark.parametrize("read_first", [False, True])
def test_loaded_table_equals_its_rows_built_table(tmp_path, name, read_first):
    loaded = load(tmp_path, name)
    if read_first:
        loaded.rows
    built = CountsTable(loaded.space, load(tmp_path, name).rows)
    assert loaded == built and built == loaded
    assert not (loaded != built or built != loaded)
    assert hash(loaded) == hash(built) and repr(loaded) == repr(built)
    assert loaded == load(tmp_path, name)
    assert loaded != CountsTable(built.space, built.rows[1:])


def test_estimating_a_loaded_table_builds_no_rows(tmp_path, monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows were built")

    monkeypatch.setattr(ingest, "_count_rows", no_rows)
    table = load(tmp_path, "rh")
    estimate_measures(table.space, table, symmetrize=True)
    assert "rows" not in vars(table)
    path = tmp_path / "rh.csv"
    assert main(["ingest", str(path), str(tmp_path / "family.csv"), "--symmetrize"]) == 0


COPIES = {"pickle": lambda t: pickle.loads(pickle.dumps(t)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("read_first", [False, True])
def test_loaded_table_copies_and_freezes_as_a_rows_built_table(tmp_path, how, read_first):
    loaded = load(tmp_path, "multi")
    built = CountsTable(loaded.space, load(tmp_path, "multi").rows)
    if read_first:
        loaded.rows
    for table in (loaded, built):
        copied = COPIES[how](table)
        assert type(copied) is CountsTable
        assert copied == built and hash(copied) == hash(built) and repr(copied) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.rows = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.space = RH
        with pytest.raises(dataclasses.FrozenInstanceError):
            del copied.rows
        assert dataclasses.replace(copied) == built
    cells, values = vars(loaded)["_columns"]
    assert not (cells.flags.writeable or values.flags.writeable)
    copied = COPIES[how](loaded)  # a loaded table's copy is rows-built
    assert "_columns" not in vars(copied) and copied == loaded
    with pytest.raises(dataclasses.FrozenInstanceError):
        load(tmp_path, "rh").rows = ()  # before its rows are built too
    with pytest.raises(AttributeError, match="has no attribute 'cells'"):
        loaded.cells


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(LOADED))
def test_loaded_table_copies_through_the_constructor(tmp_path, how, name):
    assert CountsTable.__reduce__ is operators._rebuilt
    assert not hasattr(ingest, "_loaded_table")
    loaded = load(tmp_path, name)
    copied = COPIES[how](loaded)
    assert type(copied) is CountsTable and "_columns" not in vars(copied)
    assert copied == loaded and hash(copied) == hash(loaded) and repr(copied) == repr(loaded)
    with pytest.raises(dataclasses.FrozenInstanceError):
        copied.rows = ()
    for symmetrize in (False, True):
        try:
            expected = estimate_measures(loaded.space, loaded, symmetrize).mu.tobytes()
        except AsymmetricMeasure:
            with pytest.raises(AsymmetricMeasure):
                estimate_measures(copied.space, copied, symmetrize)
            continue
        assert estimate_measures(copied.space, copied, symmetrize).mu.tobytes() == expected


@pytest.mark.parametrize("literal, value", [("1_000", 1000.0), ("\u0661\u0662", 12.0),
                                            ("1e3", 1000.0), (".5", 0.5), ("+2", 2.0)])
def test_counts_values_read_as_python_float_reads_them(tmp_path, literal, value):
    path = tmp_path / "counts.csv"
    path.write_text(RH_COUNTS.replace("+,+,f,-,15", f"+,+,f,-,{literal}"), encoding="utf-8")
    rows = {(r.mother, r.father, r.child_gender, r.child_type): r.count
            for r in load_counts(path).rows}
    assert rows["+", "+", "f", "-"] == value


@pytest.mark.parametrize("literal, error", [("0x1", ParseError), ("1,5", SchemaError)])
def test_counts_values_python_float_rejects_are_errors(tmp_path, literal, error):
    path = tmp_path / "counts.csv"
    path.write_text(RH_COUNTS.replace("+,+,f,-,15", f"+,+,f,-,{literal}"), encoding="utf-8")
    with pytest.raises(error):
        load_counts(path)


# --- fuzzed files ------------------------------------------------------------------------

FUZZ_BASES = {
    "counts": RH_COUNTS.encode(),
    "multi-counts": (
        "# space: A,a;B,b\r\nmother,father,child_gender,child_type,count\r\n"
        + "".join(f"{x},{y},{g},A|B,{k + 1}\r\n"
                  for k, (x, y) in enumerate((x, y) for x in ("A|B", "A|b", "a|B", "a|b")
                                             for y in ("A|B", "A|b", "a|B", "a|b"))
                  for g in ("f", "m"))
    ).encode(),
    "measure": (Path(qso.__file__).parent / "data" / "rh.csv").read_bytes(),
}

INSERTS = [b"nan", b"inf", b"-inf", b"1e400", b"\xff", b"\xc3", b",", b"\n", b"\r", b"|",
           b"#", b"-", b" ", b"# space: +,-\n"]

MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 4096), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 4096)),
    st.tuples(st.just("delete"), st.integers(0, 4096), st.integers(1, 8)),
    st.tuples(st.just("insert"), st.integers(0, 4096), st.sampled_from(INSERTS)),
)


def mutate(data: bytes, mutations) -> bytes:
    for kind, at, *arg in mutations:
        at %= len(data) + 1
        if kind == "flip":
            data = data[:at] + bytes([arg[0]]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "delete":
            data = data[:at] + data[at + arg[0]:]
        else:
            data = data[:at] + arg[0] + data[at:]
    return data


def cli_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(FUZZ_BASES)),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_fuzzed_files_fail_only_with_qso_errors(base, mutations):
    data = mutate(FUZZ_BASES[base], mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        if base.endswith("counts"):
            try:
                table = load_counts(path)
            except QsoError:
                table = None
            if table is not None:
                assert all(math.isfinite(row.count) for row in table.rows)
            code = cli_code("ingest", str(path), str(Path(tmp) / "out.csv"))
            assert code in (0, 1)
            if table is None:
                assert code == 1
        else:
            try:
                family = read_measure_family(path)
            except QsoError:
                family = None
            if family is not None:
                # a pair is either absent (all NaN) or fully finite
                absent = np.isnan(family.mu).all(axis=2)
                assert np.isfinite(family.mu[~absent]).all()
            code = cli_code("validate", str(path))
            assert (code == 1) if family is None else (code in (0, 2))
            code = cli_code("fixpoint", "--coeff-file", str(path))
            assert code in (0, 1, 2)
            if family is None:
                assert code == 1


# --- memory ------------------------------------------------------------------------------

def traced(fn):
    """``fn()``, and the bytes it allocated that are still held when it returns
    and at their peak, as ``tracemalloc`` counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_table_io_peaks_stay_in_proportion_to_the_columns(tmp_path, monkeypatch):
    # an 18,522-row canonical counts file and the 18,522-row family it estimates;
    # readers that held the whole text and its lines, and a writer that joined
    # every line, peaked at 9.7x, 4.7x and 5.2x these files' sizes, and a rows
    # build over two whole-column lists at 1.46x the rows it kept
    space = build_space([list("abcdefg"), list("XYZ")])
    labels, _ = space.label_table
    m = space.m
    counts_path, family_path = tmp_path / "counts.csv", tmp_path / "family.csv"
    counts_path.write_text("# space: a,b,c,d,e,f,g;X,Y,Z\n" + ingest.COUNTS_HEADER + "\n" + "".join(
        f"{labels[i]},{labels[j]},{GENDERS[s // m]},{labels[s % m]},{(i + j + s) % 37 + 1}\n"
        for i, j, s in itertools.product(range(m), range(m), range(space.total))))
    load_counts(counts_path)  # a first call, so one-off costs are not counted
    table, _, peak = traced(lambda: load_counts(counts_path))
    assert peak < 4 * counts_path.stat().st_size
    # a padded last row sends the file to the per-line reader, which held its
    # columns as lists and its seen cells and pairs as sets, at 8.1x the file
    lines = counts_path.read_text().splitlines(True)
    lines[-1] = " " + lines[-1]
    padded_path = tmp_path / "padded.csv"
    padded_path.write_text("".join(lines))
    per_line = []
    parse_rows = ingest._parse_rows
    monkeypatch.setattr(ingest, "_parse_rows", lambda *a: per_line.append(1) or parse_rows(*a))
    padded, _, peak = traced(lambda: load_counts(padded_path))
    assert per_line == [1]
    assert peak < 4 * counts_path.stat().st_size
    assert [c.tobytes() for c in padded._columns] == [c.tobytes() for c in table._columns]
    family = estimate_measures(space, table, symmetrize=True)
    _, _, peak = traced(lambda: save_measure_family(family, family_path))
    assert peak < family_path.stat().st_size
    _, _, peak = traced(lambda: load_measure_family(family_path))
    assert peak < 3 * family_path.stat().st_size
    rows, held, peak = traced(lambda: table.rows)
    assert len(rows) == space.m ** 2 * space.total
    assert peak < 1.2 * held
