"""One-pass CSV reading and writing against the per-row readers it replaced.

``oracle_*`` are the readers, writer and estimator that ``qso.ingest`` ran
before labels resolved through ``GenotypeSpace.label_table`` and each row
was parsed in one pass: a first pass over all lines (space, header, field
count), then a second that split and ranked every label again, NumPy
scalar writes per measure cell, a per-row estimator and a per-cell writer.
On well-formed files the new code must return ``==`` equal tables, the
same measure arrays and the same saved bytes; on a file with one fault it
must raise the same exception class with the same message, line and
column.

Two differences are deliberate and tested on their own: non-finite values
and bytes that are not UTF-8 are now rejected with a ``ParseError`` (the
oracles accept the first and raise ``UnicodeDecodeError`` on the second),
and a file with several faults now reports its earliest faulty line,
where the oracles reported every line's field-count error before any label
error and non-contiguous parent pairs after every other row check.

The reader now takes canonical rows through a fast loop with whole-file
checks, and re-reads any other file with its per-line loop. A Hypothesis
property mutates canonical files (padding, odd values, comments, repeated
or split rows, wrong fields, odd labels, CRLF) and requires ``_parse_table``
to return the per-line loop's result or raise its error; a work guard
requires canonical files to load without the per-line loop.

A loaded counts table holds the reader's cell and count columns and
estimates from them in one ``np.bincount``.  On the same mutated files and
on the single-fault files, that estimate must have the bytes, or raise the
error, of the estimate from ``CountsTable(space, table.rows)``, which goes
through the per-row loop.
"""

import itertools
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qso
from qso import (
    CountRow,
    CountsTable,
    MeasureFamily,
    build_space,
    estimate_measures,
    ingest,
    load_counts,
    load_measure_family,
    read_measure_family,
    save_counts,
    save_measure_family,
)
from qso.errors import (
    AsymmetricMeasure,
    InvariantViolation,
    MissingParentPair,
    ParseError,
    QsoError,
    SchemaError,
    ZeroTotal,
)
from qso.genotype import GENDERS
from qso.ingest import COUNTS_HEADER, MEASURE_HEADER, _parse_space

from helpers import random_symmetric_family, rng

DATA = Path(qso.__file__).parent / "data"


# --- the oracles ------------------------------------------------------------------

def oracle_trait_label(space, trait_index):
    return "|".join(
        comp[a] for a, comp in zip(space.traits_of(trait_index), space.components)
    )


def oracle_index_of_label(space, label):
    parts = label.split("|")
    if len(parts) != len(space.components):
        raise ValueError(f"label {label!r} does not match component count")
    traits = []
    for part, comp in zip(parts, space.components):
        if part not in comp:
            raise ValueError(f"unknown allele {part!r} for component {comp}")
        traits.append(comp.index(part))
    return space.trait_index(tuple(traits))


def oracle_read_lines(path):
    text = Path(path).read_text(encoding="utf-8")
    return text.replace("\r\n", "\n").split("\n")


def oracle_parse_table(path, expected_header):
    lines = oracle_read_lines(path)
    space = None
    header_seen = False
    rows = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("space:"):
                if space is not None:
                    raise SchemaError(f"line {line_no}: duplicate space declaration")
                space = _parse_space(body[len("space:"):].strip(), line_no)
            continue
        if not header_seen:
            if stripped != expected_header:
                raise SchemaError(
                    f"line {line_no}: expected header {expected_header!r}, got {stripped!r}"
                )
            if space is None:
                raise SchemaError("missing '# space:' declaration before header")
            header_seen = True
            continue
        fields = stripped.split(",")
        if len(fields) != 5:
            raise SchemaError(
                f"line {line_no}: expected 5 comma-separated fields, got {len(fields)}"
            )
        rows.append((line_no, line, [f.strip() for f in fields]))
    if not header_seen:
        raise SchemaError("file has no header row")
    return space, rows


def oracle_field_column(line, field_index):
    col = 0
    for _ in range(field_index):
        col = line.index(",", col) + 1
    return col + 1


def oracle_resolve_row(space, line_no, raw_line, fields):
    mother, father, gender, child, value = fields
    try:
        i = oracle_index_of_label(space, mother)
    except ValueError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    try:
        j = oracle_index_of_label(space, father)
    except ValueError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    if gender not in GENDERS:
        raise SchemaError(f"line {line_no}: child_gender must be 'f' or 'm', got {gender!r}")
    try:
        t = oracle_index_of_label(space, child)
    except ValueError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    try:
        v = float(value)
    except ValueError as exc:
        raise ParseError(
            f"line {line_no}, column {oracle_field_column(raw_line, 4)}: "
            f"cannot parse {value!r} as a number",
            line=line_no,
            column=oracle_field_column(raw_line, 4),
        ) from exc
    s = GENDERS.index(gender) * space.m + t
    return i, j, s, v


def oracle_check_contiguity(order):
    seen = set()
    current = None
    for pair in order:
        if pair != current:
            if pair in seen:
                raise SchemaError(f"rows for parent pair {pair} are not contiguous")
            seen.add(pair)
            current = pair


def oracle_load_counts(path):
    space, raw_rows = oracle_parse_table(path, COUNTS_HEADER)
    rows = []
    order = []
    seen_cells = set()
    for line_no, raw_line, fields in raw_rows:
        i, j, s, v = oracle_resolve_row(space, line_no, raw_line, fields)
        if v < 0:
            raise InvariantViolation(f"line {line_no}: negative count {v}")
        if (i, j, s) in seen_cells:
            raise SchemaError(f"line {line_no}: duplicate row for pair {(i, j)}, child {s}")
        seen_cells.add((i, j, s))
        order.append((i, j))
        rows.append(CountRow(fields[0], fields[1], fields[2], fields[3], v))
    oracle_check_contiguity(order)
    return CountsTable(space, tuple(rows))


def oracle_read_measure_family(path):
    space, raw_rows = oracle_parse_table(path, MEASURE_HEADER)
    m = space.m
    mu = np.full((m, m, space.total), np.nan)
    sequence = []
    for line_no, raw_line, fields in raw_rows:
        i, j, s, v = oracle_resolve_row(space, line_no, raw_line, fields)
        if not np.isnan(mu[i, j, s]):
            raise SchemaError(f"line {line_no}: duplicate row for pair {(i, j)}, child {s}")
        sequence.append((i, j))
        mu[i, j, s] = v
    oracle_check_contiguity(sequence)
    for i, j in set(sequence):
        row = mu[i, j]
        mu[i, j] = np.where(np.isnan(row), 0.0, row)
    return MeasureFamily(space, mu)


def oracle_estimate_measures(space, counts, symmetrize=False):
    m = space.m
    acc = np.zeros((m, m, space.total))
    seen = set()
    for row in counts.rows:
        if row.count < 0:
            raise ValueError(f"negative count {row.count} for {row}")
        i = oracle_index_of_label(space, row.mother)
        j = oracle_index_of_label(space, row.father)
        g = GENDERS.index(row.child_gender)
        s = g * m + oracle_index_of_label(space, row.child_type)
        acc[i, j, s] += row.count
        seen.add((i, j))
    for i in range(m):
        for j in range(m):
            if (i, j) not in seen:
                raise MissingParentPair(
                    f"no rows for pair ({oracle_trait_label(space, i)} x "
                    f"{oracle_trait_label(space, j)})"
                )
    totals = acc.sum(axis=2)
    if np.any(totals <= 0):
        i, j = map(int, np.argwhere(totals <= 0)[0])
        raise ZeroTotal(
            f"pair ({oracle_trait_label(space, i)} x {oracle_trait_label(space, j)}) "
            "has zero total count"
        )
    mu = acc / totals[:, :, None]
    if symmetrize:
        pooled = 0.5 * (mu[:, :, :m] + mu[:, :, m:])
        mu = np.concatenate([pooled, pooled], axis=2)
    else:
        gap = np.abs(mu[:, :, :m] - mu[:, :, m:]).max()
        if gap > 1e-9:
            raise AsymmetricMeasure(
                f"counts are gender-asymmetric (max frequency gap {gap}); "
                "pass symmetrize=True to pool genders"
            )
    return MeasureFamily(space, mu)


def oracle_save_measure_family(family, path):
    space = family.space
    m = space.m
    spec = ";".join(",".join(comp) for comp in space.components)
    lines = [f"# space: {spec}", MEASURE_HEADER]
    for i in range(m):
        for j in range(m):
            row = family.mu[i, j]
            if np.isnan(row).any():
                continue
            for s in range(space.total):
                gender = GENDERS[s // m]
                child = oracle_trait_label(space, s % m)
                lines.append(
                    f"{oracle_trait_label(space, i)},{oracle_trait_label(space, j)},"
                    f"{gender},{child},{float(row[s])!r}"
                )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- well-formed files ----------------------------------------------------------------

SPACES = {
    "rh": [["+", "-"]],
    "abo": [["A", "B", "AB", "O"]],
    "two-biallelic": [["A", "a"], ["B", "b"]],
    "mixed-3-2-2": [["a", "b", "c"], ["X", "Y"], ["p", "q"]],
}


def counts_text(gen, components, fractional=False, omit=0.3, newline="\n",
                decorate=False):
    """A counts file over ``components``: pairs in shuffled (contiguous)
    order, children shuffled within a pair, some cells left out as
    implicit zeros; ``decorate`` adds comments, blank lines and padding."""
    space = build_space(components)
    labels = [oracle_trait_label(space, t) for t in range(space.m)]
    lines = [f"# space: {';'.join(','.join(c) for c in components)}"]
    if decorate:
        lines += ["", "# counts from a seeded generator", "   "]
    lines.append(COUNTS_HEADER)
    pairs = list(itertools.product(range(space.m), repeat=2))
    for k in gen.permutation(len(pairs)):
        i, j = pairs[k]
        children = [s for s in gen.permutation(space.total) if gen.random() >= omit]
        if not children:
            children = [int(gen.integers(space.total))]
        for s in children:
            count = gen.integers(1, 50) * (gen.random() if fractional else 1.0)
            text = repr(float(count)) if fractional else str(int(count))
            row = (f"{labels[i]},{labels[j]},{GENDERS[s // space.m]},"
                   f"{labels[s % space.m]},{text}")
            if decorate and gen.random() < 0.2:
                row = f"  {row.replace(',', ' , ')}  "
            lines.append(row)
            if decorate and gen.random() < 0.05:
                lines.append("# a comment between rows")
    return newline.join(lines) + newline


def measure_text(gen, components, omit_children=0.2, omit_pairs=0.2, newline="\n"):
    """A measure file with some child rows (zeros) and some pairs (NaN rows)
    left out."""
    space = build_space(components)
    family = random_symmetric_family(gen, space)
    labels = [oracle_trait_label(space, t) for t in range(space.m)]
    lines = [f"# space: {';'.join(','.join(c) for c in components)}", MEASURE_HEADER]
    for i in range(space.m):
        for j in range(space.m):
            if gen.random() < omit_pairs:
                continue
            for s in range(space.total):
                if gen.random() < omit_children:
                    continue
                lines.append(f"{labels[i]},{labels[j]},{GENDERS[s // space.m]},"
                             f"{labels[s % space.m]},{float(family.mu[i, j, s])!r}")
    return newline.join(lines) + newline


def write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_counts_matches_oracle(tmp_path, name, fractional, newline):
    gen = rng(zlib.crc32(f"{name} {fractional} {newline!r}".encode()))
    path = write(tmp_path, counts_text(gen, SPACES[name], fractional, newline=newline,
                                       decorate=True))
    table = load_counts(path)
    expected = oracle_load_counts(path)
    assert table == expected
    for symmetrize in (False, True):
        try:
            want = oracle_estimate_measures(expected.space, expected, symmetrize)
        except QsoError as exc:
            with pytest.raises(type(exc)) as got:
                estimate_measures(table.space, table, symmetrize)
            assert str(got.value) == str(exc)
            continue
        family = estimate_measures(table.space, table, symmetrize)
        assert np.array_equal(family.mu, want.mu)
        save_measure_family(family, tmp_path / "new.csv")
        oracle_save_measure_family(want, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_measure_family_matches_oracle(tmp_path, name, newline):
    gen = rng(zlib.crc32(f"{name} {newline!r}".encode()))
    path = write(tmp_path, measure_text(gen, SPACES[name], newline=newline))
    family = read_measure_family(path)
    expected = oracle_read_measure_family(path)
    assert family.space == expected.space
    assert np.array_equal(family.mu, expected.mu, equal_nan=True)
    # pairs without rows stay NaN, and a pair with any NaN is left out of
    # the saved file
    mu = family.mu.copy()
    mu[-1, -1, 0] = np.nan
    for saved in (family, MeasureFamily(family.space, mu)):
        save_measure_family(saved, tmp_path / "new.csv")
        oracle_save_measure_family(saved, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("table", ["rh.csv", "abo.csv"])
def test_embedded_tables_read_and_save_like_oracle(tmp_path, table):
    family = read_measure_family(DATA / table)
    expected = oracle_read_measure_family(DATA / table)
    assert np.array_equal(family.mu, expected.mu, equal_nan=True)
    save_measure_family(family, tmp_path / "new.csv")
    oracle_save_measure_family(expected, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_estimate_sums_repeated_fractional_cells_in_row_order():
    # hand-built tables may repeat a cell; the sum must round as the
    # row-by-row loop rounds it
    space = build_space(SPACES["two-biallelic"])
    gen = rng(7)
    labels = [oracle_trait_label(space, t) for t in range(space.m)]
    rows = []
    for _ in range(2000):
        i, j, s = gen.integers(space.m), gen.integers(space.m), gen.integers(space.total)
        count = float(gen.random() * 10.0 ** gen.integers(-8, 8))
        rows.append(CountRow(labels[i], labels[j], GENDERS[s // space.m],
                             labels[s % space.m], count))
    table = CountsTable(space, tuple(rows))
    got = estimate_measures(space, table, symmetrize=True)
    want = oracle_estimate_measures(space, table, symmetrize=True)
    assert np.array_equal(got.mu, want.mu)


# --- malformed input --------------------------------------------------------------------

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
-,-,f,+,1.5
-,-,m,+,1.5
"""

MULTI_MEASURE = """\
# space: A,a;B,b
mother,father,child_gender,child_type,value
A|B,A|B,f,A|B,0.25
A|B,A|B,f,a|b,0.25
A|B,A|B,m,A|B,0.25
A|B,A|B,m,a|b,0.25
A|b,a|B,f,A|b,0.5
A|b,a|B,m,a|B,0.5
"""

# (name, base file, line to edit (1-based), replacement text); None removes the line
SINGLE_FAULTS = [
    ("wrong-header", RH_COUNTS, 2, "mum,dad,kid,type,count"),
    ("padded-header", RH_COUNTS, 2, "mother, father,child_gender,child_type,count"),
    ("no-space-line", RH_COUNTS, 1, None),
    ("space-after-header", RH_COUNTS, 4, "# space: +,-"),
    ("empty-allele", RH_COUNTS, 1, "# space: +,,-"),
    ("repeated-allele", RH_COUNTS, 1, "# space: +,-,+"),
    ("four-fields", RH_COUNTS, 5, "+,+,f,+"),
    ("six-fields", RH_COUNTS, 7, "+,-,f,+,3,4"),
    ("unknown-mother", RH_COUNTS, 3, "?,+,f,+,985"),
    ("unknown-father", RH_COUNTS, 3, "+,?,f,+,985"),
    ("bad-gender", RH_COUNTS, 3, "+,+,x,+,985"),
    ("unknown-child", RH_COUNTS, 3, "+,+,f,o,985"),
    ("empty-label", RH_COUNTS, 3, ",+,f,+,985"),
    ("bad-value", RH_COUNTS, 4, "+,+,f,-,oops"),
    ("empty-value", RH_COUNTS, 4, "+,+,f,-,"),
    ("bad-value-padded", RH_COUNTS, 4, "  +, +,f , -,  1.2.3 "),
    ("negative-count", RH_COUNTS, 8, "+,-,m,+,-3"),
    ("duplicate-cell", RH_COUNTS, 6, "+,+,f,-,15"),
    ("split-pair", RH_COUNTS, 11, "+,-,f,-,4"),
    ("header-only", "# space: +,-\n", 1, "# space: +,-"),
    ("duplicate-space", RH_COUNTS, 2, "# space: +,-\n" + COUNTS_HEADER),
    ("multi-wrong-parts", MULTI_MEASURE, 3, "A,A|B,f,A|B,0.25"),
    ("multi-unknown-allele", MULTI_MEASURE, 4, "A|B,A|B,f,a|c,0.25"),
    ("multi-bad-value", MULTI_MEASURE, 8, "A|b,a|B,m,a|B,0.5x"),
    ("multi-duplicate", MULTI_MEASURE, 6, "A|B,A|B,m,A|B,0.5"),
]


def with_fault(base, line_no, replacement, header):
    lines = base.replace(MEASURE_HEADER, header).replace(COUNTS_HEADER, header).splitlines()
    if replacement is None:
        del lines[line_no - 1]
    else:
        lines[line_no - 1] = replacement.replace(COUNTS_HEADER, header)
    return "\n".join(lines) + "\n"


def outcome(fn, path):
    try:
        fn(path)
    except QsoError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return None


@pytest.mark.parametrize("kind", ["counts", "measure"])
@pytest.mark.parametrize("name, base, line_no, replacement", SINGLE_FAULTS,
                         ids=[fault[0] for fault in SINGLE_FAULTS])
def test_single_fault_reports_like_oracle(tmp_path, kind, name, base, line_no, replacement):
    header, new, old = {
        "counts": (COUNTS_HEADER, load_counts, oracle_load_counts),
        "measure": (MEASURE_HEADER, read_measure_family, oracle_read_measure_family),
    }[kind]
    path = write(tmp_path, with_fault(base, line_no, replacement, header))
    expected = outcome(old, path)
    if expected is None:
        # a fault of one kind only (a negative count is a valid measure value)
        assert kind == "measure" and name == "negative-count"
        assert outcome(new, path) is None
        return
    assert outcome(new, path) == expected


@pytest.mark.parametrize("row, message", [
    (CountRow("+", "+", "f", "+", -1.0), "negative count -1.0"),
    (CountRow("?", "+", "f", "+", 1.0), "unknown allele '?'"),
    (CountRow("+", "+|-", "f", "+", 1.0), "does not match component count"),
    (CountRow("+", "+", "x", "+", 1.0), "child_gender must be"),
    (CountRow("+", "+", "f", "?", 1.0), "unknown allele '?'"),
    (CountRow("?", "+", "x", "+", -1.0), "negative count"),
])
def test_estimate_rejects_rows_like_oracle(row, message):
    space = build_space(SPACES["rh"])
    good = CountRow("+", "+", "f", "+", 1.0)
    table = CountsTable(space, (good, row))
    with pytest.raises(ValueError) as want:
        oracle_estimate_measures(space, table)
    with pytest.raises(ValueError) as got:
        estimate_measures(space, table)
    assert message in str(got.value)
    assert type(got.value) is type(want.value)
    if "not in tuple" in str(want.value):
        # the oracle reports a bad gender in tuple.index's words; the
        # estimator names the field, as the reader does
        assert str(got.value) == "child_gender must be 'f' or 'm', got 'x'"
    else:
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("drop", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_estimate_reports_first_missing_pair_like_oracle(drop):
    space = build_space(SPACES["rh"])
    labels = ("+", "-")
    rows = tuple(
        CountRow(labels[i], labels[j], g, c, 1.0)
        for i in range(2) for j in range(2) if (i, j) != drop and (j, i) != drop
        for g in GENDERS for c in labels
    )
    table = CountsTable(space, rows)
    with pytest.raises(MissingParentPair) as want:
        oracle_estimate_measures(space, table)
    with pytest.raises(MissingParentPair) as got:
        estimate_measures(space, table)
    assert str(got.value) == str(want.value)


def test_several_faults_report_the_earliest_line(tmp_path):
    # line 9 has a label error, line 11 the wrong field count: the oracle
    # checked the field count of every line before any label
    text = with_fault(RH_COUNTS, 9, "-,?,f,-,2", COUNTS_HEADER)
    text = with_fault(text, 11, "-,-,f,+", COUNTS_HEADER)
    path = write(tmp_path, text)
    assert outcome(oracle_load_counts, path)[1] == (
        "line 11: expected 5 comma-separated fields, got 4")
    assert outcome(load_counts, path)[1] == (
        "line 9: unknown allele '?' for component ('+', '-')")


def test_split_pair_is_reported_at_the_row_that_returns(tmp_path):
    # the oracle checked contiguity after every row, so a later duplicate won
    text = with_fault(RH_COUNTS, 11, "+,-,f,-,4", COUNTS_HEADER) + "-,-,m,+,1.5\n"
    path = write(tmp_path, text)
    assert outcome(oracle_load_counts, path)[1] == (
        "line 13: duplicate row for pair (1, 1), child 2")
    assert outcome(load_counts, path)[1] == (
        "rows for parent pair (0, 1) are not contiguous")


# --- the fast row loop against the per-line loop --------------------------------------

def per_line_outcome(lines, header, nonnegative):
    """``_parse_table``'s result or error when every row goes through the
    per-line loop."""
    try:
        space, start = ingest._read_head(lines, header)
        return table_outcome(space, *ingest._parse_rows(space, lines, start, nonnegative))
    except QsoError as exc:
        return error_outcome(exc)


def parse_outcome(lines, header, nonnegative):
    try:
        return table_outcome(*ingest._parse_table(lines, header, nonnegative))
    except QsoError as exc:
        return error_outcome(exc)


def table_outcome(space, cells, values):
    # both loops return read-only intp and float columns; repr of each
    # Python float tells -0.0 from 0.0
    assert (cells.dtype, values.dtype) == (np.intp, np.float64)
    assert not (cells.flags.writeable or values.flags.writeable)
    return space, cells.tolist(), [repr(v) for v in values.tolist()]


def error_outcome(exc):
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# a space whose allele holds a pipe (its labels never resolve), and one whose
# label starts with '#' (its rows read as comments)
ODD_SPACES = {"pipe-allele": [["+", "x|y"]], "hash-allele": [["#", "+"]]}

ROW_MUTATION = st.tuples(
    st.sampled_from(["pad", "tab", "lead", "value-space", "value", "comment", "blank",
                     "repeat", "split", "six-fields", "bad-gender"]),
    st.integers(0, 10**6),
    st.sampled_from(["1_0", "-0.0", "nan", "1e400", "-1"]),
)


def mutate_rows(text, mutations):
    """Apply row-level faults and oddities to a canonical table's body."""
    lines = text.split("\n")[:-1]
    head = next(k for k, line in enumerate(lines) if line in (COUNTS_HEADER, MEASURE_HEADER)) + 1
    for kind, at, value in mutations:
        if len(lines) == head:
            break
        k = head + at % (len(lines) - head)
        fields = lines[k].split(",")
        if kind == "pad" and len(fields) > 1:
            lines[k] = ",".join(fields[:1] + [f" {fields[1]} "] + fields[2:])
        elif kind == "tab":
            lines[k] = lines[k] + "\t"
        elif kind == "lead":
            lines[k] = " " + lines[k]
        elif kind == "value-space":
            lines[k] = ",".join(fields[:-1] + [f" {fields[-1]}\t "])
        elif kind == "value":
            lines[k] = ",".join(fields[:-1] + [value])
        elif kind in ("comment", "blank"):
            lines.insert(k, "# a comment" if kind == "comment" else "")
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "split":
            lines.append(lines.pop(k))
        elif kind == "six-fields":
            lines[k] = lines[k] + ",4"
        elif kind == "bad-gender" and len(fields) > 2:
            lines[k] = ",".join(fields[:2] + ["x"] + fields[3:])
    return lines


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["counts", "measure"]),
       name=st.sampled_from(sorted(SPACES) + sorted(ODD_SPACES)),
       seed=st.integers(0, 2**16),
       mutations=st.lists(ROW_MUTATION, max_size=3),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_fast_rows_match_the_per_line_loop(kind, name, seed, mutations, newline):
    components = {**SPACES, **ODD_SPACES}[name]
    gen = rng(seed)
    if kind == "counts":
        header, nonnegative = COUNTS_HEADER, True
        text = counts_text(gen, components, fractional=bool(seed % 2))
    else:
        header, nonnegative = MEASURE_HEADER, False
        text = measure_text(gen, components)
    text = newline.join(mutate_rows(text, mutations)) + newline
    lines = ingest._split_lines(text)
    assert parse_outcome(lines, header, nonnegative) == per_line_outcome(lines, header,
                                                                         nonnegative)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_canonical_files_never_take_the_per_line_loop(tmp_path, monkeypatch, newline):
    def per_line(*args):
        raise AssertionError("a canonical file went through the per-line loop")

    monkeypatch.setattr(ingest, "_parse_rows", per_line)
    space = build_space(SPACES["mixed-3-2-2"])
    assert space.m >= 6
    gen = rng(18)
    labels, _ = space.label_table
    rows = tuple(CountRow(labels[i], labels[j], GENDERS[s // space.m], labels[s % space.m],
                          float(gen.integers(0, 40)))
                 for i in range(space.m) for j in range(space.m)
                 for s in range(space.total) if gen.random() < 0.7)
    counts = CountsTable(space, rows)
    family = random_symmetric_family(gen, space)
    save_counts(counts, tmp_path / "counts.csv")
    save_measure_family(family, tmp_path / "family.csv")
    for name in ("counts.csv", "family.csv"):
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert load_counts(tmp_path / "counts.csv") == counts
    assert np.array_equal(load_measure_family(tmp_path / "family.csv").mu, family.mu)


# --- estimates from a loaded table's columns -------------------------------------------

def estimate_outcomes(table):
    """``estimate_measures``' bytes, or its error, for both ``symmetrize`` values."""
    outcomes = []
    for symmetrize in (False, True):
        try:
            outcomes.append(estimate_measures(table.space, table, symmetrize).mu.tobytes())
        except QsoError as exc:
            outcomes.append(error_outcome(exc))
    return outcomes


def check_loaded_estimates(lines):
    """A loaded table estimates from its columns, bitwise as from its rows."""
    try:
        table = ingest._counts_table(lines)
    except QsoError:
        return None
    got = estimate_outcomes(table)
    assert "rows" not in vars(table)  # estimating read no rows
    assert got == estimate_outcomes(CountsTable(table.space, table.rows))
    return got


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(SPACES) + sorted(ODD_SPACES)),
       seed=st.integers(0, 2**16),
       mutations=st.lists(ROW_MUTATION, max_size=3),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_estimate_from_columns_matches_rows(name, seed, mutations, newline):
    gen = rng(seed)
    text = counts_text(gen, {**SPACES, **ODD_SPACES}[name], fractional=bool(seed % 2))
    check_loaded_estimates(ingest._split_lines(newline.join(mutate_rows(text, mutations))
                                               + newline))


@pytest.mark.parametrize("name, base, line_no, replacement",
                         SINGLE_FAULTS + [("rh", RH_COUNTS, 1, "# space: +,-"),
                                          ("multi", MULTI_MEASURE, 1, "# space: A,a;B,b")],
                         ids=[fault[0] for fault in SINGLE_FAULTS] + ["rh", "multi"])
def test_estimate_from_columns_matches_rows_on_single_fault_files(name, base, line_no,
                                                                  replacement):
    lines = ingest._split_lines(with_fault(base, line_no, replacement, COUNTS_HEADER))
    got = check_loaded_estimates(lines)
    if name == "rh":  # gender-symmetric, every pair present
        assert all(isinstance(outcome, bytes) for outcome in got)
    elif name == "multi":  # 2 of 16 parent pairs
        assert [outcome[0] for outcome in got] == [MissingParentPair] * 2
    else:  # the reader rejects each of these files, so no table is estimated
        assert got is None


def test_estimate_from_columns_reports_asymmetry_as_rows_do():
    gen = rng(21)
    got = check_loaded_estimates(ingest._split_lines(counts_text(gen, SPACES["abo"])))
    assert got[0][0] is AsymmetricMeasure and isinstance(got[1], bytes)
