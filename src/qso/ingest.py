"""File formats and frequency estimation for measure families.

Both file kinds share one CSV dialect: a leading ``# space:`` line
declaring the trait components, a fixed header, then one row per
(mother, father, child) entry.  Components are separated by ``;`` and
allele labels by ``,``; multi-component trait labels join alleles with
``|``.  UTF-8, LF, CRLF or CR line ends; values are read by Python's ``float`` (so
``1_000`` and non-ASCII decimal digits load, ``0x1`` does not) and must be finite.

    # space: +,-
    mother,father,child_gender,child_type,value
    +,+,f,+,0.4925
    ...

Counts files carry a ``count`` column instead of ``value``.  Rows of one
parent pair must be contiguous; missing child rows count as zero; a
completely missing parent pair is an error.  ``save_counts`` runs the
reader over the text it is about to write, so it cannot write a table
that ``load_counts`` rejects or reads back differently.
``save_measure_family`` runs the reader over a probe of the space instead,
before writing: its values are finite by construction, so only labels
could read back wrong.

A table's rows are read by a fast loop that takes only rows of the exact
form ``label,label,gender,label,value`` with labels from the space's own
``label_table``: it carries the current ``mother,father,`` prefix, looks the
rest of the row up whole and parses the value with ``float``.  The cells
and values are then checked as arrays (finite, non-negative counts, no
repeated cell, one run per parent pair).  A file with any other row (padded
fields, a comment or blank line mid-body, a bad label or value) or a failed
check is read again line by line, checking each row as it is read, so the
result and the first faulty line reported are those of the per-line loop
alone.  Malformed files raise a
``QsoError``: ``ParseError`` with the line and column of a byte that is
not UTF-8 or of a value that is not a finite number, ``SchemaError`` for
a structural fault (header, field count, label, repeated or split rows) or
for a declared space whose (m, m, 2m) family of doubles is more bytes than
an array can hold.

Either loop returns two read-only columns in file order: each row's flat
cell index ``(i * m + j) * total + s`` and its value.  A ``CountsTable``
from ``load_counts`` holds these checked columns, and ``estimate_measures``
sums them in one ``np.bincount``; the table's ``rows``, one ``CountRow``
per file row, are built from them on first access, once.  A table built
as ``CountsTable(space, rows)`` is turned into columns by a per-row loop
that checks each count and label.  Both per-row loops resolve a row's
labels to its cell through one helper, ``_row_cell``.

No text is held whole, so a read or a write needs memory in proportion to
the columns, not to the lines.  A file's lines come from one re-iterable
source over its bytes, ``_Lines``: each pass decodes them from the top
through a fresh ``io.TextIOWrapper`` (universal newlines, so only ``\n``,
``\r\n`` and ``\r`` end a line), after one whole-file UTF-8 check that
ASCII files skip.  The head and the fast loop share one pass and the
per-line loop makes its own.  Both loops append to typed ``array.array``
columns; the per-line loop marks the cells and parent pairs it has seen in
two ``bytearray``s, a byte each.  ``save_measure_family`` writes one parent
pair's rows at a time.  Float ``repr`` is most of its time, so a pair whose
female and male halves are equal byte for byte, as every pair of a
gender-symmetric family is, has its ``label,value`` texts formatted once and
written under both genders.  On the ``ingest-pipeline`` bench's 84,074-row,
1.4 MB counts file and its 3.2 MB family (Python 3.11, x86-64), the
``tracemalloc`` peaks above each call's start are 4.2 MB for
``load_counts``, 0.8 MB for ``save_measure_family`` and 6.3 MB for
``load_measure_family`` (13.7, 15.0 and 16.9 MB with the text and its lines
held whole), and the first ``rows`` read peaks at 8.8 MB for the 8.7 MB it
keeps (12.8 MB with two whole-column lists).  With one row padded, so that
the per-line loop reads the counts file, ``load_counts`` peaks at 4.2 MB
too (13.5 MB with lists and sets).  Saving that family takes 47-72 ms
(85-121 ms when every value is formatted) and loading it 101-178 ms (best
of 25 saves and of 9 loads, one pinned core of a busy 2-vCPU box, three
runs).
"""

from __future__ import annotations

import array
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricMeasure,
    InvariantViolation,
    MissingParentPair,
    ParseError,
    QsoError,
    SchemaError,
    ZeroTotal,
)
from .genotype import GENDERS, GenotypeSpace, build_space
from .operators import (TABLE_TOL, MeasureFamily, ValidationReport, _check_gender_gap,
                        _check_space, _frozen, _pair_label, _read_only, _rebuilt)

MEASURE_HEADER = "mother,father,child_gender,child_type,value"
COUNTS_HEADER = "mother,father,child_gender,child_type,count"


@dataclass(frozen=True, slots=True)
class CountRow:
    mother: str
    father: str
    child_gender: str
    child_type: str
    count: float


@dataclass(frozen=True)
class CountsTable:
    """Raw child counts per (mother, father) pair.

    Counts are usually integers; fractional values are accepted so that
    exact proportions and weighted records can be ingested unchanged.

    A table that ``load_counts`` returns holds the file's checked cell
    indices and counts as two read-only columns, and builds ``rows`` from
    them, in file order, on first access, once.  It equals, hashes and prints
    as the table ``CountsTable(space, rows)``, and its copy is that table.
    """

    space: GenotypeSpace
    rows: tuple[CountRow, ...]

    def __getattr__(self, name):
        # called only for a missing attribute: ``rows`` of a loaded table
        # that no caller has read yet
        columns = vars(self).get("_columns")
        if name != "rows" or columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        # setdefault: every caller gets the one tuple that is kept
        return vars(self).setdefault("rows", _count_rows(self.space, *columns))

    __reduce__ = _rebuilt


def _count_rows(space: GenotypeSpace, cells: np.ndarray,
                values: np.ndarray) -> tuple[CountRow, ...]:
    labels, _ = space.label_table
    m, total = space.m, space.total

    def row(cell: int, v: float) -> CountRow:
        pair, s = divmod(cell, total)
        i, j = divmod(pair, m)
        return CountRow(labels[i], labels[j], GENDERS[s // m], labels[s % m], v)

    # memoryviews yield one Python int and float at a time, not two whole lists
    return tuple(map(row, memoryview(cells), memoryview(values)))


def _read_only_columns(cells, values) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices and values as read-only intp and float arrays."""
    return _read_only(cells, np.intp), _read_only(values)


def _check_count(row: CountRow) -> None:
    """Reject the negative and non-finite counts that the counts reader rejects."""
    if row.count < 0:
        raise ValueError(f"negative count {row.count} for {row}")
    if not math.isfinite(row.count):
        raise ValueError(f"non-finite count {row.count} for {row}")


def estimate_measures(space: GenotypeSpace, counts: CountsTable,
                      symmetrize: bool = False) -> MeasureFamily:
    """Per-pair relative child frequencies from raw counts.

    With ``symmetrize`` the female/male counts of each trait are pooled
    and split evenly, enforcing gender symmetry exactly.  Without it,
    gender-asymmetric counts raise ``AsymmetricMeasure`` instead of being
    silently averaged.
    """
    _check_space(counts.space, space, "counts table")
    m = space.m
    columns = getattr(counts, "_columns", None)
    cells, values = columns if columns is not None else _row_columns(space, counts.rows)
    # in row order from +0.0, so repeated cells sum as a Python loop would
    acc = np.bincount(cells, weights=values, minlength=m * m * space.total).reshape(m, m, -1)
    seen = np.zeros(m * m, dtype=bool)
    seen[cells // space.total] = True
    if not seen.all():
        i, j = divmod(int(np.argmin(seen)), m)
        raise MissingParentPair(f"no rows for pair ({_pair_label(space, i, j)})")
    totals = acc.sum(axis=2)
    if np.any(totals <= 0):
        i, j = map(int, np.argwhere(totals <= 0)[0])
        raise ZeroTotal(f"pair ({_pair_label(space, i, j)}) has zero total count")
    mu = acc / totals[:, :, None]
    if symmetrize:
        pooled = 0.5 * (mu[:, :, :m] + mu[:, :, m:])
        mu = np.concatenate([pooled, pooled], axis=2)
    else:
        _check_gender_gap(mu, AsymmetricMeasure, "counts are gender-asymmetric (max frequency "
                          "gap {}); pass symmetrize=True to pool genders")
    return MeasureFamily(space, _frozen(mu))


def _row_columns(space: GenotypeSpace, rows) -> tuple[np.ndarray, np.ndarray]:
    """The cell and count columns of in-memory rows, checking each row's
    count and then its labels in row order."""
    cells = []
    values = []
    for row in rows:
        _check_count(row)
        cells.append(_row_cell(space, row.mother, row.father, row.child_gender, row.child_type))
        values.append(row.count)
    return _read_only_columns(cells, values)


# --- CSV plumbing -----------------------------------------------------------

def _format_space(space: GenotypeSpace) -> str:
    return ";".join(",".join(comp) for comp in space.components)


def _parse_space(spec: str, line_no: int) -> GenotypeSpace:
    components = []
    for part in spec.split(";"):
        labels = [a.strip() for a in part.split(",")]
        if any(not a for a in labels):
            raise SchemaError(f"line {line_no}: empty allele label in space spec {spec!r}")
        components.append(labels)
    try:
        space = build_space(components)
    except QsoError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    # NumPy refuses an array of more bytes than an intp holds; refusing the
    # space here spares building label maps for it first
    cells = space.m * space.m * space.total
    if cells * 8 > np.iinfo(np.intp).max:
        raise SchemaError(f"line {line_no}: space of {space.m} trait combinations needs "
                          f"{cells} values per family, more than an array can hold")
    return space


class _Lines:
    """The lines of UTF-8 ``data`` under universal newlines: ``\r\n`` and ``\r``
    read as ``\n``, and every line but perhaps the last ends in ``\n``.

    Each iteration decodes ``data`` from the top through a fresh
    ``io.TextIOWrapper``, a chunk at a time, so the text is never held whole."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def __iter__(self):
        return io.TextIOWrapper(io.BytesIO(self.data), encoding="utf-8", newline=None)


def _split_lines(text: str) -> _Lines:
    return _Lines(text.encode("utf-8"))


def _read_lines(path) -> _Lines:
    data = Path(path).read_bytes()
    if not data.isascii():
        # the whole file first, so a bad byte wins over any earlier fault
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = "".join(_Lines(data[:exc.start])).split("\n")
            line, column = len(before), len(before[-1]) + 1
            raise ParseError(
                f"line {line}, column {column}: invalid UTF-8 byte {data[exc.start]:#04x}",
                line=line,
                column=column,
            ) from exc
    return _Lines(data)


def _value_error(line_no: int, raw_line: str, what: str) -> ParseError:
    """``what`` at the value field of a row that splits into five fields."""
    column = raw_line.rindex(",") + 2
    return ParseError(f"line {line_no}, column {column}: {what}", line=line_no, column=column)


def _row_cell(space: GenotypeSpace, mother: str, father: str, gender: str, child: str) -> int:
    """The flat cell ``(i * m + j) * total + s`` of a row's labels; ``ValueError``
    for the first unknown label or gender, in column order."""
    m, index = space.m, space.label_table[1]
    if mother in index and father in index and gender in GENDERS and child in index:
        return ((index[mother] * m + index[father]) * 2 + GENDERS.index(gender)) * m + index[child]
    # one of the four is unknown: raise for the first
    space.trait_index_of_label(mother)
    space.trait_index_of_label(father)
    if gender not in GENDERS:
        raise ValueError(f"child_gender must be 'f' or 'm', got {gender!r}")
    space.trait_index_of_label(child)


def _read_head(lines, expected_header: str) -> tuple[GenotypeSpace, int]:
    """Parse the ``# space:`` line and the header; return the space and the
    header's line number.  Given an iterator, it stops just after the header."""
    space = None
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
        if stripped != expected_header:
            raise SchemaError(
                f"line {line_no}: expected header {expected_header!r}, got {stripped!r}"
            )
        if space is None:
            raise SchemaError("missing '# space:' declaration before header")
        return space, line_no
    raise SchemaError("file has no header row")


def _parse_rows(space: GenotypeSpace, lines: _Lines, start: int, nonnegative: bool):
    """Parse the data rows after line ``start`` of ``lines``, one line at a time.

    Each row is checked as it is read (field count, labels, a finite value,
    non-negative when ``nonnegative``, no repeated cell, contiguous parent
    pairs), so the first faulty line is the one reported.
    """
    m, total = space.m, space.total
    cells = array.array(np.dtype(np.intp).char)
    values = array.array("d")
    seen_cells = bytearray(m * m * total)  # a byte a cell; the fast loop's bincount takes 8
    seen_pairs = bytearray(m * m)
    current = None
    for line_no, line in itertools.islice(enumerate(lines, start=1), start, None):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("space:"):
                raise SchemaError(f"line {line_no}: duplicate space declaration")
            continue
        fields = stripped.split(",")
        if len(fields) != 5:
            raise SchemaError(
                f"line {line_no}: expected 5 comma-separated fields, got {len(fields)}"
            )
        mother, father, gender, child, value = [f.strip() for f in fields]
        try:
            cell = _row_cell(space, mother, father, gender, child)
        except ValueError as exc:
            raise SchemaError(f"line {line_no}: {exc}") from exc
        try:
            v = float(value)
        except ValueError as exc:
            raise _value_error(line_no, line, f"cannot parse {value!r} as a number") from exc
        if not math.isfinite(v):
            raise _value_error(line_no, line, f"{value!r} is not a finite number")
        if nonnegative and v < 0:
            raise InvariantViolation(f"line {line_no}: negative count {v}")
        pair, s = divmod(cell, total)
        if seen_cells[cell]:
            raise SchemaError(f"line {line_no}: duplicate row for pair "
                              f"{divmod(pair, m)}, child {s}")
        seen_cells[cell] = 1
        if pair != current:
            if seen_pairs[pair]:
                raise SchemaError(f"rows for parent pair {divmod(pair, m)} "
                                  "are not contiguous")
            seen_pairs[pair] = 1
            current = pair
        cells.append(cell)
        values.append(v)
    return _read_only_columns(cells, values)


def _fast_rows(space: GenotypeSpace, rows, nonnegative: bool):
    """Parse the lines left in the iterator ``rows``, each of the exact form
    ``label,label,gender,label,value``.

    Returns ``(cells, values)`` as ``_parse_rows`` does, or None for any
    file whose rows it cannot take exactly: a missed label or child key
    (padding, a wrong field count, an unknown or ambiguous label), a blank
    or comment line before the trailing blank lines, a value ``float``
    rejects, or a row that fails the whole-file checks.
    """
    m, total = space.m, space.total
    _, index = space.label_table
    if any(label.startswith("#") for label in index):
        return None  # such a row reads as a comment
    children = {f"{gender},{label}": g * m + t
                for g, gender in enumerate(GENDERS) for label, t in index.items()}
    cells = array.array(np.dtype(np.intp).char)
    values = array.array("d")
    runs = []
    prefix = "\r"  # no line holds a '\r', so the first row sets the pair
    try:
        for line in rows:
            if not line.startswith(prefix):
                if line == "\n":  # blank lines may only follow the last row
                    if any(rest != "\n" for rest in rows):
                        return None
                    break
                mother, father, _ = line.split(",", 2)
                pair = index[mother] * m + index[father]
                runs.append(pair)
                prefix = f"{mother},{father},"
                cut = len(prefix)
                base = pair * total
            child, _, value = line[cut:].rpartition(",")
            cells.append(base + children[child])
            values.append(float(value))
    except (KeyError, ValueError):
        return None
    cells, values = _read_only_columns(cells, values)
    if (not np.isfinite(values).all() or (nonnegative and (values < 0).any())
            or len(set(runs)) != len(runs)
            or (cells.size and np.bincount(cells).max() > 1)):
        return None
    return cells, values


def _parse_table(lines: _Lines, expected_header: str, nonnegative: bool = False):
    """Parse a table: its space line and header, then its data rows.

    Returns ``(space, cells, values)``: the declared space, and the flat
    index ``(i * m + j) * total + s`` and the value of every data row in
    file order, as read-only intp and float arrays.  The rows go through
    ``_fast_rows``; a file it declines is read again by ``_parse_rows``,
    which reports the first faulty line.
    """
    rest = iter(lines)  # the head and the fast loop share one pass
    space, start = _read_head(rest, expected_header)
    rows = _fast_rows(space, rest, nonnegative)
    if rows is None:
        rows = _parse_rows(space, lines, start, nonnegative)
    return (space, *rows)


def load_counts(path) -> CountsTable:
    """Read a counts CSV; missing child rows are implicit zeros."""
    return _counts_table(_read_lines(path))


def _counts_table(lines: _Lines) -> CountsTable:
    """A table that holds the reader's checked, read-only columns as they come."""
    space, *columns = _parse_table(lines, COUNTS_HEADER, nonnegative=True)
    table = object.__new__(CountsTable)
    object.__setattr__(table, "space", space)
    object.__setattr__(table, "_columns", tuple(columns))
    return table


def read_measure_family(path) -> MeasureFamily:
    """Parse a measure-family CSV without checking value invariants."""
    space, cells, values = _parse_table(_read_lines(path), MEASURE_HEADER)
    m = space.m
    mu = np.full((m, m, space.total), np.nan)
    mu.reshape(-1)[cells] = values
    # missing child rows within a declared pair are zeros
    declared = np.zeros(m * m, dtype=bool)
    declared[cells // space.total] = True
    mu[np.isnan(mu) & declared.reshape(m, m, 1)] = 0.0
    return MeasureFamily(space, _frozen(mu))


def load_measure_family(path, tol: float = TABLE_TOL) -> MeasureFamily:
    """Read a measure-family CSV and check its invariants at ``tol``.

    Raises ``InvariantViolation`` carrying the full violation report when
    values are negative, rows are off unit mass, genders are asymmetric,
    or a parent pair is absent.
    """
    family = read_measure_family(path)
    violations = family.validate(tol)
    if violations:
        report = ValidationReport(tuple(violations), tol)
        raise InvariantViolation(f"{path}: {report}", report=report)
    return family


def _check_space_reads_back(space: GenotypeSpace) -> None:
    """Raise ``ValueError`` unless a file of ``space`` reads back as ``space``.

    The reader runs over a probe: the ``# space:`` line, the header and one
    row per trait label, as mother, father and child.  Every row of a file
    is made of these labels in these columns, so the file reads back
    exactly when the probe reads back as ``space`` with those cells."""
    labels, _ = space.label_table
    lines = [f"# space: {_format_space(space)}", MEASURE_HEADER]
    lines += [f"{label},{label},f,{label},0" for label in labels]
    try:
        read, cells, _ = _parse_table(_split_lines("\n".join(lines)), MEASURE_HEADER)
    except QsoError as exc:
        reason = str(exc)
    else:
        t = np.arange(space.m)
        if read == space and np.array_equal(cells, (t * space.m + t) * space.total + t):
            return
        reason = (f"its '# space:' line reads as {read.components!r}" if read != space
                  else f"{cells.size} of its {space.m} probe rows read back")
    raise ValueError(f"space {space.components!r} would not read back: {reason}")


def save_measure_family(family: MeasureFamily, path) -> None:
    """Write a measure family in canonical order; values round-trip exactly.

    A space whose file would not read back as that space raises
    ``ValueError`` before anything is written.

    A pair's female and male halves that are equal byte for byte (so a
    ``-0.0`` against a ``0.0`` is not) share one list of ``label,value``
    texts, formatted once and written under both genders; other pairs
    format each half."""
    space = family.space
    _check_space_reads_back(space)
    labels, _ = space.label_table
    m = space.m
    complete = ~np.isnan(family.mu).any(axis=2)

    def texts(half: np.ndarray) -> list[str]:
        return [f"{label},{v!r}" for label, v in zip(labels, half.tolist())]

    # opened as ``Path.write_text`` opens it, and written one parent pair at a time
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(f"# space: {_format_space(space)}\n{MEASURE_HEADER}\n")
        for i, j in zip(*np.nonzero(complete)):
            female, male = family.mu[i, j, :m], family.mu[i, j, m:]
            female_texts = texts(female)
            male_texts = female_texts if female.tobytes() == male.tobytes() else texts(male)
            for gender, half in zip(GENDERS, (female_texts, male_texts)):
                lead = f"{labels[i]},{labels[j]},{gender},"
                out.write(lead + f"\n{lead}".join(half) + "\n")


def save_counts(counts: CountsTable, path) -> None:
    """Write a counts table; integral counts are written without a decimal point.

    The reader runs over the text first, and a table that ``load_counts``
    would reject or read back differently raises ``ValueError`` before
    anything is written: a negative or non-finite count, any fault the reader
    finds (an unknown label or gender, a repeated cell, a parent pair whose
    rows are not contiguous), or a label the reader would strip or skip."""
    lines = [f"# space: {_format_space(counts.space)}", COUNTS_HEADER]
    for row in counts.rows:
        _check_count(row)
        c = float(row.count)
        text = repr(int(c)) if c.is_integer() else repr(c)
        lines.append(f"{row.mother},{row.father},{row.child_gender},{row.child_type},{text}")
    text = "\n".join(lines) + "\n"
    try:
        loaded = _counts_table(_split_lines(text))
    except QsoError as exc:
        raise ValueError(f"counts table would not load: {exc}") from exc
    if loaded != CountsTable(counts.space, tuple(counts.rows)):
        raise ValueError("counts table would load as a different table: the reader "
                         "strips labels and skips lines that start with '#'")
    Path(path).write_text(text, encoding="utf-8")
