"""File formats and frequency estimation for measure families.

Both file kinds share one CSV dialect: a leading ``# space:`` line
declaring the trait components, a fixed header, then one row per
(mother, father, child) entry.  Components are separated by ``;`` and
allele labels by ``,``; multi-component trait labels join alleles with
``|``.  UTF-8, LF or CRLF, decimal point only; values must be finite.

    # space: +,-
    mother,father,child_gender,child_type,value
    +,+,f,+,0.4925
    ...

Counts files carry a ``count`` column instead of ``value``.  Rows of one
parent pair must be contiguous; missing child rows count as zero; a
completely missing parent pair is an error.  ``save_counts`` runs the
reader over the text it is about to write, so it cannot write a table
that ``load_counts`` rejects or reads back differently.

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
a structural fault (header, field count, label, repeated or split rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricMeasure,
    DimensionMismatch,
    InvariantViolation,
    MissingParentPair,
    ParseError,
    QsoError,
    SchemaError,
    ZeroTotal,
)
from .genotype import GENDERS, GenotypeSpace, build_space
from .operators import TABLE_TOL, MeasureFamily, ValidationReport, _check_gender_gap, _frozen

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
    """

    space: GenotypeSpace
    rows: tuple[CountRow, ...]


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
    if counts.space is not space and counts.space != space:
        raise DimensionMismatch("counts table was built for a different space")
    m = space.m
    _, index = space.label_table
    offsets = {gender: g * m for g, gender in enumerate(GENDERS)}
    cells = []
    values = []
    for row in counts.rows:
        _check_count(row)
        i = index.get(row.mother)
        j = index.get(row.father)
        offset = offsets.get(row.child_gender)
        t = index.get(row.child_type)
        if i is None or j is None or offset is None or t is None:
            _check_labels(space, row.mother, row.father, row.child_gender, row.child_type)
        cells.append((i * m + j) * space.total + offset + t)
        values.append(row.count)
    cells = np.array(cells, dtype=np.intp)
    # in row order from +0.0, so repeated cells sum as a Python loop would
    acc = np.bincount(cells, weights=np.array(values, dtype=float),
                      minlength=m * m * space.total).reshape(m, m, -1)
    seen = np.zeros(m * m, dtype=bool)
    seen[cells // space.total] = True
    if not seen.all():
        i, j = divmod(int(np.argmin(seen)), m)
        raise MissingParentPair(
            f"no rows for pair ({space.trait_label(i)} x {space.trait_label(j)})"
        )
    totals = acc.sum(axis=2)
    if np.any(totals <= 0):
        i, j = map(int, np.argwhere(totals <= 0)[0])
        raise ZeroTotal(
            f"pair ({space.trait_label(i)} x {space.trait_label(j)}) has zero total count"
        )
    mu = acc / totals[:, :, None]
    if symmetrize:
        pooled = 0.5 * (mu[:, :, :m] + mu[:, :, m:])
        mu = np.concatenate([pooled, pooled], axis=2)
    else:
        _check_gender_gap(mu, AsymmetricMeasure, "counts are gender-asymmetric (max frequency "
                          "gap {}); pass symmetrize=True to pool genders")
    return MeasureFamily(space, _frozen(mu))


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
        return build_space(components)
    except QsoError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc


def _split_lines(text: str) -> list[str]:
    # universal newlines, as text-mode reading applies them
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_lines(path) -> list[str]:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _split_lines(data[:exc.start].decode("utf-8"))
        line, column = len(before), len(before[-1]) + 1
        raise ParseError(
            f"line {line}, column {column}: invalid UTF-8 byte {data[exc.start]:#04x}",
            line=line,
            column=column,
        ) from exc
    return _split_lines(text)


def _field_column(line: str, field_index: int) -> int:
    """1-based character offset of a comma-separated field."""
    col = 0
    for _ in range(field_index):
        col = line.index(",", col) + 1
    return col + 1


def _value_error(line_no: int, raw_line: str, what: str) -> ParseError:
    column = _field_column(raw_line, 4)
    return ParseError(f"line {line_no}, column {column}: {what}", line=line_no, column=column)


def _check_labels(space: GenotypeSpace, mother: str, father: str, gender: str,
                  child: str) -> None:
    """Raise ``ValueError`` for the first unknown label or gender of a row."""
    space.trait_index_of_label(mother)
    space.trait_index_of_label(father)
    if gender not in GENDERS:
        raise ValueError(f"child_gender must be 'f' or 'm', got {gender!r}")
    space.trait_index_of_label(child)


def _read_head(lines: list[str], expected_header: str) -> tuple[GenotypeSpace, int]:
    """Parse the ``# space:`` line and the header; return the space and the
    index of the first line after the header."""
    space = None
    for k, line in enumerate(lines):
        line_no = k + 1
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
        return space, k + 1
    raise SchemaError("file has no header row")


def _parse_rows(space: GenotypeSpace, lines: list[str], start: int, nonnegative: bool):
    """Parse the data rows from ``lines[start]`` on, one line at a time.

    Each row is checked as it is read (field count, labels, a finite value,
    non-negative when ``nonnegative``, no repeated cell, contiguous parent
    pairs), so the first faulty line is the one reported.
    """
    m, total = space.m, space.total
    _, index = space.label_table
    offsets = {gender: g * m for g, gender in enumerate(GENDERS)}
    cells = []
    values = []
    seen_cells: set[int] = set()
    pairs: set[int] = set()
    current = None
    for line_no, line in enumerate(lines[start:], start=start + 1):
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
        fields = [f.strip() for f in fields]
        mother, father, gender, child, value = fields
        i = index.get(mother)
        j = index.get(father)
        offset = offsets.get(gender)
        t = index.get(child)
        if i is None or j is None or offset is None or t is None:
            try:
                _check_labels(space, mother, father, gender, child)
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
        pair = i * m + j
        cell = pair * total + offset + t
        if cell in seen_cells:
            raise SchemaError(
                f"line {line_no}: duplicate row for pair {(i, j)}, child {offset + t}"
            )
        seen_cells.add(cell)
        if pair != current:
            if pair in pairs:
                raise SchemaError(f"rows for parent pair {(i, j)} are not contiguous")
            pairs.add(pair)
            current = pair
        cells.append(cell)
        values.append(v)
    return cells, values


def _fast_rows(space: GenotypeSpace, lines: list[str], start: int, nonnegative: bool):
    """Parse rows of the exact form ``label,label,gender,label,value``.

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
    end = len(lines)
    while end > start and not lines[end - 1]:
        end -= 1
    cells = []
    values = []
    runs = []
    prefix = "\n"  # no line holds a newline, so the first row sets the pair
    try:
        for line in lines[start:end]:
            if not line.startswith(prefix):
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
    v = np.array(values)
    if (not np.isfinite(v).all() or (nonnegative and (v < 0).any())
            or len(set(runs)) != len(runs)
            or (cells and np.bincount(cells).max() > 1)):
        return None
    return cells, values


def _parse_table(lines: list[str], expected_header: str, nonnegative: bool = False):
    """Parse a table: its space line and header, then its data rows.

    Returns ``(space, cells, values)``: the declared space, and the flat
    index ``(i * m + j) * total + s`` and the value of every data row in
    file order.  The rows go through ``_fast_rows``; a file it declines is
    read again by ``_parse_rows``, which reports the first faulty line.
    """
    space, start = _read_head(lines, expected_header)
    rows = _fast_rows(space, lines, start, nonnegative)
    if rows is None:
        rows = _parse_rows(space, lines, start, nonnegative)
    return (space, *rows)


def load_counts(path) -> CountsTable:
    """Read a counts CSV; missing child rows are implicit zeros."""
    return _counts_table(_read_lines(path))


def _counts_table(lines: list[str]) -> CountsTable:
    space, cells, values = _parse_table(lines, COUNTS_HEADER, nonnegative=True)
    labels, _ = space.label_table
    m, total = space.m, space.total
    rows = []
    for cell, v in zip(cells, values):
        pair, s = divmod(cell, total)
        i, j = divmod(pair, m)
        rows.append(CountRow(labels[i], labels[j], GENDERS[s // m], labels[s % m], v))
    return CountsTable(space, tuple(rows))


def read_measure_family(path) -> MeasureFamily:
    """Parse a measure-family CSV without checking value invariants."""
    space, cells, values = _parse_table(_read_lines(path), MEASURE_HEADER)
    m = space.m
    cells = np.array(cells, dtype=np.intp)
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


def save_measure_family(family: MeasureFamily, path) -> None:
    """Write a measure family in canonical order; values round-trip exactly."""
    space = family.space
    labels, _ = space.label_table
    children = [f"{gender},{label}" for gender in GENDERS for label in labels]
    complete = ~np.isnan(family.mu).any(axis=2)
    lines = [f"# space: {_format_space(space)}", MEASURE_HEADER]
    for i, j in zip(*np.nonzero(complete)):
        parents = f"{labels[i]},{labels[j]}"
        lines.extend(f"{parents},{child},{v!r}"
                     for child, v in zip(children, family.mu[i, j].tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
