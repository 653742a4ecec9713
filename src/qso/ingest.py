"""File formats and frequency estimation for measure families.

Both file kinds share one CSV dialect: a leading ``# space:`` line
declaring the trait components, a fixed header, then one row per
(mother, father, child) entry.  Components are separated by ``;`` and
allele labels by ``,``; multi-component trait labels join alleles with
``|``.  UTF-8, LF or CRLF, decimal point only.

    # space: +,-
    mother,father,child_gender,child_type,value
    +,+,f,+,0.4925
    ...

Counts files carry a ``count`` column instead of ``value``.  Rows of one
parent pair must be contiguous; missing child rows count as zero; a
completely missing parent pair is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricMeasure,
    InvariantViolation,
    MissingParentPair,
    ParseError,
    SchemaError,
    ZeroTotal,
)
from .genotype import GENDERS, GenotypeSpace, build_space
from .operators import TABLE_TOL as LOAD_TOL
from .operators import MeasureFamily, ValidationReport

MEASURE_HEADER = "mother,father,child_gender,child_type,value"
COUNTS_HEADER = "mother,father,child_gender,child_type,count"


@dataclass(frozen=True)
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


def estimate_measures(space: GenotypeSpace, counts: CountsTable,
                      symmetrize: bool = False) -> MeasureFamily:
    """Per-pair relative child frequencies from raw counts.

    With ``symmetrize`` the female/male counts of each trait are pooled
    and split evenly, enforcing gender symmetry exactly.  Without it,
    gender-asymmetric counts raise ``AsymmetricMeasure`` instead of being
    silently averaged.
    """
    m = space.m
    acc = np.zeros((m, m, space.total))
    seen: set[tuple[int, int]] = set()
    for row in counts.rows:
        if row.count < 0:
            raise ValueError(f"negative count {row.count} for {row}")
        i = space.trait_index_of_label(row.mother)
        j = space.trait_index_of_label(row.father)
        g = GENDERS.index(row.child_gender)
        s = g * m + space.trait_index_of_label(row.child_type)
        acc[i, j, s] += row.count
        seen.add((i, j))
    for i in range(m):
        for j in range(m):
            if (i, j) not in seen:
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
        gap = np.abs(mu[:, :, :m] - mu[:, :, m:]).max()
        if gap > 1e-9:
            raise AsymmetricMeasure(
                f"counts are gender-asymmetric (max frequency gap {gap}); "
                "pass symmetrize=True to pool genders"
            )
    return MeasureFamily(space, mu)


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
    return build_space(components)


def _read_lines(path) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    return text.replace("\r\n", "\n").split("\n")


def _parse_table(path, expected_header: str):
    """Common parser: returns (space, rows) where each row is
    (line_no, mother, father, child_gender, child_type, raw_value)."""
    lines = _read_lines(path)
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


def _field_column(line: str, field_index: int) -> int:
    """1-based character offset of a comma-separated field."""
    col = 0
    for _ in range(field_index):
        col = line.index(",", col) + 1
    return col + 1


def _resolve_row(space: GenotypeSpace, line_no: int, raw_line: str, fields: list[str]):
    mother, father, gender, child, value = fields
    try:
        i = space.trait_index_of_label(mother)
    except ValueError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    try:
        j = space.trait_index_of_label(father)
    except ValueError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    if gender not in GENDERS:
        raise SchemaError(f"line {line_no}: child_gender must be 'f' or 'm', got {gender!r}")
    try:
        t = space.trait_index_of_label(child)
    except ValueError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from exc
    try:
        v = float(value)
    except ValueError as exc:
        raise ParseError(
            f"line {line_no}, column {_field_column(raw_line, 4)}: "
            f"cannot parse {value!r} as a number",
            line=line_no,
            column=_field_column(raw_line, 4),
        ) from exc
    s = GENDERS.index(gender) * space.m + t
    return i, j, s, v


def _check_contiguity(order: list[tuple[int, int]]) -> None:
    seen: set[tuple[int, int]] = set()
    current = None
    for pair in order:
        if pair != current:
            if pair in seen:
                raise SchemaError(
                    f"rows for parent pair {pair} are not contiguous"
                )
            seen.add(pair)
            current = pair


def load_counts(path) -> CountsTable:
    """Read a counts CSV; missing child rows are implicit zeros."""
    space, raw_rows = _parse_table(path, COUNTS_HEADER)
    rows = []
    order = []
    seen_cells: set[tuple[int, int, int]] = set()
    for line_no, raw_line, fields in raw_rows:
        i, j, s, v = _resolve_row(space, line_no, raw_line, fields)
        if v < 0:
            raise InvariantViolation(f"line {line_no}: negative count {v}")
        if (i, j, s) in seen_cells:
            raise SchemaError(f"line {line_no}: duplicate row for pair {(i, j)}, child {s}")
        seen_cells.add((i, j, s))
        order.append((i, j))
        rows.append(CountRow(fields[0], fields[1], fields[2], fields[3], v))
    _check_contiguity(order)
    return CountsTable(space, tuple(rows))


def read_measure_family(path) -> MeasureFamily:
    """Parse a measure-family CSV without checking value invariants."""
    space, raw_rows = _parse_table(path, MEASURE_HEADER)
    m = space.m
    mu = np.full((m, m, space.total), np.nan)
    sequence = []
    for line_no, raw_line, fields in raw_rows:
        i, j, s, v = _resolve_row(space, line_no, raw_line, fields)
        if not np.isnan(mu[i, j, s]):
            raise SchemaError(f"line {line_no}: duplicate row for pair {(i, j)}, child {s}")
        sequence.append((i, j))
        mu[i, j, s] = v
    _check_contiguity(sequence)
    # missing child rows within a declared pair are zeros
    for i, j in set(sequence):
        row = mu[i, j]
        mu[i, j] = np.where(np.isnan(row), 0.0, row)
    return MeasureFamily(space, mu)


def load_measure_family(path, tol: float = LOAD_TOL) -> MeasureFamily:
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
    m = space.m
    lines = [f"# space: {_format_space(space)}", MEASURE_HEADER]
    for i in range(m):
        for j in range(m):
            row = family.mu[i, j]
            if np.isnan(row).any():
                continue
            for s in range(space.total):
                gender = GENDERS[s // m]
                child = space.trait_label(s % m)
                lines.append(
                    f"{space.trait_label(i)},{space.trait_label(j)},"
                    f"{gender},{child},{float(row[s])!r}"
                )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_counts(counts: CountsTable, path) -> None:
    """Write a counts table; integral counts are written without a decimal point."""
    lines = [f"# space: {_format_space(counts.space)}", COUNTS_HEADER]
    for row in counts.rows:
        c = float(row.count)
        text = repr(int(c)) if c.is_integer() else repr(c)
        lines.append(f"{row.mother},{row.father},{row.child_gender},{row.child_type},{text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
