"""The embedded Rh and ABO tables checked in exact rational arithmetic.

The published tables are 4-decimal numbers, so ``fractions.Fraction``
rebuilds them exactly from ``qso/data/*.csv``.  The exact values check the
floating-point pipeline (renormalization, reduction, the Rh fixed point)
without a tolerance chosen after the fact.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qso
from qso.dynamics import find_fixed_point

DATA = Path(qso.__file__).parent / "data"


def exact_table(name):
    """``({(mother, father): {child index: Fraction}}, m)`` from a
    measure-family CSV, child index ``g * m + trait`` as in a genotype space."""
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    labels = lines[0].split(":", 1)[1].strip().split(",")
    m = len(labels)
    rows = {}
    for line in lines[2:]:
        mother, father, gender, child, value = line.split(",")
        pair = (labels.index(mother), labels.index(father))
        index = (0 if gender == "f" else m) + labels.index(child)
        rows.setdefault(pair, {})[index] = Fraction(value)
    return rows, m


def renormalized(rows):
    out = {}
    for pair, row in rows.items():
        total = sum(row.values())
        out[pair] = {s: v / total for s, v in row.items()}
    return out


def rh_quadratic():
    """Exact coefficients of the Rh fixed-point quadratic
    ``(a - 2b + c) y^2 + (2b - 2c - 1) y + c`` and its discriminant."""
    rows, m = exact_table("rh.csv")
    mu = renormalized(rows)

    def p(i, j, k):  # reduced coefficient (coeff[(i,j)] + coeff[(j,i)]) / 2, coeff = 2 mu
        return mu[i, j][k] + mu[j, i][k]

    a, b, c = p(0, 0, 0), p(0, 1, 0), p(1, 1, 0)
    delta = 4 * (1 - a) * c + (1 - 2 * b) ** 2
    return (a - 2 * b + c, 2 * b - 2 * c - 1, c), delta


def test_published_row_sums_are_exact():
    rh, _ = exact_table("rh.csv")
    assert len(rh) == 4
    assert all(sum(row.values()) == 1 for row in rh.values())
    abo, _ = exact_table("abo.csv")
    assert len(abo) == 16
    short = {pair for pair, row in abo.items() if sum(row.values()) != 1}
    # B x A, B x AB, B x O and O x B sum to 0.9998 as printed
    assert short == {(1, 0), (1, 2), (1, 3), (3, 1)}
    assert all(sum(abo[pair].values()) == Fraction("0.9998") for pair in short)


@pytest.mark.parametrize("name, load", [("rh.csv", qso.rh_measure_family),
                                        ("abo.csv", qso.abo_measure_family)])
def test_renormalized_rows_match_exact_values(name, load):
    rows, m = exact_table(name)
    exact = renormalized(rows)
    assert all(sum(row.values()) == 1 for row in exact.values())
    mu = load().renormalized().mu
    for (i, j), row in exact.items():
        assert set(row) == set(range(2 * m))
        for s, value in row.items():
            # one division of two rounded numbers: within 1 ulp of exact
            assert abs(Fraction(mu[i, j, s]) - value) <= Fraction(np.spacing(mu[i, j, s]))


def test_rh_discriminant_is_positive_and_certifies_one_attractor():
    _, delta = rh_quadratic()
    assert delta == Fraction(2409009, 25000000)
    assert 0 < delta < 4


def test_rh_quadratic_changes_sign_around_the_computed_fixed_point():
    (qa, qb, qc), _ = rh_quadratic()
    q, _ = qso.rh_model()
    y1 = Fraction(find_fixed_point(q, qso.ReducedDistribution([0.5, 0.5])).point.values[0])

    def g(y):
        return qa * y * y + qb * y + qc

    # the exact root lies within 1e-14 (about 100 ulp) of the computed y1
    delta = Fraction(1, 10**14)
    assert g(y1 - delta) > 0 > g(y1 + delta)
