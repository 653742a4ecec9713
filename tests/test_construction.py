"""Array-form tensor construction and validation against per-pair loops.

``per_pair_mendelian``, ``per_pair_validate_pq`` and ``per_pair_family_validate``
are the loops that ``mendelian_coefficients``, ``validate_pq`` and
``MeasureFamily.validate`` ran before they became whole-array operations.
The array forms promise the same floating-point operations per value, so
coefficients, support masks and violation reports must equal these oracles
exactly (0 ulp), not merely closely.
"""

import numpy as np
import pytest

import qso
from qso import (
    Distribution,
    Genotype,
    HeredityTensor,
    MeasureFamily,
    ValidationReport,
    Violation,
    build_space,
    mendelian_coefficients,
    mendelian_offspring_set,
    nonmendelian_coefficients,
    validate_pq,
)
from qso.errors import ZeroMassOffspringSet

from helpers import random_pq_tensor, random_simplex, random_symmetric_family, rng


def per_pair_mendelian(space, mu0):
    m = space.m
    coeffs = np.zeros((m, m, space.total))
    support = np.zeros((m, m, space.total), dtype=bool)
    for i in range(m):
        mother = Genotype("f", space.traits_of(i))
        for j in range(m):
            father = Genotype("m", space.traits_of(j))
            members = sorted(mendelian_offspring_set(space, mother, father))
            mass = mu0.values[members].sum()
            if mass <= 0.0:
                raise ZeroMassOffspringSet(
                    f"offspring set of pair ({space.trait_label(i)} x "
                    f"{space.trait_label(j)}) has zero base-measure mass"
                )
            coeffs[i, j, members] = 2.0 * mu0.values[members] / mass
            support[i, j, members] = True
    return coeffs, support


def per_pair_validate_pq(t, tol):
    space = t.space
    m = space.m
    p, q = t.p_ratio
    out = []
    for i in range(m):
        for j in range(m):
            row = t.coefficients[i, j]
            label = f"{space.trait_label(i)} x {space.trait_label(j)}"
            neg = row.min()
            if neg < -tol:
                out.append(Violation(
                    "negative", (i, j), int(row.argmin()), float(neg),
                    f"pair ({label}) has negative coefficient {neg}"))
            total = row.sum()
            if abs(total - t.pair_sum) > tol:
                out.append(Violation(
                    "normalization", (i, j), None, float(abs(total - t.pair_sum)),
                    f"pair ({label}) sums to {total}, expected {t.pair_sum}"))
            cross = np.abs(q * row[:m] - p * row[m:])
            k = int(cross.argmax())
            if cross[k] > tol:
                out.append(Violation(
                    "ratio", (i, j), k, float(cross[k]),
                    f"pair ({label}) child {space.trait_label(k)} breaks the "
                    f"{p:g}:{q:g} ratio by {cross[k]}"))
            if t.support is not None:
                off = np.where(~t.support[i, j], np.abs(row), 0.0)
                s = int(off.argmax())
                if off[s] > tol:
                    out.append(Violation(
                        "support", (i, j), s, float(off[s]),
                        f"pair ({label}) has mass {row[s]} on excluded child "
                        f"{space.label(s)}"))
    return ValidationReport(tuple(out), tol)


def per_pair_family_validate(family, tol):
    space = family.space
    m = space.m

    def plabel(i, j):
        return f"{space.trait_label(i)} x {space.trait_label(j)}"

    out = []
    for i, j in family.missing_pairs():
        out.append(Violation("missing", (i, j), None, float("nan"),
                             f"pair ({plabel(i, j)}) has no measure"))
    with np.errstate(invalid="ignore"):
        for i in range(m):
            for j in range(m):
                row = family.mu[i, j]
                if np.isnan(row).any():
                    continue
                neg = row.min()
                if neg < -tol:
                    out.append(Violation(
                        "negative", (i, j), int(row.argmin()), float(neg),
                        f"pair ({plabel(i, j)}) has negative value {neg}"))
                total = row.sum()
                if abs(total - 1.0) > tol:
                    out.append(Violation(
                        "normalization", (i, j), None, float(abs(total - 1.0)),
                        f"pair ({plabel(i, j)}) sums to {total}, expected 1"))
                gap = np.abs(row[:m] - row[m:]).max()
                if gap > tol:
                    out.append(Violation(
                        "gender-symmetry", (i, j), None, float(gap),
                        f"pair ({plabel(i, j)}) female/male children differ by {gap}"))
    return out


def random_base(gen, space):
    """Strictly positive, gender-symmetric base measure with unstructured
    random weights."""
    half = random_simplex(gen, space.m) / 2.0
    return Distribution(space, np.concatenate([half, half]))


def perturbed(gen, coeffs, count, scales=(1e-9, 1e-5, 1e-3, 0.05)):
    """A copy of ``coeffs`` with ``count`` entries moved up or down by one of
    ``scales``, some far enough to turn negative."""
    out = coeffs.copy()
    flat = out.reshape(-1)
    for k in gen.choice(flat.size, size=count, replace=False):
        flat[k] += gen.choice([-1.0, 1.0]) * gen.choice(scales)
    return out


def assert_same_violations(new, old):
    # repr compares every field exactly (NaN magnitudes of missing pairs
    # included) and also the field types: plain ints, not NumPy integers
    assert list(map(repr, new)) == list(map(repr, old))


SPACES = {
    **{f"biallelic-{k}": [("A", "a")] * k for k in range(1, 8)},
    "triallelic": [("x", "y", "z")],
    "mixed-3-2-2": [("x", "y", "z"), ("B", "b"), ("C", "c")],
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_mendelian_matches_per_pair_construction(name):
    space = build_space(SPACES[name])
    base = random_base(rng(len(name) + 1000 * space.m), space)
    t = mendelian_coefficients(space, base)
    coeffs, support = per_pair_mendelian(space, base)
    assert np.array_equal(t.support, support)
    # mass is summed over the same gathered members as the per-pair loop,
    # so the coefficients agree to 0 ulp
    assert np.array_equal(t.coefficients, coeffs)


@pytest.mark.parametrize("zeros", [
    [1],            # (A|b) only: the pair (A|b x A|b) has no mass
    [1, 2],         # (A|b) and (a|B): the first pair in C order is reported
    [0, 1],         # all of allele A at component 1 with B
    [3, 1, 2],
])
def test_zero_mass_offspring_set_names_the_first_pair(zeros):
    space = build_space([("A", "a"), ("B", "b")])
    half = np.full(space.m, 0.0)
    live = [k for k in range(space.m) if k not in zeros]
    half[live] = 0.5 / len(live)
    base = Distribution(space, np.concatenate([half, half]))
    with pytest.raises(ZeroMassOffspringSet) as expected:
        per_pair_mendelian(space, base)
    with pytest.raises(ZeroMassOffspringSet) as got:
        mendelian_coefficients(space, base)
    assert str(got.value) == str(expected.value)


def test_zero_mass_in_a_three_allele_component():
    space = build_space([("x", "y", "z"), ("B", "b")])
    gen = rng(9)
    half = random_simplex(gen, space.m) / 2.0
    half[space.trait_index((1, 0))] = 0.0
    half /= 2.0 * half.sum()
    base = Distribution(space, np.concatenate([half, half]))
    with pytest.raises(ZeroMassOffspringSet) as expected:
        per_pair_mendelian(space, base)
    with pytest.raises(ZeroMassOffspringSet) as got:
        mendelian_coefficients(space, base)
    assert str(got.value) == str(expected.value)
    assert "(y|B x y|B)" in str(got.value)


# --- validate_pq ---------------------------------------------------------------

def assert_validate_pq_matches(t, tol):
    report = validate_pq(t, tol)
    expected = per_pair_validate_pq(t, tol)
    assert report == expected
    assert_same_violations(report.violations, expected.violations)
    return report


@pytest.mark.parametrize("seed", range(6))
def test_validate_pq_matches_per_pair_loop_on_perturbed_mendelian_tensors(seed):
    gen = rng(100 + seed)
    space = build_space([("x", "y", "z"), ("B", "b")])
    t = mendelian_coefficients(space, random_base(gen, space))
    for count in (1, 5, 40, 200):
        coeffs = perturbed(gen, t.coefficients, count)
        for support in (t.support, None):
            bad = HeredityTensor(space, t.p_ratio, coeffs, support)
            for tol in (1e-6, 1e-3):
                report = assert_validate_pq_matches(bad, tol)
    assert not report.ok


@pytest.mark.parametrize("seed", range(4))
def test_validate_pq_matches_per_pair_loop_at_p_0_3(seed):
    gen = rng(200 + seed)
    space = build_space([["a", "b", "c", "d"]])
    t = random_pq_tensor(gen, space, 0.3)
    assert t.support is None
    assert_validate_pq_matches(t, 1e-9)
    for count in (3, 30):
        bad = HeredityTensor(space, (0.3, 0.7), perturbed(gen, t.coefficients, count))
        report = assert_validate_pq_matches(bad, 1e-6)
    assert not report.ok


def test_validate_pq_breaks_ties_like_the_per_pair_loop():
    space = build_space([["a", "b", "c"]])
    t = mendelian_coefficients(space, random_base(rng(31), space))
    coeffs = t.coefficients.copy()
    coeffs[0, 1, [2, 4]] = -0.25            # two equal minima
    coeffs[1, 1, :] = 0.0                   # equal off-support and ratio gaps
    coeffs[1, 1, [1, 2, 4, 5]] = 0.125
    coeffs[2, 0, [0, 1]] = 0.5              # equal female/male gaps
    bad = HeredityTensor(space, t.p_ratio, coeffs, t.support)
    report = assert_validate_pq_matches(bad, 1e-6)
    assert {v.kind for v in report.violations} == {
        "negative", "normalization", "ratio", "support"}


def test_validate_pq_matches_per_pair_loop_on_published_tables():
    for family, tol in ((qso.rh_measure_family(), 1e-9),
                        (qso.abo_measure_family(), 1e-6),
                        (qso.abo_measure_family(), 1e-3)):
        t = nonmendelian_coefficients(family.space, family)
        assert_validate_pq_matches(t, tol)
    abo = qso.abo_measure_family()
    flagged = validate_pq(nonmendelian_coefficients(abo.space, abo), 1e-6)
    assert len(flagged.violations) == 4


# --- MeasureFamily.validate ----------------------------------------------------

def assert_family_validate_matches(family, tol):
    got = family.validate(tol)
    expected = per_pair_family_validate(family, tol)
    assert_same_violations(got, expected)
    assert [v for v in got if v.kind != "missing"] == \
        [v for v in expected if v.kind != "missing"]
    return got


@pytest.mark.parametrize("seed", range(5))
def test_family_validate_matches_per_pair_loop(seed):
    gen = rng(300 + seed)
    space = build_space([("x", "y", "z"), ("B", "b")])
    family = random_symmetric_family(gen, space)
    assert not assert_family_validate_matches(family, 1e-9)
    for count in (2, 20, 150):
        mu = perturbed(gen, family.mu, count)
        # missing pairs: whole NaN rows and a row with one NaN entry
        for i, j in gen.choice(space.m, size=(3, 2)):
            mu[i, j] = np.nan
        mu[tuple(gen.integers(space.m, size=2)) + (int(gen.integers(space.total)),)] = np.nan
        got = assert_family_validate_matches(MeasureFamily(space, mu), 1e-6)
        assert got[0].kind == "missing"


def test_family_validate_matches_per_pair_loop_on_published_tables():
    for family, tol in ((qso.rh_measure_family(), 1e-9),
                        (qso.abo_measure_family(), 1e-6),
                        (qso.abo_measure_family(), 1e-3)):
        assert_family_validate_matches(family, tol)
    # (0, 1) holds one NaN next to values that would fail every check: it
    # is reported as missing and nothing else
    rows = {(0, 0): [0.5, -0.1, 0.5, 0.2], (1, 1): [0.2, 0.3, 0.25, 0.25],
            (0, 1): [np.nan, -0.5, 3.0, 0.1]}
    partial = MeasureFamily.from_dict(build_space([["+", "-"]]), rows)
    got = assert_family_validate_matches(partial, 1e-6)
    assert [(v.kind, v.pair) for v in got] == [
        ("missing", (0, 1)), ("missing", (1, 0)), ("negative", (0, 0)),
        ("normalization", (0, 0)), ("gender-symmetry", (0, 0)),
        ("gender-symmetry", (1, 1))]
