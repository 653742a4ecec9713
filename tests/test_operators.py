import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qso
from qso import (
    Distribution,
    Genotype,
    HeredityTensor,
    MeasureFamily,
    ReducedDistribution,
    apply_canonical,
    apply_reduced,
    build_space,
    fold,
    lift,
    mendelian_coefficients,
    nonmendelian_coefficients,
    validate_pq,
)
from qso.errors import (
    AsymmetricMeasure,
    ChildAsymmetry,
    DimensionMismatch,
    DistributionOutsideHyperSimplex,
    GenderAsymmetric,
    MissingPair,
    NotOneToOne,
    ZeroMassOffspringSet,
)
from qso.ingest import CountsTable, estimate_measures
from qso.operators import ROUNDING_TOL, reduced_step
from qso.operators import reduce as reduce_tensor

from helpers import (
    random_hyper_point,
    random_pq_tensor,
    random_simplex,
    random_symmetric_family,
    rng,
)

TRAIT = build_space([["A", "a"]])


def trait_mu0(alpha):
    return Distribution(TRAIT, [alpha, 0.5 - alpha, alpha, 0.5 - alpha])


fA, fa = Genotype("f", (0,)), Genotype("f", (1,))
mA, ma = Genotype("m", (0,)), Genotype("m", (1,))


# --- mendelian coefficients --------------------------------------------------

def test_mendelian_same_trait_pair():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.1))
    assert t.coefficient(fA, mA, fA) == pytest.approx(1.0, abs=1e-15)
    assert t.coefficient(fA, mA, mA) == pytest.approx(1.0, abs=1e-15)
    assert t.coefficient(fA, mA, fa) == 0.0


def test_mendelian_mixed_trait_pair():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.1))
    # full offspring set: child gets 2 * mu0 / 1
    assert t.coefficient(fA, ma, fa) == pytest.approx(0.8, abs=1e-15)
    assert t.coefficient(fA, ma, fA) == pytest.approx(0.2, abs=1e-15)


def test_mendelian_same_gender_pairs_are_zero():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.1))
    for child in (fA, fa, mA, ma):
        assert t.full_coefficient(fA, fa, child) == 0.0
        assert t.full_coefficient(mA, ma, child) == 0.0


def test_mendelian_pair_sums_are_two():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.3))
    sums = t.coefficients.sum(axis=2)
    assert np.allclose(sums, 2.0, atol=1e-12)


def test_mendelian_support_is_offspring_set():
    space = build_space([["1", "2", "3"]])
    mu0 = Distribution(space, np.full(6, 1.0 / 6.0))
    t = mendelian_coefficients(space, mu0)
    for i in range(3):
        for j in range(3):
            members = qso.mendelian_offspring_set(
                space, Genotype("f", (i,)), Genotype("m", (j,))
            )
            outside = [s for s in range(6) if s not in members]
            assert np.all(t.coefficients[i, j, outside] == 0.0)
            assert np.all(t.coefficients[i, j, sorted(members)] > 0.0)


def test_mendelian_zero_mass_offspring_set():
    mu0 = Distribution(TRAIT, [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(ZeroMassOffspringSet):
        mendelian_coefficients(TRAIT, mu0)


def test_mendelian_asymmetric_measure_rejected():
    mu0 = Distribution(TRAIT, [0.1, 0.4, 0.2, 0.3])
    with pytest.raises(AsymmetricMeasure):
        mendelian_coefficients(TRAIT, mu0)


# --- non-mendelian coefficients ----------------------------------------------

def test_nonmendelian_rh_examples():
    family = qso.rh_measure_family()
    t = nonmendelian_coefficients(family.space, family)
    plus, minus = Genotype("f", (0,)), Genotype("f", (1,))
    mplus, mminus = Genotype("m", (0,)), Genotype("m", (1,))
    assert t.coefficient(plus, mplus, mminus) == pytest.approx(0.015, abs=1e-15)
    assert t.coefficient(minus, mminus, minus) == pytest.approx(0.9, abs=1e-15)


def test_nonmendelian_uniform_family():
    space = build_space([["1", "2", "3"]])
    t = nonmendelian_coefficients(space, MeasureFamily.uniform(space))
    assert np.allclose(t.coefficients, 1.0 / space.m, atol=1e-15)


def test_nonmendelian_missing_pair():
    space = build_space([["A", "a"]])
    family = MeasureFamily.from_dict(space, {(0, 0): [0.25, 0.25, 0.25, 0.25]})
    with pytest.raises(MissingPair):
        nonmendelian_coefficients(space, family)


def test_nonmendelian_asymmetric_family():
    space = build_space([["A", "a"]])
    row = [0.3, 0.2, 0.2, 0.3]
    family = MeasureFamily.from_dict(
        space, {(i, j): row for i in range(2) for j in range(2)}
    )
    with pytest.raises(AsymmetricMeasure):
        nonmendelian_coefficients(space, family)


# --- validate_pq --------------------------------------------------------------

def test_validate_mendelian_tensor_is_clean():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.2))
    assert validate_pq(t, tol=1e-9).ok


def test_validate_flags_exactly_the_perturbed_pair():
    family = random_symmetric_family(rng(7), build_space([["1", "2", "3"]]))
    t = nonmendelian_coefficients(family.space, family)
    coeffs = t.coefficients.copy()
    coeffs[1, 2, 0] += 0.1
    bad = HeredityTensor(t.space, t.p_ratio, coeffs, t.support)
    report = validate_pq(bad, tol=1e-6)
    assert not report.ok
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == ["normalization", "ratio"]
    assert all(v.pair == (1, 2) for v in report.violations)


def test_validate_flags_support_violations():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.2))
    coeffs = t.coefficients.copy()
    # pair (A, A) may not produce an 'a' child; put mass there
    coeffs[0, 0, TRAIT.index(fa)] += 0.05
    coeffs[0, 0, TRAIT.index(ma)] += 0.05
    bad = HeredityTensor(t.space, t.p_ratio, coeffs, t.support)
    kinds = {v.kind for v in validate_pq(bad, tol=1e-6).violations}
    assert "support" in kinds


def test_validate_published_tables_tolerances():
    rh = qso.rh_measure_family()
    t_rh = nonmendelian_coefficients(rh.space, rh)
    # the Rh rows are exact as printed
    assert validate_pq(t_rh, tol=1e-9).ok
    abo = qso.abo_measure_family()
    t_abo = nonmendelian_coefficients(abo.space, abo)
    # four ABO rows sum to 0.9998: fine at 1e-3, flagged at 1e-6
    assert validate_pq(t_abo, tol=1e-3).ok
    flagged = validate_pq(t_abo, tol=1e-6)
    assert not flagged.ok
    assert {v.kind for v in flagged.violations} == {"normalization"}


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12])
def test_validation_tolerance_must_not_be_negative_or_nan(tmp_path, tol):
    family = qso.abo_measure_family()
    t = nonmendelian_coefficients(family.space, family.renormalized())
    path = tmp_path / "abo.csv"
    qso.save_measure_family(family, path)
    for check in (lambda: validate_pq(t, tol=tol), lambda: family.validate(tol),
                  lambda: qso.load_measure_family(path, tol)):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            check()
    # zero stays a valid tolerance, which flags any rounding at all
    assert validate_pq(t, tol=0.0).tol == 0.0
    assert {v.kind for v in family.validate(0.0)} == {"normalization"}


def test_validate_random_pq_tensors_are_clean():
    gen = rng(11)
    for p in (0.3, 0.5, 0.7):
        t = random_pq_tensor(gen, build_space([["a", "b", "c"]]), p)
        assert validate_pq(t, tol=1e-9).ok


# --- apply_canonical -----------------------------------------------------------

def test_apply_canonical_identity_at_quarter():
    # the identity regime lives on the gender-symmetric slice; every image
    # is mirror-symmetric, so from the second application onward the map
    # is the identity for arbitrary starts as well
    t = mendelian_coefficients(TRAIT, trait_mu0(0.25))
    gen = rng(3)
    for _ in range(20):
        lam = lift(TRAIT, ReducedDistribution(random_simplex(gen, 2)))
        out = apply_canonical(t, lam)
        assert np.allclose(out.values, lam.values, atol=1e-15)
    for _ in range(20):
        lam = random_hyper_point(gen, TRAIT, 0.5)
        once = apply_canonical(t, lam)
        twice = apply_canonical(t, once)
        assert np.allclose(twice.values, once.values, atol=1e-15)


def test_apply_canonical_rh_uniform():
    family = qso.rh_measure_family()
    t = nonmendelian_coefficients(family.space, family)
    out = apply_canonical(t, Distribution.uniform(family.space))
    assert out.values == pytest.approx([0.2982, 0.2018, 0.2982, 0.2018], abs=1e-12)


def test_apply_canonical_trait_vertex_fixed_point():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.1))
    lam = Distribution(TRAIT, [0.5, 0.0, 0.5, 0.0])
    out = apply_canonical(t, lam)
    assert np.allclose(out.values, lam.values, atol=1e-15)


def test_apply_canonical_ratio_mismatch():
    t = mendelian_coefficients(TRAIT, trait_mu0(0.1))
    lam = random_hyper_point(rng(4), TRAIT, 0.3)
    with pytest.raises(DistributionOutsideHyperSimplex):
        apply_canonical(t, lam)


def test_hyper_simplex_invariance_small():
    gen = rng(5)
    space = build_space([["u", "v", "w"]])
    for p in (0.3, 0.5, 0.7):
        for _ in range(10):
            t = random_pq_tensor(gen, space, p)
            lam = random_hyper_point(gen, space, p)
            out = apply_canonical(t, lam)
            assert abs(out.values.sum() - 1.0) < 1e-9
            assert abs(out.female.sum() - p) < 1e-9


def test_child_ratio_of_canonical_image():
    # mirror children of the image sit in exact p:q proportion
    gen = rng(6)
    space = build_space([["a", "b"]])
    t = random_pq_tensor(gen, space, 0.7)
    lam = random_hyper_point(gen, space, 0.7)
    out = apply_canonical(t, lam)
    assert np.allclose(0.3 * out.female, 0.7 * out.male, atol=1e-12)
    # 1:1 case: mirror children are equal
    t = random_pq_tensor(gen, space, 0.5)
    lam = random_hyper_point(gen, space, 0.5)
    out = apply_canonical(t, lam)
    assert np.abs(out.female - out.male).max() <= 1e-12


# --- reduce / apply_reduced -----------------------------------------------------

def test_reduce_rh_coefficients():
    family = qso.rh_measure_family()
    q = reduce_tensor(nonmendelian_coefficients(family.space, family))
    assert q.p[0, 0, 0] == pytest.approx(0.985, abs=1e-15)
    assert q.p[0, 1, 0] + q.p[1, 0, 0] == pytest.approx(2 * 0.6503, abs=1e-12)
    assert q.p[1, 1, 0] == pytest.approx(0.1, abs=1e-15)


def test_reduce_identity_trait():
    q = reduce_tensor(mendelian_coefficients(TRAIT, trait_mu0(0.25)))
    assert q.p[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
    assert q.p[0, 1, 0] == pytest.approx(0.5, abs=1e-15)
    assert q.p[1, 1, 0] == pytest.approx(0.0, abs=1e-15)


def test_reduce_multi_allele_weights():
    space = build_space([["1", "2", "3", "4"]])
    alphas = np.array([0.2, 0.15, 0.1, 0.05])
    mu0 = Distribution(space, np.concatenate([alphas, alphas]))
    q = reduce_tensor(mendelian_coefficients(space, mu0))
    for i in range(4):
        assert q.p[i, i, i] == pytest.approx(1.0, abs=1e-15)
        for j in range(4):
            if i != j:
                assert q.p[i, j, i] == pytest.approx(
                    alphas[i] / (alphas[i] + alphas[j]), abs=1e-15
                )
    assert np.allclose(q.p.sum(axis=2), 1.0, atol=1e-12)


def test_reduce_requires_one_to_one():
    t = random_pq_tensor(rng(8), build_space([["a", "b"]]), 0.3)
    with pytest.raises(NotOneToOne):
        reduce_tensor(t)


def test_reduce_rejects_child_asymmetry():
    space = build_space([["x"]])
    t = HeredityTensor(space, (0.5, 0.5), np.array([[[1.2, 0.8]]]))
    with pytest.raises(ChildAsymmetry):
        reduce_tensor(t)


def test_apply_reduced_vertex_fixed():
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    vertex = ReducedDistribution([0.0, 1.0, 0.0, 0.0])
    out = apply_reduced(q, vertex)
    assert np.array_equal(out.values, vertex.values)


def test_apply_reduced_rh_midpoint():
    q, _ = qso.rh_model()
    out = apply_reduced(q, ReducedDistribution([0.5, 0.5]))
    assert out.values[0] == pytest.approx(0.5964, abs=1e-12)


def test_apply_reduced_abo_near_published_fixed_point():
    q, _ = qso.abo_model()
    y = ReducedDistribution([0.084, 0.516, 0.058, 0.342])
    out = apply_reduced(q, y)
    assert np.abs(out.values - y.values).max() < 5e-3


def test_apply_reduced_dimension_mismatch():
    q, _ = qso.rh_model()
    with pytest.raises(DimensionMismatch):
        apply_reduced(q, ReducedDistribution([0.5, 0.25, 0.25]))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_apply_reduced_stays_on_simplex(n, seed):
    gen = rng(seed)
    floor = 0.0
    p = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            row = gen.dirichlet(np.ones(n))
            p[i, j] = p[j, i] = row
    q = qso.ReducedQso(n, p)
    y = ReducedDistribution(random_simplex(gen, n))
    out = apply_reduced(q, y)
    assert abs(out.values.sum() - 1.0) <= n * n * np.finfo(float).eps
    assert out.values.min() >= 0.0


# --- non-finite input ----------------------------------------------------------

NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_reduced_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ReducedDistribution([bad, 0.5])
    with pytest.raises(ValueError, match="non-finite"):
        ReducedDistribution([0.5, 0.5, bad])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_reduced_qso_rejects_non_finite(bad):
    q, _ = qso.rh_model()
    p = q.p.copy()
    p[1, 0, 1] = p[0, 1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        qso.ReducedQso(2, p)


@pytest.mark.parametrize("n, p, message", [
    (2.0, qso.rh_model()[0].p, "n must be an integer, got 2.0"),
    ("2", qso.rh_model()[0].p, "n must be an integer, got '2'"),
    (0, np.zeros((0, 0, 0)), "n must be >= 1"),
    (-1, np.zeros((0, 0, 0)), "n must be >= 1"),
    # p None: ReducedDistribution.uniform(n), which takes n by the same rule
    (0, None, "n must be >= 1"),
    (-1, None, "n must be >= 1"),
    (2.0, None, "n must be an integer, got 2.0")])
def test_reduced_qso_rejects_an_n_that_is_not_a_positive_integer(n, p, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        qso.ReducedQso(n, p) if p is not None else ReducedDistribution.uniform(n)


def test_reduced_qso_stores_an_integer_n_as_an_int():
    p = qso.rh_model()[0].p
    for n in (2, np.int64(2)):
        q = qso.ReducedQso(n, p)
        assert type(q.n) is int and q.n == 2
        assert apply_reduced(q, ReducedDistribution([0.5, 0.5])).n == 2
    one = qso.ReducedQso(True, np.ones((1, 1, 1)))
    assert type(one.n) is int and one.n == 1


@pytest.mark.parametrize("bad", NON_FINITE)
def test_distribution_rejects_non_finite(bad):
    values = np.full(4, 0.25)
    values[2] = bad
    with pytest.raises(DistributionOutsideHyperSimplex, match="non-finite"):
        Distribution(TRAIT, values)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_heredity_tensor_rejects_non_finite(bad):
    t = mendelian_coefficients(TRAIT, trait_mu0(0.2))
    coeffs = t.coefficients.copy()
    coeffs[0, 1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        HeredityTensor(TRAIT, (0.5, 0.5), coeffs)


# --- constructor contract ----------------------------------------------------------

RH = build_space([["+", "-"]])
# each value type with a valid array and the exception class every mutation of
# that array raises (None: accepted); a MeasureFamily keeps NaN for missing pairs
CONTRACT = {
    "Distribution": (lambda v: Distribution(TRAIT, v), [0.2, 0.3, 0.2, 0.3],
                     {"nan": DistributionOutsideHyperSimplex,
                      "inf": DistributionOutsideHyperSimplex,
                      "-inf": DistributionOutsideHyperSimplex, "shape": DimensionMismatch,
                      "negative": DistributionOutsideHyperSimplex,
                      "mass": DistributionOutsideHyperSimplex}),
    "MeasureFamily": (lambda v: MeasureFamily(RH, v), lambda: qso.rh_measure_family().mu,
                      {"nan": None, "inf": ValueError, "-inf": ValueError,
                       "shape": DimensionMismatch, "negative": None, "mass": None}),
    "HeredityTensor": (lambda v: HeredityTensor(RH, (0.5, 0.5), v),
                       lambda: 2.0 * qso.rh_measure_family().mu,
                       {"nan": ValueError, "inf": ValueError, "-inf": ValueError,
                        "shape": DimensionMismatch, "negative": None, "mass": None}),
    "ReducedQso": (lambda v: qso.ReducedQso(2, v), lambda: qso.rh_model()[0].p,
                   {"nan": ValueError, "inf": ValueError, "-inf": ValueError,
                    "shape": DimensionMismatch, "negative": ValueError, "mass": ValueError}),
    "ReducedDistribution": (ReducedDistribution, [0.3, 0.7],
                            {"nan": ValueError, "inf": ValueError, "-inf": ValueError,
                             "shape": DimensionMismatch, "negative": ValueError,
                             "mass": ValueError}),
}


def valid(values):
    return np.array(values() if callable(values) else values, dtype=float)


def mutated(values, how):
    v = valid(values)
    if how == "shape":
        return v[None]
    if how == "mass":
        return v * 1.1
    if how == "negative":  # the first entry turns negative, every sum is kept
        v.flat[0] -= 2.0
        v.flat[1] += 2.0
    else:
        v.flat[1] = float(how)
    return v


@pytest.mark.parametrize("how", ["nan", "inf", "-inf", "shape", "negative", "mass"])
@pytest.mark.parametrize("kind", sorted(CONTRACT))
def test_constructor_contract(kind, how):
    build, values, expected = CONTRACT[kind]
    build(valid(values))
    if expected[how] is None:
        build(mutated(values, how))
    else:
        with pytest.raises(expected[how]):
            build(mutated(values, how))


FIELD = {"Distribution": "values", "MeasureFamily": "mu", "HeredityTensor": "coefficients",
         "ReducedQso": "p", "ReducedDistribution": "values"}


def owned_read_only(values, dtype=float):
    v = np.array(valid(values), dtype=dtype)
    v.setflags(write=False)
    return v


def read_only_view(values):
    base = valid(values)
    view = base[...]
    view.setflags(write=False)
    return base, view


@pytest.mark.parametrize("source", ["writable", "read-only view", "wrong dtype",
                                    "read-only owned"])
@pytest.mark.parametrize("kind", sorted(CONTRACT))
def test_constructor_copies_unless_it_can_adopt(kind, source):
    # only a read-only float64 array that owns its data is adopted; the
    # caller can change anything else later, so it is copied
    build, values, _ = CONTRACT[kind]
    if source == "writable":
        given = writer = valid(values)
    elif source == "read-only view":
        writer, given = read_only_view(values)
    else:  # a big-endian copy holds the same values in another dtype
        given = writer = owned_read_only(values, ">f8" if source == "wrong dtype" else float)
    before = valid(values)
    stored = getattr(build(given), FIELD[kind])
    assert not stored.flags.writeable
    assert np.shares_memory(stored, given) == (source == "read-only owned")
    if source != "read-only owned":
        writer.setflags(write=True)
        writer.flat[0] += 1.0
        assert np.array_equal(stored, before, equal_nan=True)


def mendelian_64():
    space = build_space([("A", "a")] * 6)
    half = random_simplex(rng(64), space.m) / 2.0
    return mendelian_coefficients(space, Distribution(space, np.concatenate([half, half])))


# one value of each checked type; the operator is sparse, so it holds a table
COPIED = {
    "Distribution": lambda: random_hyper_point(rng(66), RH, 0.3),  # p:q = 0.3:0.7
    "MeasureFamily": qso.rh_measure_family,
    "HeredityTensor": mendelian_64,  # with a support mask
    "ReducedQso": lambda: reduce_tensor(mendelian_64()),
    "ReducedDistribution": lambda: ReducedDistribution(random_simplex(rng(65), 64)),
}


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
@pytest.mark.parametrize("kind", sorted(COPIED))
def test_a_copy_is_rebuilt_read_only(kind, how):
    value = COPIED[kind]()
    copied = pickle.loads(pickle.dumps(value)) if how == "pickle" else copy.deepcopy(value)
    assert type(copied) is type(value)
    arrays = [f.name for f in dataclasses.fields(value)
              if isinstance(getattr(value, f.name), np.ndarray)]
    assert arrays
    for name in arrays:
        original, stored = getattr(value, name), getattr(copied, name)
        assert stored is not original and not stored.flags.writeable
        assert stored.dtype == original.dtype and stored.tobytes() == original.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            stored.flat[0] = 0.0
    if kind == "ReducedQso":  # its copy steps from the same table, built afresh
        assert value._table is not None and value._block is None and copied._block is None
        assert all(a is not b and a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(copied._table, value._table))


@pytest.mark.parametrize("tensor", [
    lambda: nonmendelian_coefficients(RH, qso.rh_measure_family().renormalized()),
    lambda: nonmendelian_coefficients(qso.abo_measure_family().space,
                                      qso.abo_measure_family().renormalized()),
    mendelian_64,
], ids=["rh", "abo", "mendelian-64"])
def test_reduce_is_bitwise_the_symmetrized_female_block(tensor):
    t = tensor()
    fem = t.coefficients[:, :, :t.space.m]
    assert np.array_equal(reduce_tensor(t).p, 0.5 * (fem + fem.transpose(1, 0, 2)))


# --- rejected arguments --------------------------------------------------------

def rh_tensor():
    return nonmendelian_coefficients(RH, qso.rh_measure_family())


def rh_family(scale=1.0, zero_pair=None):
    mu = qso.rh_measure_family().mu * scale
    if zero_pair is not None:
        mu[zero_pair] = 0.0
    return MeasureFamily(RH, mu)


OFF_ONE_TO_ONE = (0.5 + 2e-12, 0.5 - 2e-12)

# case -> (call, exception, message)
REJECTED = {
    "distribution sex ratio": (
        lambda: Distribution(TRAIT, [0.25] * 4, (1.0, 0.0)),
        DistributionOutsideHyperSimplex, r"invalid sex ratio p=1.0, q=0.0"),
    "distribution with no male share": (
        lambda: Distribution(TRAIT, [0.5, 0.5, 0.0, 0.0], (1 - 1e-12, 0.0)),
        DistributionOutsideHyperSimplex, r"invalid sex ratio p=0.999999999999, q=0.0"),
    "distribution ratio off by 1e-10": (
        lambda: Distribution(TRAIT, [0.25] * 4, (0.5, 0.5 + 1e-10)),
        DistributionOutsideHyperSimplex, r"invalid sex ratio p=0.5, q=0.5000000001"),
    "distribution female mass": (
        lambda: Distribution(TRAIT, [0.3, 0.3, 0.2, 0.2]),
        DistributionOutsideHyperSimplex, r"female mass 0.6 != 0.5 \(male mass 0.4\)"),
    "renormalized zero row": (
        lambda: rh_family(zero_pair=(1, 0)).renormalized(),
        ZeroMassOffspringSet, "cannot renormalize a zero-mass measure row"),
    "tensor p:q": (
        lambda: HeredityTensor(RH, (0.6, 0.6), rh_tensor().coefficients),
        ValueError, r"invalid sex ratio p=0.6, q=0.6: need 0 < p, q < 1 and p \+ q = 1"),
    "coefficient of a (male, female) pair": (
        lambda: rh_tensor().coefficient(mA, fA, fA),
        ValueError, r"canonical storage indexes \(female, male\) pairs"),
    "mendelian space": (
        lambda: mendelian_coefficients(RH, trait_mu0(0.2)),
        DimensionMismatch, "base measure was built for a different space"),
    "mendelian p:q": (
        lambda: mendelian_coefficients(TRAIT, Distribution(TRAIT, [0.2] * 2 + [0.3] * 2,
                                                           (0.4, 0.6))),
        AsymmetricMeasure, r"base measure must live on the 1:1 hyper-simplex, "
                           r"got p:q = \(0.4, 0.6\)"),
    "nonmendelian space": (
        lambda: nonmendelian_coefficients(TRAIT, qso.rh_measure_family()),
        DimensionMismatch, "measure family was built for a different space"),
    "nonmendelian unit mass": (
        lambda: nonmendelian_coefficients(RH, rh_family(scale=1.01)),
        ValueError, "measure rows deviate from unit mass by .*; renormalize first"),
    "apply_canonical space": (
        lambda: apply_canonical(rh_tensor(), Distribution(TRAIT, [0.25] * 4)),
        DimensionMismatch, "distribution was built for a different space"),
    "lift size": (
        lambda: lift(TRAIT, ReducedDistribution([0.2, 0.3, 0.5])),
        DimensionMismatch, "reduced point has 3 types, operator expects 2"),
    "fold space": (
        lambda: fold(TRAIT, Distribution(RH, [0.25] * 4)),
        DimensionMismatch, "distribution was built for a different space"),
    "estimate_measures space": (
        lambda: estimate_measures(TRAIT, CountsTable(RH, ())),
        DimensionMismatch, "counts table was built for a different space"),
    # 1:1 is accepted to ROUNDING_TOL, and 2e-12 is past it
    "mendelian p:q 2e-12 off": (
        lambda: mendelian_coefficients(TRAIT, Distribution(TRAIT, [0.25] * 4, OFF_ONE_TO_ONE)),
        AsymmetricMeasure, re.escape("base measure must live on the 1:1 hyper-simplex, "
                                     f"got p:q = {OFF_ONE_TO_ONE}")),
    "reduce p:q 2e-12 off": (
        lambda: reduce_tensor(HeredityTensor(RH, OFF_ONE_TO_ONE, rh_tensor().coefficients)),
        NotOneToOne,
        re.escape(f"reduction is defined for p = q = 1/2, got p:q = {OFF_ONE_TO_ONE}")),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_arguments(case):
    call, error, message = REJECTED[case]
    with pytest.raises(error, match=message):
        call()


def test_one_to_one_is_accepted_to_rounding():
    # mendelian_coefficients reads a base measure's 1:1 ratio as reduce reads a tensor's
    exact = trait_mu0(0.2)
    near = Distribution(TRAIT, exact.values, (0.5 + 1e-13, 0.5 - 1e-13))
    t = mendelian_coefficients(TRAIT, exact)
    t_near = mendelian_coefficients(TRAIT, near)
    assert t_near.coefficients.tobytes() == t.coefficients.tobytes()
    assert reduce_tensor(t_near).p.tobytes() == reduce_tensor(t).p.tobytes()
    t_near = HeredityTensor(TRAIT, near.p_ratio, t.coefficients)
    assert reduce_tensor(t_near).p.tobytes() == reduce_tensor(t).p.tobytes()


def test_full_coefficient_takes_a_mixed_pair_in_either_order():
    t = rh_tensor()
    for child in (fA, fa, mA, ma):
        stored = t.coefficient(fa, mA, child)
        assert t.full_coefficient(fa, mA, child) == stored
        assert t.full_coefficient(mA, fa, child) == stored
        assert t.full_coefficient(fa, fA, child) == 0.0


def test_violation_prints_its_message():
    family = MeasureFamily.from_dict(RH, {(0, 0): [0.25] * 4, (0, 1): [0.25] * 4,
                                          (1, 1): [0.25] * 4})
    (violation,) = family.validate()
    assert violation.kind == "missing"
    assert str(violation) == violation.message == "pair (- x +) has no measure"


@pytest.mark.parametrize("key, row", [
    ((-1, 0), [0.25] * 4),  # would wrap to (1, 0)
    ((2, 0), [0.25] * 4),
    ((0, 0.5), [0.25] * 4),
    ((0, 0, 0), [0.25] * 4),
    (0, [0.25] * 4),
    ((1, 0), [0.5, 0.5]),
    ((1, 0), 0.25),
])
def test_from_dict_rejects_a_bad_pair_or_row(key, row):
    message = (f"pair {key!r} needs two trait indices in [0, 2) and 4 values, "
               f"got a row of shape {np.shape(row)}")
    with pytest.raises(DimensionMismatch) as caught:
        MeasureFamily.from_dict(RH, {(0, 0): [0.25] * 4, key: row})
    assert str(caught.value) == message


# --- lift / fold ----------------------------------------------------------------

def test_lift_fold_examples():
    space = build_space([["A", "a"]])
    lam = lift(space, ReducedDistribution([1.0, 0.0]))
    assert np.array_equal(lam.values, [0.5, 0.0, 0.5, 0.0])
    abo_space = build_space([["A", "B", "AB", "O"]])
    lam = Distribution(
        abo_space,
        [0.042, 0.258, 0.029, 0.171, 0.042, 0.258, 0.029, 0.171],
    )
    y = fold(abo_space, lam)
    assert y.values == pytest.approx([0.084, 0.516, 0.058, 0.342], abs=1e-15)


def test_lift_fold_roundtrip_is_exact():
    gen = rng(9)
    space = build_space([["1", "2", "3", "4", "5"]])
    for _ in range(1000):
        y = random_simplex(gen, 5)
        back = fold(space, lift(space, ReducedDistribution(y)))
        assert np.array_equal(back.values, y)


def test_fold_rejects_asymmetric():
    space = build_space([["A", "a"]])
    lam = Distribution(space, [0.3, 0.2, 0.25, 0.25])
    with pytest.raises(GenderAsymmetric):
        fold(space, lam)


# --- reduction equivalence -------------------------------------------------------

def test_reduction_equivalence_small():
    gen = rng(10)
    for _ in range(50):
        space = build_space([[f"t{k}" for k in range(int(gen.integers(2, 5)))]])
        family = random_symmetric_family(gen, space)
        t = nonmendelian_coefficients(space, family)
        q = reduce_tensor(t)
        y = ReducedDistribution(random_simplex(gen, space.m))
        via_full = fold(space, apply_canonical(t, lift(space, y)))
        via_reduced = apply_reduced(q, y)
        assert np.abs(via_full.values - via_reduced.values).max() < 1e-12


# --- lift / fold / reduce properties ---------------------------------------------

@st.composite
def mendelian_spaces(draw):
    """One to three components of two or three alleles (m <= 27)."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    return build_space([[f"{chr(ord('a') + c)}{k}" for k in range(size)]
                        for c, size in enumerate(sizes)])


@st.composite
def simplex_points(draw, n):
    """A point of the (n-1)-simplex from arbitrary weights, zeros included.
    Weights are 0 or at least 1e-300, so no coordinate is subnormal: halving
    a subnormal rounds, and then no fold can undo lift exactly."""
    w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(1e-300, 1.0))))
    assume(w.sum() > 0.0)
    return ReducedDistribution(w / w.sum())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_undoes_lift_exactly(data):
    space = data.draw(mendelian_spaces())
    y = data.draw(simplex_points(space.m))
    assert np.array_equal(fold(space, lift(space, y)).values, y.values)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_reduced_step_agrees_with_the_canonical_operator(data, seed):
    # the reduced operator of a Mendelian tensor, against one canonical step
    # of the full tensor at the gender-symmetric lift of the same point
    space = data.draw(mendelian_spaces())
    half = random_simplex(rng(seed), space.m) / 2.0
    t = mendelian_coefficients(space, Distribution(space, np.concatenate([half, half])))
    y = data.draw(simplex_points(space.m))
    via_full = fold(space, apply_canonical(t, lift(space, y)))
    via_reduced = reduced_step(reduce_tensor(t), y.values)
    assert np.abs(via_full.values - via_reduced).max() <= ROUNDING_TOL


@settings(max_examples=50, deadline=None)
@given(data=st.data(), p=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_canonical_operator_keeps_the_pq_ratio(data, p, seed):
    # a tensor with the p:q property maps the p:q hyper-simplex into itself
    # and puts every child's female and male copies in p:q proportion
    space = data.draw(mendelian_spaces())
    gen = rng(seed)
    t = random_pq_tensor(gen, space, p)
    lam = random_hyper_point(gen, space, p)
    for _ in range(3):
        lam = apply_canonical(t, lam)
        assert lam.p_ratio == t.p_ratio
        assert abs(lam.female.sum() - p) <= ROUNDING_TOL
        assert np.abs((1.0 - p) * lam.female - p * lam.male).max() <= ROUNDING_TOL
