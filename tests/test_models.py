import shutil

import numpy as np
import pytest

import qso
from qso import (
    Distribution,
    ReducedDistribution,
    apply_canonical,
    apply_reduced,
    build_space,
    mendelian_coefficients,
    validate_pq,
)
from qso.dynamics import find_fixed_point, f_alpha, regularity_check
from qso.errors import AlphaOutOfRange, BadSum, NonPositiveAlpha
from qso.models import from_name, table_operator, _table_path
from qso.operators import nonmendelian_coefficients, reduce as reduce_tensor

from helpers import random_simplex, rng


# --- trait model -----------------------------------------------------------------

def test_trait_tensor_entries():
    q = qso.mendelian_trait(0.1)
    assert q.p[0, 0, 0] == 1.0
    assert q.p[0, 1, 0] == q.p[1, 0, 0] == 0.2
    assert q.p[1, 1, 0] == 0.0
    assert np.allclose(q.p.sum(axis=2), 1.0)


def test_trait_identity_at_quarter():
    q = qso.mendelian_trait(0.25)
    gen = rng(31)
    for _ in range(10):
        y = random_simplex(gen, 2)
        out = apply_reduced(q, ReducedDistribution(y))
        assert np.abs(out.values - y).max() <= 1e-15


def test_trait_step_matches_conjugate_map():
    q = qso.mendelian_trait(0.1)
    out = apply_reduced(q, ReducedDistribution([0.5, 0.5]))
    assert out.values[0] == pytest.approx(0.35, abs=1e-15)
    assert out.values[0] == pytest.approx(2 * f_alpha(0.1, 0.25), abs=1e-15)


def test_trait_equals_reduced_coefficient_route():
    space = qso.trait_space()
    for alpha in np.linspace(0.05, 0.45, 9):
        closed = qso.mendelian_trait(alpha)
        derived = reduce_tensor(
            mendelian_coefficients(space, qso.trait_base_measure(alpha))
        )
        assert np.abs(closed.p - derived.p).max() <= 1e-15


def test_trait_full_form_fixed_points():
    space = qso.trait_space()
    t = mendelian_coefficients(space, qso.trait_base_measure(0.1))
    for point in ([0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]):
        lam = Distribution(space, point)
        out = apply_canonical(t, lam)
        assert np.allclose(out.values, point, atol=1e-15)


def test_trait_alpha_out_of_range():
    for bad in (0.0, 0.5, -1.0, 2.0):
        with pytest.raises(AlphaOutOfRange):
            qso.mendelian_trait(bad)


# --- multi-allele model ------------------------------------------------------------

def test_multi_allele_equal_weights_is_identity():
    q = qso.multi_allele([0.125] * 4)
    gen = rng(32)
    for _ in range(10):
        y = random_simplex(gen, 4)
        out = apply_reduced(q, ReducedDistribution(y))
        assert np.abs(out.values - y).max() <= 1e-15


def test_multi_allele_coefficients():
    q = qso.multi_allele([0.2, 0.1, 0.1, 0.1])
    assert q.p[0, 1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    # interaction weights are skew-symmetric and bounded by 1
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            a_ij = 2 * q.p[i, j, i] - 1
            a_ji = 2 * q.p[j, i, j] - 1
            assert a_ij == pytest.approx(-a_ji, abs=1e-15)
            assert abs(a_ij) <= 1.0


def test_multi_allele_matches_coefficient_route():
    alphas = np.array([0.2, 0.15, 0.1, 0.05])
    space = build_space([["1", "2", "3", "4"]])
    mu0 = Distribution(space, np.concatenate([alphas, alphas]))
    derived = reduce_tensor(mendelian_coefficients(space, mu0))
    closed = qso.multi_allele(alphas)
    assert np.abs(closed.p - derived.p).max() <= 1e-15


def test_multi_allele_vertices_fixed_and_faces_invariant():
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        out = apply_reduced(q, ReducedDistribution(e))
        assert np.array_equal(out.values, e)
    # Volterra property: a vanished type never reappears
    y = np.array([0.5, 0.0, 0.3, 0.2])
    out = apply_reduced(q, ReducedDistribution(y))
    assert out.values[1] == 0.0


def test_multi_allele_dominant_vertex_attracts():
    q = qso.multi_allele([0.2, 0.1, 0.1, 0.1])
    traj = qso.iterate(q, ReducedDistribution.uniform(4), tol=1e-12)
    assert traj.converged
    assert np.abs(traj.points[-1] - [1.0, 0.0, 0.0, 0.0]).sum() < 1e-6


def test_multi_allele_validation():
    with pytest.raises(NonPositiveAlpha):
        qso.multi_allele([0.5, 0.0])
    with pytest.raises(NonPositiveAlpha):
        qso.multi_allele([0.6, -0.1])
    with pytest.raises(NonPositiveAlpha):
        qso.multi_allele([float("nan"), 0.5])
    with pytest.raises(NonPositiveAlpha):
        qso.multi_allele([0.25, 0.25, float("nan")])
    with pytest.raises(BadSum):
        qso.multi_allele([0.3, 0.3])
    with pytest.raises(ValueError):
        qso.multi_allele([0.5])


# --- Rh model ------------------------------------------------------------------------

def test_rh_model_coefficients():
    q, desc = qso.rh_model()
    assert desc.n == q.n == 2
    assert desc.type_labels == ("+", "-")
    assert desc.source == "embedded-table"
    assert q.p[0, 0, 0] == pytest.approx(0.985, abs=1e-12)
    a, b, c = q.p[0, 0, 0], q.p[0, 1, 0], q.p[1, 1, 0]
    assert a == pytest.approx(0.98495, abs=1e-3)
    assert b == pytest.approx(0.65033, abs=1e-3)
    assert c == pytest.approx(0.1, abs=1e-3)


def test_rh_model_fixed_point_and_delta():
    q, _ = qso.rh_model()
    report = find_fixed_point(q, ReducedDistribution.uniform(2))
    assert 0.94 <= report.point.values[0] <= 0.96
    analysis = qso.analyze_quadratic_1d(
        float(q.p[0, 0, 0]), float(q.p[0, 1, 0]), float(q.p[1, 1, 0])
    )
    assert analysis.delta == pytest.approx(0.0964, abs=5e-4)
    assert analysis.regime == "unique attracting"
    assert report.point.values[0] == pytest.approx(analysis.fixed_points[0], abs=1e-12)
    assert not regularity_check(q).holds


def test_rh_table_row_sums_are_exact():
    family = qso.rh_measure_family()
    assert np.abs(family.mu.sum(axis=2) - 1.0).max() < 1e-12


# --- ABO model -------------------------------------------------------------------------

def test_abo_model_coefficients():
    q, desc = qso.abo_model()
    assert desc.n == q.n == 4
    assert desc.type_labels == ("A", "B", "AB", "O")
    # derived coefficient of the (A, A) pair: 4 * mu = 1.8132, not the
    # published rounded 1.8131
    assert 2 * q.p[0, 0, 0] == pytest.approx(1.8132, abs=1e-12)


def test_abo_table_gender_symmetry_is_exact():
    family = qso.abo_measure_family()
    m = family.space.m
    assert np.array_equal(family.mu[:, :, :m], family.mu[:, :, m:])


def test_abo_row_sums_within_published_rounding():
    family = qso.abo_measure_family()
    sums = family.mu.sum(axis=2)
    assert np.abs(sums - 1.0).max() <= 2e-4 + 1e-12
    assert np.abs(sums - 1.0).max() > 1e-6  # four rows are genuinely off


def test_abo_fixed_point_and_shares():
    q, _ = qso.abo_model()
    report = find_fixed_point(q, ReducedDistribution.uniform(4))
    target = np.array([0.084, 0.516, 0.058, 0.342])
    assert np.abs(report.point.values - target).max() < 5e-3
    shares = np.round(report.point.values * 100)
    assert list(shares) == [8.0, 52.0, 6.0, 34.0]


def test_table_models_validate_pre_and_post_normalization():
    for family in (qso.rh_measure_family(), qso.abo_measure_family()):
        raw = nonmendelian_coefficients(family.space, family)
        assert validate_pq(raw, tol=1e-3).ok
        normalized = nonmendelian_coefficients(family.space, family.renormalized())
        assert validate_pq(normalized, tol=1e-9).ok


# --- table plumbing -----------------------------------------------------------------

def test_export_table_roundtrip(tmp_path):
    out = tmp_path / "rh_export.csv"
    qso.export_table("rh", out)
    exported = qso.load_measure_family(out)
    embedded = qso.rh_measure_family()
    assert np.array_equal(exported.mu, embedded.mu)
    qso.export_table("abo", out)
    assert np.array_equal(qso.load_measure_family(out).mu, qso.abo_measure_family().mu)
    with pytest.raises(ValueError):
        qso.export_table("nope", out)


@pytest.mark.parametrize("name", ["rh", "abo"])
def test_table_operator_renormalizes_then_reduces(name):
    family = qso.load_measure_family(_table_path(f"{name}.csv"))
    expected = reduce_tensor(nonmendelian_coefficients(family.space, family.renormalized()))
    assert np.array_equal(table_operator(family).p, expected.p)
    assert np.array_equal(from_name(name)[0].p, expected.p)


def test_table_model_labels_come_from_the_space_line(tmp_path, monkeypatch):
    text = _table_path("rh.csv").read_text()
    (tmp_path / "rh.csv").write_text(text.replace("+", "D").replace("-", "d"))
    monkeypatch.setenv("QSO_DATA_DIR", str(tmp_path))
    q, desc = qso.rh_model()
    assert desc.type_labels == ("D", "d")
    monkeypatch.delenv("QSO_DATA_DIR")
    assert np.array_equal(q.p, qso.rh_model()[0].p)


def test_data_dir_override(tmp_path, monkeypatch):
    shutil.copy(_table_path("rh.csv"), tmp_path / "rh.csv")
    text = (tmp_path / "rh.csv").read_text()
    (tmp_path / "rh.csv").write_text(text.replace("0.4925", "0.4825").replace("0.0075", "0.0175"))
    monkeypatch.setenv("QSO_DATA_DIR", str(tmp_path))
    q, _ = qso.rh_model()
    assert q.p[0, 0, 0] == pytest.approx(0.965, abs=1e-12)
    monkeypatch.delenv("QSO_DATA_DIR")
    q, _ = qso.rh_model()
    assert q.p[0, 0, 0] == pytest.approx(0.985, abs=1e-12)


def test_from_name_dispatch():
    q, desc = from_name("trait", alpha=0.2)
    assert desc.parameters == {"alpha": 0.2}
    assert q.p[0, 1, 0] == pytest.approx(0.4, abs=1e-15)
    q, desc = from_name("multi", alphas=[0.2, 0.2, 0.05, 0.05])
    assert desc.n == 4
    with pytest.raises(ValueError):
        from_name("trait")
    with pytest.raises(ValueError):
        from_name("multi")
    with pytest.raises(ValueError):
        from_name("unknown")
