import numpy as np
import pytest

import qso
from qso import ReducedDistribution, ReducedQso, apply_reduced
from qso.dynamics import (
    analyze_f_alpha,
    analyze_quadratic_1d,
    f_alpha,
    find_fixed_point,
    iterate,
    jacobian,
    regularity_check,
    tangent_spectral_radius,
)
from qso.errors import AlphaOutOfRange, InvalidCoefficients, NoConvergence

from helpers import cyclic_shift_operator, random_regular_qso, random_simplex, rng


def quadratic_root(a, b, c):
    """Independent fixed-point oracle: positive root of the 1D fixed-point
    equation (a - 2b + c) y^2 + (2b - 2c - 1) y + c = 0."""
    qa, qb, qc = a - 2 * b + c, 2 * b - 2 * c - 1, c
    roots = np.roots([qa, qb, qc])
    return float(next(r.real for r in roots if -1e-12 <= r.real <= 1 + 1e-12))


# --- iterate -------------------------------------------------------------------

def test_iterate_trait_below_quarter_goes_to_second_vertex():
    traj = iterate(qso.mendelian_trait(0.1), ReducedDistribution([0.5, 0.5]))
    assert traj.converged
    assert np.abs(traj.points[-1] - [0.0, 1.0]).sum() < 1e-9


def test_iterate_trait_above_quarter_goes_to_first_vertex():
    traj = iterate(qso.mendelian_trait(0.4), ReducedDistribution([0.5, 0.5]))
    assert traj.converged
    assert np.abs(traj.points[-1] - [1.0, 0.0]).sum() < 1e-9


def test_iterate_identity_converges_in_one_step():
    traj = iterate(qso.mendelian_trait(0.25), ReducedDistribution([0.5, 0.5]))
    assert traj.converged
    assert traj.iterations == 1
    assert np.array_equal(traj.points[0], traj.points[-1])


def test_iterate_records_strided_orbit_with_final_point():
    traj = iterate(qso.mendelian_trait(0.1), ReducedDistribution([0.5, 0.5]),
                   stride=17)
    assert traj.indices[0] == 0
    assert traj.indices[-1] == traj.iterations
    steps = np.diff(traj.indices)
    assert np.all(steps[:-1] == 17)


def test_iterate_nonconvergence_is_reported_not_raised():
    traj = iterate(cyclic_shift_operator(), ReducedDistribution([0.5, 0.3, 0.2]),
                   max_iters=2000, tol=1e-12, stride=100)
    assert not traj.converged
    assert traj.final_residual > 1e-12


def test_million_step_orbit_stays_on_simplex():
    traj = iterate(cyclic_shift_operator(), ReducedDistribution([0.5, 0.3, 0.2]),
                   max_iters=1_000_000, tol=1e-300)
    assert traj.iterations == 1_000_000
    assert not traj.converged
    sums = traj.points.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9
    assert traj.points.min() >= 0.0


# --- find_fixed_point -------------------------------------------------------------

def test_rh_fixed_point_matches_quadratic_oracle():
    q, _ = qso.rh_model()
    report = find_fixed_point(q, ReducedDistribution([0.5, 0.5]))
    root = quadratic_root(q.p[0, 0, 0], q.p[0, 1, 0], q.p[1, 1, 0])
    assert report.point.values[0] == pytest.approx(root, abs=1e-12)
    assert report.classification == "attracting"
    # independent residual check: one extra application
    again = apply_reduced(q, report.point)
    assert np.abs(again.values - report.point.values).sum() <= 1e-12


def test_volterra_vertex_start_returns_vertex_with_zero_residual():
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    vertex = ReducedDistribution([1.0, 0.0, 0.0, 0.0])
    report = find_fixed_point(q, vertex)
    assert report.residual == 0.0
    assert np.array_equal(report.point.values, vertex.values)
    assert report.classification == "attracting"  # dominant weight


def test_volterra_non_dominant_vertex_is_repelling():
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    vertex = ReducedDistribution([0.0, 0.0, 0.0, 1.0])
    report = find_fixed_point(q, vertex)
    assert report.residual == 0.0
    assert report.classification == "repelling"


def test_abo_fixed_point_from_uniform():
    q, _ = qso.abo_model()
    report = find_fixed_point(q, ReducedDistribution.uniform(4))
    target = np.array([0.084, 0.516, 0.058, 0.342])
    assert np.abs(report.point.values - target).max() < 5e-3
    assert report.classification == "attracting"


def test_identity_classifies_neutral():
    q = qso.mendelian_trait(0.25)
    report = find_fixed_point(q, ReducedDistribution([0.3, 0.7]))
    assert report.classification == "neutral"
    assert np.allclose(report.point.values, [0.3, 0.7], atol=1e-12)


def test_no_convergence_carries_partial_report():
    q, _ = qso.rh_model()
    with pytest.raises(NoConvergence) as exc:
        find_fixed_point(q, ReducedDistribution([0.5, 0.5]),
                         tol=1e-12, max_iters=2, refine=False)
    report = exc.value.report
    assert report is not None
    assert report.residual > 1e-12
    assert report.iterations == 2


@pytest.mark.parametrize("max_iters", [-1, -2, -3])
def test_negative_budget_is_rejected(max_iters):
    q, _ = qso.rh_model()
    start = ReducedDistribution([0.5, 0.5])
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        iterate(q, start, max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        find_fixed_point(q, start, max_iters=max_iters)


@pytest.mark.parametrize("solve, start, kwargs, message", [
    (iterate, [0.5, 0.5], {"tol": 0.0}, "tol must be positive"),
    (iterate, [0.5, 0.5], {"tol": -1e-9}, "tol must be positive"),
    (iterate, [0.5, 0.5], {"stride": 0}, "stride must be >= 1"),
    (iterate, [0.2, 0.3, 0.5], {}, "start has 3 types, operator expects 2"),
    (find_fixed_point, [0.5, 0.5], {"tol": 0.0}, "tol must be positive"),
    (find_fixed_point, [0.2, 0.3, 0.5], {}, "start has 3 types, operator expects 2"),
])
def test_solver_arguments_are_checked(solve, start, kwargs, message):
    q, _ = qso.rh_model()
    with pytest.raises(ValueError, match=message):
        solve(q, ReducedDistribution(start), **kwargs)


def test_trajectory_final_is_the_last_recorded_point():
    traj = iterate(qso.mendelian_trait(0.1), ReducedDistribution([0.5, 0.5]), stride=17)
    assert isinstance(traj.final, ReducedDistribution)
    assert np.array_equal(traj.final.values, traj.points[-1])


def test_newton_refinement_polishes_below_iteration_tolerance():
    q, _ = qso.abo_model()
    report = find_fixed_point(q, ReducedDistribution.uniform(4), tol=1e-12)
    assert report.residual < 1e-13


# --- jacobian and stability -------------------------------------------------------

def test_jacobian_matches_finite_differences():
    gen = rng(21)
    q = random_regular_qso(gen, 4)
    y = random_simplex(gen, 4)
    h = 1e-7
    expected = np.empty((4, 4))
    for i in range(4):
        up, down = y.copy(), y.copy()
        up[i] += h
        down[i] -= h
        expected[:, i] = (qso.operators.reduced_step(q, up)
                          - qso.operators.reduced_step(q, down)) / (2 * h)
    assert np.abs(jacobian(q, y) - expected).max() < 1e-6


def test_tangent_spectral_radius_of_identity_is_one():
    q = qso.mendelian_trait(0.25)
    gen = rng(22)
    for _ in range(5):
        y = random_simplex(gen, 2)
        assert tangent_spectral_radius(q, y) == pytest.approx(1.0, abs=1e-12)


# --- regularity --------------------------------------------------------------------

def test_regularity_threshold_example():
    p = np.empty((2, 2, 2))
    p[0, 0] = [0.7, 0.3]
    p[0, 1] = p[1, 0] = [0.3, 0.7]
    p[1, 1] = [0.3, 0.7]
    rep = regularity_check(ReducedQso(2, p))
    assert rep.holds
    assert rep.margin == pytest.approx(0.05, abs=1e-15)


def test_regularity_fails_for_rh():
    q, _ = qso.rh_model()
    rep = regularity_check(q)
    assert not rep.holds
    assert rep.margin < 0


def test_regularity_uniform_tensor():
    for n in (2, 3, 5):
        p = np.full((n, n, n), 1.0 / n)
        rep = regularity_check(ReducedQso(n, p))
        assert rep.holds
        assert rep.margin == pytest.approx(1.0 / (2 * n), abs=1e-15)


def test_regular_tensors_have_unique_attractor_small():
    gen = rng(23)
    for _ in range(5):
        q = random_regular_qso(gen, 3)
        r1 = find_fixed_point(q, ReducedDistribution(random_simplex(gen, 3)))
        r2 = find_fixed_point(q, ReducedDistribution(random_simplex(gen, 3)))
        assert np.abs(r1.point.values - r2.point.values).sum() < 1e-8
        assert r1.classification == "attracting"


# --- closed-form analyses ------------------------------------------------------------

def test_analyze_f_alpha_identity():
    res = analyze_f_alpha(0.25)
    assert res.regime == "identity"
    assert res.fixed_points == (0.0, 0.5)
    for x in np.linspace(0.0, 0.5, 11):
        assert f_alpha(0.25, x) == pytest.approx(x, abs=1e-15)


def test_analyze_f_alpha_low_regime():
    res = analyze_f_alpha(0.1)
    assert res.regime == "converges to 0"
    assert f_alpha(0.1, 0.25) == pytest.approx(0.175, abs=1e-15)


def test_analyze_f_alpha_high_regime():
    res = analyze_f_alpha(0.4)
    assert res.regime == "converges to 1/2"
    x = 0.1
    seen = [x]
    for _ in range(200):
        x = float(f_alpha(0.4, x))
        seen.append(x)
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert abs(seen[-1] - 0.5) < 1e-6


def test_analyze_f_alpha_out_of_range():
    for bad in (0.0, 0.5, -0.2, 0.7):
        with pytest.raises(AlphaOutOfRange):
            analyze_f_alpha(bad)


def test_analyze_quadratic_rh_published_values():
    res = analyze_quadratic_1d(0.9849, 0.6503, 0.1)
    assert res.delta == pytest.approx(0.09640036, abs=1e-12)
    assert res.regime == "unique attracting"
    assert len(res.fixed_points) == 1
    y = res.fixed_points[0]
    assert y == pytest.approx(0.9529069857803039, abs=1e-12)
    # fixed points verified by map residual
    image = 0.9849 * y**2 + 2 * 0.6503 * y * (1 - y) + 0.1 * (1 - y) ** 2
    assert abs(image - y) < 1e-12


def test_analyze_quadratic_identity_row():
    res = analyze_quadratic_1d(1.0, 0.5, 0.0)
    assert res.delta == 0.0
    assert res.fixed_points == (0.0, 1.0)
    assert res.regime == "identity"


def test_analyze_quadratic_symmetric_cases():
    # a = c = 1/2 with b = 1/2 fixes the midpoint
    res = analyze_quadratic_1d(0.5, 0.5, 0.5)
    assert 0.5 in res.fixed_points
    assert res.delta == pytest.approx(4 * 0.5 * 0.5, abs=1e-15)
    # flip-symmetric rows (a + c = 1, b = 1/2) also fix the midpoint
    res = analyze_quadratic_1d(0.9, 0.5, 0.1)
    assert len(res.fixed_points) == 1
    assert res.fixed_points[0] == pytest.approx(0.5, abs=1e-12)


def test_analyze_quadratic_degenerate_and_outside_regimes():
    # delta = 0: a double root at the vertex y = 1
    res = analyze_quadratic_1d(1.0, 0.5, 0.3)
    assert res.delta == 0.0
    assert res.regime == "degenerate"
    assert res.fixed_points == (1.0,)
    # delta = 5: one root, (3 - sqrt 5) / 2, lies in [0, 1]
    res = analyze_quadratic_1d(0.0, 0.0, 1.0)
    assert res.delta == 5.0
    assert res.regime == "outside (0,4)"
    assert res.fixed_points == pytest.approx(((3.0 - 5.0 ** 0.5) / 2.0,), abs=1e-15)


def test_analyze_quadratic_rejects_bad_coefficients():
    with pytest.raises(InvalidCoefficients):
        analyze_quadratic_1d(1.2, 0.5, 0.1)
    with pytest.raises(InvalidCoefficients):
        analyze_quadratic_1d(0.9, -0.1, 0.1)


def test_quadratic_roots_match_iteration_over_grid():
    gen = rng(24)
    for _ in range(25):
        a, b, c = gen.random(3)
        res = analyze_quadratic_1d(a, b, c)
        if res.regime != "unique attracting":
            continue
        p = np.empty((2, 2, 2))
        p[0, 0] = [a, 1 - a]
        p[0, 1] = p[1, 0] = [b, 1 - b]
        p[1, 1] = [c, 1 - c]
        rep = find_fixed_point(ReducedQso(2, p), ReducedDistribution([0.5, 0.5]))
        assert min(abs(rep.point.values[0] - r) for r in res.fixed_points) < 1e-9
