"""The blocked iteration kernel against a plain per-step loop.

``per_step_orbit`` is the per-step loop that ``iterate`` and
``find_fixed_point`` used before the blocked kernel.  The kernel promises
the same floating-point operations in the same order, so everything it
returns must be bitwise equal to this oracle, not merely close.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qso
from qso import Distribution, ReducedDistribution, ReducedQso, build_space
from qso.dynamics import find_fixed_point, iterate

from helpers import cyclic_shift_operator, random_simplex, rng


def per_step_orbit(q, y0, max_iters, tol, stride):
    """One normalized step per loop turn, recording every ``stride``-th
    iterate plus the start and the last one."""
    y = np.array(y0, dtype=float)
    points = [y.copy()]
    indices = [0]
    converged = False
    residual = float(np.abs(np.einsum("ijk,i,j->k", q.p, y, y) - y).sum())
    k = 0
    for k in range(1, max_iters + 1):
        z = np.einsum("ijk,i,j->k", q.p, y, y)
        z = z / z.sum()
        residual = float(np.abs(z - y).sum())
        y = z
        if k % stride == 0:
            points.append(y.copy())
            indices.append(k)
        if residual < tol:
            converged = True
            break
    if indices[-1] != k and k > 0:
        points.append(y.copy())
        indices.append(k)
    return np.array(points), np.array(indices, dtype=int), converged, k, residual


def random_symmetric_qso(gen, n):
    """Symmetric stochastic tensor with unstructured random rows."""
    p = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            p[i, j] = p[j, i] = random_simplex(gen, n)
    return ReducedQso(n, p)


def mendelian_operator(components=6):
    """Per-component inheritance over biallelic components (m = 2^components)
    with a seeded product base measure."""
    gen = rng(64)
    space = build_space([("A", "a")] * components)
    weights = np.ones(1)
    for rate in gen.uniform(0.3, 0.8, components):
        weights = np.outer(weights, [rate / 4.0, 0.5 - rate / 4.0]).ravel()
    weights /= 2.0 * weights.sum()
    base = Distribution(space, np.concatenate([weights, weights]))
    return qso.reduce(qso.mendelian_coefficients(space, base))


SMALL_CASES = {
    "cyclic": (lambda: cyclic_shift_operator(), [0.5, 0.3, 0.2]),
    "trait-0.2499": (lambda: qso.mendelian_trait(0.2499), [0.5, 0.5]),
    "trait-0.1": (lambda: qso.mendelian_trait(0.1), [0.5, 0.5]),
    "rh": (lambda: qso.rh_model()[0], [0.5, 0.5]),
    "abo": (lambda: qso.abo_model()[0], [0.25, 0.25, 0.25, 0.25]),
    "random-5": (lambda: random_symmetric_qso(rng(5), 5), random_simplex(rng(6), 5)),
}
STRIDES = (1, 7, 100, 10**6)
BUDGETS = (0, 1, 7, 8, 9, 1023, 1024, 1025)


@pytest.fixture(scope="module")
def mendelian64():
    q = mendelian_operator()
    assert q.n == 64
    return q


def assert_same_orbit(q, y0, max_iters, tol, stride):
    traj = iterate(q, ReducedDistribution(y0), max_iters=max_iters, tol=tol, stride=stride)
    points, indices, converged, k, residual = per_step_orbit(q, y0, max_iters, tol, stride)
    assert np.array_equal(traj.points, points)
    assert traj.points.shape == points.shape
    assert np.array_equal(traj.indices, indices)
    assert traj.indices.dtype == indices.dtype
    assert traj.iterations == k
    assert traj.converged == converged
    assert traj.final_residual == residual
    return traj


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_iterate_matches_per_step_loop_at_every_budget(name, stride):
    make, y0 = SMALL_CASES[name]
    q = make()
    for max_iters in BUDGETS:
        assert_same_orbit(q, y0, max_iters, 1e-12, stride)


@pytest.mark.parametrize("stride", STRIDES)
def test_iterate_matches_per_step_loop_on_mendelian_64(mendelian64, stride):
    y0 = np.full(64, 1.0 / 64)
    for max_iters in (0, 1, 7, 8, 9):
        assert_same_orbit(mendelian64, y0, max_iters, 1e-12, stride)
    traj = assert_same_orbit(mendelian64, y0, 1025, 1e-12, stride)
    assert traj.converged


@pytest.mark.parametrize("name", ["trait-0.1", "rh", "abo", "random-5"])
def test_iterate_matches_per_step_loop_until_converged(name):
    make, y0 = SMALL_CASES[name]
    traj = assert_same_orbit(make(), y0, 10**6, 1e-12, 1)
    assert traj.converged


def test_trait_orbit_near_quarter_matches_per_step_loop():
    # the CLI's `run --model trait --alpha 0.2499`: 51,242 steps to 1e-12
    traj = assert_same_orbit(qso.mendelian_trait(0.2499), [0.5, 0.5], 10**6, 1e-12, 1)
    assert traj.iterations == 51_242


def test_iterate_reaches_tol_on_first_step():
    # the identity operator: the first step has size 0
    traj = assert_same_orbit(qso.mendelian_trait(0.25), [0.3, 0.7], 10**6, 1e-12, 7)
    assert traj.iterations == 1 and traj.converged
    # a loose tolerance met by the first step of a contracting operator
    traj = assert_same_orbit(qso.rh_model()[0], [0.9, 0.1], 10**6, 0.5, 1)
    assert traj.iterations == 1 and traj.converged


@pytest.mark.parametrize("name", ["trait-0.1", "rh", "abo", "random-5"])
def test_find_fixed_point_matches_per_step_loop(name):
    make, y0 = SMALL_CASES[name]
    q = make()
    points, _, _, k, _ = per_step_orbit(q, y0, 10**6, 1e-12, 1)
    plain = find_fixed_point(q, ReducedDistribution(y0), refine=False)
    assert plain.iterations == k
    assert np.array_equal(plain.point.values, points[-1])
    polished = find_fixed_point(q, ReducedDistribution(y0))
    assert polished.iterations == k


def test_find_fixed_point_matches_per_step_loop_on_mendelian_64(mendelian64):
    y0 = np.full(64, 1.0 / 64)
    points, _, _, k, _ = per_step_orbit(mendelian64, y0, 10**6, 1e-12, 1)
    report = find_fixed_point(mendelian64, ReducedDistribution(y0), refine=False)
    assert report.iterations == k
    assert np.array_equal(report.point.values, points[-1])


@pytest.mark.parametrize("max_iters", [0, 1, 8, 9])
def test_find_fixed_point_budget_matches_per_step_loop(max_iters):
    q, _ = qso.rh_model()
    points, _, _, k, _ = per_step_orbit(q, [0.5, 0.5], max_iters, 1e-12, 1)
    with pytest.raises(qso.errors.NoConvergence) as exc:
        find_fixed_point(q, ReducedDistribution([0.5, 0.5]), max_iters=max_iters,
                         refine=False)
    assert exc.value.report.iterations == k
    assert np.array_equal(exc.value.report.point.values, points[-1])


def test_find_fixed_point_from_fixed_start_takes_no_steps():
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    vertex = np.array([1.0, 0.0, 0.0, 0.0])
    report = find_fixed_point(q, ReducedDistribution(vertex))
    assert report.iterations == 0
    assert report.residual == 0.0
    assert np.array_equal(report.point.values, vertex)


def test_kernel_calls_the_c_routine_np_einsum_forwards_to():
    # np.einsum(..., optimize=False) passes its arguments to this routine
    # unchanged, so calling it directly cannot change a bit of any result
    implementation = getattr(np.einsum, "_implementation", None)
    if implementation is None:
        pytest.skip("this NumPy's einsum has no _implementation to inspect")
    assert qso.dynamics._c_einsum is implementation.__globals__["c_einsum"]


def test_stride_one_orbit_holds_one_copy_of_its_rows():
    q = cyclic_shift_operator()
    y0 = ReducedDistribution([0.5, 0.3, 0.2])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        traj = iterate(q, y0, max_iters=200_000, tol=1e-300)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert traj.iterations == 200_000
    assert peak < 1.2 * (traj.points.nbytes + traj.indices.nbytes)


@pytest.mark.parametrize("stride", [1, 7, 10**6])
@pytest.mark.parametrize("name,max_iters,converges", [
    ("cyclic", 0, False), ("cyclic", 1, False), ("cyclic", 1024, False),
    ("cyclic", 1025, False), ("rh", 10**6, True),
])
def test_recorded_points_own_their_rows(name, max_iters, converges, stride):
    make, y0 = SMALL_CASES[name]
    traj = iterate(make(), ReducedDistribution(y0), max_iters=max_iters, stride=stride)
    assert traj.converged == converges
    assert traj.points.flags.owndata and traj.points.base is None
    assert traj.points.shape == (len(traj.indices), len(y0))


@st.composite
def stochastic_qso(draw):
    """Symmetric stochastic tensor from arbitrary nonnegative weights."""
    n = draw(st.integers(2, 5))
    w = draw(arrays(np.float64, (n, n, n), elements=st.floats(0.0, 1.0)))
    w = w + w.transpose(1, 0, 2) + 1e-3
    return ReducedQso(n, w / w.sum(axis=2, keepdims=True))


@settings(max_examples=30, deadline=None)
@given(q=stochastic_qso(), start=st.integers(0, 2**32 - 1),
       max_iters=st.integers(0, 2100), stride=st.integers(1, 50))
def test_every_recorded_row_stays_on_the_simplex(q, start, max_iters, stride):
    y0 = random_simplex(rng(start), q.n)
    traj = iterate(q, ReducedDistribution(y0), max_iters=max_iters, tol=1e-300,
                   stride=stride)
    assert traj.iterations <= max_iters
    assert np.abs(traj.points.sum(axis=1) - 1.0).max() <= 1e-12
    assert traj.points.min() >= -1e-12
