"""The blocked iteration kernel against a plain per-step loop.

``per_step_orbit`` is the per-step loop that ``iterate`` and
``find_fixed_point`` used before the blocked kernel.  The kernel promises
the same floating-point operations in the same order, so everything it
returns must be bitwise equal to this oracle, not merely close.
"""

import dis
import functools
import gc
import operator
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qso
from qso import Distribution, ReducedDistribution, ReducedQso, build_space
from qso import dynamics, operators
from qso.dynamics import find_fixed_point, iterate
from qso.operators import ROUNDING_TOL

from helpers import cyclic_shift_operator, permutation_operator, random_simplex, rng


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


def collect_orbit(q, y0, max_iters, tol):
    """The blocks of ``dynamics._orbit``, copied as they come: the start and
    every iterate, the step count, and whether the last step fell below
    ``tol``."""
    points, steps = [np.array([y0], dtype=float)], [np.empty(0)]
    for rows, sizes in dynamics._orbit(q, y0, max_iters, tol):
        points.append(rows.copy())
        steps.append(sizes)
    steps = np.concatenate(steps)
    return np.concatenate(points), len(steps), bool(steps.size and steps[-1] < tol)


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


def mendel_fractions_operator(components):
    """Per-component inheritance over biallelic components with a uniform
    base measure: every coefficient is one of Mendel's 1, 1/2 and 1/4, so
    the scalar block shares many products and skips the unit multiplies."""
    space = build_space([("A", "a")] * components)
    base = Distribution(space, np.full(2 * space.m, 0.5 / space.m))
    return qso.reduce(qso.mendelian_coefficients(space, base))


SMALL_CASES = {
    "cyclic": (lambda: cyclic_shift_operator(), [0.5, 0.3, 0.2]),
    "mendelian-2": (lambda: mendel_fractions_operator(1), [0.3, 0.7]),
    "mendelian-4": (lambda: mendel_fractions_operator(2), [0.4, 0.3, 0.2, 0.1]),
    "multi-3": (lambda: qso.multi_allele([0.2, 0.2, 0.1]), [0.5, 0.3, 0.2]),
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


@pytest.mark.parametrize("name", ["rh", "abo", "cyclic", "mendelian-64"])
def test_find_fixed_point_ends_where_iterate_does(mendelian64, name):
    # both consume the kernel's blocks; a stride of the whole budget makes
    # iterate record only the start and the last iterate
    if name == "mendelian-64":
        q, y0 = mendelian64, np.full(64, 1.0 / 64)
    else:
        make, y0 = SMALL_CASES[name]
        q = make()
    start = ReducedDistribution(y0)
    for max_iters in (0, 1, 7, 1024, 1025):
        traj = iterate(q, start, max_iters=max_iters, stride=max(max_iters, 1))
        try:
            report = find_fixed_point(q, start, max_iters=max_iters, refine=False)
        except qso.errors.NoConvergence as exc:
            report = exc.report
        assert report.iterations == traj.iterations
        assert report.point.values.tobytes() == traj.points[-1].tobytes()


def test_find_fixed_point_from_fixed_start_takes_no_steps():
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    vertex = np.array([1.0, 0.0, 0.0, 0.0])
    report = find_fixed_point(q, ReducedDistribution(vertex))
    assert report.iterations == 0
    assert report.residual == 0.0
    assert np.array_equal(report.point.values, vertex)


def counting_images(monkeypatch, q):
    """Every image the polish computes from now on: each ``reduced_step``
    call, and each call of ``q``'s raw scalar step where it has one."""
    calls = []

    def counting(*args):
        calls.append(1)
        return qso.operators.reduced_step(*args)

    monkeypatch.setattr(dynamics, "reduced_step", counting)
    raw = q._raw
    if raw is not None:  # q is frozen; each test builds its own q
        object.__setattr__(q, "_raw", lambda *y: calls.append(1) or raw(*y))
    return calls


def test_find_fixed_point_from_fixed_start_evaluates_its_residual_once(monkeypatch):
    q = qso.multi_allele([0.2, 0.15, 0.1, 0.05])
    calls = counting_images(monkeypatch, q)
    find_fixed_point(q, ReducedDistribution([1.0, 0.0, 0.0, 0.0]))
    # the start's image, then one Newton step's candidate: the step's
    # right-hand side reuses the start's image
    assert len(calls) == 2


def test_stride_one_orbit_holds_one_copy_of_its_rows():
    q = cyclic_shift_operator()
    y0 = ReducedDistribution([0.5, 0.3, 0.2])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        traj = iterate(q, y0, max_iters=20_000, tol=1e-300)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert traj.iterations == 20_000
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


# Operators with n <= 4 step in Python floats.  That step repeats two NumPy
# summation orders, pinned here: a NumPy that changes either fails these
# tests first, rather than only the bitwise oracles above.

def spread_magnitudes(gen, shape):
    """Positive values with magnitudes from 1e-8 to 1, where the grouping
    of a sum shows in its last bits."""
    return gen.random(shape) * 10.0 ** gen.uniform(-8.0, 0.0, shape)


def test_add_reduce_of_up_to_four_elements_is_the_left_fold():
    gen = rng(801)
    regrouped = 0
    for _ in range(4000):
        values = spread_magnitudes(gen, int(gen.integers(1, 5)))
        floats = values.tolist()
        assert np.add.reduce(values) == functools.reduce(operator.add, floats)
        # the other grouping, o0 + (o1 + o2 + ...), is a different sum
        regrouped += floats[0] + functools.reduce(operator.add, floats[1:], 0.0) \
            != np.add.reduce(values)
    assert regrouped > 200


def test_polish_sum_is_add_reduce_at_every_length():
    # a left fold up to 4 values, np.add.reduce above: NumPy's sum either way,
    # from the leading -0.0, which NumPy adds to 0.0, to pairwise sums of 8+
    gen = rng(802)
    for length in range(1, 41):
        for _ in range(50):
            values = spread_magnitudes(gen, length)
            values[0] = -0.0
            assert np.float64(dynamics._sum(values.tolist())).tobytes() == \
                np.add.reduce(values).tobytes()


def left_sum(terms):
    """``terms`` added one by one to 0.0."""
    total = 0.0
    for term in terms:
        total += term
    return total


def test_c_einsum_adds_its_terms_in_i_j_order():
    gen = rng(802)
    regrouped = 0
    for _ in range(1000):
        n = int(gen.integers(1, 5))
        p = spread_magnitudes(gen, (n, n, n)).tolist()
        y = spread_magnitudes(gen, n)
        out = np.einsum("ijk,i,j->k", np.array(p), y, y)
        y = y.tolist()
        for k in range(n):
            terms = [[(p[i][j][k] * y[i]) * y[j] for j in range(n)] for i in range(n)]
            assert out[k] == left_sum(term for row in terms for term in row)
            # summing each i's terms first is a different sum
            regrouped += left_sum(map(left_sum, terms)) != out[k]
    assert regrouped > 50


@st.composite
def signed_zero_qso(draw):
    """Symmetric operators at n = 1..4 whose coefficients include 0.0, -0.0
    and negatives down to -ROUNDING_TOL, as the constructor admits."""
    n = draw(st.integers(1, 4))
    w = draw(arrays(np.float64, (n, n, n), elements=st.floats(0.0, 1.0)))
    kind = draw(arrays(np.int8, (n, n, n), elements=st.integers(0, 3)))
    upper = np.triu(np.ones((n, n), dtype=bool))[..., None]
    w = np.where(upper, w, w.transpose(1, 0, 2))
    kind = np.where(upper, kind, kind.transpose(1, 0, 2))
    keep = (kind == 0) & (w > 0.0)
    empty = ~keep.any(axis=2)
    keep[empty, 0] = True  # a pair with no kept child has child 0 only
    w = np.where(empty[..., None], 1.0, w)
    p = np.where(keep, w, 0.0)
    p /= p.sum(axis=2, keepdims=True)
    p[~keep & (kind == 2)] = -0.0
    p[~keep & (kind == 3)] = -draw(st.floats(0.0, ROUNDING_TOL))
    return ReducedQso(n, p)


@st.composite
def start_with_zeros(draw, n):
    """Points of the simplex, often with zero or subnormal coordinates."""
    y = draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    if not y.any():
        y[draw(st.integers(0, n - 1))] = 1.0
    return y / y.sum()


@st.composite
def pooled_coefficient_qso(draw):
    """Symmetric operators at n = 1..4 whose coefficients come from a small
    pool: Mendel's 1, 1/2 and 1/4, a few random values r with their 1 - r,
    and as zeros 0.0, -0.0 and tiny negatives.  Equal products and exact
    1.0 coefficients are then common."""
    n = draw(st.integers(1, 4))
    randoms = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                            min_size=1, max_size=3))
    splits = [s for s in ([1.0], [0.5, 0.5], [0.5, 0.25, 0.25], [0.25] * 4,
                          *([r, 1.0 - r] for r in randoms)) if len(s) <= n]
    zeros = [0.0, -0.0] + [-draw(st.floats(0.0, ROUNDING_TOL)) for _ in range(2)]
    p = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            row = np.array(draw(st.lists(st.sampled_from(zeros), min_size=n, max_size=n)))
            split = draw(st.sampled_from(splits))
            row[draw(st.permutations(range(n)))[:len(split)]] = split
            p[i, j] = p[j, i] = row
    return ReducedQso(n, p)


def assert_same_orbit_bytes(q, y0, max_iters, tol, stride):
    # negative coefficients can drive an orbit off the simplex to inf and NaN,
    # which must match too, so every float is compared by its bytes
    with np.errstate(all="ignore"):
        traj = iterate(q, ReducedDistribution(y0), max_iters=max_iters, tol=tol,
                       stride=stride)
        points, indices, converged, k, residual = per_step_orbit(q, y0, max_iters, tol,
                                                                 stride)
    assert traj.points.shape == points.shape
    assert traj.points.tobytes() == points.tobytes()
    assert np.array_equal(traj.indices, indices)
    assert (traj.iterations, traj.converged) == (k, converged)
    assert np.float64(traj.final_residual).tobytes() == np.float64(residual).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=signed_zero_qso(), max_iters=st.integers(0, 1100),
       stride=st.integers(1, 40), tol=st.sampled_from([1e-300, 1e-12, 1e-6]))
def test_scalar_step_iterate_matches_per_step_loop_bitwise(data, q, max_iters, stride, tol):
    assert_same_orbit_bytes(q, data.draw(start_with_zeros(q.n)), max_iters, tol, stride)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=pooled_coefficient_qso(), max_iters=st.integers(0, 1100),
       stride=st.integers(1, 40), tol=st.sampled_from([1e-300, 1e-12, 1e-6]))
def test_scalar_step_with_repeated_coefficients_matches_per_step_loop_bitwise(
        data, q, max_iters, stride, tol):
    assert_same_orbit_bytes(q, data.draw(start_with_zeros(q.n)), max_iters, tol, stride)


def test_scalar_step_leaves_a_zero_total_to_einsum():
    # from (1, -1) the trait operator at alpha = 1/4 maps to (0, 0): Python
    # cannot divide by that total, NumPy gives the NaN row the oracle keeps
    q = qso.mendelian_trait(0.25)
    y0 = np.array([1.0, -1.0])
    with np.errstate(all="ignore"):
        points, k, converged = collect_orbit(q, y0, 20, 1e-12)
        expected, _, _, k_expected, _ = per_step_orbit(q, y0, 20, 1e-12, 1)
    assert np.isnan(points[1:]).all()
    assert points.tobytes() == expected.tobytes()
    assert (k, converged) == (k_expected, False)


SENTINEL = -7.25  # a value no step writes here
BLOCK_CASES = {name: SMALL_CASES[name] for name in ("cyclic", "trait-0.1", "trait-0.2499", "rh",
                                                   "abo", "mendelian-2", "mendelian-4", "multi-3")}
BLOCK_CASES["random-1"] = (lambda: random_symmetric_qso(rng(1), 1), [1.0])
# a subnormal and a tiny negative coefficient, written into the block as literals
BLOCK_CASES["literals"] = (lambda: ReducedQso(2, np.array([[[1.0, 5e-324], [0.5, 0.5]],
                                                           [[0.5, 0.5], [-1e-13, 1.0 + 1e-13]]])),
                           [0.3, 0.7])


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_scalar_block_writes_its_steps_and_nothing_else(name):
    make, y0 = BLOCK_CASES[name]
    q = make()
    block = q._block
    for b in (1, 8, 1024):
        buf = np.full((dynamics._BLOCK_MAX + 1, q.n), SENTINEL)
        buf[0] = y0
        before = buf.copy()
        assert block(buf, b) is True
        expected = per_step_orbit(q, y0, b, 0.0, 1)[0]
        assert buf[1:b + 1].tobytes() == expected[1:].tobytes()
        assert buf[0].tobytes() == before[0].tobytes()
        assert buf[b + 1:].tobytes() == before[b + 1:].tobytes()


def test_scalar_block_declines_a_zero_total_and_writes_nothing():
    # from (1, -1) the trait operator at alpha = 1/4 maps to (0, 0)
    q = qso.mendelian_trait(0.25)
    block = q._block
    for b in (1, 8, 1024):
        buf = np.full((dynamics._BLOCK_MAX + 1, 2), SENTINEL)
        buf[0] = [1.0, -1.0]
        before = buf.tobytes()
        assert block(buf, b) is False
        assert buf.tobytes() == before


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_scalar_block_multiplies_twice_per_term_but_never_by_one(name):
    q = BLOCK_CASES[name][0]()
    block = q._block
    # the block multiplies only in its step loop, so these are one step's:
    # (c * y_i) * y_j for every nonzero coefficient, y_i * y_j where c is 1.0
    products = sum(ins.opname == "BINARY_OP" and ins.argrepr == "*"
                   for ins in dis.get_instructions(block))
    assert products == 2 * np.count_nonzero(q.p) - np.count_nonzero(q.p == 1.0)


@pytest.mark.parametrize("n,einsum_calls", [(2, 0), (3, 0), (4, 0), (5, 17), (6, 17)])
def test_only_operators_above_four_types_step_by_einsum(monkeypatch, n, einsum_calls):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return np.einsum(*args, **kwargs)

    monkeypatch.setattr(operators, "_einsum", counting)
    q = random_symmetric_qso(rng(810 + n), n)
    traj = iterate(q, ReducedDistribution(random_simplex(rng(820 + n), n)), max_iters=17,
                   tol=1e-300)
    assert traj.iterations == 17
    assert len(calls) == einsum_calls


def test_reduced_qso_pickles_after_iterating(monkeypatch):
    builds = []
    for name in ("_sparse_table", "_scalar_block"):
        build = getattr(operators, name)
        monkeypatch.setattr(operators, name,
                            lambda p, name=name, build=build: builds.append(name) or build(p))
    cases = {name: SMALL_CASES[name] for name in ("rh", "abo", "cyclic")}
    cases["mendelian-64"] = (mendelian_operator, np.full(64, 1.0 / 64))
    for make, y0 in cases.values():
        del builds[:]
        q = make()
        built = builds[:]  # the table, and the block where n <= 4
        assert built == ["_sparse_table"] + ["_scalar_block"] * (q.n <= 4)
        assert "_table" in vars(q) and "_block" in vars(q)  # built by the constructor
        before = iterate(q, ReducedDistribution(y0), max_iters=50)
        qso.apply_reduced(q, ReducedDistribution(y0))
        assert builds == built  # stepping builds nothing
        copy = pickle.loads(pickle.dumps(q))
        assert builds == built * 2  # unpickling rebuilds each once, through the constructor
        assert copy.n == q.n and np.array_equal(copy.p, q.p) and repr(copy) == repr(q)
        if q._table is None:
            assert copy._table is None
        else:
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(copy._table, q._table))
        assert (copy._block is None) == (q._block is None)
        after = iterate(copy, ReducedDistribution(y0), max_iters=50)
        assert before.points.tobytes() == after.points.tobytes()
        assert builds == built * 2  # stepping the copy builds nothing
    # q is now the Mendelian operator, which steps through its table
    assert q._table is not None
    find_fixed_point(q, ReducedDistribution(y0))
    assert builds == built * 2
    gen = rng(830)
    rows = list(starts_with_signed_zeros(gen, q.n, 8))
    for bad in (np.nan, np.inf, -np.inf):
        rows.append(random_simplex(gen, q.n))
        rows[-1][int(gen.integers(q.n))] = bad
    with np.errstate(all="ignore"):
        for y in rows:
            expected = np.einsum("ijk,i,j->k", q.p, y, y)
            assert qso.operators.reduced_step(q, y).tobytes() == expected.tobytes()
    assert builds == built * 2
    # the table does not keep its operator alive
    alive = weakref.ref(q)
    del q, copy
    gc.collect()
    assert alive() is None


def test_constructor_builds_each_kernel_once_and_stepping_builds_none(monkeypatch):
    calls, built = [], []  # every call of a kernel builder, and each kernel it built

    def counting(name, make):
        def wrapped(p):
            calls.append(name)
            kernel = make(p)
            if kernel is not None:
                built.append(name)
            return kernel
        monkeypatch.setattr(operators, name, wrapped)

    counting("_scalar_block", operators._scalar_block)
    counting("_sparse_table", operators._sparse_table)
    compiled = []  # the scalar block and the raw step come from one compile
    monkeypatch.setattr(operators, "compile",
                        lambda *args: compiled.append(args[1]) or compile(*args), raising=False)
    cases = {"trait": (lambda: qso.mendelian_trait(0.2), ["_scalar_block"]),
             "rh": (lambda: qso.rh_model()[0], ["_scalar_block"]),
             "abo": (lambda: qso.abo_model()[0], ["_scalar_block"]),
             "cyclic": (cyclic_shift_operator, ["_scalar_block"]),
             "mendelian-4": (lambda: mendelian_operator(2), ["_scalar_block"]),
             "multi-5": (lambda: qso.multi_allele([0.2, 0.15, 0.1, 0.03, 0.02]), []),
             "mendelian-64": (mendelian_operator, ["_sparse_table"])}
    for name, (make, kernels) in cases.items():
        del calls[:], built[:], compiled[:]
        q = make()
        assert built == kernels, name
        assert (q._block is not None, q._table is not None) == (
            "_scalar_block" in kernels, "_sparse_table" in kernels), name
        assert (q._raw is None) == (q._block is None), name
        assert len(compiled) == ("_scalar_block" in kernels), name
        made, raw = len(calls), q._raw
        y0 = ReducedDistribution.uniform(q.n)
        iterate(q, y0, max_iters=50)
        find_fixed_point(q, y0)
        find_fixed_point(q, ReducedDistribution(random_simplex(rng(560), q.n)))
        qso.apply_reduced(q, y0)
        assert len(calls) == made, name
        assert len(compiled) == ("_scalar_block" in kernels) and q._raw is raw, name
        twin = ReducedQso(q.n, q.p)  # equal coefficients, its own block
        assert (twin._block is None) == (q._block is None)
        assert twin._block is not q._block or q._block is None, name


def halving_newton_refine(q, y, budget=dynamics._NEWTON_STEPS):
    """``_newton_refine`` as it was before it stopped halving at a step that
    no longer moves the point: all 40 halvings of every step are tried."""
    n = q.n
    ones_row = np.ones((1, n))
    best = y
    best_res = dynamics._l1(dynamics.reduced_step(q, y), y)
    for _ in range(budget):
        g = best - dynamics.reduced_step(q, best)
        a = np.vstack([np.eye(n) - dynamics.jacobian(q, best), ones_row])
        rhs = np.concatenate([g, [0.0]])
        d, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        improved = False
        t = 1.0
        for _ in range(40):
            cand = best - t * d
            if cand.min() >= 0.0:
                cand = cand / cand.sum()
                res = dynamics._l1(dynamics.reduced_step(q, cand), cand)
                if res < best_res:
                    best, best_res = cand, res
                    improved = True
                    break
            t /= 2.0
        if not improved or best_res < n * dynamics._NEWTON_FLOOR:
            break
    return best


def newton_starts(q, y0):
    """Orbit ends at loose to tight tolerances, and random points."""
    for tol in (1e-2, 1e-5, 1e-8, 1e-12):
        yield iterate(q, ReducedDistribution(y0), max_iters=20_000, tol=tol).points[-1]
    for seed in range(3):
        yield random_simplex(rng(850 + seed), q.n)


@pytest.mark.parametrize("name,saves", [
    ("rh", True), ("abo", True), ("cyclic", True), ("random-5", True),
    # here each polish step either improves the residual or leaves the
    # simplex, so no halving reaches a step that no longer moves the point
    ("trait-0.1", False), ("trait-0.2499", False), ("mendelian-64", False),
])
def test_newton_polish_matches_the_halving_loop_with_fewer_steps(monkeypatch, mendelian64,
                                                                 name, saves):
    if name == "mendelian-64":
        q, y0 = mendelian64, np.full(64, 1.0 / 64)
    else:
        make, y0 = SMALL_CASES[name]
        q = make()
    newton_steps = []
    jacobian = dynamics.jacobian

    def counting_jacobian(*args):
        newton_steps.append(1)
        return jacobian(*args)

    calls = counting_images(monkeypatch, q)
    monkeypatch.setattr(dynamics, "jacobian", counting_jacobian)
    new_calls, old_calls = [], []
    for y in newton_starts(q, y0):
        del calls[:], newton_steps[:]
        polished, residual = dynamics._newton_refine(q, y, dynamics.reduced_step(q, y))
        # the halving loop computes each step's image afresh, where the
        # polish reuses the one its residual came from: add those back
        new_calls.append(len(calls) + len(newton_steps))
        assert np.float64(residual).tobytes() == np.float64(
            dynamics._l1(qso.operators.reduced_step(q, polished), polished)).tobytes()
        del calls[:]
        expected = halving_newton_refine(q, y)
        old_calls.append(len(calls))
        assert polished.tobytes() == expected.tobytes()
    assert all(new <= old for new, old in zip(new_calls, old_calls))
    assert (sum(new_calls) < sum(old_calls)) == saves


# random_sparse_qso operators whose sparse table, not einsum, steps them
SPARSE_CASES = [(24, 0.02, 801), (40, 0.05, 802), (64, 0.05, 803), (96, 0.03, 804)]


def array_halve(q, best, d, best_res):
    """``(point, image, residual)`` for the first t = 1, 1/2, ... (``_NEWTON_HALVINGS`` tries)
    at which ``best - t d`` lies in the simplex and, normalized, beats
    ``best_res``.  None if none does, known early once ``best - t d`` is
    ``best`` to the bit: rounding is monotone, so every smaller t does too.

    ``dynamics._halve`` in NumPy arrays, the oracle whose bits it must give."""
    t = 1.0
    for _ in range(dynamics._NEWTON_HALVINGS):
        moved = best - t * d
        if moved.min() >= 0.0:
            cand = moved / moved.sum()
            cand_image = qso.operators.reduced_step(q, cand)
            res = dynamics._l1(cand_image, cand)
            if res < best_res:
                return cand, cand_image, res
        if np.array_equal(moved.view(np.uint64), best.view(np.uint64)):
            return None
        t /= 2.0
    return None


def array_polish(q, y):
    """``_newton_refine`` from ``y`` with its halving done by ``array_halve``."""
    halve = dynamics._halve
    dynamics._halve = array_halve
    try:
        with np.errstate(all="ignore"):
            return dynamics._newton_refine(q, y, qso.operators.reduced_step(q, y))
    finally:
        dynamics._halve = halve


@st.composite
def einsum_qso(draw):
    """Symmetric operators at n = 5..12, which image by einsum, with some
    coefficients 0.0; their sums of 8 or more terms go pairwise in NumPy."""
    n = draw(st.integers(5, 12))
    return random_sparse_qso(rng(draw(st.integers(0, 2**32 - 1))), n,
                             draw(st.floats(0.2, 1.0)))


@functools.cache
def sparse_case_qso(n, density, seed):
    return random_sparse_qso(rng(seed), n, density)


# four strategies: 80 draws keep about 40 on the two n <= 4 ones
@settings(max_examples=80, deadline=None)
@given(q=st.one_of(signed_zero_qso(), pooled_coefficient_qso(), einsum_qso(),
                   st.sampled_from(SPARSE_CASES).map(lambda case: sparse_case_qso(*case))
                   ).filter(lambda q: q.n >= 2),
       seed=st.integers(0, 2**32 - 1))
def test_float_polish_matches_the_array_polish_bitwise(q, seed):
    # images by the raw step up to 4 types, einsum up to 12, the sparse table above
    assert (q._raw is not None, q._table is not None) == (q.n <= 4, q.n >= 24)
    gen = rng(seed)
    with np.errstate(all="ignore"):
        starts = [*newton_starts(q, random_simplex(gen, q.n)),
                  *starts_with_signed_zeros(gen, q.n, 4)]
    for y in starts:
        polished, residual = dynamics._newton_refine(q, y, qso.operators.reduced_step(q, y))
        expected, expected_residual = array_polish(q, y)
        assert polished.tobytes() == expected.tobytes()
        assert np.float64(residual).tobytes() == np.float64(expected_residual).tobytes()


@pytest.mark.parametrize("d", [[np.nan, 0.0], [-np.inf, 0.0], [-np.inf, -np.inf],
                               [np.inf, 0.0], [-1e308, -1e308], [0.3, 0.7]],
                         ids=["nan", "one-inf", "two-inf", "-inf", "overflowing-sum",
                              "zero-sum"])
def test_float_halving_matches_the_array_halving_on_an_odd_direction(d):
    # the moved points hold NaN, inf or -inf, or sum to inf or to zero; the
    # candidates are NaN (inf / inf, 0 / 0) or all 0.0 (x / inf); Rh images
    # through its raw step, the n = 5 operator through reduced_step
    for q in (qso.rh_model()[0], qso.multi_allele([0.2, 0.15, 0.1, 0.03, 0.02])):
        pad = [0.0] * (q.n - 2)
        best = np.array([0.3, 0.7, *pad])
        best_res = dynamics._l1(qso.operators.reduced_step(q, best), best)
        # the production loop must stay silent; the oracle warns, as NumPy does
        found = dynamics._halve(q, best, np.array([*d, *pad]), best_res)
        with np.errstate(all="ignore"):
            expected = array_halve(q, best, np.array([*d, *pad]), best_res)
        assert (found is None) == (expected is None)
        if found is not None:
            assert [np.float64(v).tobytes() for v in found] == [
                np.float64(v).tobytes() for v in expected]


# Operators with more than 4 types whose child-major table of nonzero
# coefficients (``operators._sparse_table``) is small step from it, and each
# such step must equal one einsum step byte for byte on every finite row.

def random_sparse_qso(gen, n, density):
    """Symmetric stochastic tensor where each pair has children with
    probability ``density``, so the children have unequal nonzero counts and
    the table pads its shorter columns."""
    keep = gen.random((n, n, n)) < density
    keep |= keep.transpose(1, 0, 2)
    i, j = np.nonzero(~keep.any(axis=2))
    keep[i, j, (i + j) % n] = True  # a pair with no child gets one
    w = np.where(keep, gen.random((n, n, n)), 0.0)
    w += w.transpose(1, 0, 2)
    return ReducedQso(n, w / w.sum(axis=2, keepdims=True))


def starts_with_signed_zeros(gen, n, count):
    """Random points of the simplex with some coordinates 0.0 or -0.0."""
    for r in range(count):
        y = random_simplex(gen, n)
        y[gen.integers(1, n, r % 4)] = 0.0  # y[0] stays positive
        y[gen.integers(1, n, r % 3)] = -0.0
        yield y / y.sum()


def counting_c_einsum(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return np.einsum(*args, **kwargs)

    monkeypatch.setattr(operators, "_einsum", counting)
    return calls


def test_reduced_step_without_a_table_is_one_einsum_call(monkeypatch):
    q = qso.rh_model()[0]
    y = np.array([0.3, 0.7])
    expected = np.einsum("ijk,i,j->k", q.p, y, y)
    calls = counting_c_einsum(monkeypatch)
    for _ in range(3):
        assert operators.reduced_step(q, y).tobytes() == expected.tobytes()
    assert q._table is None
    assert calls == ["ijk,i,j->k"] * 3


@pytest.mark.parametrize("n,density,seed", SPARSE_CASES + [(5, 0.2, 805), (8, 0.1, 806)])
def test_sparse_step_matches_one_c_einsum_step(monkeypatch, n, density, seed):
    if n < 24:
        # too small to gain; the step is exact all the same
        assert random_sparse_qso(rng(seed), n, density)._table is None
        monkeypatch.setattr(operators, "_SPARSE_MAX_FILL", np.inf)
    gen = rng(seed)
    q = random_sparse_qso(gen, n, density)
    counts = np.count_nonzero(q.p, axis=(0, 1))
    assert counts.min() < counts.max()  # short columns are padded
    step = operators._stepper(q)
    assert q._table is not None
    calls = counting_c_einsum(monkeypatch)
    out = np.empty(n)
    for y in starts_with_signed_zeros(gen, n, 60):
        step(y, out)
        assert out.tobytes() == np.einsum("ijk,i,j->k", q.p, y, y).tobytes()
    assert calls == []  # every step took the table


def test_operator_failing_its_checks_builds_no_table(monkeypatch):
    q = random_sparse_qso(rng(803), 64, 0.05)
    assert q._table is not None
    p = np.array(q.p)
    p[0, 1, 0] += 1e-3
    builds = []
    monkeypatch.setattr(operators, "_sparse_table", builds.append)
    with pytest.raises(ValueError, match="not symmetric in parents"):
        ReducedQso(64, p)
    assert builds == []


@pytest.mark.parametrize("n,density,seed", SPARSE_CASES)
def test_sparse_orbit_matches_per_step_loop(monkeypatch, n, density, seed):
    gen = rng(seed)
    q = random_sparse_qso(gen, n, density)
    calls = counting_c_einsum(monkeypatch)
    for y0, (max_iters, stride) in zip(starts_with_signed_zeros(gen, n, 3),
                                       [(40, 1), (300, 7), (1100, 100)]):
        traj = iterate(q, ReducedDistribution(y0), max_iters=max_iters, tol=1e-300,
                       stride=stride)
        points, indices, _, k, residual = per_step_orbit(q, y0, max_iters, 1e-300, stride)
        assert traj.points.tobytes() == points.tobytes()
        assert np.array_equal(traj.indices, indices)
        assert (traj.iterations, traj.final_residual) == (k, residual)
    assert calls == []  # every step took the sparse path


def test_threads_sharing_a_sparse_operator_step_through_their_own_buffers():
    # the table is shared, the scratch buffers are not: threads iterating one
    # operator from different starts get the orbits that each gets alone
    q = random_sparse_qso(rng(811), 24, 0.02)
    starts = [ReducedDistribution(random_simplex(rng(812 + t), 24)) for t in range(4)]
    alone = [iterate(q, y0, max_iters=1000, tol=1e-300).points.tobytes() for y0 in starts]
    together = [None] * len(starts)
    barrier = threading.Barrier(len(starts))

    def run(t):
        barrier.wait()
        together[t] = iterate(q, starts[t], max_iters=1000, tol=1e-300).points.tobytes()

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-step
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparse_step_leaves_a_non_finite_row_to_einsum(monkeypatch, bad):
    # a zero coefficient times inf or NaN is NaN, which einsum adds and the
    # sparse step would skip, so such rows step by einsum
    q = random_sparse_qso(rng(807), 24, 0.02)
    y0 = random_simplex(rng(808), 24)
    y0[5] = bad
    calls = counting_c_einsum(monkeypatch)
    with np.errstate(all="ignore"):
        points, k, converged = collect_orbit(q, y0, 12, 1e-12)
        expected, _, _, k_expected, _ = per_step_orbit(q, y0, 12, 1e-12, 1)
    assert not np.isfinite(points[1:]).any()
    assert points.tobytes() == expected.tobytes()
    assert (k, converged) == (k_expected, False)
    assert len(calls) == 12


def test_dense_operator_steps_by_einsum(monkeypatch):
    # the ingest pipeline's estimated n = 36 operator is almost all nonzero
    q = random_symmetric_qso(rng(809), 36)
    assert operators._sparse_table(q.p) is None
    calls = counting_c_einsum(monkeypatch)
    traj = iterate(q, ReducedDistribution(random_simplex(rng(810), 36)), max_iters=17,
                   tol=1e-300)
    assert traj.iterations == 17
    assert len(calls) == 17


@pytest.fixture(scope="module")
def mendelian128():
    q = mendelian_operator(components=7)
    assert q.n == 128
    return q


def test_sparse_table_build_stays_small_at_128_types(mendelian128):
    # the 16 MiB operator has 3^7 nonzero coefficients per child; the table
    # holds each as a float and a pair index, 4.3 MiB, plus 0.7 MiB of step
    # buffers, and the constructor's checks and table build walk the operator
    # one 1 MiB slice at a time
    p = mendelian128.p
    assert (np.count_nonzero(p, axis=(0, 1)) == 3 ** 7).all()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fresh = ReducedQso(128, p)  # shares p, and builds its own table
        step = operators._stepper(fresh)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert fresh._table is not None
    assert held < 6 * 2**20
    assert peak < held + 2 * 2**20


def test_find_fixed_point_matches_per_step_loop_on_mendelian_128(monkeypatch, mendelian128):
    y0 = np.full(128, 1.0 / 128)
    points, _, _, k, _ = per_step_orbit(mendelian128, y0, 10**6, 1e-12, 1)
    calls = counting_c_einsum(monkeypatch)
    report = find_fixed_point(mendelian128, ReducedDistribution(y0), refine=False)
    assert report.iterations == k
    assert np.array_equal(report.point.values, points[-1])
    # the orbit takes the sparse path; the only einsum left is the Jacobian's
    assert calls == ["ijk,j->ki"]


# A bitwise-periodic orbit is tiled, not stepped: once a block holds a row
# equal byte for byte to the block's first, the kernel repeats that period
# for the rest of the budget.  Each case names two equal rows of the
# per-step loop's orbit, and the oracle confirms them.

def nan_operator():
    """The two-type operator with p[0,0,0] = p[0,1,1] = p[1,0,1] = p[1,1,1] = 1.
    From a start just off the simplex its coordinates run apart until they
    overflow, and from then on every row is NaN."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[0, 1, 1] = p[1, 0, 1] = p[1, 1, 1] = 1.0
    return ReducedQso(2, p)


PERIODIC_CASES = {
    # operator, start, tol, two equal rows (their distance is the period), and
    # budgets that end mid-period or on a period boundary
    "cyclic": (cyclic_shift_operator, [0.5, 0.3, 0.2], 1e-12, (4, 7),
               (2000, 2001, 2002, 5000)),
    "abo": (lambda: qso.abo_model()[0], [0.25] * 4, 1e-300, (352, 354),
            (400, 2048, 2049, 5000)),
    # a period whose steps differ in their last bits, so they must keep their phase
    "shift-4": (lambda: cyclic_shift_operator(4), random_simplex(rng(901), 4), 1e-12, (19, 27),
                (2000, 2003, 2006, 5000)),
    "nan": (nan_operator, [1.000000000001, -1e-12], 1e-12, (48, 49), (49, 1100, 2500)),
    # a period longer than a block: no block finds it, so it is stepped
    "permutation": (lambda: permutation_operator((4, 5, 7, 9)), np.arange(1.0, 26.0) / 325.0,
                    1e-300, (3098, 4358), (4358, 4999)),
}


@pytest.mark.parametrize("stride", [1, 7, 10**6])
@pytest.mark.parametrize("name", sorted(PERIODIC_CASES))
def test_periodic_orbit_matches_per_step_loop(name, stride):
    make, y0, tol, _, budgets = PERIODIC_CASES[name]
    q = make()
    for max_iters in budgets:
        assert_same_orbit_bytes(q, y0, max_iters, tol, stride)


@pytest.mark.parametrize("name", sorted(PERIODIC_CASES))
def test_periodic_orbit_blocks_match_per_step_loop(name):
    make, y0, tol, (first, repeat), budgets = PERIODIC_CASES[name]
    q = make()
    with np.errstate(all="ignore"):
        expected, _, _, k, _ = per_step_orbit(q, y0, max(budgets), tol, 1)
        points, k_blocks, converged = collect_orbit(q, y0, max(budgets), tol)
        sizes = np.concatenate([s for _, s in dynamics._orbit(q, y0, max(budgets), tol)])
        expected_sizes = np.abs(np.diff(expected, axis=0)).sum(axis=1)
    assert expected[first].tobytes() == expected[repeat].tobytes()
    assert points.tobytes() == expected.tobytes()
    assert sizes.tobytes() == expected_sizes.tobytes()  # tiled in the rows' phase
    assert (k_blocks, converged) == (k, False) == (max(budgets), False)


def counting_scalar_block(q):
    """The ``b`` of every call of ``q``'s scalar block from now on."""
    computed = []
    block = q._block

    def counting(buf, b):
        computed.append(b)
        return block(buf, b)

    object.__setattr__(q, "_block", counting)  # q is frozen; each test builds its own q
    return computed


@pytest.mark.parametrize("name", ["cyclic", "abo", "nan"])
def test_periodic_orbit_steps_only_until_a_block_finds_its_period(name):
    # NaN rows are equal by their bytes, though not as numbers
    make, y0, _, (first, repeat), _ = PERIODIC_CASES[name]
    q = make()
    with np.errstate(all="ignore"):
        expected = per_step_orbit(q, y0, repeat, 1e-300, 1)[0]
    computed = counting_scalar_block(q)  # a block left to einsum counts too
    with np.errstate(all="ignore"):
        traj = iterate(q, ReducedDistribution(y0), max_iters=10**6, tol=1e-300)
    assert (traj.iterations, traj.converged) == (10**6, False)
    assert sum(computed) < 2048
    last = first + (10**6 - first) % (repeat - first)  # the row with the last one's phase
    assert traj.points[-1].tobytes() == expected[last].tobytes()


def test_period_longer_than_a_block_is_stepped(monkeypatch):
    make, y0, tol, _, budgets = PERIODIC_CASES["permutation"]
    q = make()
    steps = []
    make_step = dynamics._stepper

    def counting_stepper(q):
        step = make_step(q)
        return lambda y, out: steps.append(1) or step(y, out)

    monkeypatch.setattr(dynamics, "_stepper", counting_stepper)
    traj = iterate(q, ReducedDistribution(y0), max_iters=max(budgets), tol=tol)
    assert q._table is not None  # the sparse table's path
    assert traj.iterations == len(steps) == max(budgets)


def test_find_fixed_point_spends_its_budget_on_a_periodic_orbit():
    # without the polish: from the orbit, Newton finds the shift's fixed centre
    q = cyclic_shift_operator()
    start = ReducedDistribution([0.5, 0.3, 0.2])
    expected = per_step_orbit(q, start.values, 5000, 1e-12, 1)[0]
    for max_iters, row in ((5000, 5000), (10**6, 4 + (10**6 - 4) % 3)):
        with pytest.raises(qso.errors.NoConvergence) as exc:
            find_fixed_point(q, start, max_iters=max_iters, refine=False)
        assert exc.value.report.iterations == max_iters
        assert exc.value.report.point.values.tobytes() == expected[row].tobytes()
