"""Blocked checks against the whole-array formulas they replaced, and the
memory bound that blocking and array adoption keep.

``whole_array_gender_gap``, ``whole_array_reduced_checks`` and
``whole_array_pair_violations`` are the checks as they were before they
walked the first axis in blocks.  Blocking only regroups which rows are
reduced together; each value, maximum and argmax is the same, so reports,
values and exception messages must be equal, not merely close.  Most cases
also run with the block size shrunk, so that every array spans several
blocks and the last one is partial.
"""

import tracemalloc

import numpy as np
import pytest

import qso
from qso import (
    Distribution,
    MeasureFamily,
    Violation,
    build_space,
    mendelian_coefficients,
    validate_pq,
)
from qso import operators
from qso.errors import AsymmetricMeasure
from qso.operators import MASS_TOL, ROUNDING_TOL, SYMMETRY_TOL, _pair_label
from qso.operators import reduce as reduce_tensor

from helpers import random_simplex, random_symmetric_family, rng


def whole_array_gender_gap(values, error, message):
    m = values.shape[-1] // 2
    gap = np.subtract(values[..., :m], values[..., m:])
    gap = np.abs(gap, out=gap).max()
    if gap > SYMMETRY_TOL:
        raise error(message.format(gap))


def whole_array_reduced_checks(p):
    """``ReducedQso``'s checks after the finiteness scan."""
    if p.min() < -ROUNDING_TOL:
        raise ValueError(f"negative reduced coefficient {p.min()}")
    sym = np.subtract(p, p.transpose(1, 0, 2))
    sym = np.abs(sym, out=sym).max()
    if sym > ROUNDING_TOL:
        raise ValueError(f"reduced tensor not symmetric in parents (max gap {sym})")
    stoch = np.abs(p.sum(axis=2) - 1.0).max()
    if stoch > MASS_TOL:
        raise ValueError(
            f"reduced tensor rows deviate from unit sum by {stoch}; "
            "renormalize the source measures"
        )


def whole_array_pair_violations(space, rows, tol, expected, weights, messages, support=None):
    m = rows.shape[2] // 2
    wp, wq = weights
    smallest = rows.min(axis=2)
    negative = smallest < -tol
    low = np.zeros(smallest.shape, dtype=np.intp)
    low[negative] = rows[negative].argmin(axis=1)
    total = rows.sum(axis=2)
    miss = np.abs(total - expected)
    cross = np.multiply(rows[:, :, :m], wq)
    cross -= np.multiply(rows[:, :, m:], wp)
    np.abs(cross, out=cross)
    worst, gap = cross.argmax(axis=2), cross.max(axis=2)
    del cross
    checks = [("negative", negative, low, smallest, smallest, None),
              ("normalization", miss > tol, None, miss, total, None),
              ("ratio", gap > tol, worst, gap, gap, space.trait_label)]
    if support is not None:
        off = np.abs(rows)
        np.copyto(off, 0.0, where=support)
        far, reach = off.argmax(axis=2), off.max(axis=2)
        signed = np.take_along_axis(rows, far[..., None], axis=2)[..., 0]
        checks.append(("support", reach > tol, far, reach, signed, space.label))
    flagged = np.logical_or.reduce([bad for _, bad, *_ in checks])
    out = []
    for i, j in np.argwhere(flagged):
        for kind, bad, child, magnitude, value, label in checks:
            if bad[i, j]:
                k = None if child is None else int(child[i, j])
                message = messages[kind].format(value=value[i, j],
                                                child=label(k) if label else None)
                out.append(Violation(kind, (int(i), int(j)), k, float(magnitude[i, j]),
                                     f"pair ({_pair_label(space, i, j)}) {message}"))
    return out


def outcome(f, *args):
    """``None``, or the class and text of the exception ``f(*args)`` raises."""
    try:
        f(*args)
    except (ValueError, AsymmetricMeasure) as e:
        return type(e), str(e)
    return None


def assert_same_violations(new, old):
    assert new == old
    assert list(map(repr, new)) == list(map(repr, old))


# m = 36 from two three-allele and two two-allele components: 36 is no
# multiple of the shrunk block sizes, so the last block is partial
SPACE_36 = build_space([("x", "y", "z"), ("u", "v", "w"), ("B", "b"), ("C", "c")])
ROW_BYTES_36 = SPACE_36.m * SPACE_36.total * 8   # one first-axis row of a tensor


@pytest.fixture(params=[None, 1, 7 * ROW_BYTES_36], ids=["default", "1-row", "7-rows"])
def block_bytes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(operators, "_BLOCK_BYTES", request.param)
    return operators._BLOCK_BYTES


def test_blocks_cover_the_first_axis_once(block_bytes):
    for shape in [(1, 4), (36, 72), (36, 36, 72), (36, 36, 36), (128, 128, 256)]:
        arr = np.empty(shape, dtype=np.uint8)
        blocks = operators._blocks(arr)
        assert np.array_equal(np.concatenate([np.arange(shape[0])[b] for b in blocks]),
                              np.arange(shape[0]))
        rows = max(1, block_bytes // arr[:1].nbytes)
        assert all(b.stop - b.start == rows for b in blocks)


def mendelian_36(seed):
    half = random_simplex(rng(seed), SPACE_36.m) / 2.0
    return mendelian_coefficients(SPACE_36, Distribution(SPACE_36, np.concatenate([half, half])))


def perturbed(gen, coeffs, count, scales=(1e-9, 1e-5, 1e-3, 0.05)):
    out = coeffs.copy()
    flat = out.reshape(-1)
    for k in gen.choice(flat.size, size=count, replace=False):
        flat[k] += gen.choice([-1.0, 1.0]) * gen.choice(scales)
    return out


VALIDATE_MESSAGES = {"negative": "has negative coefficient {value}",
                     "normalization": "sums to {value}, expected 2.0",
                     "ratio": "child {child} breaks the ratio by {value}",
                     "support": "has mass {value} on excluded child {child}"}


@pytest.mark.parametrize("seed", range(2))
def test_pair_violations_match_the_whole_array_formula(block_bytes, seed):
    gen = rng(700 + seed)
    t = mendelian_36(seed)
    for count, tol in ((0, 1e-6), (3, 1e-6), (60, 1e-3), (600, 1e-6)):
        coeffs = perturbed(gen, t.coefficients, count)
        for weights in ((0.5, 0.5), (0.3, 0.7)):
            for support in (t.support, None):
                args = (SPACE_36, coeffs, tol, 2.0, weights, VALIDATE_MESSAGES, support)
                assert_same_violations(operators._pair_violations(*args),
                                       whole_array_pair_violations(*args))
    bad = qso.HeredityTensor(SPACE_36, (0.5, 0.5), coeffs, t.support)
    report = validate_pq(bad)
    assert {v.kind for v in report.violations} == {"negative", "normalization", "ratio",
                                                   "support"}


def test_family_validate_keeps_nan_rows_out_of_the_blocked_checks(block_bytes):
    gen = rng(710)
    family = random_symmetric_family(gen, SPACE_36)
    mu = perturbed(gen, family.mu, 200)
    for i, j in gen.choice(SPACE_36.m, size=(5, 2)):
        mu[i, j, int(gen.integers(SPACE_36.total))] = np.nan
    messages = {"negative": "has negative value {value}",
                "normalization": "sums to {value}, expected 1",
                "ratio": "female/male children differ by {value}"}
    args = (SPACE_36, mu, 1e-6, 1.0, (1.0, 1.0), messages)
    with np.errstate(invalid="ignore"):
        assert_same_violations(operators._pair_violations(*args),
                               whole_array_pair_violations(*args))
    assert MeasureFamily(SPACE_36, mu).validate(1e-6)


def gender_gap_inputs():
    gen = rng(720)
    family = random_symmetric_family(gen, SPACE_36).mu
    base = np.concatenate([random_simplex(gen, SPACE_36.m)] * 2) / 2.0
    for values in (family, base, family[0]):
        yield values.copy()
        for at in (0, 1, values.size // 2, values.size - 1):
            for delta in (1e-12, 1e-6, 0.25):
                shifted = values.copy()
                shifted.flat[at] += delta
                yield shifted


def test_gender_gap_matches_the_whole_array_formula(block_bytes):
    message = "values differ by {}"
    raised = 0
    for values in gender_gap_inputs():
        expected = outcome(whole_array_gender_gap, values, AsymmetricMeasure, message)
        assert outcome(operators._check_gender_gap, values, AsymmetricMeasure, message) \
            == expected
        raised += expected is not None
    assert raised == 3 * 4 * 2  # every shift of 1e-6 or 0.25


@pytest.mark.parametrize("nan_at,gap_at", [(0, -1), (-1, 0), (-1, -1), (0, None)])
def test_gender_gap_propagates_nan_from_any_block(block_bytes, nan_at, gap_at):
    # a NaN anywhere makes the whole-array gap NaN, which is never flagged,
    # even when a large gap sits in another block; Python's max() would
    # let the order of the blocks decide
    values = np.array(random_symmetric_family(rng(730), SPACE_36).mu)
    values[nan_at, 0, 0] = np.nan
    if gap_at is not None:
        values[gap_at, -1, -1] += 0.5
    assert outcome(whole_array_gender_gap, values, ValueError, "{}") is None
    assert outcome(operators._check_gender_gap, values, ValueError, "{}") is None


def reduced_inputs(n):
    gen = rng(740 + n)
    p = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            p[i, j] = p[j, i] = gen.dirichlet(np.ones(n))
    yield p
    for i, j, delta in [(0, 1, 1e-13), (0, 1, 1e-9), (n - 1, n - 2, 1e-9), (n // 2, 0, 0.3),
                        (n - 1, 0, -2.0)]:
        q = p.copy()
        q[i, j, 0] += delta
        q[i, j, 1] -= delta
        yield q


@pytest.mark.parametrize("n", [2, 3, 36, 41])
def test_reduced_qso_checks_match_the_whole_array_formula(block_bytes, n):
    for p in reduced_inputs(n):
        expected = outcome(whole_array_reduced_checks, p)
        assert outcome(qso.ReducedQso, n, p) == expected
    assert expected[1].startswith("negative")


def test_blocked_checks_hold_few_blocks_at_m_64():
    # the tensor, its support and the reduced operator stay alive; each phase
    # adds at most a few blocks on top.  Copying the tensor on construction
    # and building full-size temporaries in the checks took over 5 MiB here
    space = build_space([("A", "a")] * 6)
    half = random_simplex(rng(64), space.m) / 2.0
    mu0 = Distribution(space, np.concatenate([half, half]))
    slack = 4 * operators._BLOCK_BYTES
    tracemalloc.start()
    try:
        t = mendelian_coefficients(space, mu0)
        held = t.coefficients.nbytes + t.support.nbytes
        construct = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert validate_pq(t).ok
        validate = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        q = reduce_tensor(t)
        reduce = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert construct <= held + slack
    assert validate <= held + slack
    assert reduce <= held + q.p.nbytes + slack

