"""Blocked checks against the whole-array formulas they replaced, and the
memory bound that blocking and array adoption keep.

``whole_array_finite_scan``, ``whole_array_gender_gap``,
``whole_array_reduced_checks`` and ``whole_array_pair_violations`` (in
``helpers``) are the checks as they were before they walked the first axis in
blocks.  Blocking only regroups which rows are reduced together; each value,
maximum and argmax is the same, so reports, values and exception messages
must be equal, not merely close.  Most cases also run with the block size
shrunk, so that every array spans several blocks and the last one is partial.
"""

import tracemalloc
import types

import numpy as np
import pytest

import qso
from qso import (
    Distribution,
    MeasureFamily,
    build_space,
    mendelian_coefficients,
    validate_pq,
)
from qso import operators
from qso.errors import AsymmetricMeasure
from qso.operators import MASS_TOL, ROUNDING_TOL, SYMMETRY_TOL
from qso.operators import reduce as reduce_tensor

from helpers import (
    random_simplex,
    random_symmetric_family,
    rng,
    whole_array_pair_violations,
)


def whole_array_finite_scan(arr, what, error, nan_ok):
    bad = np.isinf(arr) if nan_ok else ~np.isfinite(arr)
    if bad.any():
        at = np.unravel_index(int(bad.argmax()), arr.shape)
        raise error(f"non-finite {what} {arr[at]} at index {tuple(map(int, at))}")


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


def own_sets(values, support=None):
    """``_pair_violations``' ``rows, support, of_pair`` for (m, m, 2m) arrays
    whose every pair is its own set."""
    m = values.shape[0]
    return (values.reshape(m * m, -1), None if support is None else support.reshape(m * m, -1),
            np.arange(m * m).reshape(m, m))


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
                args = (tol, 2.0, weights, VALIDATE_MESSAGES)
                assert_same_violations(
                    operators._pair_violations(SPACE_36, *own_sets(coeffs, support), *args),
                    whole_array_pair_violations(SPACE_36, coeffs, *args, support))
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
    args = (1e-6, 1.0, (1.0, 1.0), messages)
    with np.errstate(invalid="ignore"):
        assert_same_violations(operators._pair_violations(SPACE_36, *own_sets(mu), *args),
                               whole_array_pair_violations(SPACE_36, mu, *args))
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
    # the tensor's offspring-set arrays and the reduced operator stay alive;
    # each phase adds at most a few blocks on top.  Copying the tensor on
    # construction and building full-size temporaries in the checks took over
    # 5 MiB here, and no phase may build the 4 MiB dense tensor
    space = build_space([("A", "a")] * 6)
    half = random_simplex(rng(64), space.m) / 2.0
    mu0 = Distribution(space, np.concatenate([half, half]))
    slack = 4 * operators._BLOCK_BYTES
    dense = space.m * space.m * space.total * 8
    tracemalloc.start()
    try:
        t = mendelian_coefficients(space, mu0)
        held = sum(arr.nbytes for arr in t._sets)
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
    assert max(construct, validate) < dense / 2


def test_a_dense_tensor_reads_its_own_arrays_as_sets():
    # a dense tensor's offspring-set rows are views of its arrays, one row per
    # pair, so giving every tensor the set form adds no full-size copy
    t = qso.nonmendelian_coefficients(SPACE_36, random_symmetric_family(rng(770), SPACE_36))
    rows, members, of_pair = t._sets
    assert np.shares_memory(rows, t.coefficients) and members is None
    assert np.array_equal(of_pair.reshape(-1), np.arange(SPACE_36.m ** 2))
    mendel = mendelian_36(0)
    dense = qso.HeredityTensor(SPACE_36, (0.5, 0.5), mendel.coefficients, mendel.support)
    assert np.shares_memory(dense._sets[1], dense.support)


def blocked_finite_scan(arr, what, error, nan_ok):
    operators._checked(types.SimpleNamespace(values=arr), "values", arr.shape, what, error,
                       nan_ok=nan_ok)


def boundary_entries(arr):
    """Flat indices of the last entry before and the first entry of the second
    and the last block, and of the array's first and last entries."""
    row = arr[:1].size
    starts = [b.start for b in operators._blocks(arr)[1:]]
    at = {0, arr.size - 1}
    for start in starts[:1] + starts[-1:]:
        at |= {start * row - 1, start * row}
    return sorted(at)


@pytest.mark.parametrize("shape", [(72,), (36, 72), (36, 36, 36), (36, 36, 72)])
def test_finite_scan_matches_the_whole_array_formula(block_bytes, shape):
    values = random_simplex(rng(750), int(np.prod(shape))).reshape(shape)
    at = boundary_entries(values)
    assert len(at) >= 2
    raised = 0
    for nan_ok in (False, True):
        cases = [[(i, v)] for i in at for v in (np.nan, np.inf, -np.inf)]
        cases += [[(i, np.nan), (j, np.inf)] for i, j in zip(at, at[1:])]
        cases += [[(i, -np.inf), (j, np.nan)] for i, j in zip(at, at[1:])]
        for bad in cases:
            arr = values.copy()
            for i, v in bad:
                arr.flat[i] = v
            expected = outcome(whole_array_finite_scan, arr, "value", ValueError, nan_ok)
            assert outcome(blocked_finite_scan, arr, "value", ValueError, nan_ok) == expected
            raised += expected is not None
    # every case but a lone NaN where NaN is allowed
    assert raised == (3 + 2) * len(at) + 4 * (len(at) - 1)


def test_constructors_report_the_first_bad_entry_across_blocks(block_bytes):
    family = random_symmetric_family(rng(760), SPACE_36).mu.copy()
    family[30, 5, 7] = np.nan  # a missing pair, kept
    family[31, 0, 0] = np.inf
    family[35, 35, 71] = -np.inf
    message = r"^non-finite measure value inf at index \(31, 0, 0\)$"
    with pytest.raises(ValueError, match=message):
        MeasureFamily(SPACE_36, family)
    p = next(reduced_inputs(36))
    p[35, 35, 35] = np.inf
    p[20, 0, 0] = np.nan
    expected = outcome(whole_array_finite_scan, p, "reduced coefficient", ValueError, False)
    assert outcome(qso.ReducedQso, 36, p) == expected
    assert expected[1] == "non-finite reduced coefficient nan at index (20, 0, 0)"


def test_finite_scan_holds_no_full_size_mask():
    # a 16 MiB tensor: the whole-array scan built two 2 MiB boolean masks
    arr = np.zeros((128, 128, 128))
    arr.setflags(write=False)
    holder = types.SimpleNamespace(values=arr)
    tracemalloc.start()
    try:
        operators._checked(holder, "values", arr.shape, "value")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holder.values is arr
    assert peak < operators._BLOCK_BYTES // 2
