"""Seeded random generators, fixed inputs and one check oracle shared by the
test modules."""

from __future__ import annotations

import numpy as np

from qso import (
    Distribution,
    GenotypeSpace,
    HeredityTensor,
    MeasureFamily,
    ReducedQso,
    Violation,
    build_space,
)
from qso.operators import _pair_label


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_simplex(gen: np.random.Generator, n: int) -> np.ndarray:
    e = -np.log(1.0 - gen.random(n))
    return e / e.sum()


def random_space(gen: np.random.Generator, max_types: int = 5) -> GenotypeSpace:
    n = int(gen.integers(2, max_types + 1))
    return build_space([[f"t{k}" for k in range(n)]])


def random_symmetric_family(gen: np.random.Generator, space: GenotypeSpace) -> MeasureFamily:
    """Gender-symmetric measure family with random child rows."""
    m = space.m
    mu = np.empty((m, m, space.total))
    for i in range(m):
        for j in range(m):
            nu = random_simplex(gen, m)
            mu[i, j, :m] = nu / 2.0
            mu[i, j, m:] = nu / 2.0
    return MeasureFamily(space, mu)


def random_pq_tensor(gen: np.random.Generator, space: GenotypeSpace,
                     p: float) -> HeredityTensor:
    """Random tensor with the p:q property: per pair, female children get
    nu/(2q) and male children nu/(2p) for a random trait row nu."""
    q = 1.0 - p
    m = space.m
    coeffs = np.empty((m, m, space.total))
    for i in range(m):
        for j in range(m):
            nu = random_simplex(gen, m)
            coeffs[i, j, :m] = nu / (2.0 * q)
            coeffs[i, j, m:] = nu / (2.0 * p)
    return HeredityTensor(space, (p, q), coeffs)


def whole_array_pair_violations(space, rows, tol, expected, weights, messages, support=None):
    """``_pair_violations`` on a dense (m, m, 2m) ``rows`` as it was before it
    walked blocks of rows or read offspring sets: one whole-array statistic
    per pair, taken per pair."""
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


def random_hyper_point(gen: np.random.Generator, space: GenotypeSpace,
                       p: float) -> Distribution:
    fem = p * random_simplex(gen, space.m)
    mal = (1.0 - p) * random_simplex(gen, space.m)
    return Distribution(space, np.concatenate([fem, mal]), (p, 1.0 - p))


def random_regular_qso(gen: np.random.Generator, n: int) -> ReducedQso:
    """Symmetric stochastic tensor with every entry above 1/(2n) + 0.01."""
    floor = 1.0 / (2.0 * n) + 0.02
    p = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            row = floor + (1.0 - n * floor) * gen.dirichlet(np.ones(n))
            p[i, j] = row
            p[j, i] = row
    return ReducedQso(n, p)


def cyclic_shift_operator(n=3):
    """QSO acting as the coordinate shift y'_k = y_{k-1}: a valid symmetric
    stochastic tensor whose non-symmetric orbits cycle forever."""
    return permutation_operator((n,))


def permutation_operator(cycles):
    """QSO that permutes the coordinates by disjoint cycles of these lengths,
    each over consecutive types: p[i, j, s(i)] and p[i, j, s(j)] get 1/2
    each, with s(t) the next type of t's cycle.  An orbit off the symmetric
    points cycles with the lcm of the lengths as its period."""
    succ = []
    for length in cycles:
        succ += [len(succ) + (t + 1) % length for t in range(length)]
    n = len(succ)
    p = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            p[i, j, succ[i]] += 0.5
            p[i, j, succ[j]] += 0.5
    return ReducedQso(n, p)


def random_dominant_alphas(gen: np.random.Generator, n: int = 4,
                           min_gap: float = 0.01) -> np.ndarray:
    """Weights summing to 1/2 whose maximum beats the runner-up by at least
    ``min_gap`` (keeps Volterra convergence within the iteration budget)."""
    while True:
        a = 0.5 * gen.dirichlet(np.ones(n))
        s = np.sort(a)
        if s[-1] - s[-2] >= min_gap and s[0] > 1e-4:
            return a


# 16 Rh counts, 1,000 children per parent pair, in the canonical layout
RH_COUNTS = """\
# space: +,-
mother,father,child_gender,child_type,count
+,+,f,+,985
+,+,f,-,15
+,+,m,+,985
+,+,m,-,15
+,-,f,+,646
+,-,f,-,354
+,-,m,+,646
+,-,m,-,354
-,+,f,+,655
-,+,f,-,345
-,+,m,+,655
-,+,m,-,345
-,-,f,+,100
-,-,f,-,900
-,-,m,+,100
-,-,m,-,900
"""
