"""Heredity tensors and their action on hyper-simplex distributions.

The central object is a coefficient family ``p[(mother, father), child]``
stored for female-first parent pairs only (symmetry in the parents is
implicit).  A tensor with the p:q property keeps the female:male mass
ratio at p:q forever; for the 1:1 case it can be reduced to an n-type
quadratic stochastic operator acting on the ordinary simplex via
``y_k = 2 * x_k``.

Construction and validation are whole-array operations: the Mendelian
offspring sets of all parent pairs form one boolean mask (an outer product
of per-component masks), and the validators reduce every pair's row at once.
Both are bitwise equal to per-pair loops; summing zero-padded rows for the
offspring-set masses instead would move coefficients by up to 4 ulp.

Every value type stores its arrays through ``_checked``: read-only, of the
declared shape, and finite, since NaN passes every range check.  Only a
``MeasureFamily`` keeps NaN, which marks a missing pair; boolean support masks
are not scanned.  An array that already has the declared dtype, owns its data
and is read-only is adopted as it is; every other input (a writable array, a
view, another dtype, a list) is copied, so later writes to it cannot reach the
stored value.  The builders here mark their fresh results read-only, so a
large tensor is never copied on construction.  The female/male gap is checked
only by ``_check_gender_gap``.  The checks that need full-size temporaries
(that gap, the reduced operator's parent symmetry and the ratio and support
checks of ``_pair_violations``) walk the first axis in blocks of about 1 MiB.

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

try:  # the C routine that np.einsum(..., optimize=False) forwards its arguments to
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # NumPy 1.x
    from numpy.core.multiarray import c_einsum as _c_einsum

from .errors import (
    AsymmetricMeasure,
    ChildAsymmetry,
    DimensionMismatch,
    DistributionOutsideHyperSimplex,
    GenderAsymmetric,
    MissingPair,
    NotOneToOne,
    ZeroMassOffspringSet,
)
from .genotype import Genotype, GenotypeSpace

# Every tolerance the package's checks and solvers use.
ROUNDING_TOL = 1e-12  # exact identities up to rounding: p + q = 1, symmetry, >= 0, roots
MASS_TOL = 1e-9       # construction-time simplex/hyper-simplex tolerance
SYMMETRY_TOL = 1e-9   # gender-symmetry tolerance for measures
VALIDATE_TOL = 1e-6   # default tolerance of validate_pq
TABLE_TOL = 1e-3      # published tables are rounded to ~4 decimals
CLASSIFY_MARGIN = 1e-6  # spectral radii within 1 +- this classify as neutral
_DEGENERATE_TOL = 1e-15  # a closed-form quadratic coefficient below this is zero
_NEWTON_FLOOR = 1e-17    # per-type residual at which the Newton polish stops
_BLOCK_BYTES = 1 << 20   # input bytes per block of the blocked checks


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so that ``_checked`` adopts it."""
    arr.setflags(write=False)
    return arr


def _checked(obj, field: str, shape: tuple[int, ...] | None, what: str,
             error: type[Exception] = ValueError, dtype=float, nan_ok=False) -> np.ndarray:
    """Set ``obj.field`` to a read-only array with ``shape`` (``None``: any nonempty
    vector) and return it.  A read-only ndarray of ``dtype`` that owns its data is
    adopted; anything else is copied.  Float entries must be finite, or NaN when
    ``nan_ok``; the first other one raises ``error``.  Boolean arrays are not
    scanned."""
    arr = getattr(obj, field)
    if not (type(arr) is np.ndarray and arr.dtype == dtype and arr.flags.owndata
            and not arr.flags.writeable):
        arr = np.array(arr, dtype=dtype)
    if (arr.shape != shape) if shape else (arr.ndim != 1 or arr.size == 0):
        raise DimensionMismatch(
            f"{what} array has shape {arr.shape}, expected {shape or 'a nonempty vector'}")
    if arr.dtype != bool:
        bad = np.isinf(arr) if nan_ok else ~np.isfinite(arr)
        if bad.any():
            at = np.unravel_index(int(bad.argmax()), arr.shape)
            raise error(f"non-finite {what} {arr[at]} at index {tuple(map(int, at))}")
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    return arr


def _blocks(arr: np.ndarray) -> list[slice]:
    """Slices of ``arr``'s first axis, each about ``_BLOCK_BYTES`` of it and at
    least one index long, so a check over them needs no full-size temporary."""
    step = max(1, _BLOCK_BYTES // max(1, arr[:1].nbytes))
    return [slice(start, start + step) for start in range(0, len(arr), step)]


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> np.float64:
    """``max |a - b|`` with one temporary, freed on return."""
    diff = np.subtract(a, b)
    return np.abs(diff, out=diff).max()


def _check_gender_gap(values: np.ndarray, error: type[Exception], message: str) -> None:
    """Raise ``error(message.format(gap))`` if the largest ``|female - male|`` over
    the last axis (female half first) exceeds ``SYMMETRY_TOL``.  A NaN gap is
    not flagged."""
    values = np.atleast_2d(values)
    m = values.shape[-1] // 2
    # np.max propagates a NaN block maximum as the whole-array max does
    gap = np.max([_max_abs_diff(values[b, ..., :m], values[b, ..., m:])
                  for b in _blocks(values)])
    if gap > SYMMETRY_TOL:
        raise error(message.format(gap))


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability distribution over all genotypes of a space, constrained
    to carry female mass p and male mass q.
    """

    space: GenotypeSpace
    values: np.ndarray
    p_ratio: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        vals = _checked(self, "values", (self.space.total,), "probability",
                        DistributionOutsideHyperSimplex)
        p, q = self.p_ratio
        if not (0.0 < p < 1.0 and abs(p + q - 1.0) <= MASS_TOL):
            raise DistributionOutsideHyperSimplex(
                f"invalid sex ratio p={p}, q={q}: need 0 < p < 1 and p + q = 1"
            )
        if vals.min() < -ROUNDING_TOL:
            raise DistributionOutsideHyperSimplex(
                f"negative probability {vals.min()} at index {int(vals.argmin())}"
            )
        total = vals.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionOutsideHyperSimplex(f"total mass {total} != 1")
        fem = vals[: self.space.m].sum()
        if abs(fem - p) > MASS_TOL:
            raise DistributionOutsideHyperSimplex(
                f"female mass {fem} != {p} (male mass {vals[self.space.m:].sum()})"
            )

    @classmethod
    def uniform(cls, space: GenotypeSpace) -> "Distribution":
        return cls(space, _frozen(np.full(space.total, 1.0 / space.total)))

    @property
    def female(self) -> np.ndarray:
        return self.values[: self.space.m]

    @property
    def male(self) -> np.ndarray:
        return self.values[self.space.m:]


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """One child measure per (mother trait, father trait) parent pair.

    ``mu[i, j, s]`` is the mass that the pair (female of trait ``i``,
    male of trait ``j``) assigns to child genotype ``s``.  Rows of missing
    pairs are NaN, which operators reject with ``MissingPair``; inf is an error.
    """

    space: GenotypeSpace
    mu: np.ndarray

    def __post_init__(self):
        shape = (self.space.m, self.space.m, self.space.total)
        _checked(self, "mu", shape, "measure value", nan_ok=True)

    @classmethod
    def uniform(cls, space: GenotypeSpace) -> "MeasureFamily":
        mu = np.full((space.m, space.m, space.total), 1.0 / space.total)
        return cls(space, _frozen(mu))

    @classmethod
    def from_dict(cls, space: GenotypeSpace, rows: dict) -> "MeasureFamily":
        """Build from ``{(mother_trait_index, father_trait_index): row}``.

        Pairs absent from ``rows`` are marked missing (NaN).
        """
        mu = np.full((space.m, space.m, space.total), np.nan)
        for (i, j), row in rows.items():
            mu[i, j] = np.asarray(row, dtype=float)
        return cls(space, _frozen(mu))

    def missing_pairs(self) -> list[tuple[int, int]]:
        bad = np.isnan(self.mu).any(axis=2)
        return [(int(i), int(j)) for i, j in np.argwhere(bad)]

    def renormalized(self) -> "MeasureFamily":
        """Scale each pair's row to total mass exactly 1.

        Published tables are rounded to a few decimals; renormalization
        restores exact stochasticity without disturbing gender symmetry.
        """
        sums = self.mu.sum(axis=2, keepdims=True)
        if np.any(sums <= 0):
            raise ZeroMassOffspringSet("cannot renormalize a zero-mass measure row")
        return MeasureFamily(self.space, _frozen(self.mu / sums))

    def validate(self, tol: float = TABLE_TOL) -> list["Violation"]:
        """Report invariant violations: coverage, negativity, row sums,
        gender symmetry.
        """
        space = self.space
        out = [Violation("missing", (i, j), None, float("nan"),
                         f"pair ({_pair_label(space, i, j)}) has no measure")
               for i, j in self.missing_pairs()]
        messages = {"negative": "has negative value {value}",
                    "normalization": "sums to {value}, expected 1",
                    "ratio": "female/male children differ by {value}"}
        with np.errstate(invalid="ignore"):
            found = _pair_violations(space, self.mu, tol, 1.0, (1.0, 1.0), messages)
        # with unit weights the ratio check is the gender-symmetry check
        return out + [replace(v, kind="gender-symmetry", child=None)
                      if v.kind == "ratio" else v for v in found]


def _pair_label(space: GenotypeSpace, i: int, j: int) -> str:
    return f"{space.trait_label(i)} x {space.trait_label(j)}"


@dataclass(frozen=True)
class Violation:
    kind: str
    pair: tuple[int, int] | None
    child: int | None
    magnitude: float
    message: str

    def __str__(self):
        return self.message


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"ok (tolerance {self.tol:g})"
        lines = [f"{len(self.violations)} violation(s) at tolerance {self.tol:g}:"]
        lines += [f"  [{v.kind}] {v.message}" for v in self.violations]
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class HeredityTensor:
    """Coefficients ``p[(mother, father), child]`` for female-first pairs.

    ``coefficients[i, j, s]``: mother of trait ``i``, father of trait
    ``j``, child genotype index ``s``.  ``support`` (optional boolean
    mask of the same shape) records where coefficients are allowed to be
    nonzero; construction from offspring-set rules fills it in.
    """

    space: GenotypeSpace
    p_ratio: tuple[float, float]
    coefficients: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.space.m, self.space.m, self.space.total)
        _checked(self, "coefficients", shape, "coefficient")
        if self.support is not None:
            _checked(self, "support", shape, "support", dtype=bool)
        p, q = self.p_ratio
        if not (0.0 < p < 1.0 and 0.0 < q < 1.0 and abs(p + q - 1.0) <= ROUNDING_TOL):
            raise ValueError(f"invalid p:q ratio ({p}, {q})")

    @property
    def pair_sum(self) -> float:
        """Required per-pair coefficient total, 1/(2pq)."""
        p, q = self.p_ratio
        return 1.0 / (2.0 * p * q)

    def coefficient(self, mother: Genotype, father: Genotype, child: Genotype) -> float:
        if mother.gender != "f" or father.gender != "m":
            raise ValueError("canonical storage indexes (female, male) pairs")
        i = self.space.trait_index(mother.traits)
        j = self.space.trait_index(father.traits)
        return float(self.coefficients[i, j, self.space.index(child)])

    def full_coefficient(self, a: Genotype, b: Genotype, child: Genotype) -> float:
        """Coefficient for an arbitrary parent pair: zero for same-gender
        parents, otherwise the stored female-first value."""
        if a.gender == b.gender:
            return 0.0
        mother, father = (a, b) if a.gender == "f" else (b, a)
        return self.coefficient(mother, father, child)


def mendelian_coefficients(space: GenotypeSpace, mu0: Distribution) -> HeredityTensor:
    """Heredity coefficients concentrated on the per-component offspring set.

    For a mixed pair the child ``s`` in the offspring set receives
    ``2 * mu0(s) / mu0(offspring set)``; everything else is zero.  Raises
    ``ZeroMassOffspringSet`` when a pair's offspring set carries no
    base-measure mass (the formula would divide by zero).
    """
    if mu0.space is not space and mu0.space != space:
        raise DimensionMismatch("base measure was built for a different space")
    if mu0.p_ratio != (0.5, 0.5):
        raise AsymmetricMeasure(
            f"base measure must live on the 1:1 hyper-simplex, got p:q = {mu0.p_ratio}"
        )
    _check_gender_gap(mu0.values, AsymmetricMeasure, "base measure female/male values differ by {}")
    m = space.m
    # support[i, j, t]: each allele of child traits t is the mother's or the
    # father's; an outer product of per-component masks (last one first)
    support = np.ones((1, 1, 1), dtype=bool)
    for comp in reversed(space.components):
        a = np.arange(len(comp))
        mask = (a == a[:, None, None]) | (a == a[:, None])   # [mother, father, child]
        n, k = len(comp), support.shape[0]
        support = (mask[:, None, :, None, :, None]
                   & support[None, :, None, :, None, :]).reshape(n * k, n * k, n * k)
    support = np.concatenate([support, support], axis=2)      # both child genders
    # sum each offspring set as one gathered row, as the per-pair formula
    # does: zero-padded rows would regroup NumPy's pairwise sum (by <= 4 ulp)
    sizes = support.sum(axis=2)
    mass = np.empty((m, m))
    for size in np.unique(sizes):
        pairs = sizes == size
        values = np.broadcast_to(mu0.values, (np.count_nonzero(pairs), space.total))
        mass[pairs] = values[support[pairs]].reshape(-1, size).sum(axis=1)
    zero = np.flatnonzero(mass <= 0.0)
    if zero.size:
        i, j = divmod(int(zero[0]), m)
        raise ZeroMassOffspringSet(
            f"offspring set of pair ({_pair_label(space, i, j)}) has zero base-measure mass"
        )
    coeffs = np.where(support, mu0.values, 0.0)
    coeffs *= 2.0
    coeffs /= mass[:, :, None]
    return HeredityTensor(space, (0.5, 0.5), _frozen(coeffs), _frozen(support))


def nonmendelian_coefficients(space: GenotypeSpace, family: MeasureFamily) -> HeredityTensor:
    """Heredity coefficients ``2 * mu`` from a per-pair measure family.

    Mixed-gender pairs may produce any child genotype; the family must
    cover every pair and be gender-symmetric in the child.
    """
    if family.space is not space and family.space != space:
        raise DimensionMismatch("measure family was built for a different space")
    missing = family.missing_pairs()
    if missing:
        i, j = missing[0]
        raise MissingPair(
            f"no measure for pair ({space.trait_label(i)} x {space.trait_label(j)})"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )
    _check_gender_gap(family.mu, AsymmetricMeasure, "family female/male child values differ by {}")
    sums = family.mu.sum(axis=2)
    worst = np.abs(sums - 1.0).max()
    if worst > TABLE_TOL:
        raise ValueError(
            f"measure rows deviate from unit mass by {worst}; renormalize first"
        )
    return HeredityTensor(space, (0.5, 0.5), _frozen(2.0 * family.mu),
                          _frozen(np.ones(family.mu.shape, dtype=bool)))


def _pair_violations(space: GenotypeSpace, rows: np.ndarray, tol: float,
                     expected: float, weights: tuple[float, float], messages: dict,
                     support: np.ndarray | None = None) -> list[Violation]:
    """Check the 2m child values ``rows[i, j]`` of every parent pair with
    whole-array reductions; the violations, their order and every value are
    those a loop over single rows finds, to the bit: ``negative``
    (smallest value), ``normalization`` (row sum against ``expected``),
    ``ratio`` (largest ``|wq * female - wp * male|`` for ``(wp, wq) = weights``)
    and ``support`` (largest ``|value|`` off ``support``).  ``messages[kind]``
    is formatted with the ``value`` and the ``child``'s label.  Rows holding
    NaN are never flagged: min, sum and argmax propagate NaN.
    """
    m = rows.shape[2] // 2
    wp, wq = weights
    smallest = rows.min(axis=2)
    negative = smallest < -tol
    low = np.zeros(smallest.shape, dtype=np.intp)
    # argmin of flagged rows only: on a read-only array NumPy copies all of it
    low[negative] = rows[negative].argmin(axis=1)
    total = rows.sum(axis=2)
    miss = np.abs(total - expected)
    worst, gap = np.empty(smallest.shape, dtype=np.intp), np.empty(smallest.shape)
    for b in _blocks(rows):
        cross = np.multiply(rows[b, :, :m], wq)
        cross -= np.multiply(rows[b, :, m:], wp)
        np.abs(cross, out=cross)
        worst[b], gap[b] = cross.argmax(axis=2), cross.max(axis=2)
        del cross  # before the next block's
    checks = [("negative", negative, low, smallest, smallest, None),
              ("normalization", miss > tol, None, miss, total, None),
              ("ratio", gap > tol, worst, gap, gap, space.trait_label)]
    if support is not None:
        far, reach = np.empty_like(worst), np.empty_like(gap)
        for b in _blocks(rows):
            off = np.abs(rows[b])
            np.copyto(off, 0.0, where=support[b])
            far[b], reach[b] = off.argmax(axis=2), off.max(axis=2)
            del off
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


def validate_pq(t: HeredityTensor, tol: float = VALIDATE_TOL) -> ValidationReport:
    """Report every violated p:q constraint: negativity, per-pair
    normalization to 1/(2pq), female:male child ratio (as cross-products),
    and support when the tensor declares one.
    """
    p, q = t.p_ratio
    messages = {"negative": "has negative coefficient {value}",
                "normalization": f"sums to {{value}}, expected {t.pair_sum}",
                "ratio": f"child {{child}} breaks the {p:g}:{q:g} ratio by {{value}}",
                "support": "has mass {value} on excluded child {child}"}
    return ValidationReport(tuple(_pair_violations(
        t.space, t.coefficients, tol, t.pair_sum, (p, q), messages, t.support)), tol)


def apply_canonical(t: HeredityTensor, lam: Distribution) -> Distribution:
    """One generation of the canonical p:q operator:
    ``lam'(s) = 2 * sum_{i,j} p[(i,j), s] * lam(f_i) * lam(m_j)``.
    """
    if lam.space != t.space:
        raise DimensionMismatch("distribution and tensor spaces differ")
    if abs(lam.p_ratio[0] - t.p_ratio[0]) > MASS_TOL:
        raise DistributionOutsideHyperSimplex(
            f"distribution has female mass {lam.p_ratio[0]}, tensor expects {t.p_ratio[0]}"
        )
    out = 2.0 * np.einsum("ijs,i,j->s", t.coefficients, lam.female, lam.male)
    return Distribution(t.space, _frozen(out), t.p_ratio)


@dataclass(frozen=True, eq=False)
class ReducedQso:
    """Symmetric stochastic tensor ``p[i, j, k]`` driving
    ``y'_k = sum_{ij} p[i, j, k] y_i y_j`` on the (n-1)-simplex.
    """

    n: int
    p: np.ndarray

    def __post_init__(self):
        arr = _checked(self, "p", (self.n, self.n, self.n), "reduced coefficient")
        if arr.min() < -ROUNDING_TOL:
            raise ValueError(f"negative reduced coefficient {arr.min()}")
        sym = np.max([_max_abs_diff(arr[b], arr[:, b].transpose(1, 0, 2))
                      for b in _blocks(arr)])
        if sym > ROUNDING_TOL:
            raise ValueError(f"reduced tensor not symmetric in parents (max gap {sym})")
        stoch = np.abs(arr.sum(axis=2) - 1.0).max()
        if stoch > MASS_TOL:
            raise ValueError(
                f"reduced tensor rows deviate from unit sum by {stoch}; "
                "renormalize the source measures"
            )


@dataclass(frozen=True, eq=False)
class ReducedDistribution:
    """A point on the (n-1)-simplex."""

    values: np.ndarray

    def __post_init__(self):
        vals = _checked(self, "values", None, "probability")
        if vals.min() < -ROUNDING_TOL:
            raise ValueError(f"negative probability {vals.min()}")
        if abs(vals.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {vals.sum()} != 1")

    @classmethod
    def uniform(cls, n: int) -> "ReducedDistribution":
        return cls(_frozen(np.full(n, 1.0 / n)))

    @property
    def n(self) -> int:
        return self.values.size


def reduce(t: HeredityTensor) -> ReducedQso:
    """Collapse a 1:1, child-symmetric tensor to its n-type operator.

    Under ``y_k = 2 * lam(f_k)`` the canonical step at gender-symmetric
    states becomes ``y'_k = sum_{ij} p[i,j,k] y_i y_j`` with
    ``p[i,j,k] = (coeff[(i,j), f_k] + coeff[(j,i), f_k]) / 2``; the
    symmetrization is exact because a quadratic form only sees the
    symmetric part of its coefficient matrix.
    """
    if abs(t.p_ratio[0] - 0.5) > ROUNDING_TOL:
        raise NotOneToOne(f"reduction is defined for p = q = 1/2, got p:q = {t.p_ratio}")
    _check_gender_gap(t.coefficients, ChildAsymmetry, "female/male child coefficients differ by {}")
    fem = t.coefficients[:, :, :t.space.m]
    p = fem + fem.transpose(1, 0, 2)
    p *= 0.5  # one temporary; bitwise equal to 0.5 * (fem + fem.T)
    return ReducedQso(t.space.m, _frozen(p))


def apply_reduced(q: ReducedQso, y: ReducedDistribution) -> ReducedDistribution:
    """One step of the reduced operator (exact quadratic form, no renormalization)."""
    if y.n != q.n:
        raise DimensionMismatch(f"distribution has {y.n} types, operator expects {q.n}")
    return ReducedDistribution(_frozen(reduced_step(q, y.values)))


def reduced_step(q: ReducedQso, y: np.ndarray) -> np.ndarray:
    """Raw quadratic-form step on a plain vector (no simplex validation)."""
    return _c_einsum("ijk,i,j->k", q.p, y, y)


def lift(space: GenotypeSpace, y: ReducedDistribution) -> Distribution:
    """Embed a reduced point into the 1:1 hyper-simplex, halving the mass
    between the two genders of each trait."""
    if y.n != space.m:
        raise DimensionMismatch(f"reduced point has {y.n} types, space has {space.m}")
    half = y.values / 2.0
    return Distribution(space, _frozen(np.concatenate([half, half])))


def fold(space: GenotypeSpace, lam: Distribution) -> ReducedDistribution:
    """Inverse of :func:`lift` for gender-symmetric distributions:
    ``y_k = 2 * lam(f_k)``.  ``fold(lift(y))`` is ``y`` exactly only when no
    coordinate of ``y`` is subnormal: ``lift`` halves, and halving a subnormal
    rounds."""
    if lam.space != space:
        raise DimensionMismatch("distribution belongs to a different space")
    _check_gender_gap(lam.values, GenderAsymmetric, "female/male values differ by {}; cannot fold")
    return ReducedDistribution(_frozen(2.0 * lam.female))
