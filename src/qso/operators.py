"""Heredity tensors and their action on hyper-simplex distributions.

The central object is a coefficient family ``p[(mother, father), child]``
stored for female-first parent pairs only (symmetry in the parents is
implicit).  A tensor with the p:q property keeps the female:male mass
ratio at p:q forever; for the 1:1 case it can be reduced to an n-type
quadratic stochastic operator acting on the ordinary simplex via
``y_k = 2 * x_k``.

Construction and validation are whole-array operations, bitwise equal to
per-pair loops.  Every tensor is read in one offspring-set form: a row of
coefficients and one of members (the support) per set, and ``of_pair``, the
set of each pair.  Under non-Mendelian inheritance, as in Rh and ABO, any
child can occur and each pair is its own set: the rows are views of the
dense arrays and ``of_pair`` is the identity.  A Mendelian pair's set is
fixed by the smaller and the larger parental allele at each component, so
the m^2 pairs share prod L(L+1)/2 sets (2,187 of 16,384 pairs at m = 128);
``mendelian_coefficients`` keeps only the set form, three read-only arrays
(4.9 MiB at m = 128, against 36 MiB for the dense coefficients and support,
built from them on first read, once).  Each set's base-measure mass is summed
once, over its members gathered into one row as the per-pair formula sums
them (zero-padded rows would move coefficients by up to 4 ulp), and its row
is one masked division ``(2 mu0) / mass``, exact as doubling is.
``validate_pq`` and ``reduce`` read the rows, which hold every value: a
violation is reported for each pair whose set has it, in pair order, and
``reduce`` halves each set's female block plus its mirror's (the set of the
transposed pairs), which is ``0.5 * (fem + fem.T)`` to the bit.  The
validators walk the rows in blocks:
every row sum is taken, and a block that one cheap test clears for a check
(its minimum, equal female and male halves, no nonzero value off the
support) skips that check's per-row statistic, which no cleared row could
trip.

Every value type stores its arrays through ``_checked``: read-only, of the
declared shape, and finite, since NaN passes every range check.  Only a
``MeasureFamily`` keeps NaN, which marks a missing pair; boolean support masks
are not scanned.  An array that already has the declared dtype, owns its data
and is read-only is adopted as it is; every other input (a writable array, a
view, another dtype, a list) is copied, so later writes to it cannot reach the
stored value.  The builders here mark their fresh results read-only, so a
large tensor is never copied on construction.  Each operand rule (the
female/male gap, the sex ratio, the simplex, a point's type count, a shared
space, the 1:1 ratio) is stated once, in one ``_check_*`` function.  The
checks that need full-size temporaries (the finiteness scan, that gap, the
reduced operator's parent symmetry and the checks of ``_pair_violations``)
walk the first axis in blocks of about 1 MiB; the gap and the symmetry
check skip the difference of a block whose two operands are equal.

``reduced_step``, which the residuals and the Newton polish of
``dynamics`` call, and the orbit kernel both take one quadratic step
through ``_stepper``, ``np.einsum("ijk,i,j->k", p, y, y)``.  An
operator whose coefficients are mostly zero steps instead from a table of
its nonzero coefficients, with the same bits.  Mendelian
ones are such: a child type arises only from parents whose offspring set
contains it, so at m = 64 and 128 only 17.8% and 13.4% of the coefficients
are nonzero.  Column k of the child-major table holds child k's nonzero
coefficients in (i, j) C order; a step forms each term as
``(c * y_i) * y_j`` and sums each column with ``np.add.reduce`` over axis
0, which adds the rows one after another to the starting row (only a
reduction along the contiguous axis is pairwise).  The columns start at
0.0, each chunk of rows continues from the sums so far, and padding adds
+0.0 coefficients.  A skipped term is a signed zero only when y is finite
(0 * inf is NaN), so a row with a non-finite entry, seen as a non-finite
sum, steps by einsum.  The table is used when it fills at most
``_SPARSE_MAX_FILL`` = 1/4 of n^3, counting each chunk's NumPy calls as
``_CHUNK_CELLS`` more cells; a table term costs about 3 ns against einsum's
1 ns, so it then wins at least 1.3x.  Dense operators, such as one
estimated from counts, and any with fewer than 22 types keep einsum.
The bench records at the repository root (``BENCH_*.json``) time the
``mendelian-wide`` pass, whose Mendelian solves step so.

Operators with at most ``_SCALAR_MAX_N`` = 4 types, which include every
model of the paper (the trait operator and Rh have n = 2, ABO n = 4), step
in plain Python floats instead: at that size a NumPy step is almost all
call overhead.  A function generated for the operator's coefficients
(``_scalar_block``) steps a whole block of the orbit kernel with the
coordinates in local variables, then writes one flat list of rows into the
buffer.  It repeats the einsum step's operations in their order, so it is
exact too.  Einsum starts each child's sum at 0.0 and adds
``(p[i,j,k] * y_i) * y_j`` over ``(i, j)`` in C order; a zero coefficient
adds a signed zero to a sum that is never -0.0, so its term is skipped.
``np.add.reduce`` sums fewer than 8 elements as a left fold,
``(o0 + o1) + o2``.  Each child is then divided by that total, the same
IEEE division.  A block with a zero total, where Python raises and NumPy
gives inf or NaN, writes nothing and is left to the einsum step.  Per step
in 1024-step blocks, dense random coefficients (microseconds, best of 45,
Python 3.11, NumPy 2.4, one x86-64 core); at n = 5 the two differ by less
than the spread between rounds, so the cutoff stays at 4:

    n        2     3     4     5     8
    scalar   0.41  1.00  2.11  3.97  15.4
    einsum   4.05  4.25  4.30  4.40  5.48

A coefficient of 1.0 multiplies nothing (``1.0 * x`` is ``x`` for every
double), and every other coefficient is written into the code as a literal
that reads back as the same double.  The same ``compile`` makes ``raw``
from the same expressions, one raw step to a tuple, with which the one
halving loop of the Newton polish in ``dynamics`` images its candidates;
for an operator without ``raw`` it calls ``reduced_step``.

The constructor builds the kernels once its checks pass: the table (2.6-2.8
ms at n = 64, 17.0-17.7 ms at n = 128 for the ``mendelian-wide`` operators,
best of 9 on one core) and the block with its raw step (0.15 ms at n = 2,
0.53 ms at n = 4), kept as ``_table``, ``_block`` and ``_raw``, each
None where its path does not apply.  They are outside the dataclass
fields, so they take no part in ``==`` or ``repr``, and together they name
the operator's step path.  Every value type, count tables too, pickles and
copies through its constructor (``_rebuilt``), as a function made by
``exec`` cannot be pickled: a copy's arrays are checked and read-only
again, and an operator rebuilds its kernels.

All types are immutable after construction, and all operations are pure;
each step owns its scratch buffers, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

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
from .genotype import Genotype, GenotypeSpace, _integer

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
_CHUNK_BYTES = 1 << 18   # coefficient bytes per chunk of the sparse step's table
_SPARSE_MAX_FILL = 0.25  # largest share of n^3 the sparse step's table may fill
_CHUNK_CELLS = 2048      # table cells that cost as much as one chunk's NumPy calls
_SCALAR_MAX_N = 4        # largest n stepped in Python floats rather than by einsum
_einsum = np.einsum      # the quadratic step and dynamics.jacobian call it by this one name


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so that ``_checked`` adopts it."""
    arr.setflags(write=False)
    return arr


def _read_only(arr, dtype=float) -> np.ndarray:
    """``arr`` itself if it is a read-only ndarray of ``dtype`` that owns its data,
    else a read-only copy of it as ``dtype``."""
    if (type(arr) is np.ndarray and arr.dtype == dtype and arr.flags.owndata
            and not arr.flags.writeable):
        return arr
    return _frozen(np.array(arr, dtype=dtype))


def _checked(obj, field: str, shape: tuple[int, ...] | None, what: str,
             error: type[Exception] = ValueError, dtype=float, nan_ok=False) -> np.ndarray:
    """Set ``obj.field`` to a read-only array with ``shape`` (``None``: any nonempty
    vector) and return it.  A read-only ndarray of ``dtype`` that owns its data is
    adopted; anything else is copied.  Float entries must be finite, or NaN when
    ``nan_ok``; the first other one raises ``error``.  Boolean arrays are not
    scanned."""
    arr = _read_only(getattr(obj, field), dtype)
    if (arr.shape != shape) if shape else (arr.ndim != 1 or arr.size == 0):
        raise DimensionMismatch(
            f"{what} array has shape {arr.shape}, expected {shape or 'a nonempty vector'}")
    if arr.dtype != bool:
        row = arr[:1].size  # entries per index of the first axis
        for b in _blocks(arr):
            bad = np.isinf(arr[b]) if nan_ok else ~np.isfinite(arr[b])
            if bad.any():
                at = np.unravel_index(b.start * row + int(bad.argmax()), arr.shape)
                raise error(f"non-finite {what} {arr[at]} at index {tuple(map(int, at))}")
    object.__setattr__(obj, field, arr)
    return arr


def _rebuilt(value):
    """``__reduce__`` of every value type: pickling and copying call the
    constructor with the field values, so the copy's arrays are checked and
    read-only again and an operator rebuilds its table and block."""
    return type(value), tuple(getattr(value, f.name) for f in fields(value))


def _blocks(arr: np.ndarray) -> list[slice]:
    """Slices of ``arr``'s first axis, each about ``_BLOCK_BYTES`` of it and at
    least one index long, so a check over them needs no full-size temporary."""
    step = max(1, _BLOCK_BYTES // max(1, arr[:1].nbytes))
    return [slice(start, start + step) for start in range(0, len(arr), step)]


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> np.float64:
    """``max |a - b|`` with one temporary, freed on return; 0.0 without one
    when ``a`` equals ``b``, which for finite values is the same."""
    if np.array_equal(a, b):
        return np.float64(0.0)
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


def _check_ratio(p_ratio: tuple[float, float], error: type[Exception]) -> tuple[float, float]:
    """``p_ratio`` itself if it is a sex ratio, 0 < p, q < 1 with p + q = 1 to
    ``ROUNDING_TOL``, else ``error``."""
    p, q = p_ratio
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0 and abs(p + q - 1.0) <= ROUNDING_TOL):
        raise error(f"invalid sex ratio p={p}, q={q}: need 0 < p, q < 1 and p + q = 1")
    return p, q


def _check_simplex(vals: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` unless ``vals`` lies on the simplex: no entry below
    ``-ROUNDING_TOL`` and a total within ``MASS_TOL`` of 1."""
    if vals.min() < -ROUNDING_TOL:
        raise error(f"negative probability {vals.min()} at index {int(vals.argmin())}")
    with np.errstate(over="ignore"):  # a huge finite total is inf, and fails
        total = np.add.reduce(vals)
    if abs(total - 1.0) > MASS_TOL:
        raise error(f"total mass {total} != 1")


def _check_types(got: int, n: int, what: str) -> None:
    """Raise ``DimensionMismatch`` unless ``what``, a point of ``got`` types, has ``n``."""
    if got != n:
        raise DimensionMismatch(f"{what} has {got} types, operator expects {n}")


def _check_space(built: GenotypeSpace, space: GenotypeSpace, what: str) -> None:
    """Raise ``DimensionMismatch`` unless ``built``, the space of ``what``, is ``space``."""
    if built is not space and built != space:
        raise DimensionMismatch(f"{what} was built for a different space")


def _check_one_to_one(p_ratio: tuple[float, float], error: type[Exception], message: str) -> None:
    """Raise ``error(message.format(p_ratio))`` unless p is 1/2 to ``ROUNDING_TOL``."""
    if abs(p_ratio[0] - 0.5) > ROUNDING_TOL:
        raise error(message.format(p_ratio))


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability distribution over all genotypes of a space, constrained
    to carry female mass p and male mass q.
    """

    space: GenotypeSpace
    values: np.ndarray
    p_ratio: tuple[float, float] = (0.5, 0.5)
    __reduce__ = _rebuilt

    def __post_init__(self):
        vals = _checked(self, "values", (self.space.total,), "probability",
                        DistributionOutsideHyperSimplex)
        p, _ = _check_ratio(self.p_ratio, DistributionOutsideHyperSimplex)
        _check_simplex(vals, DistributionOutsideHyperSimplex)
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
    __reduce__ = _rebuilt

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

        Pairs absent from ``rows`` are marked missing (NaN).  A key other than
        two trait indices in ``[0, m)``, or a row of other than ``space.total``
        values, raises ``DimensionMismatch`` (NumPy would wrap a negative index).
        """
        mu = np.full((space.m, space.m, space.total), np.nan)
        for key, row in rows.items():
            row = np.asarray(row, dtype=float)
            try:
                i, j = map(operator.index, key)
            except (TypeError, ValueError):  # not two integers
                i = j = -1
            if not (0 <= i < space.m and 0 <= j < space.m and row.shape == (space.total,)):
                raise DimensionMismatch(
                    f"pair {key!r} needs two trait indices in [0, {space.m}) and "
                    f"{space.total} values, got a row of shape {row.shape}")
            mu[i, j] = row
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
            found = _pair_violations(space, self.mu.reshape(space.m ** 2, -1), None,
                                     _own_sets(space.m), tol, 1.0, (1.0, 1.0), messages)
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
    mask of the same shape) records where coefficients may be nonzero;
    ``None`` excludes no child, as ``nonmendelian_coefficients`` leaves it.

    Every reader reads its offspring-set form ``_sets``, ``(rows, members,
    of_pair)`` (see the module docstring).  A tensor from
    ``mendelian_coefficients`` holds only that form and builds
    ``coefficients`` and ``support`` from it on first read, once; its copy
    is the dense tensor.
    """

    space: GenotypeSpace
    p_ratio: tuple[float, float]
    coefficients: np.ndarray
    # a factory, unlike a default, leaves no class attribute that would hide
    # a Mendelian tensor's unbuilt ``support`` from ``__getattr__``
    support: np.ndarray | None = field(default_factory=lambda: None)
    __reduce__ = _rebuilt

    def __post_init__(self):
        m, total = self.space.m, self.space.total
        rows = _checked(self, "coefficients", (m, m, total), "coefficient")
        if self.support is not None:
            _checked(self, "support", (m, m, total), "support", dtype=bool)
        _check_ratio(self.p_ratio, ValueError)
        # one row per pair: views, not copies, of C-ordered arrays
        members = None if self.support is None else self.support.reshape(m * m, total)
        object.__setattr__(self, "_sets", (rows.reshape(m * m, total), members, _own_sets(m)))

    @classmethod
    def _of_sets(cls, space: GenotypeSpace, rows: np.ndarray, members: np.ndarray,
                 of_pair: np.ndarray) -> "HeredityTensor":
        """The 1:1 tensor whose pair (i, j) has the coefficients
        ``rows[of_pair[i, j]]`` and the support ``members[of_pair[i, j]]``,
        all three read-only arrays that own their data."""
        # every coefficient is in some set's row, so this is the dense scan;
        # on a failure the dense tensor names the first bad entry in pair order
        if not all(np.isfinite(rows[b]).all() for b in _blocks(rows)):
            cls(space, (0.5, 0.5), rows[of_pair])  # raises
        t = object.__new__(cls)
        for name, value in (("space", space), ("p_ratio", (0.5, 0.5)),
                            ("_sets", (rows, members, of_pair))):
            object.__setattr__(t, name, value)
        return t

    def __getattr__(self, name):
        # called only for a missing attribute: ``coefficients`` or ``support``
        # of a Mendelian tensor that no caller has read yet
        if name not in ("coefficients", "support"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        rows, members, of_pair = self._sets
        dense = (rows if name == "coefficients" else members)[of_pair]
        # setdefault: every caller gets the one array that is kept
        return vars(self).setdefault(name, _frozen(dense))

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
        s = self.space.index(child)
        rows, _, of_pair = self._sets
        return float(rows[of_pair[i, j], s])

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
    base-measure mass (the formula would divide by zero).  The tensor is
    kept in its offspring-set form.
    """
    _check_space(mu0.space, space, "base measure")
    _check_one_to_one(mu0.p_ratio, AsymmetricMeasure,
                      "base measure must live on the 1:1 hyper-simplex, got p:q = {}")
    _check_gender_gap(mu0.values, AsymmetricMeasure, "base measure female/male values differ by {}")
    m = space.m
    # a pair's offspring set, and with it its row of coefficients, is fixed by
    # the componentwise smaller and larger alleles of its parents: pair (i, j)
    # shares it with pair (low, high), one of the prod L(L+1)/2 pairs that are
    # their own (low, high), and ``of_pair`` numbers those sets
    shape = [len(comp) for comp in space.components]
    alleles = np.array(np.unravel_index(np.arange(m), shape))
    mother, father = alleles[:, :, None], alleles[:, None, :]
    key = (np.ravel_multi_index(np.minimum(mother, father), shape) * m
           + np.ravel_multi_index(np.maximum(mother, father), shape))
    own = np.flatnonzero(key.reshape(-1) == np.arange(m * m))
    of_pair = np.empty(m * m, dtype=np.intp)
    of_pair[own] = np.arange(len(own))
    of_pair = of_pair[key]
    # members[s, t]: each allele of child traits t is the mother's or the
    # father's in set s's own pair, for both child genders
    low, high = np.divmod(own, m)
    members = np.ones((len(own), m), dtype=bool)
    for a, n in zip(alleles, shape):  # a[t]: trait t's allele at one component
        has = a == np.arange(n)[:, None]  # has[x, t]: trait t has allele x
        members &= has[a[low]] | has[a[high]]
    members = np.concatenate([members, members], axis=1)
    # sum each offspring set as one gathered row, as the per-pair formula
    # does: zero-padded rows would regroup NumPy's pairwise sum (by <= 4 ulp)
    sizes = np.count_nonzero(members, axis=1)
    mass = np.empty(len(own))
    for size in np.flatnonzero(np.bincount(sizes)):  # np.unique imports numpy.ma
        sets = sizes == size
        values = np.broadcast_to(mu0.values, (np.count_nonzero(sets), space.total))
        mass[sets] = values[members[sets]].reshape(-1, size).sum(axis=1)
    zero = np.flatnonzero(mass[of_pair] <= 0.0)
    if zero.size:
        i, j = divmod(int(zero[0]), m)
        raise ZeroMassOffspringSet(
            f"offspring set of pair ({_pair_label(space, i, j)}) has zero base-measure mass"
        )
    # each set's row is (2 v) / mass on its members, the formula's own division
    # as doubling is exact
    rows = np.divide(2.0 * mu0.values, mass[:, None], out=np.zeros(members.shape),
                     where=members)
    return HeredityTensor._of_sets(space, _frozen(rows), _frozen(members), _frozen(of_pair))


def nonmendelian_coefficients(space: GenotypeSpace, family: MeasureFamily) -> HeredityTensor:
    """Heredity coefficients ``2 * mu`` from a per-pair measure family.

    Mixed-gender pairs may produce any child genotype; the family must
    cover every pair and be gender-symmetric in the child.
    """
    _check_space(family.space, space, "measure family")
    missing = family.missing_pairs()
    if missing:
        i, j = missing[0]
        raise MissingPair(
            f"no measure for pair ({_pair_label(space, i, j)})"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )
    _check_gender_gap(family.mu, AsymmetricMeasure, "family female/male child values differ by {}")
    worst = np.abs(family.mu.sum(axis=2) - 1.0).max()
    if worst > TABLE_TOL:
        raise ValueError(
            f"measure rows deviate from unit mass by {worst}; renormalize first"
        )
    return HeredityTensor(space, (0.5, 0.5), _frozen(2.0 * family.mu))


def _own_sets(m: int) -> np.ndarray:
    """The read-only ``of_pair`` of m^2 pairs that are each their own set."""
    return _frozen(np.arange(m * m).reshape(m, m))


def _pair_violations(space: GenotypeSpace, rows: np.ndarray, support: np.ndarray | None,
                     of_pair: np.ndarray, tol: float, expected: float,
                     weights: tuple[float, float], messages: dict) -> list[Violation]:
    """Check the 2m child values of every parent pair with reductions over
    blocks of rows; the violations, their order and every value are those a
    loop over single pairs finds, to the bit: ``negative`` (smallest value),
    ``normalization`` (row sum against ``expected``), ``ratio`` (largest
    ``|wq * female - wp * male|`` for ``(wp, wq) = weights``) and ``support``
    (largest ``|value|`` off ``support``, unless it is None).
    ``messages[kind]`` is formatted with the ``value`` and the ``child``'s
    label.  Pair (i, j) has the values ``rows[of_pair[i, j]]`` and the
    support ``support[of_pair[i, j]]``, so each statistic is taken once per
    row, however many pairs share it.  Rows holding NaN are never flagged:
    min, sum and argmax propagate NaN.  A ``tol`` that is negative or NaN
    raises ``ValueError``.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    wp, wq = weights
    sets = len(rows)
    total = np.empty(sets)
    # per-row statistics that stay 0.0, which no check flags, in a block
    # whose one cheap test clears every row; exact wherever a row can be flagged
    smallest, gap, reach = np.zeros(sets), np.zeros(sets), np.zeros(sets)
    with np.errstate(over="ignore"):  # a huge finite row sums to inf, as a loop's does
        for b in _blocks(rows):
            block = rows[b]
            total[b] = block.sum(axis=1)
            if not block.min() >= -tol:  # NaN too
                smallest[b] = block.min(axis=1)
            # equal halves give equal weights a zero (or NaN) gap
            half = block.shape[1] // 2
            if wp != wq or not np.array_equal(block[:, :half], block[:, half:]):
                gap[b] = _ratio_gaps(block, wp, wq).max(axis=1)
            # only a nonzero value off the support (or NaN) can be flagged
            if support is not None and (np.not_equal(block, 0.0) > support[b]).any():
                reach[b] = _off_support(block, support[b]).max(axis=1)
        miss = np.abs(total - expected)
        # the child of flagged rows only: on a read-only array NumPy copies all of it
        negative, ratio, far_off = smallest < -tol, gap > tol, reach > tol
        low, worst = np.zeros(sets, dtype=np.intp), np.zeros(sets, dtype=np.intp)
        low[negative] = rows[negative].argmin(axis=1)
        worst[ratio] = _ratio_gaps(rows[ratio], wp, wq).argmax(axis=1)
    checks = [("negative", negative, low, smallest, smallest, None),
              ("normalization", miss > tol, None, miss, total, None),
              ("ratio", ratio, worst, gap, gap, space.trait_label)]
    if support is not None:
        off_rows = rows[far_off]
        far = np.zeros(sets, dtype=np.intp)
        far[far_off] = _off_support(off_rows, support[far_off]).argmax(axis=1)
        signed = np.zeros(sets)
        signed[far_off] = np.take_along_axis(off_rows, far[far_off][:, None], axis=1)[:, 0]
        checks.append(("support", far_off, far, reach, signed, space.label))
    flagged = np.logical_or.reduce([bad for _, bad, *_ in checks])
    out = []
    for i, j in np.argwhere(flagged[of_pair]):
        s = of_pair[i, j]
        for kind, bad, child, magnitude, value, label in checks:
            if bad[s]:
                k = None if child is None else int(child[s])
                message = messages[kind].format(value=value[s],
                                                child=label(k) if label else None)
                out.append(Violation(kind, (int(i), int(j)), k, float(magnitude[s]),
                                     f"pair ({_pair_label(space, i, j)}) {message}"))
    return out


def _ratio_gaps(rows: np.ndarray, wp: float, wq: float) -> np.ndarray:
    """``|wq * female - wp * male|`` per child over the last axis (female half first)."""
    half = rows.shape[-1] // 2
    cross = np.multiply(rows[..., :half], wq)
    cross -= np.multiply(rows[..., half:], wp)
    return np.abs(cross, out=cross)


def _off_support(rows: np.ndarray, support: np.ndarray) -> np.ndarray:
    """``|rows|``, with 0.0 where ``support`` holds."""
    off = np.abs(rows)
    np.copyto(off, 0.0, where=support)
    return off


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
        t.space, *t._sets, tol, t.pair_sum, (p, q), messages)), tol)


def apply_canonical(t: HeredityTensor, lam: Distribution) -> Distribution:
    """One generation of the canonical p:q operator:
    ``lam'(s) = 2 * sum_{i,j} p[(i,j), s] * lam(f_i) * lam(m_j)``.
    """
    _check_space(lam.space, t.space, "distribution")
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
    __reduce__ = _rebuilt

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
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
        object.__setattr__(self, "_table", _sparse_table(arr))
        block, raw = _scalar_block(arr) if self.n <= _SCALAR_MAX_N else (None, None)
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_raw", raw)


@dataclass(frozen=True, eq=False)
class ReducedDistribution:
    """A point on the (n-1)-simplex."""

    values: np.ndarray
    __reduce__ = _rebuilt

    def __post_init__(self):
        _check_simplex(_checked(self, "values", None, "probability"), ValueError)

    @classmethod
    def uniform(cls, n: int) -> "ReducedDistribution":
        n = _integer(n, "n", 1)
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
    _check_one_to_one(t.p_ratio, NotOneToOne, "reduction is defined for p = q = 1/2, got p:q = {}")
    rows, _, of_pair = t._sets
    m = t.space.m
    # the rows hold every coefficient value
    _check_gender_gap(rows, ChildAsymmetry, "female/male child coefficients differ by {}")
    # mirror[s] is the set of pair (j, i) for each pair (i, j) in set s: exact only
    # if of_pair commutes with transposition (of_pair.T = mirror[of_pair]), as the
    # identity and a Mendelian (symmetric) of_pair do; p owns its data
    mirror = np.empty(len(rows), dtype=np.intp)
    mirror[of_pair] = of_pair.T
    half = rows[mirror, :m]  # a gathered copy, so the sum needs no other temporary
    half += rows[:, :m]
    half *= 0.5
    p = half[of_pair]
    return ReducedQso(m, _frozen(p))


def apply_reduced(q: ReducedQso, y: ReducedDistribution) -> ReducedDistribution:
    """One step of the reduced operator (exact quadratic form, no renormalization)."""
    _check_types(y.n, q.n, "distribution")
    return ReducedDistribution(_frozen(reduced_step(q, y.values)))


def reduced_step(q: ReducedQso, y: np.ndarray) -> np.ndarray:
    """Raw quadratic-form step on a plain vector (no simplex validation)."""
    out = np.empty(q.n)
    _stepper(q)(np.asarray(y, dtype=float), out)
    return out


def _sparse_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The child-major table ``(coefs, pairs)`` of the nonzero coefficients of
    ``p``, each of shape (chunks, height, n).  None when it, counting each
    chunk's NumPy calls as ``_CHUNK_CELLS`` more cells, would fill more than
    ``_SPARSE_MAX_FILL`` of the n^3 einsum terms.

    Column k lists the nonzero ``p[i, j, k]`` and their pair index
    ``i * n + j`` in (i, j) C order, padded at the end with +0.0 coefficients
    of pair 0.  Its rows are cut into chunks of about ``_CHUNK_BYTES``, so
    every temporary of a step is that small, and it is built one ``_blocks``
    slice of ``p`` at a time."""
    n = len(p)
    counts = sum(np.count_nonzero(p[b], axis=(0, 1)) for b in _blocks(p))
    rows = int(counts.max())
    chunks = -(-rows * n * 8 // _CHUNK_BYTES)
    height = -(-rows // chunks)
    if chunks * (height * n + _CHUNK_CELLS) > _SPARSE_MAX_FILL * n ** 3:
        return None
    coefs = np.zeros((chunks, height, n))
    pairs = np.zeros((chunks, height, n), dtype=np.intp)
    filled = np.zeros(n, dtype=np.intp)  # entries written per column
    for b in _blocks(p):
        block = p[b].reshape(-1, n)  # one row per pair (i, j), in C order
        nz = np.flatnonzero((block != 0.0).T)  # child-major: by k, then by pair
        k, pair = np.divmod(nz, len(block))
        here = np.bincount(k, minlength=n)
        rank = np.arange(len(nz)) - (np.cumsum(here) - here)[k]
        at = (filled[k] + rank) * n + k
        coefs.reshape(-1)[at] = block.reshape(-1)[pair * n + k]
        pairs.reshape(-1)[at] = pair + b.start * n
        filled += here
    # left writable: np.take copies a read-only index array on every call
    return coefs, pairs


def _scalar_block(p: np.ndarray):
    """``(block, raw)`` for the operator with coefficients ``p``, in Python
    floats with einsum's operations in einsum's order (see the module
    docstring).  ``block(buf, b)`` writes ``b`` renormalized quadratic steps
    from ``buf[0]`` into ``buf[1:b + 1]`` and returns True.  If a step's
    total is zero it returns False and writes nothing: Python raises there,
    where NumPy's division gives the inf or NaN row the einsum step keeps.
    ``raw(y0, ..., y{n-1})`` returns one raw step's image as a tuple; like
    the block, it equals einsum only on finite coordinates.

    Each child is one expression, ``0.0 + c * y_i * y_j + ...`` over the
    nonzero coefficients in ``(i, j)`` C order, with each ``c`` written as
    its ``repr``, which reads back as the same double, and ``y_i * y_j``
    for a coefficient of 1.0.  Both functions share these expressions and
    one ``compile``."""
    n = len(p)
    coefs = p.tolist()  # Python floats: faster to index than p

    def term(c, i, j):
        return f"y{i} * y{j}" if c == 1.0 else f"{c!r} * y{i} * y{j}"

    sums = [" + ".join(["0.0", *(term(cell[k], i, j) for i, row in enumerate(coefs)
                                 for j, cell in enumerate(row) if cell[k] != 0.0)])
            for k in range(n)]
    coords = ", ".join(f"y{i}" for i in range(n))
    lines = ["def block(buf, b):",
             f"    {coords}, = buf[0].tolist()",
             "    rows = []",
             "    extend = rows.extend",
             "    try:",
             "        for _ in range(b):",
             *(f"            o{k} = {s}" for k, s in enumerate(sums)),
             f"            s = {' + '.join(f'o{k}' for k in range(n))}",
             *(f"            y{k} = o{k} / s" for k in range(n)),
             f"            extend(({coords},))",
             "    except ZeroDivisionError:",
             "        return False",
             "    buf[1:b + 1].reshape(-1)[:] = rows",
             "    return True",
             f"def raw({coords}):",
             f"    return {', '.join(sums)},"]
    namespace = {}
    exec(compile("\n".join(lines), f"<qso scalar block, n = {n}>", "exec"), namespace)
    return namespace["block"], namespace["raw"]


def _stepper(q: ReducedQso):
    """``step(y, out)``: ``np.einsum("ijk,i,j->k", q.p, y, y, out=out)``,
    from ``q``'s sparse table when it has one and every entry of ``y`` is
    finite, bitwise equal either way (see the module docstring).  The scratch
    buffers belong to this step alone, so each caller, and each thread, steps
    through its own."""
    p = q.p
    table = q._table
    if table is None:
        return lambda y, out: _einsum("ijk,i,j->k", p, y, y, out=out)
    coefs, pairs = table
    n = q.n
    rep = np.empty((n, n))   # rep[i, j] = y_i, so rep.ravel() is np.repeat(y, n)
    tile = np.empty((n, n))  # tile[i, j] = y_j, so tile.ravel() is np.tile(y, n)
    flat_rep, flat_tile = rep.reshape(-1), tile.reshape(-1)
    terms = np.empty((coefs.shape[1] + 1, n))  # the sums so far, then one chunk's terms
    sums, chunk_terms = terms[0], terms[1:]
    factor = np.empty(chunk_terms.shape)
    take, multiply, add = np.take, np.multiply, np.add.reduce

    def step(y: np.ndarray, out: np.ndarray) -> None:
        if not math.isfinite(add(y)):  # a finite sum means every entry is finite
            _einsum("ijk,i,j->k", p, y, y, out=out)
            return
        rep[...] = y[:, None]
        tile[...] = y
        out[...] = 0.0
        for c, pair in zip(coefs, pairs):
            take(flat_rep, pair, out=chunk_terms, mode="clip")
            take(flat_tile, pair, out=factor, mode="clip")
            multiply(c, chunk_terms, out=chunk_terms)
            multiply(chunk_terms, factor, out=chunk_terms)
            # the reduction over axis 0 adds the rows one by one, starting
            # from the sums so far: each column's terms in table order
            sums[...] = out
            add(terms, axis=0, out=out)

    return step


def lift(space: GenotypeSpace, y: ReducedDistribution) -> Distribution:
    """Embed a reduced point into the 1:1 hyper-simplex, halving the mass
    between the two genders of each trait."""
    _check_types(y.n, space.m, "reduced point")
    half = y.values / 2.0
    return Distribution(space, _frozen(np.concatenate([half, half])))


def fold(space: GenotypeSpace, lam: Distribution) -> ReducedDistribution:
    """Inverse of :func:`lift` for gender-symmetric distributions:
    ``y_k = 2 * lam(f_k)``.  ``fold(lift(y))`` is ``y`` exactly only when no
    coordinate of ``y`` is subnormal: ``lift`` halves, and halving a subnormal
    rounds."""
    _check_space(lam.space, space, "distribution")
    _check_gender_gap(lam.values, GenderAsymmetric, "female/male values differ by {}; cannot fold")
    return ReducedDistribution(_frozen(2.0 * lam.female))
