"""Trajectories, fixed points, and stability for reduced operators.

Iteration renormalizes each iterate to unit mass: the raw quadratic step
maps total mass s to s^2, so any floating-point deviation from the
simplex would otherwise double every generation and overflow within ~60
steps.  The correction is a relative 1e-16 per step and keeps million-step
orbits on the simplex.

``iterate`` and ``find_fixed_point`` consume the blocks of one kernel,
``_orbit``.  It writes a block of steps in place into a preallocated
buffer, measures the block's l1 step sizes in one array call, and stops at
the first one below the tolerance, discarding the steps computed after it.
The next block is sized from the observed contraction rate and grows at
most twofold (it doubles while the steps do not shrink), so short solves
waste few steps and long orbits pay NumPy call overhead once per step
rather than several times.  Each value comes from the same floating-point
operations in the same order as a plain per-step loop (einsum step,
division in place by the pairwise sum, l1 of the difference), so points,
step counts and residuals are bitwise equal to it.  ``iterate`` copies the
rows it records into one array, grown in place (``realloc``) up to its
bound of ``max_iters // stride + 2`` rows and trimmed at the end, so a
recorded orbit is held once; ``find_fixed_point`` keeps only the last row.

An orbit that repeats a row byte for byte is tiled, not stepped.  A step
is a pure function of its row's bytes on every path (the scalar block, the
sparse table and einsum, renormalization included), so once row j equals
row i every later row and step size repeats with period j - i, and the
first period's steps were all checked against the tolerance already.
After each block that does not end the orbit, ``_orbit`` compares the
block's rows with its first, ``buf[0]``, in one call on a view of each row
as one opaque value: Brent's anchor check (R. P. Brent, BIT 20 (1980)
176-184) with the anchor moved to each block's start.  That costs about
4.5 us a block, about 1% of the trait CLI run plus 200 short Rh and ABO
solves, whose orbits never repeat.  On a match it yields the rest of the
budget as that period, tiled from the right phase, with its step sizes
tiled the same way, so points, step counts and residuals stay bitwise
those of stepping.  The bench's million-step cyclic orbit repeats from row
4 with period 3, and ABO from uniform at tol 1e-300 from row 352 with
period 2; each computes fewer than 2,048 steps.  Only periods of at most
one block (``_BLOCK_MAX`` = 1024 steps) whose block starts on the cycle are
found; a longer one is stepped in full, which is exact too.  Bytes tell
-0.0 from 0.0 and one NaN payload from another, so the check can miss a
cycle but never invents one.

Each block is stepped by kernels that the operator's constructor built
and holds (see ``operators``): its scalar block ``q._block``, which writes
a whole block in Python floats, when it has at most 4 types; otherwise, or
where that block declines a zero total, the step of ``operators._stepper``,
which ``reduced_step`` shares: einsum, or for a mostly-zero operator such
as a Mendelian one its table of nonzero coefficients.  All of them give
einsum's bits.  That step divides by a zero total silently, into the inf or
NaN rows that ``run`` prints; ``find_fixed_point`` stops at such a point
(its residual is not finite) with ``DistributionOutsideHyperSimplex``,
before LAPACK sees it.

The Newton polish solves for each step's direction in NumPy and halves the
step until a candidate improves the residual.  One loop, ``_halve``, halves
for every operator in Python floats, imaging through ``q._raw`` where the
operator has one and ``reduced_step`` otherwise, with the operations of
the same loop in NumPy arrays in their order, so with their bits: its sums
(``_sum``) are ``np.add.reduce``'s, a left fold up to 4 terms; NaN fails
the non-negativity test; a candidate NumPy divides into NaN, whose residual
is NaN, is skipped, so ``raw`` sees only finite input; the exit compares
bytes.  So its polished points and residuals equal the array loop's bit
for bit (``tests/test_kernel.py`` keeps that loop as the oracle); its
timing is in ``BENCH_pr27.json`` and CHANGES.md.

A matrix-form step ``(A @ y) @ y`` would be faster for large n, but it
rounds differently by a few ulp, which shows in 12-digit output near a
vertex, so it is not used.

Classification compares the Jacobian spectral radius, restricted to the
simplex tangent space by deflating the all-ones direction, against 1
with a small margin so that exact-identity operators classify as
neutral rather than attracting.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from . import operators
from .errors import (AlphaOutOfRange, DistributionOutsideHyperSimplex, InvalidCoefficients,
                     NoConvergence)
from .genotype import _integer
from .operators import (_DEGENERATE_TOL, _NEWTON_FLOOR, CLASSIFY_MARGIN, ROUNDING_TOL,
                        ReducedDistribution, ReducedQso, _check_types, _frozen, _read_only,
                        _rebuilt, _stepper, reduced_step)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 1_000_000
_NEWTON_STEPS = 60
_NEWTON_HALVINGS = 40  # step lengths t = 1, 1/2, ... each Newton step tries
_BLOCK_MIN = 8        # steps in the first block and the fewest in any block
_BLOCK_MAX = 1024     # most steps in one block


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A recorded orbit.  ``points[r]`` is the iterate at step ``indices[r]``;
    the start and the final iterate are always recorded.

    Both arrays are read-only.  The constructor adopts a read-only array that
    owns its data, as ``iterate`` hands over, and stores a read-only copy of
    anything else (float points, intp indices); pickling and copying go
    through it (``_rebuilt``).
    """

    points: np.ndarray
    indices: np.ndarray
    converged: bool
    iterations: int
    final_residual: float

    __reduce__ = _rebuilt

    def __post_init__(self):
        object.__setattr__(self, "points", _read_only(self.points))
        object.__setattr__(self, "indices", _read_only(self.indices, np.intp))

    @property
    def final(self) -> ReducedDistribution:
        return ReducedDistribution(self.points[-1])


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    point: ReducedDistribution
    residual: float
    iterations: int
    jacobian_spectral_radius: float
    classification: str


@dataclass(frozen=True)
class RegularityReport:
    holds: bool
    margin: float


@dataclass(frozen=True)
class FAlphaAnalysis:
    alpha: float
    fixed_points: tuple[float, float]
    regime: str


@dataclass(frozen=True)
class Quadratic1dAnalysis:
    a: float
    b: float
    c: float
    delta: float
    fixed_points: tuple[float, ...]
    regime: str


def _l1(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.abs(u - v).sum())


def _next_block(size: int, tail: np.ndarray, tol: float) -> int:
    """Steps until the last step size falls below ``tol`` at the rate of the
    last two (``tail``), but at most twice ``size``: rates seen early in an
    orbit can be far slower than the final one.  Twice ``size`` when the
    steps do not shrink; always within [_BLOCK_MIN, _BLOCK_MAX]."""
    prev, last = tail if tail.size == 2 else (0.0, 0.0)
    drop = math.log(prev / last) if 0.0 < last < prev < math.inf else 0.0
    size *= 2
    if drop > 0.0:
        size = min(size, math.ceil((math.log(last) - math.log(tol)) / drop))
    return min(max(size, _BLOCK_MIN), _BLOCK_MAX)


def _orbit(q: ReducedQso, y0: np.ndarray, max_iters: int, tol: float):
    """Renormalized quadratic steps from ``y0`` until the l1 step size drops
    below ``tol`` or ``max_iters`` steps are done.

    Yields ``(rows, steps)`` per block: the block's iterates, a view of a
    buffer that the next block overwrites, and the l1 sizes of the steps that
    reached them.  The last block ends at the first step below ``tol``.

    After a block that leaves budget, its rows are compared by their bytes
    with its first row (Brent's anchor check, see the module docstring).
    If row ``period`` equals it, ``buf[1:period + 1]`` is one period of the
    orbit and ``steps[:period]`` its step sizes, none below ``tol``, and the
    rest of the budget is yielded as those, tiled in slices of whole periods
    of at most ``_BLOCK_MAX`` rows; the slices share one array.  This is
    exact, since a step depends only on its row's bytes.  Periods longer
    than a block are stepped, and -0.0 and NaN payloads compare as bytes, so
    a cycle can be missed but never invented.
    """
    total = np.add.reduce
    block = q._block
    step = _stepper(q)
    buf = np.empty((_BLOCK_MAX + 1, q.n))
    row_bytes = buf.view(np.dtype((np.void, buf.itemsize * q.n)))[:, 0]  # a row as one value
    anchor = row_bytes[:1]  # buf[0]: comparing with a view is faster than with a scalar
    buf[0] = y0
    k = 0
    size = _BLOCK_MIN
    while k < max_iters:
        b = min(size, max_iters - k)
        if block is None or not block(buf, b):
            rows = list(buf[:b + 1])
            # a zero total divides into the inf or NaN row that the orbit keeps
            with np.errstate(divide="ignore", invalid="ignore"):
                for prev, row in zip(rows, rows[1:]):
                    step(prev, row)
                    row /= total(row)
        steps = np.abs(buf[1:b + 1] - buf[:b]).sum(axis=1)
        hit = np.flatnonzero(steps < tol)
        if hit.size:
            b = int(hit[0]) + 1
            yield buf[1:b + 1], steps[:b]
            return
        yield buf[1:b + 1], steps
        k += b
        if k < max_iters:
            same = row_bytes[1:b + 1] == anchor
            period = int(same.argmax()) + 1
            if same[period - 1]:
                # buf[period] is buf[0], so the orbit repeats buf[1:period + 1]
                # from here on, starting b % period rows into it; each slice
                # holds whole periods, so every slice starts there
                turn = np.arange(b, b + _BLOCK_MAX // period * period) % period
                rows, steps = buf[1:period + 1][turn], steps[:period][turn]
                while k < max_iters:
                    b = min(len(turn), max_iters - k)
                    yield rows[:b], steps[:b]
                    k += b
                return
        size = _next_block(size, steps[-2:], tol)
        buf[0] = buf[b]


def _check_solver_args(q: ReducedQso, y0: ReducedDistribution, tol: float, max_iters: int,
                       stride: int = 1) -> None:
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    _integer(max_iters, "max_iters", 0)
    _integer(stride, "stride", 1)
    _check_types(y0.n, q.n, "start")


def iterate(q: ReducedQso, y0: ReducedDistribution, max_iters: int = DEFAULT_MAX_ITERS,
            tol: float = DEFAULT_TOL, stride: int = 1) -> Trajectory:
    """Iterate until the l1 distance between consecutive points drops below
    ``tol`` or the budget runs out.  Non-convergence is a reported state,
    not an error.  ``stride`` subsamples the recorded orbit.
    """
    _check_solver_args(q, y0, tol, max_iters, stride)
    y = y0.values
    bound = max_iters // stride + 2  # the start, every stride-th step, the last
    out = np.empty((min(bound, _BLOCK_MAX + 2), q.n))
    out[0] = y
    r = 1
    k = 0
    for rows, steps in _orbit(q, y, max_iters, tol):
        kept = rows[stride - 1 - k % stride::stride]
        need = r + len(kept) + 1  # room for the last iterate too
        if need > len(out):
            # a realloc, which moves no bytes where the block can grow in place;
            # refcheck=False is safe: no view of ``out`` outlives a statement,
            # it is only written through slice assignment
            out.resize((min(bound, max(need, 2 * len(out))), q.n), refcheck=False)
        out[r:r + len(kept)] = kept
        r += len(kept)
        k += len(rows)
    if k:
        residual = float(steps[-1])
        if k % stride:
            out[r] = rows[-1]  # the last block is never overwritten
            r += 1
        del rows, steps, kept  # the last block: free it before the indices are built
    else:
        residual = _l1(reduced_step(q, y), y)
    out.resize((r, q.n), refcheck=False)
    idx = np.arange(0, k + 1, stride)
    if k % stride:
        idx = np.append(idx, k)
    return Trajectory(_frozen(out), _frozen(idx), k > 0 and residual < tol, k, residual)


def jacobian(q: ReducedQso, y: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the quadratic step: ``J[k, i] = 2 sum_j p[i,j,k] y_j``."""
    _check_types(np.size(y), q.n, "point")
    return 2.0 * operators._einsum("ijk,j->ki", q.p, np.asarray(y, dtype=float))


def tangent_spectral_radius(q: ReducedQso, y: np.ndarray) -> float:
    """Spectral radius of the Jacobian restricted to the simplex tangent
    space ``{v : sum v = 0}`` (invariant under J because every Jacobian
    column sums to 2 on the simplex)."""
    n = q.n
    jac = jacobian(q, y)  # checks y first, for every n
    if n < 2:
        return float("nan")
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    eigs = np.linalg.eigvals(proj @ jac @ proj)
    return float(np.abs(eigs).max())


def _classify(rho: float) -> str:
    if not math.isfinite(rho):
        return "undetermined"
    if rho < 1.0 - CLASSIFY_MARGIN:
        return "attracting"
    if rho > 1.0 + CLASSIFY_MARGIN:
        return "repelling"
    return "neutral"


def _newton_refine(q: ReducedQso, y: np.ndarray,
                   image: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped Newton polish of the residual map y - V(y) within the simplex,
    from ``y`` and its image ``reduced_step(q, y)``.  Returns the polished
    point and its residual ``_l1(reduced_step(q, point), point)``.

    The linear solve is constrained to the tangent space; steps that would
    leave the simplex are halved, and a step that cannot improve the
    residual ends the polish (pure iteration output is then kept).  Each
    point's image is computed once: an accepted candidate keeps the image
    its residual came from, and the next step's right-hand side reuses it.
    """
    n = q.n
    eye = np.eye(n)
    a = np.ones((n + 1, n))  # [I - J; ones], rows 0..n-1 rewritten per step
    rhs = np.zeros(n + 1)    # [y - V(y); 0]
    # a finite residual makes the first system finite; each later point passed
    # _halve, so it lies on the simplex and has a finite image
    best, best_image, best_res = y, image, _finite(_l1(image, y))
    for _ in range(_NEWTON_STEPS):
        np.subtract(best, best_image, out=rhs[:n])
        np.subtract(eye, jacobian(q, best), out=a[:n])
        d, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        found = _halve(q, best, d, best_res)
        if found is None:
            break
        best, best_image, best_res = found
        if best_res < n * _NEWTON_FLOOR:
            break
    return best, best_res


def _halve(q: ReducedQso, best: np.ndarray, d: np.ndarray, best_res: float):
    """``(point, image, residual)`` for the first t = 1, 1/2, ... (``_NEWTON_HALVINGS`` tries)
    at which ``best - t d`` lies in the simplex and, normalized, beats
    ``best_res``.  None if none does, known early once ``best - t d`` is
    ``best`` to the bit: rounding is monotone, so every smaller t does too.
    Python floats, bitwise equal to the same loop in NumPy arrays (see the
    module docstring)."""
    image = q._raw or (lambda *y: reduced_step(q, np.array(y)).tolist())
    point, d, at = best.tolist(), d.tolist(), best.tobytes()
    pack = struct.Struct(f"{len(point)}d").pack
    t = 1.0
    for _ in range(_NEWTON_HALVINGS):
        moved = [b - t * e for b, e in zip(point, d)]
        if all(map((0.0).__le__, moved)):  # NaN fails, as it fails moved.min() >= 0.0
            total = _sum(moved)
            # NumPy divides a zero total, or inf by an inf total, into NaN,
            # whose residual is NaN and never improves; raw needs finite input
            if total and (total < math.inf or math.inf not in moved):
                cand = [m / total for m in moved]
                cand_image = image(*cand)
                res = _sum(list(map(abs, map(sub, cand_image, cand))))
                if res < best_res:
                    return np.array(cand), np.array(cand_image), res
        if pack(*moved) == at:
            return None
        t /= 2.0
    return None


def _sum(values: list) -> float:
    """``np.add.reduce(values)`` to the bit, silent on overflow as the fold
    is.  NumPy adds fewer than 8 values one by one to 0.0; up to 4, that left
    fold is faster in Python."""
    if len(values) <= 4:
        return functools.reduce(add, values, 0.0)
    with np.errstate(over="ignore"):
        return float(np.add.reduce(values))


def _finite(residual: float) -> float:
    """``residual`` if it is finite.  Otherwise the point or its image is not
    (or their difference overflows): the orbit has left the simplex, and LAPACK
    would fail on, or print about, the Jacobian and the Newton system."""
    if not math.isfinite(residual):
        raise DistributionOutsideHyperSimplex(
            f"non-finite residual {residual}: the orbit left the simplex")
    return residual


def find_fixed_point(q: ReducedQso, y0: ReducedDistribution, tol: float = DEFAULT_TOL,
                     max_iters: int = DEFAULT_MAX_ITERS, refine: bool = True) -> FixedPointReport:
    """Locate a fixed point by iteration plus Newton refinement and classify
    its stability.  Raises :class:`NoConvergence` (carrying the partial
    report) if the residual stays above ``tol``.
    """
    _check_solver_args(q, y0, tol, max_iters)
    y = y0.values
    iterations = 0
    image = reduced_step(q, y)
    if _l1(image, y) >= tol:
        for rows, _ in _orbit(q, y, max_iters, tol):
            iterations += len(rows)
            y = rows[-1]
        image = reduced_step(q, y)
    if refine:
        y, residual = _newton_refine(q, y, image)
    else:
        residual = _finite(_l1(image, y))
    rho = tangent_spectral_radius(q, y)
    report = FixedPointReport(
        point=ReducedDistribution(y),
        residual=residual,
        iterations=iterations,
        jacobian_spectral_radius=rho,
        classification=_classify(rho),
    )
    if residual > tol:
        raise NoConvergence(
            f"residual {residual} above tolerance {tol} after {iterations} iterations",
            report=report,
        )
    return report


def regularity_check(q: ReducedQso) -> RegularityReport:
    """Uniform-positivity criterion: every coefficient above 1/(2n)
    guarantees a unique, globally attracting fixed point."""
    threshold = 1.0 / (2.0 * q.n)
    margin = float(q.p.min() - threshold)
    return RegularityReport(holds=margin > 0.0, margin=margin)


def f_alpha(alpha: float, x) -> float | np.ndarray:
    """The one-variable conjugate of the two-type trait operator on [0, 1/2]:
    ``2 (1 - 4 alpha) x^2 + 4 alpha x``."""
    _check_alpha(alpha)
    return 2.0 * (1.0 - 4.0 * alpha) * np.asarray(x) ** 2 + 4.0 * alpha * np.asarray(x)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1/2), got {alpha}")


def analyze_f_alpha(alpha: float) -> FAlphaAnalysis:
    """Closed-form regime of the trait map: identity at alpha = 1/4,
    otherwise interior orbits run to 0 (alpha < 1/4) or 1/2 (alpha > 1/4)."""
    _check_alpha(alpha)
    if alpha == 0.25:
        regime = "identity"
    elif alpha < 0.25:
        regime = "converges to 0"
    else:
        regime = "converges to 1/2"
    return FAlphaAnalysis(alpha=alpha, fixed_points=(0.0, 0.5), regime=regime)


def analyze_quadratic_1d(a: float, b: float, c: float) -> Quadratic1dAnalysis:
    """Closed-form analysis of the two-type operator with first row
    ``(a, 2b, c)``: discriminant ``delta = 4 (1 - a) c + (1 - 2b)^2`` and the
    fixed points in [0, 1] of ``(a - 2b + c) y^2 + (2b - 2c - 1) y + c = 0``.

    ``0 < delta < 4`` certifies a unique attracting fixed point.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not 0.0 <= v <= 1.0:
            raise InvalidCoefficients(f"{name} = {v} outside [0, 1]")
    delta = 4.0 * (1.0 - a) * c + (1.0 - 2.0 * b) ** 2
    qa = a - 2.0 * b + c
    qb = 2.0 * b - 2.0 * c - 1.0
    qc = c
    if max(abs(qa), abs(qb), abs(qc)) < _DEGENERATE_TOL:
        # the whole segment is fixed; report its endpoints
        return Quadratic1dAnalysis(a, b, c, delta, (0.0, 1.0), "identity")
    # a = 1 fixes y = 1 and c = 0 fixes y = 0 exactly, where the formula's
    # roots can round away; listed first, the exact vertex wins a near-tie
    roots = [v for v, fixed in ((1.0, a == 1.0), (0.0, c == 0.0)) if fixed]
    if abs(qa) < _DEGENERATE_TOL:
        if qb:  # a zero slope has no root
            roots.append(-qc / qb)
    else:
        # stable quadratic formula
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            s = math.sqrt(disc)
            r1 = (-qb - math.copysign(s, qb)) / (2.0 * qa)
            roots += [r1, qc / (qa * r1)] if r1 != 0.0 else [0.0, -qb / qa]
    kept = []
    for r in roots:
        if -ROUNDING_TOL <= r <= 1.0 + ROUNDING_TOL:
            r = min(max(r, 0.0), 1.0)
            if all(abs(r - k) > ROUNDING_TOL for k in kept):
                kept.append(r)
    kept.sort()
    if 0.0 < delta < 4.0:
        regime = "unique attracting"
    elif delta == 0.0:
        regime = "degenerate"
    else:
        regime = "outside (0,4)"
    return Quadratic1dAnalysis(a, b, c, delta, tuple(kept), regime)
