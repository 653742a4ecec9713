"""Trajectories, fixed points, and stability for reduced operators.

Iteration renormalizes each iterate to unit mass: the raw quadratic step
maps total mass s to s^2, so any floating-point deviation from the
simplex would otherwise double every generation and overflow within ~60
steps.  The correction is a relative 1e-16 per step and keeps million-step
orbits on the simplex.

``iterate`` and ``find_fixed_point`` share one blocked kernel.  It writes a
block of steps in place into a preallocated buffer, measures the block's
l1 step sizes in one array call, and stops at the first one below the
tolerance, discarding the steps computed after it.  The next block is
sized from the observed contraction rate and grows at most twofold (it
doubles while the steps do not shrink), so short solves waste few steps
and long orbits pay NumPy call overhead once per step rather than several
times.  Each value comes from the same floating-point operations in the
same order as a plain per-step loop (einsum step, division by the
pairwise sum, l1 of the difference), so points, step counts and residuals
are bitwise equal to it.

The step calls NumPy's C einsum routine directly.  ``np.einsum`` with its
default ``optimize=False`` passes its arguments to that same routine
unchanged, so the results are bitwise equal by construction; only the
Python dispatch layer is skipped (about 1 us of the 2.3 us call at n = 3).
The division runs in place on the row.  The kept rows of each block are
copied into one output array, grown in place (``realloc``) up to its bound
of ``max_iters // stride + 2`` rows and trimmed at the end, so a recorded
orbit is held once rather than as blocks plus their concatenation.

A matrix-form step ``(A @ y) @ y`` would be faster still, but it rounds
differently by a few ulp, which shows in 12-digit output near a vertex,
so it is not used.

Classification compares the Jacobian spectral radius, restricted to the
simplex tangent space by deflating the all-ones direction, against 1
with a small margin so that exact-identity operators classify as
neutral rather than attracting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, InvalidCoefficients, NoConvergence
from .operators import (_DEGENERATE_TOL, _NEWTON_FLOOR, CLASSIFY_MARGIN, ROUNDING_TOL,
                        ReducedDistribution, ReducedQso, _c_einsum, reduced_step)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 1_000_000
_NEWTON_STEPS = 60
_BLOCK_MIN = 8        # steps in the first block and the fewest in any block
_BLOCK_MAX = 1024     # most steps in one block


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A recorded orbit.  ``points[r]`` is the iterate at step ``indices[r]``;
    the start and the final iterate are always recorded."""

    points: np.ndarray
    indices: np.ndarray
    converged: bool
    iterations: int
    final_residual: float

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


def _orbit(q: ReducedQso, y0: np.ndarray, residual: float, max_iters: int,
           tol: float, stride: int) -> tuple[np.ndarray, int, float, bool]:
    """Renormalized quadratic steps from ``y0`` until the l1 step size drops
    below ``tol`` or ``max_iters`` steps are done.

    Returns ``(points, k, residual, converged)``: the start, every iterate
    whose step number is a multiple of ``stride`` and the last iterate
    (step ``k``), then the last step size (the given ``residual`` when no
    step is taken).
    """
    p = q.p
    total = np.add.reduce
    buf = np.empty((_BLOCK_MAX + 1, q.n))
    buf[0] = y0
    bound = max_iters // stride + 2  # the start, every stride-th step, the last
    out = np.empty((min(bound, _BLOCK_MAX + 2), q.n))
    out[0] = y0
    r = 1
    k = 0
    converged = False
    size = _BLOCK_MIN
    while k < max_iters and not converged:
        b = min(size, max_iters - k)
        rows = list(buf[:b + 1])
        for prev, row in zip(rows, rows[1:]):
            _c_einsum("ijk,i,j->k", p, prev, prev, out=row)
            row /= total(row)
        steps = np.abs(buf[1:b + 1] - buf[:b]).sum(axis=1)
        hit = np.flatnonzero(steps < tol)
        if hit.size:
            b = int(hit[0]) + 1
            converged = True
        kept = buf[stride - k % stride:b + 1:stride]
        need = r + len(kept) + 1  # room for the last iterate too
        if need > len(out):
            # a realloc, which moves no bytes where the block can grow in place;
            # refcheck=False is safe: no view of ``out`` outlives a statement,
            # it is only written through slice assignment
            out.resize((min(bound, max(need, 2 * len(out))), q.n), refcheck=False)
        out[r:r + len(kept)] = kept
        r += len(kept)
        residual = float(steps[b - 1])
        size = _next_block(size, steps[-2:], tol)
        k += b
        buf[0] = buf[b]
    if k % stride:
        out[r] = buf[0]
        r += 1
    out.resize((r, q.n), refcheck=False)
    return out, k, residual, converged


def iterate(q: ReducedQso, y0: ReducedDistribution, max_iters: int = DEFAULT_MAX_ITERS,
            tol: float = DEFAULT_TOL, stride: int = 1) -> Trajectory:
    """Iterate until the l1 distance between consecutive points drops below
    ``tol`` or the budget runs out.  Non-convergence is a reported state,
    not an error.  ``stride`` subsamples the recorded orbit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if y0.n != q.n:
        raise ValueError(f"start has {y0.n} types, operator expects {q.n}")
    y = y0.values
    pts, k, residual, converged = _orbit(q, y, _l1(reduced_step(q, y), y),
                                         max_iters, tol, stride)
    idx = np.arange(0, k + 1, stride)
    if k % stride:
        idx = np.append(idx, k)
    pts.setflags(write=False)
    idx.setflags(write=False)
    return Trajectory(pts, idx, converged, k, residual)


def jacobian(q: ReducedQso, y: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the quadratic step: ``J[k, i] = 2 sum_j p[i,j,k] y_j``."""
    return 2.0 * _c_einsum("ijk,j->ki", q.p, np.asarray(y, dtype=float))


def tangent_spectral_radius(q: ReducedQso, y: np.ndarray) -> float:
    """Spectral radius of the Jacobian restricted to the simplex tangent
    space ``{v : sum v = 0}`` (invariant under J because every Jacobian
    column sums to 2 on the simplex)."""
    n = q.n
    if n < 2:
        return float("nan")
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    eigs = np.linalg.eigvals(proj @ jacobian(q, y) @ proj)
    return float(np.abs(eigs).max())


def _classify(rho: float) -> str:
    if not math.isfinite(rho):
        return "undetermined"
    if rho < 1.0 - CLASSIFY_MARGIN:
        return "attracting"
    if rho > 1.0 + CLASSIFY_MARGIN:
        return "repelling"
    return "neutral"


def _newton_refine(q: ReducedQso, y: np.ndarray, budget: int = _NEWTON_STEPS) -> np.ndarray:
    """Damped Newton polish of the residual map y - V(y) within the simplex.

    The linear solve is constrained to the tangent space; steps that would
    leave the simplex are halved, and a step that cannot improve the
    residual ends the polish (pure iteration output is then kept).
    """
    n = q.n
    ones_row = np.ones((1, n))
    best = y
    best_res = _l1(reduced_step(q, y), y)
    for _ in range(budget):
        g = best - reduced_step(q, best)
        a = np.vstack([np.eye(n) - jacobian(q, best), ones_row])
        rhs = np.concatenate([g, [0.0]])
        d, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        improved = False
        t = 1.0
        for _ in range(40):
            cand = best - t * d
            if cand.min() >= 0.0:
                cand = cand / cand.sum()
                res = _l1(reduced_step(q, cand), cand)
                if res < best_res:
                    best, best_res = cand, res
                    improved = True
                    break
            t /= 2.0
        if not improved or best_res < n * _NEWTON_FLOOR:
            break
    return best


def find_fixed_point(q: ReducedQso, y0: ReducedDistribution, tol: float = DEFAULT_TOL,
                     max_iters: int = DEFAULT_MAX_ITERS, refine: bool = True) -> FixedPointReport:
    """Locate a fixed point by iteration plus Newton refinement and classify
    its stability.  Raises :class:`NoConvergence` (carrying the partial
    report) if the residual stays above ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if y0.n != q.n:
        raise ValueError(f"start has {y0.n} types, operator expects {q.n}")
    y = y0.values
    iterations = 0
    residual = _l1(reduced_step(q, y), y)
    if residual >= tol:
        # a stride of the whole budget records only the start and the end
        points, iterations, _, _ = _orbit(q, y, residual, max_iters, tol,
                                          stride=max(max_iters, 1))
        y = points[-1]
    if refine:
        y = _newton_refine(q, y)
    residual = _l1(reduced_step(q, y), y)
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
    return 2.0 * (1.0 - 4.0 * alpha) * np.asarray(x) ** 2 + 4.0 * alpha * np.asarray(x)


def analyze_f_alpha(alpha: float) -> FAlphaAnalysis:
    """Closed-form regime of the trait map: identity at alpha = 1/4,
    otherwise interior orbits run to 0 (alpha < 1/4) or 1/2 (alpha > 1/4)."""
    if not 0.0 < alpha < 0.5:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1/2), got {alpha}")
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
    if abs(qa) < _DEGENERATE_TOL:
        roots = [-qc / qb]
    else:
        # stable quadratic formula
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            roots = []
        else:
            s = math.sqrt(disc)
            r1 = (-qb - math.copysign(s, qb)) / (2.0 * qa)
            roots = [r1, qc / (qa * r1)] if r1 != 0.0 else [0.0, -qb / qa]
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
