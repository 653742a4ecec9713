"""Certified fixed-point enclosures in exact rational arithmetic.

``enclosure(p, y)`` proves, with the standard library's ``fractions`` alone,
that a true fixed point of an operator lies within ``radius`` of the float
point ``y`` (in the max norm), or fails to when ``y`` is too far from one.

**The map certified** is the renormalized step that ``iterate`` and
``find_fixed_point`` apply, ``T(y) = V(y) / S(y)``, where
``V(y)_k = sum_ij p[i, j, k] y_i y_j`` with the float coefficients taken
exactly and ``S(y) = sum_k V(y)_k``.  Rounded rows of ``p`` sum to 1 only up
to rounding, so ``V`` itself moves mass off the simplex; a zero of the first
n - 1 coordinates of ``V - I`` is a fixed point of neither map.  ``T`` maps
the simplex into itself exactly.

**The system.**  On ``sum y = 1`` with ``S(y) != 0``, ``T(y) = y`` holds if
and only if ``V(y) = lam y`` with ``lam = S(y)``.  So the fixed points are
the zeros of the bordered map of ``z = (y, lam)`` in R^(n+1)::

    F(z) = (V(y) - lam y,  sum_k y_k - 1)

(summing its first n entries gives ``S(y) - lam``, so a zero has
``lam = S(y)``).  The unknown ``lam`` keeps ``F`` quadratic, where
``V(y) / S(y) - y`` is not, and the constraint row replaces tangent
coordinates, so the radius is measured in the reported coordinates.

**The constant.**  ``F`` is quadratic, so ``F'`` is affine::

    F'(z)(a, alpha) = (V'(y) a - lam a - alpha y,  sum_k a_k)
    V'(y)[k, i]     = sum_j (p[i, j, k] + p[j, i, k]) y_j

and ``F'(z) - F'(z') = F''[z - z']`` with, for ``d = (e, delta)``, the matrix
``F''[d]`` whose row k < n has entries ``sum_i (p[i,j,k] + p[j,i,k]) e_i``
in column j, less ``delta`` in column k, and ``-e_k`` in the last column;
its last row is zero.  The absolute sum of row k is at most
``2 sum_ij |p[i,j,k]| |e|_inf + |delta| + |e_k|``, so in the max norm
``F'`` is Lipschitz on all of R^(n+1) with constant::

    gamma = 2 max_k sum_ij |p[i, j, k]| + 2

**The theorem** (Kantorovich; Ortega and Rheinboldt, *Iterative Solution
of Nonlinear Equations in Several Variables*, 1970, section 12.6).  At
``z0 = (y, S(y))`` let ``beta = |F'(z0)^-1|_inf`` and
``eta = |F'(z0)^-1 F(z0)|_inf``.  If ``h = beta gamma eta <= 1/2``, ``F``
has a zero ``z*`` with ``|z* - z0|_inf <= 2 eta / (1 + sqrt(1 - 2h))
<= 2 eta``.  Here ``beta``, ``eta`` and ``gamma`` are exact rationals, so
the certified radius is ``2 eta``, and it bounds ``|y* - y|_inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Enclosure:
    h: Fraction       # beta * gamma * eta: a fixed point is proved when <= 1/2
    radius: Fraction  # 2 * eta: the proved fixed point is this close to y

    @property
    def proved(self) -> bool:
        return self.h <= Fraction(1, 2)


def enclosure(p, y) -> Enclosure:
    """The Kantorovich enclosure of a fixed point of the renormalized step
    of the operator with coefficients ``p`` (n x n x n) around ``y``."""
    n = len(y)
    r = range(n)
    c = [[[Fraction(float(p[i][j][k])) for k in r] for j in r] for i in r]
    y = [Fraction(float(v)) for v in y]
    image = [sum(c[i][j][k] * y[i] * y[j] for i in r for j in r) for k in r]
    lam = sum(image)
    residual = [image[k] - lam * y[k] for k in r] + [sum(y) - 1]
    jacobian = [[sum((c[i][j][k] + c[j][i][k]) * y[j] for j in r) - (lam if i == k else 0)
                 for i in r] + [-y[k]] for k in r]
    jacobian.append([Fraction(1)] * n + [Fraction(0)])
    inverse = _inverse(jacobian)
    beta = max(sum(abs(v) for v in row) for row in inverse)
    eta = max(abs(sum(a * b for a, b in zip(row, residual))) for row in inverse)
    gamma = 2 * max(sum(abs(c[i][j][k]) for i in r for j in r) for k in r) + 2
    return Enclosure(beta * gamma * eta, 2 * eta)


def _inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse in exact arithmetic; ValueError if singular."""
    m = len(matrix)
    rows = [row[:] + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next((i for i in range(col, m) if rows[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular Jacobian: no enclosure")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [row[m:] for row in rows]
