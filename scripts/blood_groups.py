"""Reproduce the blood-group transmission analyses from the embedded tables.

Builds the Rh and ABO operators, locates their fixed points from a uniform
start, classifies stability, and prints the long-run type distribution.

    python scripts/blood_groups.py [--tol 1e-12]
"""

import argparse

import numpy as np

from qso import ReducedDistribution, abo_model, rh_model
from qso.dynamics import analyze_quadratic_1d, find_fixed_point, regularity_check


def report(q, desc, tol):
    print(f"== {desc.name} (n={desc.n}, types {'/'.join(desc.type_labels)}) ==")
    if q.n == 2:
        a, b, c = float(q.p[0, 0, 0]), float(q.p[0, 1, 0]), float(q.p[1, 1, 0])
        analysis = analyze_quadratic_1d(a, b, c)
        print(f"  first-row coefficients: a={a:.6g}  b={b:.6g}  c={c:.6g}")
        print(f"  discriminant: {analysis.delta:.6g}  ({analysis.regime})")
    reg = regularity_check(q)
    print(f"  uniform-positivity criterion: holds={reg.holds} margin={reg.margin:+.4g}")
    result = find_fixed_point(q, ReducedDistribution.uniform(q.n), tol=tol)
    point = result.point.values
    print(f"  fixed point: {np.array2string(point, precision=6)}")
    print(f"  residual {result.residual:.2e}, spectral radius "
          f"{result.jacobian_spectral_radius:.4f} -> {result.classification}")
    shares = ", ".join(
        f"{label} {100 * v:.1f}%" for label, v in zip(desc.type_labels, point)
    )
    print(f"  long-run shares: {shares}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args()
    if not args.tol > 0:  # NaN too
        parser.error(f"--tol must be positive, got {args.tol}")
    for factory in (rh_model, abo_model):
        q, desc = factory()
        report(q, desc, args.tol)


if __name__ == "__main__":
    main()
