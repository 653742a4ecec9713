"""Sweep the trait weight alpha and tabulate the observed dynamics.

For each alpha, iterates the two-type trait operator from several random
interior starts, reports the limit, and checks the closed-form regime and
the conjugacy with the quadratic map u -> 2(1-4a)u^2 + 4au.

    python scripts/trait_sweep.py [--alphas 0.05,0.1,...] [--starts 5]
"""

import argparse

import numpy as np

from qso import ReducedDistribution, apply_reduced, mendelian_trait
from qso.dynamics import analyze_f_alpha, f_alpha, iterate


def conjugacy_gap(q, alpha, samples=41):
    worst = 0.0
    for u in np.linspace(0.0, 0.5, samples):
        out = apply_reduced(q, ReducedDistribution([2 * u, 1 - 2 * u]))
        worst = max(worst, abs(out.values[0] / 2 - f_alpha(alpha, u)))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", default="0.05,0.1,0.2,0.25,0.3,0.4,0.45")
    parser.add_argument("--starts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.starts < 1:
        parser.error("--starts must be at least 1")
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
    except ValueError:
        parser.error(f"--alphas must be comma-separated numbers, got {args.alphas!r}")
    for alpha in alphas:
        if not 0.0 < alpha < 0.5:
            parser.error(f"each alpha must lie in (0, 1/2), got {alpha}")
    gen = np.random.Generator(np.random.PCG64(args.seed))
    print(f"{'alpha':>6}  {'regime':<16} {'observed limit':<22} "
          f"{'iters':>6}  conjugacy")
    for alpha in alphas:
        q = mendelian_trait(alpha)
        regime = analyze_f_alpha(alpha).regime
        limits, iters = [], 0
        for _ in range(args.starts):
            y0 = gen.dirichlet(np.ones(2))
            traj = iterate(q, ReducedDistribution(y0), stride=10**6)
            limits.append(traj.points[-1])
            iters = max(iters, traj.iterations)
        if regime == "identity":
            limit = "each start is fixed"
        else:
            spread = max(np.abs(a - b).max() for a in limits for b in limits)
            assert spread < 1e-8, "starts disagree"
            limit = np.array2string(limits[0], precision=4)
        print(f"{alpha:6.2f}  {regime:<16} {limit:<22} {iters:>6}  "
              f"{conjugacy_gap(q, alpha):.1e}")


if __name__ == "__main__":
    main()
