"""Command-line front end.

Subcommands: ``run`` (iterate a model and emit the trajectory), ``fixpoint``
(locate and classify a fixed point), ``validate`` (check a measure-family
file), ``ingest`` (estimate measures from raw counts).

Exit codes: 0 success/converged, 2 completed without convergence (or with
validation findings), 1 error.  All numbers are printed with 12 significant
digits; identical invocations produce byte-identical output.

Random starts (``--start random`` or ``random:SEED``) draw from PCG64
seeded with the given integer: n uniforms in (0, 1] are mapped through
``-log(u)`` and normalized, giving a uniform point on the simplex.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dynamics, models, operators
from .errors import NoConvergence, QsoError
from .ingest import (
    estimate_measures,
    load_counts,
    load_measure_family,
    read_measure_family,
    save_measure_family,
)
from .operators import ReducedDistribution, ReducedQso, ValidationReport, _check_types

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output;
    NaN and infinities, which JSON cannot express, become ``None``."""
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(obj, out) -> None:
    json.dump(_round12(obj), out, indent=2, allow_nan=False)
    out.write("\n")


def random_simplex_point(n: int, seed: int) -> np.ndarray:
    """Uniform point on the (n-1)-simplex via exponential spacings (PCG64)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(n)
    e = -np.log(1.0 - u)  # u in [0, 1) so 1 - u in (0, 1]
    return e / e.sum()


def _parse_start(text: str, n: int, seed: int) -> ReducedDistribution:
    if text == "uniform":
        return ReducedDistribution.uniform(n)
    if text == "random" or text.startswith("random:"):
        if ":" in text:
            try:
                seed = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad seed in start spec {text!r}")
        if seed < 0:  # PCG64 would raise without naming it
            raise ValueError(f"seed must be non-negative, got {seed}")
        return ReducedDistribution(random_simplex_point(n, seed))
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse start {text!r}")
    _check_types(len(values), n, "start")
    return ReducedDistribution(np.asarray(values))


def _build_model(args) -> ReducedQso:
    if (args.model is None) == (args.coeff_file is None):
        raise ValueError("provide exactly one model source: --model or --coeff-file")
    if args.coeff_file is not None:
        return models.table_operator(load_measure_family(args.coeff_file))
    alphas = None
    if args.alphas is not None:
        alphas = [float(part) for part in args.alphas.split(",")]
    return models.from_name(args.model, alpha=args.alpha, alphas=alphas)[0]


def _cmd_run(args, out) -> int:
    q = _build_model(args)
    y0 = _parse_start(args.start, q.n, args.seed)
    traj = dynamics.iterate(q, y0, max_iters=args.max_iters, tol=args.tol,
                            stride=args.stride)
    if args.format == "csv":
        out.write(_csv(traj))
    else:
        _emit_json(
            {
                "points": traj.points.tolist(),
                "indices": traj.indices.tolist(),
                "converged": traj.converged,
                "iterations": traj.iterations,
                "final_residual": traj.final_residual,
            },
            out,
        )
    return EXIT_OK if traj.converged else EXIT_NOT_CONVERGED


def _csv(traj: dynamics.Trajectory) -> str:
    """The ``run`` CSV: a header ``iter,y1,...,yn``, then each recorded
    point as ``%d`` and ``n`` times ``%.12g``, formatted in one ``%``
    operation over one flat list of the indices, as ints, and the points."""
    rows, n = traj.points.shape
    flat = [None] * (rows * (n + 1))
    flat[::n + 1] = traj.indices.tolist()
    for k, column in enumerate(traj.points.T.tolist(), 1):
        flat[k::n + 1] = column
    line = "%d" + ",%.12g" * n + "\n"
    return ("iter," + ",".join(f"y{k + 1}" for k in range(n)) + "\n"
            + (line * rows) % tuple(flat))


def _fixpoint_payload(q: ReducedQso, report: dynamics.FixedPointReport) -> dict:
    payload = {
        "point": [float(v) for v in report.point.values],
        "residual": report.residual,
        "iterations": report.iterations,
        "jacobian_spectral_radius": report.jacobian_spectral_radius,
        "classification": report.classification,
    }
    if q.n == 2:
        analysis = dynamics.analyze_quadratic_1d(
            float(q.p[0, 0, 0]), float(q.p[0, 1, 0]), float(q.p[1, 1, 0])
        )
        payload["delta"] = analysis.delta
        payload["closed_form_fixed_points"] = list(analysis.fixed_points)
    reg = dynamics.regularity_check(q)
    payload["regularity"] = {"holds": reg.holds, "margin": reg.margin}
    return payload


def _cmd_fixpoint(args, out) -> int:
    q = _build_model(args)
    y0 = _parse_start(args.start, q.n, args.seed)
    try:
        report = dynamics.find_fixed_point(q, y0, tol=args.tol, max_iters=args.max_iters)
    except NoConvergence as exc:
        _emit_json(_fixpoint_payload(q, exc.report), out)
        return EXIT_NOT_CONVERGED
    _emit_json(_fixpoint_payload(q, report), out)
    return EXIT_OK


def _cmd_validate(args, out) -> int:
    family = read_measure_family(args.path)
    report = ValidationReport(tuple(family.validate(args.tol)), args.tol)
    out.write(str(report) + "\n")
    return EXIT_OK if report.ok else EXIT_NOT_CONVERGED


def _cmd_ingest(args, out) -> int:
    counts = load_counts(args.counts_path)
    family = estimate_measures(counts.space, counts, symmetrize=args.symmetrize)
    save_measure_family(family, args.out_path)
    out.write(f"wrote {args.out_path}\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1, keeping the
    documented contract (2 is reserved for non-convergence)."""

    def error(self, message):
        raise ValueError(message)


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=models.MODEL_NAMES,
                        help="built-in model name")
    parser.add_argument("--coeff-file", metavar="PATH",
                        help="measure-family CSV defining the operator "
                             "(rows are renormalized before use)")
    parser.add_argument("--alpha", type=float, help="trait weight for --model trait")
    parser.add_argument("--alphas", metavar="A1,A2,...",
                        help="comma-separated weights for --model multi")
    parser.add_argument("--start", default="uniform",
                        help="'uniform', 'random', 'random:SEED', or y1,y2,...")
    parser.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL,
                        help=f"l1 convergence tolerance (default {dynamics.DEFAULT_TOL:g})")
    parser.add_argument("--max-iters", type=int, default=dynamics.DEFAULT_MAX_ITERS,
                        help=f"iteration budget (default {dynamics.DEFAULT_MAX_ITERS})")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --start random (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qso",
        description="Quadratic stochastic operators: trajectories, fixed points, "
                    "validation, and frequency-table ingestion.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="iterate a model and print the trajectory")
    _add_model_options(p_run)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--stride", type=int, default=1,
                       help="record every Nth point (default 1)")
    p_run.set_defaults(func=_cmd_run)

    p_fix = sub.add_parser("fixpoint", help="find and classify a fixed point (JSON)")
    _add_model_options(p_fix)
    p_fix.set_defaults(func=_cmd_fixpoint)

    p_val = sub.add_parser("validate", help="check a measure-family CSV")
    p_val.add_argument("path")
    # the help keeps its spelling: f"{TABLE_TOL:g}" would print 0.001, not 1e-3
    p_val.add_argument("--tol", type=float, default=operators.TABLE_TOL,
                       help="violation tolerance (default 1e-3)")
    p_val.set_defaults(func=_cmd_validate)

    p_ing = sub.add_parser("ingest", help="estimate measures from a counts CSV")
    p_ing.add_argument("counts_path")
    p_ing.add_argument("out_path")
    p_ing.add_argument("--symmetrize", action="store_true",
                       help="pool female/male child counts per trait")
    p_ing.set_defaults(func=_cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, sys.stdout)
    except (QsoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
