"""The three benchmark workloads.

Each workload builds its inputs from the seed (inputs go to the run's own
work directory, never into ``src/qso/data``), runs one closed-loop pass at
a time (each operation starts when the previous one returns), and checks
every output against what a correct program guarantees, using the
benchmark's own arithmetic rather than the program's.

``setup(qso, small)`` builds what every pass reuses.  The harness runs it
in fresh interpreters to measure ``setup_s`` and once in-process.  A
``small`` instance of each workload serves as the untimed warm-up pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from pathlib import Path

import numpy as np

ORBIT_STEPS = 1_000_000
ORBIT_SOLVES = 200
TRAIT_ALPHA = "0.2499"
MENDELIAN_COMPONENTS = (6, 7)        # m = 64, 128 trait combinations
MENDELIAN_SLOW_RATE = 0.8
MENDELIAN_NOISE = 0.02
INGEST_ALLELES = (6, 6)              # m = 36
INGEST_OMIT = 0.1
SIMPLEX_TOL = 1e-9
RESIDUAL_TOL = 1e-12


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def random_simplex(gen: np.random.Generator, n: int) -> np.ndarray:
    e = -np.log(1.0 - gen.random(n))
    return e / e.sum()


def own_residual(p: np.ndarray, y: np.ndarray) -> float:
    """l1 distance between y and one raw quadratic step from y."""
    return float(np.abs(np.einsum("ijk,i,j->k", p, y, y) - y).sum())


def point_digest(points) -> str:
    """SHA-256 of fixed points rounded to 9 decimals (informational)."""
    text = ";".join(",".join(f"{v:.9f}" for v in point) for point in points)
    return hashlib.sha256(text.encode()).hexdigest()


def on_simplex(rows: np.ndarray) -> str | None:
    gap = float(np.abs(rows.sum(axis=1) - 1.0).max())
    low = float(rows.min())
    if gap > SIMPLEX_TOL or low < -SIMPLEX_TOL:
        return f"left the simplex: mass gap {gap:.3g}, minimum {low:.3g}"
    return None


class Pass:
    """The operations of one pass.

    Checks are deferred until the pass has been timed; an operation that
    raises counts as failed and its check is skipped.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.intervals: list[tuple[str, float, float, int | None]] = []
        self._checks = []

    def op(self, name: str, fn, check=None, steps=False):
        """Run and time one call; record its iterations when ``steps``."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = f"{tracer.phase}:{self.attempted}:{name}"
        span = contextlib.nullcontext() if tracer is None else tracer.span("bench." + name)
        start = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception:
            self.failed += 1
            self.problems.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        end = time.perf_counter()
        self.intervals.append((name, start, end, result.iterations if steps else None))
        if check is not None:
            self._checks.append((name, check, result))
        return result

    def verify(self) -> None:
        for name, check, result in self._checks:
            try:
                problem = check(result)
            except Exception:
                problem = traceback.format_exc(limit=3)
            if problem:
                self.failed += 1
                self.problems.append(f"{name}: {problem}")
        self._checks.clear()


# --- orbit-small ---------------------------------------------------------------

def cyclic_shift(qso):
    """The test suite's 3-type cyclic-shift operator: orbits off the centre
    cycle forever."""
    n = 3
    p = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            p[i, j, (i + 1) % n] += 0.5
            p[i, j, (j + 1) % n] += 0.5
    return qso.ReducedQso(n, p)


def read_table(path: Path) -> np.ndarray:
    """The benchmark's own reader for a two-allele measure table:
    ``mu[mother, father, child trait]`` for female children."""
    labels = {"+": 0, "-": 1}
    mu = np.zeros((2, 2, 2))
    with open(path, encoding="utf-8") as handle:
        rows = [line for line in handle if line.strip() and not line.startswith("#")]
    for row in csv.DictReader(rows):
        if row["child_gender"] == "f":
            mu[labels[row["mother"]], labels[row["father"]], labels[row["child_type"]]] = (
                float(row["value"]))
    return mu


def quadratic_fixed_point(mu: np.ndarray) -> float:
    """Fixed point y1 in [0, 1] of the two-type operator reduced from ``mu``.

    Rows are renormalized; the reduced coefficient is
    ``p[i,j,0] = mu_f[i,j,0] + mu_f[j,i,0]`` and the fixed point solves
    ``(a - 2b + c) y^2 + (2b - 2c - 1) y + c = 0``.
    """
    mu = mu / (2.0 * mu.sum(axis=2, keepdims=True))
    a = 2.0 * mu[0, 0, 0]
    b = mu[0, 1, 0] + mu[1, 0, 0]
    c = 2.0 * mu[1, 1, 0]
    qa, qb, qc = a - 2.0 * b + c, 2.0 * b - 2.0 * c - 1.0, c
    s = math.sqrt(qb * qb - 4.0 * qa * qc)
    r1 = (-qb - math.copysign(s, qb)) / (2.0 * qa)
    roots = [r for r in (r1, qc / (qa * r1)) if 0.0 <= r <= 1.0]
    if len(roots) != 1:
        raise ValueError(f"expected one root in [0, 1], got {roots}")
    return roots[0]


class OrbitSmall:
    """(a) a million-step cyclic orbit, (b) the trait CLI run near
    alpha = 1/4, (c) short Rh/ABO solves from random starts."""

    name = "orbit-small"

    @staticmethod
    def setup(qso, small: bool = False) -> dict:
        rh, _ = qso.rh_model()
        abo, _ = qso.abo_model()
        return {"rh": rh, "abo": abo, "cyclic": cyclic_shift(qso)}

    def __init__(self, qso, state: dict, seed: int, workdir: Path, small: bool = False):
        self.qso = qso
        self.state = state
        self.steps = 2_000 if small else ORBIT_STEPS
        self.alpha = "0.1" if small else TRAIT_ALPHA
        solves = 4 if small else ORBIT_SOLVES
        gen = generator(seed, 1)
        self.starts = [random_simplex(gen, 2 if k % 2 == 0 else 4) for k in range(solves)]
        table = Path(qso.__file__).parent / "data" / "rh.csv"
        self.rh_root = quadratic_fixed_point(read_table(table))
        self.abo_point = None
        self.info = {}

    def run_pass(self, p: Pass) -> None:
        qso = self.qso
        start = qso.ReducedDistribution([0.5, 0.3, 0.2])
        p.op("cyclic_orbit",
             lambda: qso.dynamics.iterate(self.state["cyclic"], start,
                                          max_iters=self.steps, tol=1e-300, stride=1),
             self._check_orbit, steps=True)
        result = p.op("trait_cli", self._cli, self._check_cli)
        if p.tracer is not None and result is not None:
            p.tracer.count("cli.bytes_out", len(result[1].encode()))
        for k, y0 in enumerate(self.starts):
            q = self.state["rh" if k % 2 == 0 else "abo"]
            check = self._check_rh if k % 2 == 0 else self._check_abo
            p.op("short_solve",
                 lambda: qso.dynamics.find_fixed_point(q, qso.ReducedDistribution(y0)),
                 check, steps=True)

    def _cli(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.qso.cli.main(["run", "--model", "trait", "--alpha", self.alpha])
        return code, out.getvalue()

    def _check_orbit(self, traj) -> str | None:
        if traj.iterations != self.steps or traj.converged:
            return f"{traj.iterations} iterations, converged={traj.converged}"
        if len(traj.points) != self.steps + 1:
            return f"{len(traj.points)} recorded points at stride 1"
        return on_simplex(traj.points)

    def _check_cli(self, result) -> str | None:
        code, text = result
        self.info["cli_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        self.info["cli_bytes"] = len(text.encode())
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        rows = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        self.info["trait_steps"] = int(lines[-1].split(",", 1)[0])
        # the CLI stops on the step size (about 2 * |last change of y1|);
        # the true l1 distance from the vertex is recorded next to it
        self.info["trait_last_step_l1"] = float(2.0 * abs(rows[-1, 0] - rows[-2, 0]))
        final_error = float(abs(rows[-1, 0]) + abs(rows[-1, 1] - 1.0))
        self.info["dynamics.trait_final_error"] = final_error
        if final_error > 1e-6:
            return f"final row {rows[-1]} is {final_error:.3g} from [0, 1]"
        return on_simplex(rows)

    def _check_solve(self, q, report) -> str | None:
        y = report.point.values
        residual = own_residual(q.p, y)
        if residual > RESIDUAL_TOL:
            return f"residual {residual:.3g}"
        return on_simplex(y[None, :])

    def _check_rh(self, report) -> str | None:
        self.info["rh_point_sha256"] = point_digest([report.point.values])
        gap = abs(report.point.values[0] - self.rh_root)
        if gap > 1e-12:
            return f"Rh point {report.point.values[0]!r} is {gap:.3g} from the quadratic root"
        return self._check_solve(self.state["rh"], report)

    def _check_abo(self, report) -> str | None:
        y = report.point.values
        if self.abo_point is None:
            self.abo_point = y
            self.info["abo_point_sha256"] = point_digest([y])
        gap = float(np.abs(y - self.abo_point).max())
        if gap > 1e-9:
            return f"ABO solves disagree by {gap:.3g}"
        return self._check_solve(self.state["abo"], report)


# --- mendelian-wide ------------------------------------------------------------

def mendelian_base_weights(gen: np.random.Generator, components: int) -> np.ndarray:
    """Female half of a gender-symmetric, strictly positive base measure
    over ``components`` biallelic components.

    A product of per-component allele weights, times 2% log-normal noise so
    that the measure is not a product.  Orbits from uniform fixate one
    allele per component.  One randomly chosen component fixates at
    contraction rate 0.8 and the others at 0.3 to 0.6, so every seed needs
    about 120 iterations; unstructured random measures need 100 to 12,000,
    which would make the pass time a property of the seed.
    """
    rates = gen.uniform(0.3, 0.6, components)
    rates[gen.integers(components)] = MENDELIAN_SLOW_RATE
    weights = np.ones(1)
    for rate, flip in zip(rates, gen.random(components) < 0.5):
        pair = np.array([rate / 4.0, 0.5 - rate / 4.0])
        weights = np.outer(weights, pair[::-1] if flip else pair).ravel()
    weights *= np.exp(MENDELIAN_NOISE * gen.standard_normal(weights.size))
    return weights / (2.0 * weights.sum())


class MendelianWide:
    """Per-component inheritance on 6 then 7 biallelic components:
    construct, validate, reduce, solve from uniform."""

    name = "mendelian-wide"

    @staticmethod
    def setup(qso, small: bool = False) -> dict:
        sizes = (2, 3) if small else MENDELIAN_COMPONENTS
        return {k: qso.build_space([("A", "a")] * k) for k in sizes}

    def __init__(self, qso, state: dict, seed: int, workdir: Path, small: bool = False):
        self.qso = qso
        self.spaces = state
        gen = generator(seed, 2)
        self.bases = {}
        for k, space in state.items():
            w = mendelian_base_weights(gen, k)
            self.bases[k] = qso.Distribution(space, np.concatenate([w, w]))
        self.info = {"iterations": {}, "points_sha256": None}
        self._points = {}

    def run_pass(self, p: Pass) -> None:
        qso = self.qso
        for k, space in self.spaces.items():
            base = self.bases[k]
            tensor = p.op("construct",
                          lambda: qso.operators.mendelian_coefficients(space, base))
            p.op("validate_pq", lambda: qso.operators.validate_pq(tensor), _check_valid)
            q = p.op("reduce", lambda: qso.operators.reduce(tensor))
            p.op("solve",
                 lambda: qso.dynamics.find_fixed_point(q, qso.ReducedDistribution.uniform(q.n)),
                 self._solve_check(k, q), steps=True)

    def _solve_check(self, k, q):
        def check(report):
            self.info["iterations"][f"m={q.n}"] = report.iterations
            self._points[k] = report.point.values
            self.info["points_sha256"] = point_digest(
                [self._points[key] for key in sorted(self._points)])
            residual = own_residual(q.p, report.point.values)
            if residual > RESIDUAL_TOL:
                return f"m={q.n}: residual {residual:.3g}"
            return None
        return check


def _check_valid(report) -> str | None:
    if not report.ok:
        return f"{len(report.violations)} p:q violations, first: {report.violations[0]}"
    return None


# --- ingest-pipeline -----------------------------------------------------------

def write_counts(path: Path, gen: np.random.Generator, alleles) -> tuple[np.ndarray, int]:
    """Write a seeded counts CSV over two components; return the full count
    tensor ``counts[mother, father, child genotype]`` and the rows written.

    About ``INGEST_OMIT`` of the cells are left out of the file and so are
    implicit zeros; the first child of every pair is always written.
    """
    comps = [[chr(ord("a") + k) for k in range(alleles[0])],
             [chr(ord("A") + k) for k in range(alleles[1])]]
    labels = [f"{x}|{y}" for x in comps[0] for y in comps[1]]
    m = len(labels)
    counts = gen.integers(1, 40, size=(m, m, 2 * m))
    omit = gen.random(counts.shape) < INGEST_OMIT
    omit[:, :, 0] = False
    counts[omit] = 0
    lines = [f"# space: {','.join(comps[0])};{','.join(comps[1])}",
             "mother,father,child_gender,child_type,count"]
    for i in range(m):
        for j in range(m):
            for s in np.flatnonzero(~omit[i, j]):
                gender = "f" if s < m else "m"
                lines.append(f"{labels[i]},{labels[j]},{gender},{labels[s % m]},{counts[i, j, s]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return counts, len(lines) - 2


def pooled_frequencies(counts: np.ndarray) -> np.ndarray:
    """Per-pair child frequencies with female/male pooled and split evenly."""
    m = counts.shape[0]
    mu = counts / counts.sum(axis=2, keepdims=True)
    pooled = 0.5 * (mu[:, :, :m] + mu[:, :, m:])
    return np.concatenate([pooled, pooled], axis=2)


class IngestPipeline:
    """Counts CSV to fixed point: parse, estimate, save, reload, construct,
    validate, reduce, solve from uniform."""

    name = "ingest-pipeline"

    @staticmethod
    def setup(qso, small: bool = False) -> dict:
        return {}

    def __init__(self, qso, state: dict, seed: int, workdir: Path, small: bool = False):
        self.qso = qso
        self.counts_path = workdir / "counts.csv"
        self.family_path = workdir / "family.csv"
        counts, self.rows = write_counts(self.counts_path, generator(seed, 3),
                                         (3, 2) if small else INGEST_ALLELES)
        self.expected = pooled_frequencies(counts)
        self.info = {"rows": self.rows, "counts_bytes": self.counts_path.stat().st_size}

    def run_pass(self, p: Pass) -> None:
        qso = self.qso
        table = p.op("load_counts", lambda: qso.ingest.load_counts(self.counts_path),
                     self._check_rows)
        family = p.op("estimate",
                      lambda: qso.ingest.estimate_measures(table.space, table, symmetrize=True),
                      self._check_estimate)
        p.op("save", lambda: qso.ingest.save_measure_family(family, self.family_path))
        p.op("load_family", lambda: qso.ingest.load_measure_family(self.family_path),
             lambda loaded: _check_round_trip(family, loaded))
        tensor = p.op("construct", lambda: qso.operators.nonmendelian_coefficients(
            family.space, family.renormalized()))
        p.op("validate_pq", lambda: qso.operators.validate_pq(tensor), _check_valid)
        q = p.op("reduce", lambda: qso.operators.reduce(tensor))
        p.op("solve",
             lambda: qso.dynamics.find_fixed_point(q, qso.ReducedDistribution.uniform(q.n)),
             lambda report: self._check_solve(q, report), steps=True)

    def _check_rows(self, table) -> str | None:
        if len(table.rows) != self.rows:
            return f"{len(table.rows)} rows parsed, {self.rows} written"
        return None

    def _check_estimate(self, family) -> str | None:
        gap = float(np.abs(family.mu - self.expected).max())
        if gap > 1e-12:
            return f"estimate differs from pooled frequencies by {gap:.3g}"
        return None

    def _check_solve(self, q, report) -> str | None:
        y = report.point.values
        self.info["iterations"] = report.iterations
        self.info["point_sha256"] = point_digest([y])
        residual = own_residual(q.p, y)
        if residual > RESIDUAL_TOL:
            return f"residual {residual:.3g}"
        return None


def _check_round_trip(saved, loaded) -> str | None:
    if not np.array_equal(saved.mu, loaded.mu):
        return "reloaded family differs from the saved estimate"
    return None


WORKLOADS = {w.name: w for w in (OrbitSmall, MendelianWide, IngestPipeline)}
