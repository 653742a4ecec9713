"""Benchmark of the checkout's ``src/qso``.

    python3 bench/run.py --workload orbit-small --seed 1304 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Runs one workload (or, with ``all``, each workload in its own process) for
about ``--seconds`` seconds of closed-loop passes, checks every output and
prints a report.  The last line of a single-workload run is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json;
with ``--trace 1`` they are the ``per_layer`` list, taken from traced
passes that alternate with untraced ones.  Times are scaled to the
reference machine speed (see speed.py); the report also prints the raw
wall times.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BENCH_OUT = BENCH_DIR / "_out"
DEFAULT_SEED = 1304
SETUP_PROBES = 9
# functions that only run while the workload sets up; their per-layer
# numbers come from the traced in-process set-up, all others are per pass
SETUP_METRICS = ("models.rh_model.s", "models.abo_model.s")
COUNT_METRICS = ("dynamics.steps", "dynamics.kernel_bytes_computed", "operators.pairs",
                 "ingest.rows", "ingest.bytes_read", "ingest.bytes_written", "cli.bytes_out")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_to_one_cpu() -> int:
    """Run on one CPU with one BLAS/OpenMP thread; must happen before NumPy
    is imported.  The timed code then never migrates between CPUs of
    different speed, and the speed meter always probes the CPU it uses."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return cpu


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    if len(ordered) - 1 - rank < 10:
        return None
    return ordered[rank]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qso").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def environment(np, cpu: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "cpu": cpu,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh interpreters that import qso and
    build what the timed loop reuses.  Each interpreter runs its own speed
    meter and prints the probe times; an untimed first one fills the
    bytecode cache."""
    from speed import scale

    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import speed; meter = speed.SpeedMeter().__enter__(); "
            f"import qso, workloads; workloads.WORKLOADS[{name!r}].setup(qso); "
            "meter.__exit__(); print(meter.durations)")
    command = [sys.executable, "-c", code]
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run(command, check=True, cwd=ROOT, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        probes = json.loads(out.stdout)
        raw.append(seconds)
        scaled.append(scale(seconds - sum(probes), probes))
    return scaled, raw


def run_all(args) -> int:
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


class Run:
    """One workload's timed loop: a warm-up pass, then passes until about
    ``seconds`` have passed, alternating untraced and traced passes when
    tracing."""

    def __init__(self, workloads, cls, qso, seed: int, workdir: Path, tracer, meter):
        self.workloads = workloads
        self.tracer = tracer
        self.meter = meter
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.untraced: list[tuple[float, float, object]] = []   # (raw s, scaled s, Pass)
        self.traced: list[tuple[float, float, object]] = []
        if tracer:
            tracer.install()
        state = cls.setup(qso)
        if tracer:
            tracer.uninstall()
        self.workload = cls(qso, state, seed, workdir)
        (workdir / "warmup").mkdir()
        self.warm = cls(qso, cls.setup(qso, small=True), seed, workdir / "warmup", small=True)

    def _pass(self, instance, phase=None) -> tuple[float, float, object]:
        tracer = self.tracer if phase is not None else None
        p = self.workloads.Pass(tracer)
        if tracer:
            tracer.phase = phase
            tracer.op = f"{phase}:pass"
            tracer.install()
            with tracer.span("bench.pass"):
                start = time.perf_counter()
                instance.run_pass(p)
                end = time.perf_counter()
            tracer.uninstall()
        else:
            start = time.perf_counter()
            instance.run_pass(p)
            end = time.perf_counter()
        p.verify()
        self.attempted += p.attempted
        self.failed += p.failed
        self.problems += p.problems
        return end - start, self.meter.scaled(start, end), p

    def run(self, seconds: int, trace: bool) -> None:
        self._pass(self.warm)
        planned = None
        while True:
            phase = len(self.traced) if trace and len(self.untraced) > len(self.traced) else None
            record = self._pass(self.workload, phase)
            (self.untraced if phase is None else self.traced).append(record)
            if planned is None:
                # fix the pass count from the first pass, so that a run
                # lasts at least `seconds` and at most one pass longer
                planned = max(2 if trace else 1, math.ceil(seconds / record[0]))
            if len(self.untraced) + len(self.traced) >= planned:
                break

    def op_times(self, name: str) -> tuple[list[float], list[float]]:
        """Scaled and raw times of the untraced operations called ``name``."""
        scaled, raw = [], []
        for _, _, p in self.untraced:
            for op, start, end, _ in p.intervals:
                if op == name:
                    raw.append(end - start)
                    scaled.append(self.meter.scaled(start, end))
        return scaled, raw

    def step_rates(self) -> tuple[float, float]:
        """Quadratic steps over the scaled and raw time spent in the
        iterate/find_fixed_point calls that made them, over all untraced
        passes."""
        timed = [(start, end, steps) for _, _, p in self.untraced
                 for _, start, end, steps in p.intervals if steps is not None]
        steps = sum(n for _, _, n in timed)
        scaled = sum(self.meter.scaled(start, end) for start, end, _ in timed)
        raw = sum(end - start for start, end, _ in timed)
        return steps / scaled, steps / raw


def end_to_end(run: Run, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Metric values, and report rows (value, unit, samples) that add the
    orbit-only timings and the failure ratio."""
    passes = run.untraced
    rate, raw_rate = run.step_rates()
    metrics = {
        "setup_s": median(setup[0]),
        "pass_s": median([scaled for _, scaled, _ in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rows = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(setup[0])} fresh interpreters; "
                    f"raw {median(setup[1]):.4g} s"),
        "pass_s": (metrics["pass_s"], "s", f"median of {len(passes)} passes; "
                   f"raw {median([raw for raw, _, _ in passes]):.4g} s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "1 process"),
        "steps_per_s": (rate, "1/s", f"{len(passes)} passes, time in "
                        f"iterate/find_fixed_point; raw {raw_rate:.4g} 1/s"),
    }
    solves, raw_solves = run.op_times("short_solve")
    if solves:
        rows["solve_p50_s"] = (median(solves), "s", f"{len(solves)} solves; "
                               f"raw {median(raw_solves):.4g} s")
        p90 = percentile(solves, 0.9)
        if p90 is not None:
            rows["solve_p90_s"] = (p90, "s", f"{len(solves)} solves; "
                                   f"raw {percentile(raw_solves, 0.9):.4g} s")
    cli, raw_cli = run.op_times("trait_cli")
    if cli:
        rows["cli_run_s"] = (median(cli), "s", f"median of {len(cli)} runs; "
                             f"raw {median(raw_cli):.4g} s")
    rows["failed_frac"] = (run.failed / run.attempted, "ratio",
                           f"{run.failed} of {run.attempted} operations")
    return metrics, rows


def layer_metrics(run: Run) -> dict:
    """Per-pass means over the traced passes, plus the tracing overhead;
    prints one summary row per layer."""
    from tracing import LAYERS, TARGETS

    tracer = run.tracer
    per_pass = tracer.per_pass(set(range(len(run.traced))))
    setup = tracer.setup_totals()
    metrics = {}
    for name, *_ in TARGETS:
        metrics[name + ".s"] = per_pass.get(name + ".s", 0.0)
        metrics[name + ".calls"] = per_pass.get(name + ".calls", 0.0)
    for name in SETUP_METRICS:
        metrics[name] = setup.get(name, 0.0)
    solves = metrics["dynamics.iterate.calls"] + metrics["dynamics.find_fixed_point.calls"]
    metrics["dynamics.converged_frac"] = (
        per_pass.get("dynamics.converged", 0.0) / solves if solves else 0.0)
    for name in COUNT_METRICS:
        metrics[name] = per_pass.get(name, 0.0)
    for layer in LAYERS:
        metrics[layer + ".errors"] = per_pass.get(layer + ".errors", 0.0)

    def layer_sum(layer, suffix):
        return sum(v for k, v in per_pass.items()
                   if k.startswith(layer + ".") and k.endswith(suffix))

    metrics["bench.s"] = layer_sum("bench", ".s")
    traced_raw = median([raw for raw, _, _ in run.traced])
    traced = median([scaled for _, scaled, _ in run.traced])
    untraced = median([scaled for _, scaled, _ in run.untraced])
    metrics["trace.pass_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced

    print(f"{'layer':<10} {'self s/pass':>12} {'calls/pass':>12}  counts")
    accounted = metrics["bench.s"]
    for layer in LAYERS:
        counts = {k: v for k, v in per_pass.items() if k.startswith(layer + ".")
                  and not k.endswith((".s", ".calls"))}
        accounted += layer_sum(layer, ".s")
        print(f"{layer:<10} {layer_sum(layer, '.s'):>12.6f} {layer_sum(layer, '.calls'):>12.1f}"
              f"  {json.dumps(counts)}")
    print(f"{'bench':<10} {metrics['bench.s']:>12.6f}")
    print(f"self times sum to {accounted:.6f} s of the raw traced pass_s {traced_raw:.6f} s "
          f"({len(run.traced)} traced passes); scaled: traced {traced:.6f} s, untraced "
          f"{untraced:.6f} s, tracing overhead {metrics['trace.overhead_s']:.6f} s")
    return metrics


def run_workload(args, spec, qso, np, cpu: int) -> dict:
    import workloads
    from speed import REFERENCE_S, SpeedMeter
    from tracing import Tracer

    cls = workloads.WORKLOADS[args.workload]
    env = environment(np, cpu)
    setup = measure_setup(args.workload)
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        with SpeedMeter() as meter:
            run = Run(workloads, cls, qso, args.seed, workdir, tracer, meter)
            run.run(args.seconds, bool(args.trace))
        if tracer:
            BENCH_OUT.mkdir(exist_ok=True)
            tracer.write(BENCH_OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, rows = end_to_end(run, setup)
    print(f"qso bench  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("env " + json.dumps(env))
    print(f"speed probe median {median(meter.durations):.4g} s over {len(meter.durations)} "
          f"probes (reference {REFERENCE_S} s)")
    print(f"{'metric':<14} {'value':>14}  {'unit':<6} samples")
    for name, (value, unit, samples) in rows.items():
        print(f"{name:<14} {value:>14.6g}  {unit:<6} {samples}")
    print("info " + json.dumps(run.workload.info, sort_keys=True))
    for problem in run.problems:
        print("FAILED " + problem.strip().replace("\n", " | "), file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(run)

    section = spec["per_layer" if args.trace else "end_to_end"]
    missing = sorted({m["name"] for m in section} - set(metrics))
    if missing:
        fail(f"{SPEC.name} lists metrics the benchmark does not measure: {missing}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qso" / "__init__.py").is_file():
        fail(f"no qso package under {SRC}; run from a checkout of the repository")
    if not SPEC.is_file():
        fail(f"{SPEC} is missing")
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qso
    import qso.cli  # not imported by the package; the tracer patches it too
    if not Path(qso.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported qso from {qso.__file__}, not from {SRC}")

    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    result = run_workload(args, spec, qso, np, cpu)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
