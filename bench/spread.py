"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --workload mendelian-wide --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per seed (one run at a time) and prints, for
each end-to-end metric, the median, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound.
A benchmark is steady when each spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    infos = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        infos.append(next(line for line in lines if line.startswith("info ")))
        summary = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  steady (< bound/3)")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:<16} {med:>12.6g} {spread:>8.4f} {metric['bound']:>6}  "
              f"{'yes' if spread < metric['bound'] / 3 else 'NO'}")
    for seed, info in zip(args.seeds, infos):
        print(f"seed {seed} {info}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
