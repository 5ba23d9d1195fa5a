#!/usr/bin/env python3
"""Run workloads over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload desk-n32 large-n64 --runs 10 --sets 2

Each set runs every named workload once per seed, the workloads taking
turns, one run at a time; set k uses seeds first-seed + k*runs onwards. For
each set the spread is the distance between the first and third quartiles
of the runs' values as a share of their median, printed next to the
metric's bound from BENCHMARK.json; with two or more sets, each later set's
median is also given as a ratio to the first set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    # values[workload][metric][set] -> list of the runs' values
    values: dict[str, dict[str, list[list[float]]]] = {}
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        for seed in range(first, first + args.runs):
            for workload in args.workload:
                result = run_once(workload, seed, bench["run_seconds"], args.trace,
                                  bounds)
                for name, metric in result["metrics"].items():
                    per_set = values.setdefault(workload, {}).setdefault(
                        name, [[] for _ in range(args.sets)])
                    per_set[k].append(metric["value"])
    for workload, metrics in values.items():
        print(f"== {workload}")
        for name, per_set in metrics.items():
            cells, first_median = [], None
            for k, vals in enumerate(per_set):
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                cell = f"set {k + 1}: median {med:10.5g} spread {spread:6.3f}"
                if k == 0:
                    first_median = med
                elif first_median:
                    cell += f" ratio {med / first_median:6.3f}"
                cells.append(cell)
            print(f"{name:34s} " + " | ".join(cells) + f" | bound {bounds.get(name)}")
    return 0


def run_once(workload: str, seed: int, seconds: int, trace: int, bounds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    print(next((ln for ln in lines if ln.startswith("operations:")), ""))
    summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()
               if k in bounds or trace}
    print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, "
          f"correct={result['correct']} {summary}", flush=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
