#!/usr/bin/env python3
"""Runs one workload with several seeds and prints each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload repair_read --runs 10 --seconds 10

For each metric it prints the median over the runs and the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median, next to a third of the metric's bound from
BENCHMARK.json. Seeds are first-seed, first-seed + 1, ...
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    binary = run.build()
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        code, _, result = run.run_one(binary, args.workload, seed,
                                      args.seconds, args.trace)
        if code != 0 or result is None or not result["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {code})")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{'metric':<36} {'median':>14} {'iqr/median':>11} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        third = bounds.get(name)
        limit = f"{third / 3:.3f}" if third is not None else "-"
        print(f"{name:<36} {med:>14.4f} {spread:>11.3f} {limit:>8}")


if __name__ == "__main__":
    main()
