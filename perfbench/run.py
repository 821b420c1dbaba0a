#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hot_get --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The build goes to $CARGO_TARGET_DIR (default: .bench_build); a traced
run writes its span dump to .perfbench_out. The last line of standard
output is the workload's JSON result; build logs go to standard error.
`--workload all` runs every workload untraced and traced and prints one
line per metric instead. The exit code is 0 only
when every run's correctness checks and self-checks passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_get", "durable_put", "repair_read"]
# One run must end within 180 s; leave room for interpreter start-up.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark and returns the binary's path, or exits 1."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        code, lines, result = run_one(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
        # Pass the binary's report through; its last line is the result.
        for line in lines:
            print(line)
        if result is None and code == 0:
            code = 1
        sys.exit(code)

    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_one(binary, workload, args.seed,
                                          args.seconds, trace)
            for line in lines:
                if line.startswith(("check FAIL", "error:")):
                    print(f"{workload}: {line}")
            if result is None:
                print(f"{workload} trace={trace}: no result (exit {code})")
                worst = worst or 1
                continue
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {workload:<12} {name:<36} {m['value']:>16.4f} {m['unit']}")
            worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
