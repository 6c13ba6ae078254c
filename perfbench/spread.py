#!/usr/bin/env python3
"""Runs workloads of the benchmark on several seeds and prints, per
end-to-end metric, the median and the interquartile range as a share of
the median, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py kg-read build --seeds 10 --first-seed 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} is incorrect:\n{done.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    for workload in args.workloads:
        runs = [run_once(manifest["command"], workload, seed, manifest["run_seconds"])
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:14} median {med:12.4f}  spread {spread:6.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
