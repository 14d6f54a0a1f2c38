#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload campaign-alu --seeds 1-10 \
        [--seconds 25] [--trace 0]

For every metric this prints the median over the seeds and the
interquartile range (statistics.quantiles(values, n=4): Q3 - Q1) as a
share of that median -- the steadiness figure a metric's bound in
BENCHMARK.json must stay above. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print("seed %d: exit %d" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect result" % seed)
            return 1
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)

    print("%-32s %14s %8s  %s" % ("metric", "median", "iqr/med", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = "%.4f" % ((q[2] - q[0]) / med)
        else:
            spread = "-"
        print("%-32s %14.6g %8s  %s" % (name, med, spread, units[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
