#!/usr/bin/env python3
"""Determinism test for the benchmark's correctness gate.

    python3 perfbench/test_fingerprint.py [--seed 7]

On the short --smoke size of every workload, the CRC32C fingerprint of
the deterministic output (lift statuses + suite, campaign JSON without
timing and, from the traced campaign-alu run, the fleet report without
timing) must be equal at 1 and 2 threads and across two runs of one
seed, and every run must pass its own checks. Exits non-zero on any
mismatch. Run from the repository root.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# (workload, --trace): the traced campaign-alu run adds the fleet probe.
CASES = (("lift-fpu", 0), ("campaign-alu", 0), ("campaign-alu", 1))
# Simulated results ride along: they must repeat exactly too.
RESULTS = {0: ("lifted_pairs", "suite_cycles"),
           1: ("detection_rate", "sdc_escape_rate", "mean_latency_slots",
               "test_overhead")}


def run(workload, trace, seed, threads):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--threads", str(threads), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit("%s seed %d threads %d: run failed (exit %d)"
                         % (workload, seed, threads, out.returncode))
    prints = [l for l in lines if l.split(" ")[0] in
              ("fingerprint", "setup_fingerprint", "fleet_fingerprint")]
    metrics = json.loads(lines[-1])["metrics"]
    prints += ["%s=%r" % (k, metrics[k]["value"]) for k in RESULTS[trace]]
    return prints


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = True
    for w, trace in CASES:
        runs = {"threads=2": run(w, trace, args.seed, 2),
                "threads=2 again": run(w, trace, args.seed, 2),
                "threads=1": run(w, trace, args.seed, 1)}
        ref = runs["threads=2"]
        name = "%s/trace%d" % (w, trace)
        for label, prints in runs.items():
            same = prints == ref
            ok = ok and same
            print("%-20s %-16s %s %s" % (name, label, "ok  " if same else
                                          "DIFF", " ".join(prints)))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
