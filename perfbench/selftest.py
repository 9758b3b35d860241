#!/usr/bin/env python3
"""Negative self-test of the benchmark's output check.

    python3 perfbench/selftest.py [--runs 10]

At the tiny size (--tiny: test-scale trees, short streams), for every
workload:
  - `--runs` back-to-back clean runs must all report correct with no
    failed unit;
  - a run whose result sink alters one anomaly value (--corrupt anomaly)
    and one whose sink loses one result (--corrupt drop) must each report
    correct=false with failed > 0.
Exits 0 when every expectation holds. Run from the root of a checkout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ccd_fleet", "stb_paper", "served_paced", "fleet_hibernate"]


def run(workload, seed, corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--tiny", "--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        clean = [run(workload, seed, "none") for seed in range(1, args.runs + 1)]
        passed = sum(1 for r in clean
                     if r is not None and r["correct"] and r["failed"] == 0)
        good = passed == args.runs
        print(f"{workload}: {passed}/{args.runs} clean runs correct "
              f"{'ok' if good else 'FAIL'}")
        ok &= good
        for corrupt in ("anomaly", "drop"):
            r = run(workload, 1, corrupt)
            caught = r is not None and not r["correct"] and r["failed"] > 0
            frac = r["failed"] / r["attempted"] if r else float("nan")
            print(f"{workload}: --corrupt {corrupt}: correct="
                  f"{r['correct'] if r else None} failed_frac={frac:.6f} "
                  f"{'ok' if caught else 'FAIL'}")
            ok &= caught
    print("self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
