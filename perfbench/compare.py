#!/usr/bin/env python3
"""Repeat the benchmark and summarize it; with two checkouts, compare them.

    python3 perfbench/compare.py [--runs N] [--workloads a,b] [--seed S]
                                 [--seconds T] [--out FILE] CHECKOUT [CHECKOUT_B]

Each CHECKOUT is the root of a source tree holding perfbench/run.py. Run i
of a workload uses seed S+i on every checkout. With one checkout the tool
prints, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3-Q1)/median next to the
metric's bound from BENCHMARK.json. With two checkouts the runs are
interleaved in pairs, alternating which side goes first, and it adds B's
median and quartiles, the change of the medians, and the share of pairs B
won (ties count for neither side). A gain is claimed only when B wins at
least 90% of the pairs and the medians differ by more than A's spread.
Each side's incorrect runs and failed/attempted units are printed per
workload; when B has an incorrect run or more failed units than A, every
metric's verdict is INCORRECT, never a gain.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, spec, workload, seed, seconds):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  warning: {checkout} {workload} seed {seed}: correct="
              f"{result['correct']} failed={result['failed']}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("checkouts", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--out", default="", help="write raw results as JSON")
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("at most two checkouts")
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    spec = load_spec(checkouts[0])
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    raw = {}
    for workload in workloads:
        samples = [[] for _ in checkouts]
        for i in range(args.runs):
            order = list(range(len(checkouts)))
            if i % 2 == 1:
                order.reverse()
            for side in order:
                samples[side].append(run_once(checkouts[side], spec, workload,
                                              args.seed + i, seconds))
            print(f"{workload}: run {i + 1}/{args.runs} done", flush=True)
        raw[workload] = samples

        incorrect = [sum(not r["correct"] for r in side) for side in samples]
        failed = [sum(r["failed"] for r in side) for side in samples]
        attempted = [sum(r["attempted"] for r in side) for side in samples]
        b_bad = len(checkouts) == 2 and (incorrect[1] > 0 or
                                         failed[1] > failed[0])
        print(f"\n== {workload} ({args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {seconds} s each)")
        header = f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} " \
                 f"{'spread':>7} {'bound':>6}"
        if len(checkouts) == 2:
            header += f" {'B median':>12} {'B q1':>12} {'B q3':>12} " \
                      f"{'change':>8} {'B won':>6} verdict"
        for side, name in enumerate("AB"[:len(checkouts)]):
            print(f"{name}: {incorrect[side]} incorrect runs, "
                  f"{failed[side]}/{attempted[side]} units failed")
        print(header)
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            values = [[r["metrics"].get(name, {}).get("value") for r in side]
                      for side in samples]
            if any(None in side for side in values):
                # served_paced reports no latency for a session whose
                # backlog grew; that run is counted as failed above.
                print(f"{name:24} not reported in every run")
                continue
            a = values[0]
            q1, med, q3 = quartiles(a)
            spread = (q3 - q1) / med if med else float("inf")
            row = f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} " \
                  f"{spread:7.3f} {m['bound']:6.3f}"
            if len(checkouts) == 2:
                b = values[1]
                bq1, bmed, bq3 = quartiles(b)
                wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                won = wins / len(a)
                change = (bmed - med) / med if med else float("inf")
                better = (bmed < med) if lower else (bmed > med)
                if b_bad:
                    verdict = "INCORRECT"
                elif won >= 0.9 and abs(bmed - med) > (q3 - q1):
                    verdict = "gain"
                elif (change > m["bound"]) if lower else (-change > m["bound"]):
                    verdict = "REGRESSION"
                elif spread > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "within bound" if not better else "no claim"
                row += f" {bmed:12.6g} {bq1:12.6g} {bq3:12.6g} " \
                       f"{change:+8.3f} {won:6.2f} {verdict}"
            print(row)
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"checkouts": checkouts, "seconds": seconds,
                           "seed": args.seed, "results": raw}, f, indent=1)


if __name__ == "__main__":
    main()
