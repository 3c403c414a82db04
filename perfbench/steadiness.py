#!/usr/bin/env python3
"""Steadiness check: runs one workload of the repository benchmark several
times, each with another seed, and prints for every end-to-end metric the
median, the quartiles and the spread (Q3 - Q1) / median, plus each run's
host steal fraction. The spreads are what BENCHMARK.json's bounds must
cover: "ok" is below a third of the bound, "within bound" at most the
bound.

    python3 perfbench/steadiness.py --workload serve_lookup --runs 10

Seeds are --first-seed, --first-seed + 1, ...; --seconds defaults to
BENCHMARK.json's run_seconds. Quartiles are statistics.quantiles(n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run with seed %d failed (exit %d)" % (seed, done.returncode))
    result = json.loads(lines[-1])
    steal = None
    for line in lines:
        if line.startswith("provenance "):
            steal = json.loads(line[len("provenance "):]).get("steal_frac")
    return result, steal


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    print("%6s %s %10s %8s" % ("seed", " ".join("%14s" % n[:14] for n in bounds),
                               "steal", "correct"))
    for i in range(args.runs):
        seed = args.first_seed + i
        result, steal = run_once(args.workload, seed, args.seconds)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("%6d %s %10.6f %8s" % (
            seed, " ".join("%14.6g" % values[n][-1] for n in bounds),
            steal if steal is not None else float("nan"), result["correct"]),
            flush=True)

    summary = {}
    print("\n%-28s %12s %12s %12s %9s %7s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        verdict = ("ok" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        print("%-28s %12.6g %12.6g %12.6g %9.4f %7.3f %s" % (
            name, med, q1, q3, spread, bound, verdict))
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "metrics": summary}))


if __name__ == "__main__":
    main()
