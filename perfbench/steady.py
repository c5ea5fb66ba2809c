#!/usr/bin/env python3
"""Runs each workload N times; prints each end-to-end metric's quartiles.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --runs 5 --workloads fleet --sets 2

Run i of a set uses seed seed0 + i. For each metric the table shows the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
With --sets 2 the whole schedule runs twice and the table adds the second
set's spread and the shift of its median against the first's (positive =
worse). A run that fails or reports failed operations is listed and left
out of the statistics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=REPO)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, "exit %d" % done.returncode
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, "%d of %d operations failed" % (result["failed"],
                                                    result["attempted"])
    return result, None


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    metrics = bench["end_to_end"]
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.seed0 + i
                result, error = run_once(workload, seed, args.seconds)
                if error:
                    print("%s seed %d: %s" % (workload, seed, error))
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print("== %s: %d run(s) per set, seeds %d..%d" %
              (workload, args.runs, args.seed0, args.seed0 + args.runs - 1))
        print("%-30s %14s %14s %14s %8s %6s%s" %
              ("metric", "median", "q1", "q3", "spread", "bound",
               "  spread2    shift" if args.sets == 2 else ""))
        for m in metrics:
            name = m["name"]
            first = sets[0][name]
            if len(first) < 2:
                print("%-30s (too few runs)" % name)
                continue
            med, q1, q3, spread = summarize(first)
            line = "%-30s %14.6g %14.6g %14.6g %8.4f %6.2f" % (
                name, med, q1, q3, spread, m["bound"])
            if args.sets == 2 and len(sets[1][name]) >= 2:
                med2, _, _, spread2 = summarize(sets[1][name])
                shift = (med2 - med) / med if med else float("nan")
                if m["better"] == "higher":
                    shift = -shift
                line += " %8.4f %8.4f" % (spread2, shift)
            print(line)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
