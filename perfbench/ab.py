#!/usr/bin/env python3
"""Steadiness and A/B comparison for the perfbench benchmark.

    python3 perfbench/ab.py --a DIR [--b DIR] [--pairs N]
                            [--workloads w1,w2] [--seed-base K] [--single]

DIR is the root of a checkout holding perfbench/ (for example the parent
commit and the change, each from `git archive`). Without --b the same
checkout plays both sides, which measures the benchmark's own run-to-run
spread. Each pair runs both sides on one seed (seed-base + pair index),
alternating which side goes first. Per workload and end-to-end metric it
prints each side's median and quartiles, the share of pairs each side won
(ties count for neither), each side's spread (quartile distance over the
median) and whether the two medians agree within the metric's bound from
BENCHMARK.json: B may be no worse than A by more than the bound when the
sides are two checkouts (a regression check), and may differ from A in
either direction by no more than the bound when one checkout plays both
sides (a steadiness check). Every run lasts BENCHMARK.json's run_seconds.
--single runs side A only, once per seed, and prints its spread: the cheap
check while tuning.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s %s seed %d failed (exit %d):\n%s"
                           % (root, workload, seed, done.returncode,
                              "\n".join(done.stderr.splitlines()[-10:])))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s %s seed %d: correct=%s failed=%d"
                           % (root, workload, seed, result["correct"],
                              result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True)
    parser.add_argument("--b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--single", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    side_b = args.b or args.a
    same_code = os.path.realpath(side_b) == os.path.realpath(args.a)

    for workload in workloads:
        runs = {"A": [], "B": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = [("A", args.a)] if args.single else (
                [("A", args.a), ("B", side_b)] if i % 2 == 0
                else [("B", side_b), ("A", args.a)])
            for side, root in order:
                runs[side].append(run_once(root, workload, seed, seconds))
            print("%s pair %d (seed %d) done" % (workload, i + 1, seed),
                  file=sys.stderr)
        print("== %s: %d run(s) per side, %d s each" % (workload, args.pairs,
                                                       seconds))
        for side in ("A", "B"):
            for i, run in enumerate(runs[side]):
                print("   %s seed %d: %s" % (side, args.seed_base + i, " ".join(
                    "%s=%.6g" % (m["name"], run[m["name"]]) for m in metrics)))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [r[name] for r in runs["A"]]
            qa = quartiles(a)
            line = "%-16s A med %.6g [q1 %.6g q3 %.6g] spread %.3f" % (
                name, qa[1], qa[0], qa[2], spread(a))
            if not args.single:
                b = [r[name] for r in runs["B"]]
                qb = quartiles(b)
                wins_a = sum(1 for x, y in zip(a, b)
                             if (x < y if lower else x > y))
                wins_b = sum(1 for x, y in zip(a, b)
                             if (y < x if lower else y > x))
                worse = ((qb[1] - qa[1]) if lower else (qa[1] - qb[1])) / qa[1]
                if same_code:
                    verdict = "agree" if abs(worse) <= bound else "DISAGREE"
                else:
                    verdict = "agree" if worse <= bound else "REGRESSION"
                line += (" | B med %.6g [q1 %.6g q3 %.6g] spread %.3f"
                         " | wins A %d/%d B %d/%d | B worse by %+.3f: %s"
                         % (qb[1], qb[0], qb[2], spread(b), wins_a, len(a),
                            wins_b, len(a), worse, verdict))
            sides = [runs[side] for side in ("A", "B") if runs[side]]
            steady = all(spread([r[name] for r in side]) <= bound
                         for side in sides)
            line += " | bound %.3f %s" % (bound, "ok" if steady else "NOISY")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
