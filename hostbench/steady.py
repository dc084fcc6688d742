#!/usr/bin/env python3
"""Steadiness check for the host-cost benchmark.

    python3 hostbench/steady.py [--runs 10]

Run from the repository root. For each workload in BENCHMARK.json, runs two
sets of the benchmark command, each set --runs times with seeds 1..--runs,
untraced. For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, and then
states whether

  * each set's spread is within the metric's bound, and
  * the second set's median is no worse than the first set's by more than
    the bound.

Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("steady.py: %s seed %d reported incorrect output"
                         % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, first, later):
    """Relative worsening of `later` against `first` (negative = better)."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = range(1, args.runs + 1)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in seeds:
                runs.append(run_once(spec, workload, seed))
                print("  %s set %d seed %d: %s" % (
                    workload, s + 1, seed,
                    " ".join("%s=%.6g" % kv for kv in runs[-1].items())),
                    file=sys.stderr, flush=True)
            sets.append(runs)
        print("%s (%d runs per set)" % (workload, args.runs))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = stats([r[name] for r in runs])
                medians.append(med)
                spread_ok = spread <= bound
                ok = ok and spread_ok
                print("  %-14s set %d  median %-12.6g Q1 %-12.6g Q3 %-12.6g "
                      "spread %6.2f%% (bound %g%%)%s" % (
                          name, s + 1, med, q1, q3, 100 * spread, 100 * bound,
                          "" if spread_ok else "  SPREAD OVER BOUND",
                      ) + ("  (over a third of the bound)"
                           if spread_ok and spread > bound / 3 else ""))
            change = worse_by(metric, medians[0], medians[1])
            agree = change <= bound
            ok = ok and agree
            print("  %-14s set 2 vs set 1: %+.2f%% worse (bound %g%%) %s"
                  % (name, 100 * change, 100 * bound,
                     "agree" if agree else "DISAGREE"))
    print("steady: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
