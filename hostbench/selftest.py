#!/usr/bin/env python3
"""Short-size self-test of the host-cost benchmark.

    python3 hostbench/selftest.py [--binary PATH]

Without --binary it builds hostbench first (as run.py does). For every
workload in BENCHMARK.json, at --size short, it checks that

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, correct and with no failures;
  * --trace 0 prints exactly the end-to-end metrics and --trace 1 exactly
    the per-layer metrics, each with the unit BENCHMARK.json gives;
  * the traced runs' digests equal the untraced digest;
  * the Chrome trace loads as JSON, every host span nests inside its
    parent's interval with the parent's run id, and every simulated span
    lies inside the simulated run.

It also checks that a bad argument exits nonzero without a result.
Exits 0 when every check passes.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402  (run.py in this directory)

EPS_US = 1e-3  # float slack when comparing span boundaries


class Failure(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Failure(what)


def invoke(binary, workload, trace, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--size", "short"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    expect(proc.returncode == 0, "%s exited %d" % (cmd, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "result keys %s" % sorted(result))
    expect(result["correct"] is True, "%s trace %d: not correct" % (workload, trace))
    expect(result["failed"] == 0, "%s: %d failed ops" % (workload, result["failed"]))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           "attempted %r" % result["attempted"])
    return proc.stdout, result


def check_metrics(result, wanted, where):
    got = result["metrics"]
    expect(list(got) == [m["name"] for m in wanted],
           "%s: metric names %s" % (where, list(got)))
    for m in wanted:
        expect(got[m["name"]]["unit"] == m["unit"],
               "%s: %s unit %r, want %r" % (where, m["name"],
                                            got[m["name"]]["unit"], m["unit"]))
        expect(isinstance(got[m["name"]]["value"], (int, float)),
               "%s: %s value not a number" % (where, m["name"]))


def digest(pattern, text):
    found = re.findall(pattern, text, re.M)
    expect(found, "no digest line matching %r" % pattern)
    return found


def check_trace(path, sim_cycles, where):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    host = {e["args"]["span"]: e for e in spans if e["pid"] == 1}
    expect(host, "%s: no host spans" % where)
    roots = 0
    for e in host.values():
        parent = e["args"]["parent"]
        if parent < 0:
            roots += 1
            continue
        p = host[parent]
        expect(e["args"]["run_id"] == p["args"]["run_id"],
               "%s: span %s run id differs from its parent" % (where, e["name"]))
        expect(p["ts"] - EPS_US <= e["ts"] and
               e["ts"] + e["dur"] <= p["ts"] + p["dur"] + EPS_US,
               "%s: span %s leaves its parent's interval" % (where, e["name"]))
    expect(roots >= 1, "%s: no root span" % where)
    for e in spans:
        if e["pid"] == 2:
            expect(e["dur"] >= 0 and e["ts"] + e["dur"] <= sim_cycles,
                   "%s: simulated span outside the run" % where)
    return sum(1 for e in spans if e["pid"] == 2)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--binary", help="hostbench binary (default: build it)")
    args = p.parse_args()
    binary = args.binary
    if not binary:
        if not run.build():
            return 1
        binary = run.BINARY
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    try:
        for w in spec["workloads"]:
            name = w["name"]
            out0, r0 = invoke(binary, name, 0)
            check_metrics(r0, spec["end_to_end"], name + " trace 0")
            for m in spec["end_to_end"]:
                expect(r0["metrics"][m["name"]]["value"] > 0,
                       "%s: %s is not positive" % (name, m["name"]))
            with tempfile.TemporaryDirectory() as tmp:
                trace_path = os.path.join(tmp, "trace.json")
                out1, r1 = invoke(binary, name, 1, trace_path)
                check_metrics(r1, spec["per_layer"], name + " trace 1")
                sim_spans = check_trace(
                    trace_path, r1["metrics"]["sim.cycles"]["value"], name)
            untraced = digest(r"^repeats .* digest ([0-9a-f]+)", out0 + out1)
            traced = digest(r"^traced run \d+: digest ([0-9a-f]+)", out1)
            expect(len(set(untraced + traced)) == 1,
                   "%s: digests differ: untraced %s traced %s"
                   % (name, untraced, traced))
            if name.startswith("barrier"):
                expect(sim_spans > 0, "%s: no simulated barrier spans" % name)
            print("selftest: %s ok (digest %s, %d simulated spans)"
                  % (name, untraced[0], sim_spans))

        bad = subprocess.run([binary, "--workload", "no_such_workload",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=60)
        expect(bad.returncode != 0 and "{" not in bad.stdout,
               "bad workload name was accepted")
    except (Failure, json.JSONDecodeError, KeyError) as e:
        print("selftest: FAIL: %s" % e)
        return 1
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
