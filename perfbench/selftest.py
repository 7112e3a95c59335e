#!/usr/bin/env python3
"""Reduced-scale self-test of the benchmark.

    python3 perfbench/selftest.py [--scale F]

Runs every workload of BENCHMARK.json through perfbench/run.py at a tenth
of its client count, untraced and traced, and checks that
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, and correct is true -- which
    includes run.py's fingerprint checks: the repeated input of the
    untraced run and the traced runs must reproduce the untraced ones;
  * every end-to-end (untraced) or per-layer (traced) metric is present,
    numeric, and carries the unit BENCHMARK.json gives it, and no other
    metric is printed;
  * every end-to-end metric is positive.
Exits non-zero if any workload fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_result(spec, workload, trace, result):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed is %r" % result["failed"])
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metric names differ: missing %s, extra %s"
                        % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append("%s: unit %r, want %r"
                            % (name, entry.get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number"
                            % (name, value))
        elif not trace and value <= 0:
            problems.append("%s: end-to-end value %r is not positive"
                            % (name, value))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", "0", "--trace", str(trace),
                   "--scale", repr(args.scale)]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = res.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                problems = check_result(spec, w["name"], trace, result)
            except (IndexError, ValueError) as e:
                problems = ["no result line (%s)" % e]
            if res.returncode != 0:
                problems.append("exit code %d" % res.returncode)
            status = "ok" if not problems else "FAIL"
            print("selftest %-12s trace=%d %s" % (w["name"], trace, status))
            for p in problems:
                print("  " + p)
            failed = failed or bool(problems)
    print("selftest: %s" % ("FAILED" if failed else "all workloads ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
