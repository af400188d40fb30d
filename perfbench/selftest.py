#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs must pass every output check.

    python3 perfbench/selftest.py

Runs every workload at --tiny size, untraced and traced, through
perfbench/run.py and checks that each run exits 0, that its last line is
the result object with exactly the keys correct, attempted, failed and
metrics, that no operation failed, and that it emits every metric
BENCHMARK.json names for that mode with its unit (end-to-end metrics
strictly positive). Each workload runs twice untraced, so run.py's
cross-run digest check is exercised too. Exits non-zero on the first
problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=900)
    label = "%s --trace %d" % (workload, trace)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("selftest: %s exited %d\n%s" % (label, done.returncode,
                                                 done.stdout[-3000:]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("selftest: %s result keys are %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] != 0 \
            or result["attempted"] < 1:
        sys.exit("selftest: %s failed its output checks: %s" % (label,
                                                                 lines[-1]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        sys.exit("selftest: %s metrics differ from BENCHMARK.json" % label)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        value = got["value"]
        if got["unit"] != metric["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or (not trace and value <= 0):
            sys.exit("selftest: %s reports %s = %r %s" % (
                label, metric["name"], value, got["unit"]))
    if trace and not any(line.startswith("unmeasured: ") for line in lines):
        sys.exit("selftest: %s lists no unmeasured metric" % label)
    print("selftest: %s ok (%d operations)" % (label, result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 0, 1):
            check_run(spec, workload, trace)
    print("selftest: ok")


if __name__ == "__main__":
    main()
