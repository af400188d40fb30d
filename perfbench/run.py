#!/usr/bin/env python3
"""Medley's benchmark: builds its binary from source and runs one workload.

    python3 perfbench/run.py --workload grid|fleet|decide --seed N \
        --seconds S --trace 0|1 [--tiny]

Run it from the repository root. The first run configures and builds
Medley (Release) into .bench_build/ at the root; later runs rebuild
incrementally. Every workload runs on one worker thread.

--trace 0 measures the workload untraced and prints its end-to-end
metrics. --trace 1 prints the per-layer metrics instead: it runs the
traced pass of the named workload and of the two others, so every layer
is measured on the workload that exercises it (see perfbench/README.md).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed. Outputs are also checked across runs: the
digest of a workload's deterministic outputs is stored per seed and
binary under .bench_build/ and must match on every later run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "medley_perfbench")
# Compiler temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
WORKLOADS = ("grid", "fleet", "decide")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; output goes to a log."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "medley_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=ENV).returncode != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as logged:
                    tail = logged.read()[-3000:]
                fail("build failed:\n" + tail)


def run_binary(workload, args, trace):
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(trace)]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT, env=ENV)
    except subprocess.TimeoutExpired:
        fail(workload + ": binary did not finish in %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(workload + ": binary printed nothing (exit %d)" % done.returncode)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(workload + ": binary output is not JSON: " + lines[-1][:200])


def binary_hash():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as binary:
        for chunk in iter(lambda: binary.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_digest(result, binary):
    """Deterministic outputs must match earlier runs of the same binary."""
    directory = os.path.join(ROOT, ".bench_build", "digests")
    os.makedirs(directory, exist_ok=True)
    key = "%s-seed%d%s-%s" % (result["workload"], result["seed"],
                              "-tiny" if result["tiny"] else "", binary)
    path = os.path.join(directory, key)
    if os.path.exists(path):
        with open(path) as stored:
            expected = stored.read().strip()
        if expected != result["digest"]:
            return ["%s: output digest %s differs from %s of an earlier run"
                    % (result["workload"], result["digest"], expected)]
    else:
        with open(path, "w") as stored:
            stored.write(result["digest"] + "\n")
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    binary = binary_hash()
    # The traced run measures every layer on the workload that exercises
    # it; the named workload runs first and wins on shared names.
    order = [args.workload]
    if args.trace:
        order += [w for w in WORKLOADS if w != args.workload]
        args.seconds /= len(order)
    results = [run_binary(w, args, args.trace) for w in order]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = []
    measured = {}
    for r in results:
        errors += r["errors"] + check_digest(r, binary)
        for name, metric in r["metrics"].items():
            measured.setdefault(name, dict(metric, workload=r["workload"]))
    if errors and failed == 0:
        failed = attempted

    first = results[0]
    print("host: " + json.dumps(dict(first["host"], seed=args.seed)))
    for r in results:
        print("%s: attempted %d, failed %d, digest %s" % (
            r["workload"], r["attempted"], r["failed"], r["digest"]))
    for error in errors:
        print("error: " + error)
    print("failed_ratio: %.17g" % (failed / attempted if attempted else 1.0))
    for r in results:
        for name, reason in r["unmeasured"].items():
            print("unmeasured: %s (%s)" % (name, reason))
    for name in sorted(measured):
        metric = measured[name]
        print("metric: %s = %.17g %s [%s]" % (
            name, metric["value"], metric["unit"], metric["workload"]))

    metrics = {}
    for entry in wanted:
        metric = measured.get(entry["name"])
        if metric is None or metric["value"] is None:
            fail("metric %s was not measured" % entry["name"])
        if metric["unit"] != entry["unit"]:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (entry["name"], metric["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": metric["value"],
                                  "unit": metric["unit"]}

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
