#!/usr/bin/env python3
"""Time medley-lint cold vs warm and gate the cache's speedup.

Runs the analyzer over the given trees twice per sample: once with a
fresh cache file (cold: full lex + index + dataflow on every file) and
once against the cache the cold run just wrote (warm: every unchanged
file served from the cache, phase 2 re-linked from cached summaries).
Each mode keeps the best of ``--repeat`` samples to soak scheduler
noise, then the script fails (exit 1) when the warm run is not at least
``--min-speedup`` times faster than the cold run, which keeps the
incremental cache honest. Both runs share the host, so the ratio does
not depend on its speed.

Usage:
    lint_timing.py --bin medley-lint --root REPO \
        [--repeat 5] [--min-speedup 2.0] TREE...
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time


def run_once(args, cache):
    cmd = [args.bin, "--root", args.root, "--cache", cache] + args.trees
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.STDOUT)
    elapsed = time.perf_counter() - start
    # 0 = clean, 1 = findings: both are successful analysis runs as far
    # as timing goes. Anything else is a usage/IO failure.
    if proc.returncode not in (0, 1):
        sys.exit(f"lint_timing: {' '.join(cmd)} exited {proc.returncode}")
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True, help="medley-lint binary")
    parser.add_argument("--root", required=True, help="repo root (--root)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="samples per mode; the best is reported")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required cold/warm ratio")
    parser.add_argument("trees", nargs="+", help="trees to lint")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="medley_lint_timing_")
    cache = os.path.join(scratch, "cache.txt")
    try:
        cold = warm = None
        for _ in range(max(1, args.repeat)):
            if os.path.exists(cache):
                os.remove(cache)
            cold_s = run_once(args, cache)
            warm_s = run_once(args, cache)
            cold = cold_s if cold is None else min(cold, cold_s)
            warm = warm_s if warm is None else min(warm, warm_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    speedup = cold / warm if warm > 0 else float("inf")
    print(f"lint_timing: cold {cold:.3f}s  warm {warm:.3f}s  "
          f"speedup {speedup:.2f}x")

    if speedup < args.min_speedup:
        print(f"lint_timing: FAIL warm speedup {speedup:.2f}x < "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
