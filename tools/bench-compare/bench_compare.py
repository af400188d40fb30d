#!/usr/bin/env python3
"""Compare a fresh bench JSON against a checked-in baseline.

Fails (exit 1) when any latency metric (a key ending in ``ns_per_tick``,
``ns_per_decision`` or ``seconds``) regresses by more than the threshold
(default 15%), or when the allocation counter (``allocs_per_steady_tick``)
increases at all. Throughput keys (``*_per_sec``), checksums and shape
fields are informational and never gate.

Usage:
    bench_compare.py --baseline BASELINE.json --fresh FRESH.json \
        [--threshold 0.15]

The gate is one-sided: faster-than-baseline results pass (and print a
hint to refresh the baseline when the improvement is large, so the gate
keeps teeth after a speedup lands).
"""

import argparse
import json
import sys

LATENCY_SUFFIXES = ("ns_per_tick", "ns_per_decision", "seconds")
COUNTER_KEYS = ("allocs_per_steady_tick",)


def flatten(node, prefix=""):
    """Flattens nested dicts to {dotted.path: leaf-value}."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            out.update(flatten(value, path))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out


def is_latency(path):
    return path.endswith(LATENCY_SUFFIXES)


def is_counter(path):
    return path.endswith(COUNTER_KEYS)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative regression (0.15 = +15%%)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = flatten(json.load(f))
        with open(args.fresh) as f:
            fresh = flatten(json.load(f))
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench-compare: cannot load inputs: {err}", file=sys.stderr)
        return 2

    failures = []
    checked = 0
    for path, base in sorted(baseline.items()):
        gated = is_latency(path) or is_counter(path)
        if not gated:
            continue
        if path not in fresh:
            failures.append(f"{path}: present in baseline but missing from "
                            f"fresh results")
            continue
        new = fresh[path]
        checked += 1
        if is_counter(path):
            if new > base:
                failures.append(f"{path}: {base:g} -> {new:g} "
                                f"(allocation counter may not increase)")
            else:
                print(f"  ok    {path}: {base:g} -> {new:g}")
            continue
        limit = base * (1.0 + args.threshold)
        if new > limit:
            pct = 100.0 * (new - base) / base if base else float("inf")
            failures.append(f"{path}: {base:g} -> {new:g} ns "
                            f"(+{pct:.1f}%, limit +{100 * args.threshold:.0f}%)")
        else:
            note = ""
            if base and new < base * (1.0 - args.threshold):
                note = "  (much faster — consider refreshing the baseline)"
            print(f"  ok    {path}: {base:g} -> {new:g}{note}")

    if checked == 0 and not failures:
        print("bench-compare: no gated metrics found in baseline",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nbench-compare: {len(failures)} regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL  {failure}", file=sys.stderr)
        return 1
    print(f"bench-compare: {checked} metric(s) within "
          f"+{100 * args.threshold:.0f}% of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
