#!/usr/bin/env python3
"""Bench regression gate: diff a fresh gesmc-bench-v1 JSON against a baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.10]

Compares median_seconds per benchmark name.  Exits non-zero when any
benchmark present in both files regressed by more than the threshold
(fresh > baseline * (1 + threshold)).

Host awareness: absolute medians are only comparable on the same machine
class.  When the two files carry different host fingerprints (CI containers
land on heterogeneous hardware), the timing comparison downgrades to
informational.  To refresh a baseline, rerun the bench with --bench-json on
the reference host and commit the file.

Exact counters: a counter in EXACT_COUNTERS (bench_adaptive's executed
`supersteps`) is a deterministic function of the bench's configuration and
seed, so it must match the baseline exactly on any host.  Any difference
fails the gate, whatever the fingerprints say: it means the adaptive stop
verdict moved.

Schema (written by src/bench_util/harness.cpp, docs/observability.md):
    {"schema": "gesmc-bench-v1", "bench": ..., "host": {"fingerprint": ...},
     "results": [{"name": ..., "median_seconds": ..., ...}]}
"""

import argparse
import json
import sys

# Counters that carry no timing noise: compared for equality on any host.
EXACT_COUNTERS = ("supersteps",)


def load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "gesmc-bench-v1":
        sys.exit(f"{path}: not a gesmc-bench-v1 document "
                 f"(schema={doc.get('schema')!r})")
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed relative median slowdown (default 0.10)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    base_fp = baseline.get("host", {}).get("fingerprint", "")
    fresh_fp = fresh.get("host", {}).get("fingerprint", "")
    same_host = bool(base_fp) and base_fp == fresh_fp
    if not same_host:
        print("NOTICE: host fingerprints differ — timing comparison is "
              "informational only; exact counters still gate")
        print(f"  baseline: {base_fp or '(none)'}")
        print(f"  fresh:    {fresh_fp or '(none)'}")

    base_by_name = {r["name"]: r for r in baseline.get("results", [])}
    fresh_by_name = {r["name"]: r for r in fresh.get("results", [])}

    regressions = []
    mismatches = []
    missing = sorted(set(base_by_name) - set(fresh_by_name))
    print(f"{'benchmark':44s} {'baseline':>12s} {'fresh':>12s} {'delta':>8s}")
    for name in sorted(set(base_by_name) & set(fresh_by_name)):
        base_counters = base_by_name[name].get("counters", {})
        fresh_counters = fresh_by_name[name].get("counters", {})
        for counter in EXACT_COUNTERS:
            if counter not in base_counters:
                continue
            if fresh_counters.get(counter) != base_counters[counter]:
                mismatches.append((name, counter, base_counters[counter],
                                   fresh_counters.get(counter)))
        base_s = base_by_name[name]["median_seconds"]
        fresh_s = fresh_by_name[name]["median_seconds"]
        if base_s <= 0:
            continue
        rel = fresh_s / base_s - 1.0
        marker = ""
        if rel > args.threshold:
            marker = "  REGRESSED"
            regressions.append((name, rel))
        print(f"{name:44s} {base_s:12.3e} {fresh_s:12.3e} {rel:+7.1%}{marker}")
    for name in missing:
        print(f"{name:44s} {'':12s} {'':12s}  MISSING from fresh run")

    if missing:
        print(f"\n{len(missing)} baseline benchmark(s) missing from the fresh "
              "run — did a benchmark get renamed without refreshing the "
              "baseline?")
    if regressions:
        worst = max(rel for _, rel in regressions)
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} (worst {worst:+.1%})")

    for name, counter, base_v, fresh_v in mismatches:
        print(f"{name}: counter {counter} is {fresh_v}, baseline {base_v}  "
              "MISMATCH (exact on any host)")

    if mismatches:
        return 1
    if not same_host:
        return 0
    return 1 if (regressions or missing) else 0


if __name__ == "__main__":
    sys.exit(main())
