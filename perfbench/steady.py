#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs workloads (all of BENCHMARK.json's by default) once for each of the
seeds 1 to 10 with tracing off and reports, for each end-to-end metric, the
distance between the first and third quartile of the values, as Python's
statistics.quantiles(values, n=4) gives them, as a share of their median.
A metric is steady when that spread stays below a third of its bound;
set-up time is reported but exempt, as its bound guards the median only.

    python3 perfbench/steady.py [--workload pld-batch ...]
                                [--save a.json] [--against b.json]

--save writes every value measured; --against compares this set's medians
with an earlier saved set and flags any metric worse by more than its bound.
Exits 1 if a metric is unsteady, worse, or a run failed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = 1 / 3  # share of a metric's bound its spread must stay under
SEEDS = range(1, 11)


def spread(values):
    """(q3 - q1) / median of the values, with q1 and q3 from
    statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf") if q3 != q1 else 0.0


def is_steady(name, s, bound):
    """Set-up time is exempt: its bound guards the median, not the spread."""
    return name == "setup_s" or s < TARGET * bound


def worse_by(before, after, better):
    """Share by which `after` is worse than `before` (negative: better)."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / before
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def self_test():
    """Checks the arithmetic above on hand-computed cases; returns failures."""
    failures = 0

    def expect(ok, what):
        nonlocal failures
        if not ok:
            failures += 1
            print(f"steady.py self-test FAILED: {what}", file=sys.stderr)

    # quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
    expect(abs(spread(list(range(1, 11))) - 1.0) < 1e-12, "spread of 1..10 is 1")
    expect(spread([5.0, 5.0, 5.0, 5.0]) == 0.0, "identical values do not spread")
    expect(spread([0.0, 0.0, 0.0]) == 0.0, "an all-zero metric does not spread")
    # quantiles([9, 10, 10, 10, 11], n=4) = [9.5, 10, 10.5].
    expect(abs(spread([9.0, 10.0, 10.0, 10.0, 11.0]) - 0.1) < 1e-12,
           "spread of 9,10,10,10,11 is 0.1")
    expect(abs(worse_by(1.0, 1.1, "lower") - 0.1) < 1e-12, "slower by 10%")
    expect(abs(worse_by(10.0, 9.0, "higher") - 0.1) < 1e-12, "fewer per second by 10%")
    expect(worse_by(1.0, 0.9, "lower") < 0, "faster is not worse")
    expect(not is_steady("wall_s", 0.1, 0.25), "0.1 exceeds a third of 0.25")
    expect(is_steady("wall_s", 0.08, 0.25), "0.08 is within a third of 0.25")
    expect(is_steady("setup_s", 0.5, 0.25), "set-up spread is exempt")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {}
    ok = True
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            if result is None:
                print(f"{workload} seed {seed}: run FAILED")
                ok = False
                continue
            runs.append(result)
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in result.items()), flush=True)
        values[workload] = {name: [r[name] for r in runs] for name in metrics}
        if len(runs) < 2:
            ok = False
            continue
        for name, m in metrics.items():
            s = spread(values[workload][name])
            limit = TARGET * m["bound"]
            steady = is_steady(name, s, m["bound"])
            ok = ok and steady
            mid = statistics.median(values[workload][name])
            print(f"  {workload:14s} {name:18s} median={mid:<12.6g} spread={s:.4f}"
                  f" limit={limit:.4f} {'ok' if steady else 'UNSTEADY'}")

    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1), encoding="utf-8")
    if args.against:
        before = json.loads(Path(args.against).read_text(encoding="utf-8"))
        for workload in workloads:
            for name, m in metrics.items():
                if workload not in before or len(values[workload][name]) < 1:
                    continue
                w = worse_by(statistics.median(before[workload][name]),
                             statistics.median(values[workload][name]), m["better"])
                fine = w <= m["bound"]
                ok = ok and fine
                print(f"  {workload:14s} {name:18s} worse_by={w:+.4f}"
                      f" bound={m['bound']} {'ok' if fine else 'WORSE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
