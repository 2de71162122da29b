#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from anywhere inside a source checkout.  The first call configures and
builds perfbench (and the library, from the repository's own CMakeLists)
under .bench_build/ at the checkout root; later calls reuse that build.
Build output goes to stderr.  Standard output carries one host-context line
and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names are checked against BENCHMARK.json before it is printed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"

# One run must end within 180 s; the build is not part of that budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    """Configures (once) and builds perfbench; raises on failure."""
    build_dir = BINARY.parent
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs()],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns an error message, or None if `line` is a well-formed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    names = list(result["metrics"])
    expected = expected_metrics(trace)
    if sorted(names) != sorted(expected):
        return (f"metrics {sorted(set(names) ^ set(expected))} differ from "
                f"BENCHMARK.json's {'per_layer' if trace else 'end_to_end'} list")
    return None


def run(args):
    (BUILD / "work").mkdir(parents=True, exist_ok=True)
    # Removed even when the run is stopped before it can clean up itself.
    with tempfile.TemporaryDirectory(dir=BUILD / "work") as work_dir:
        proc = subprocess.run(
            [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 2
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        print(f"perfbench: malformed result: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines), flush=True)
    return proc.returncode


def self_test():
    sys.path.insert(0, str(HERE))
    import steady  # the steadiness arithmetic lives beside its command

    native = subprocess.run([str(BINARY), "--self-test"],
                            timeout=RUN_TIMEOUT_S).returncode
    failures = steady.self_test()
    print(f"steady.py self-test: {'ok' if failures == 0 else 'FAILED'}")
    return 0 if native == 0 and failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()
    required = (args.workload, args.seed, args.seconds, args.trace)
    if not args.self_test and None in required:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    try:
        return self_test() if args.self_test else run(args)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
