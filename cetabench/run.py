#!/usr/bin/env python3
"""Build and run the ceta benchmark.

One run of one workload:

    python3 cetabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every workload in turn, printing each end-to-end metric by name with its
unit; exits non-zero if any output check fails:

    python3 cetabench/run.py --all [--seed <n>] [--seconds <s>]

The first call configures and builds the library and the driver
(Release, tests, benches and examples off) into .bench_build/ at the root
of the source tree; later calls rebuild only what changed.  Build output
goes to stderr.  The driver's last line of stdout is the run's JSON result;
a traced run also writes its spans to .bench_build/traces/.  NOTES.md
describes the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["system_verdict", "large_dag", "design_session", "design_search"]
# A run measures for --seconds, then finishes the round in flight; the
# largest round (large_dag) takes a few seconds.
RUN_TIMEOUT_S = 170


def build():
    """Configure on first use, then build the driver; return its path."""
    bdir = os.path.join(BUILD, "cetabench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "cetabench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("cetabench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "cetabench")


def run_one(binary, workload, seed, seconds, trace):
    """Run the driver once; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"cetabench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")

    binary = build()
    if not args.all:
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace == 1)
        if parse_result(lines) is None:
            sys.exit(f"cetabench: {args.workload} printed no result (exit {code})")
        print("\n".join(lines), flush=True)
        return code

    status = 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args.seed, args.seconds,
                              args.trace == 1)
        result = parse_result(lines)
        if result is None:
            print(f"{workload}: no result (exit {code})")
            status = 1
            continue
        if code != 0 or not result["correct"]:
            status = 1
        print(f"{workload}: correct={str(result['correct']).lower()} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
