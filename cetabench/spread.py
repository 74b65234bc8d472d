#!/usr/bin/env python3
"""Run-to-run spread and count determinism of the ceta benchmark.

    python3 cetabench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
    python3 cetabench/spread.py --counts [--workloads a,b] [--seed 7] [--seconds 5]

The first form runs every workload once per seed (untraced) and prints, for
each end-to-end metric, the median over the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to a third of the metric's bound in
BENCHMARK.json.  The second form runs two traced runs and one untraced run
with one seed and checks that their work counts are identical.  Raw results
go to .bench_build/spread/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "spread")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"spread: {' '.join(cmd)} failed (exit {proc.returncode})")
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    status = 0

    for workload in args.workloads.split(","):
        if args.counts:
            runs = [run(workload, args.seed, args.seconds, t) for t in (1, 1, 0)]
            counts = [diag["counts"] for diag, _ in runs]
            same = counts[0] == counts[1] == counts[2]
            status |= not same
            print(f"{workload}: counts {'identical' if same else 'DIFFER'} over "
                  f"traced, traced, untraced runs of seed {args.seed} "
                  f"({len(counts[0])} counters)")
            continue
        records = []
        for seed in seed_list(args.seeds):
            diag, result = run(workload, seed, args.seconds, 0)
            records.append({"seed": seed, "diagnostics": diag, "result": result})
            status |= not result["correct"]
            print(f"{workload} seed {seed}: rounds {diag['rounds']}, "
                  f"steal {diag['steal_ticks']}, round gap {diag['op_round_gap_pct']:.1f}%",
                  flush=True)
        with open(os.path.join(OUT, f"{workload}.json"), "w") as f:
            json.dump(records, f, indent=1)
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in records]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<22} median {med:>14.6g} {m['unit']:<6} "
                  f"spread {spread:6.3f}  bound/3 {m['bound'] / 3:.3f}  {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
