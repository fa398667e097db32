#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports each metric's spread.

Run from the repository root:

    python3 perfbench/steady.py [--workloads lookup,analytic,ingest]
        [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]

Each run uses its own seed (first-seed, first-seed+1, ...). For every
metric the script prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json and a flag when the spread
exceeds a third of it. Bounds are set from these spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        print(f"== {workload}: {args.runs} runs, {args.seconds} s each")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
