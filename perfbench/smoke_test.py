#!/usr/bin/env python3
"""The benchmark's own test: every workload, untraced and traced, at tiny size.

Run from the repository root:

    python3 perfbench/smoke_test.py

Checks, for each run, that the command exits 0, that the last line of
stdout is the result object with exactly the keys correct / attempted /
failed / metrics, that outputs were correct with no failed operation, and
that the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
per_layer (traced) names, with their units.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    # Every workload of the harness, including any BENCHMARK.json omits.
    for workload in ("lookup", "analytic", "ingest"):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "7", "--seconds", "1", "--trace",
                   str(trace), "--smoke"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=600)
            problems = []
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0:
                problems.append(f"exit code {out.returncode}")
            try:
                result = json.loads(lines[-1]) if lines else {}
            except json.JSONDecodeError:
                result = {}
                problems.append("last line is not JSON")
            if result:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                    problems.append("failed operations or nothing attempted")
                metrics = result.get("metrics", {})
                units = {k: v.get("unit") for k, v in metrics.items()}
                if units != expected[trace]:
                    problems.append(f"metrics/units differ: {units}")
                for name, m in metrics.items():
                    v = m.get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append(f"{name} is not a finite number")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:9} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
