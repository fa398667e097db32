#!/usr/bin/env python3
"""Builds the HRDM benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lookup|analytic|ingest \
        --seed N --seconds S --trace 0|1 [--smoke]

The engine and the harness are compiled (Release) into .bench_build/ with
perfbench/CMakeLists.txt; engine directories, span dumps and result
files go to .bench_work/. Build output goes to stderr, so the last line of
stdout is the harness's JSON result. Exits non-zero, without a result,
when the build fails.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "hrdm_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hrdm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            if cmd[1] == "-S":
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "analytic", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    for stale in glob.glob(os.path.join(WORK, "engine-*")):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    for stale in glob.glob(os.path.join(WORK, "engine-*")):
        shutil.rmtree(stale, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
