#!/usr/bin/env python3
"""Checks fresh BENCH_*.json files against the committed ones.

Usage: python3 tools/bench_check.py FRESH_DIR [COMMITTED_DIR]

COMMITTED_DIR defaults to the repository root. For every committed
BENCH_<name>.json the fresh file must exist and have the same shape: the
same keys at every level, the same array lengths and the same strings
(row names, HRQL, chosen access paths and strategies). The host block's
values are exempt, since a fresh run may come from another machine. A
harness change therefore cannot land without regenerating its file.

Each number is printed as fresh/committed for information only; timings
move with the host, so ratios never fail the check. Exit status is 1 on any
shape difference, else 0.
"""

import glob
import json
import os
import sys


def shape_diffs(fresh, committed, path, out):
    """Appends to `out` every place where `fresh` and `committed` differ in
    shape, and yields (path, fresh, committed) for each pair of numbers."""
    if isinstance(committed, dict):
        if not isinstance(fresh, dict) or fresh.keys() != committed.keys():
            got = sorted(fresh) if isinstance(fresh, dict) else fresh
            out.append(f"{path or '.'}: keys {got} != {sorted(committed)}")
            return
        for key, value in committed.items():
            if path == "" and key == "host":
                if fresh[key].keys() != value.keys():
                    out.append(f"host: keys {sorted(fresh[key])} != {sorted(value)}")
                continue
            yield from shape_diffs(fresh[key], value, f"{path}.{key}", out)
    elif isinstance(committed, list):
        if not isinstance(fresh, list) or len(fresh) != len(committed):
            out.append(f"{path}: array differs in length")
            return
        for i, (f, c) in enumerate(zip(fresh, committed)):
            name = c.get("name", i) if isinstance(c, dict) else i
            yield from shape_diffs(f, c, f"{path}[{name}]", out)
    elif isinstance(committed, (int, float)) and isinstance(fresh, (int, float)):
        yield path, fresh, committed
    elif fresh != committed:
        out.append(f"{path}: {fresh!r} != {committed!r}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    fresh_dir = argv[1]
    committed_dir = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    committed_files = sorted(glob.glob(os.path.join(committed_dir, "BENCH_*.json")))
    if not committed_files:
        print(f"no BENCH_*.json in {committed_dir}", file=sys.stderr)
        return 1
    failed = False
    for committed_path in committed_files:
        name = os.path.basename(committed_path)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            print(f"FAIL {name}: no fresh file in {fresh_dir}")
            failed = True
            continue
        with open(committed_path) as f:
            committed = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        diffs = []
        print(f"{name}  (fresh/committed)")
        for path, f_val, c_val in shape_diffs(fresh, committed, "", diffs):
            ratio = f"{f_val / c_val:8.3f}" if c_val else "     n/a"
            print(f"  {ratio}  {path}  {f_val} / {c_val}")
        for diff in diffs:
            print(f"FAIL {name} {diff}")
        failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
