"""Self-test of the benchmark: two traced runs at one seed must report the
same per-layer counts (calls, elems, states, nodes, columns, pool sizes,
periods and the fluid converged ratio), and every task must pass its check.

Run from the repository root:

    python3 benchmarks/selftest.py --seed 3 --seconds 6

Exit code 0 when every workload repeats exactly, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS
from spans import EXACT_SUFFIXES

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} tasks failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(EXACT_SUFFIXES)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to test (repeatable; default all)")
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        nonzero = sum(1 for v in first.values() if v)
        if diff:
            ok = False
            print(f"{workload}: FAIL, counts differ: {diff}")
        else:
            print(f"{workload}: ok, {len(first)} counts repeat exactly ({nonzero} nonzero)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
