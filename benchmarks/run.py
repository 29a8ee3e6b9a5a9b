"""uip benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 benchmarks/run.py --workload bundle --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median of SETUP_SAMPLES fresh processes, from process start to the first
timed task), tasks per second, the median and p60 task time, peak memory
and the bundle optimality gap. With ``--trace 1`` it reports the per-layer
metrics of a separate traced run (see spans.py). Every task's output is
checked outside the timed region.

The workload itself runs in a fresh, single-threaded child process
(worker.py) with ``src`` first on its import path; this process only
starts children, waits for them and formats the result. Human-readable
lines come first; the last line of standard output is the JSON result.
A full record (environment, per-task times and horizons) is written to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("bounds-table", "exact", "bundle", "simulate", "bundle-simulate")
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Whole run must end within 180 s: no task starts after TASK_DEADLINE_S and
# a child still running at CHILD_LIMIT_S is killed.
TASK_DEADLINE_S = 130.0
CHILD_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_s.p50", "s"),
    ("task_s.p60", "s"),
    ("peak_rss_mb", "MB"),
    ("opt_gap.mean", "ratio"),
]


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, env: dict, t_start: float, spans_out=None) -> dict:
    """Run worker.py once; returns its result with ``setup_s`` added."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--deadline", repr(t_start + TASK_DEADLINE_S)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, t_start + CHILD_LIMIT_S - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker killed after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def git_revision(root: str):
    """HEAD of the checkout, read without starting git; None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over src/uip/*.py, which names the code even outside git."""
    pkg = os.path.join(root, "src", "uip")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def p60(xs):
    """Tail task time: the highest percentile with about ten samples beyond
    it in a bounds-table run, the workload with the fewest tasks per run."""
    return statistics.quantiles(xs, n=5, method="inclusive")[2] if len(xs) > 1 else xs[0]


def end_to_end(args, env, t_start):
    samples = [run_worker(args, "setup", env, t_start)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(args, "run", env, t_start)
    samples.append(res["setup_s"])
    times = [t[0] for t in res["tasks"]]
    passed = sum(1 for t in res["tasks"] if t[1])
    gaps = res.get("gaps") or []
    metrics = {
        "setup_s": statistics.median(samples),
        "tasks_per_s": passed / sum(times),
        "task_s.p50": statistics.median(times),
        "task_s.p60": p60(times),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        # Only bundle answers carry a gap; the other workloads return exact
        # or reference-checked values and report a constant 1.
        "opt_gap.mean": statistics.fmean(gaps) if gaps else 1.0,
    }
    res["setup_samples"] = samples
    return res, metrics, END_TO_END


def traced(args, env, t_start):
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    res = run_worker(args, "trace", env, t_start, spans_out=spans_out)
    res["spans_file"] = os.path.relpath(spans_out)
    return res, res.pop("layers"), PER_LAYER


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="task time to measure in the timed run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uip", "__init__.py")):
        print("error: run from the repository root (src/uip not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        res, metrics, spec = (traced if args.trace else end_to_end)(args, env, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tasks = res["tasks"]
    attempted = len(tasks)
    failed = sum(1 for t in tasks if not t[1])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"git_revision": git_revision(root), "source_sha256": source_digest(root),
                **res.pop("env")},
        **res,
        "metrics": metrics,
    }
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    horizons = Counter(t[2] for t in tasks)
    print("horizon T " + ", ".join(f"{h} x{n}" for h, n in sorted(horizons.items())))
    print(f"tasks {attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:g} ratio)")
    for msg in res.get("errors", []):
        print("failure " + msg.strip().replace("\n", " | "))
    for name, unit in spec:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"record {os.path.relpath(out_path)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
