"""One benchmark workload in one fresh, single-threaded process.

Started by run.py, which measures set-up time against the ``t_ready``
timestamp this process reports (both read the system-wide monotonic
clock). A single closed-loop caller issues the next task only after the
previous one has returned and been checked. Input generation and output
checks run outside the timed region. The last line of standard output is
one JSON object with the per-task records.

Modes:
  setup  import and build the first input, report t_ready, exit
  run    time tasks until --seconds of task time and the workload's
         minimum task count are both reached
  trace  run a fixed number of tasks, each once untraced and once traced
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

import uip
from spans import Tracer
from uip import bounds, bundling, freight, model, pricing

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_REFERENCE = os.path.join(HERE, "sim_reference.json")

# Instance seed of task k in a run with workload seed s: s * SEED_STRIDE + k.
SEED_STRIDE = 100_000
# Tolerances of acceptance criterion 3 (bound sandwich).
BOUND_TOL = 1e-9
FLUID_TOL = 1e-6
# Rounding allowance when comparing V^DFA of the chosen set with V^DFA(S0).
DFA_RTOL = 1e-9
# Simulator outputs must reproduce the stored reference to this relative error.
SIM_RTOL = 1e-9
# opt_gap.mean is the mean over the first GAP_TASKS bundle tasks, so that it
# depends on the seed and the code only, never on how many tasks fit a run.
GAP_TASKS = 30


@dataclass(frozen=True)
class Workload:
    make_input: Callable  # (seed, k) -> input, untimed
    task: Callable  # input -> output, timed
    check: Callable  # (input, output) -> None or a failure message, untimed
    horizon: Callable  # input -> realised horizon T of the task ("T/periods" if two)
    nominal_task_s: float  # slow-host seed-code task time; sizes the traced run
    min_tasks: int
    gap: Callable | None = None  # output -> optimality gap, where one exists


# --- bounds-table: one seed of `uip bounds-table --L 5 --lambda 20` --------


def _bounds_table_input(seed, k):
    return model.generate_synthetic(
        seed=seed * SEED_STRIDE + k, count=5, scenario="bounds-two-type",
        beta=1.0, demand=20.0, arrival_prob=0.1, beta_p=-1.0, max_bundle_size=1,
    )


def _bounds_table_task(inst):
    s0 = model.singletons(inst)
    v = pricing.exact_dp(inst, s0).value()
    suite = bounds.bound_suite(inst, s0)
    return v, suite


def _bounds_table_check(inst, out):
    v, suite = out
    for kind in ("lower_backward", "dfa", "static"):
        if not suite[kind].value <= v + BOUND_TOL:
            return f"{kind} {suite[kind].value!r} above V* {v!r}"
    if not v <= suite["upper_backward"].value + BOUND_TOL:
        return f"V* {v!r} above V^U {suite['upper_backward'].value!r}"
    fl = suite["fluid"]
    if not v <= fl.value + fl.certificate + FLUID_TOL:
        return f"V* {v!r} above fluid {fl.value!r} + certificate {fl.certificate!r}"
    return None


# --- exact: one seed of `uip exact --L 14 --lambda 14` ----------------------


def _exact_input(seed, k):
    return model.generate_synthetic(
        seed=seed * SEED_STRIDE + k, count=14, scenario="bounds-two-type",
        beta=1.0, demand=14.0, arrival_prob=0.1, beta_p=-1.0,
        max_bundles=None, max_bundle_size=2,
    )


def _exact_task(inst):
    return pricing.exact_dp(inst, model.singletons(inst)).value()


def _exact_check(inst, v):
    s0 = model.singletons(inst)
    lo = bounds.backward_lower(inst, s0).value
    up = bounds.backward_upper(inst, s0).value
    if not (lo <= v + BOUND_TOL and v <= up + BOUND_TOL):
        return f"V* {v!r} outside [V^L, V^U] = [{lo!r}, {up!r}]"
    return None


# --- bundle: one criterion-11 instance of `uip bundle --kb 3 --ks 3` --------


def _bundle_input(seed, k):
    return model.generate_synthetic(
        seed=seed * SEED_STRIDE + k, count=8, scenario="B" if k % 2 else "C",
        beta=2.0, demand=8.0, arrival_prob=0.1, beta_p=-1.0,
        max_bundles=3, max_bundle_size=3,
    )


def _bundle_task(inst):
    chosen, res, _trace = bundling.column_generation(
        inst, bundling.ColumnGenConfig(n_gen=50, n_eval=10))
    _, z_star = bundling.best_upper_bound_partition(inst)
    gap = bundling.optimality_gap(z_star, res.value, inst.customer.price_sensitivity)
    return chosen, res, gap


def _bundle_check(inst, out):
    chosen, res, gap = out
    chosen.validate(inst)
    s0 = model.singletons(inst)
    v0 = bounds.dfa(inst, s0, bounds.backward_upper(inst, s0).trajectory).value
    sign = pricing.canonical_sign(inst.customer.price_sensitivity)
    # The chosen set's trajectory comes from the pool-wide recursion, so a
    # chosen S0 can differ from V^DFA(S0) in the last bits.
    if not sign * res.value >= sign * v0 - DFA_RTOL * abs(v0):
        return f"V^DFA(chosen) {res.value!r} worse than V^DFA(S0) {v0!r}"
    if not gap >= -1e-9:
        return f"optimality gap {gap!r} below -1e-9"
    return None


# --- simulate: one demo freight simulation, custom and linear alternating ---


@functools.cache
def sim_reference():
    with open(SIM_REFERENCE) as fh:
        return json.load(fh)


def _sim_pool_order(seed, pool_size):
    """Simulator seeds of the pool in this run's order, per pricing mode."""
    rng = np.random.default_rng(seed)
    return {p: [int(s) for s in rng.permutation(pool_size)] for p in ("custom", "linear")}


def _sim_input(seed, pricing_mode, j):
    """Input of the j-th simulation of one pricing mode in this run."""
    ref = sim_reference()
    order = _sim_pool_order(seed, ref["pool_size"])[pricing_mode]
    cfg = freight.demo_sim_config(pricing_mode, seed=order[j % len(order)],
                                  replications=ref["replications"])
    return cfg, freight.demo_coeffs(), freight.demo_regions()


def _simulate_input(seed, k):
    return _sim_input(seed, "custom" if k % 2 == 0 else "linear", k // 2)


def simulate_task(inp):
    cfg, coeffs, regions = inp
    return freight.simulate(cfg, coeffs, regions)


def sim_reference_key(cfg):
    return f"{cfg.pricing}:{cfg.seed}"


def _simulate_check(inp, metrics):
    cfg = inp[0]
    ref = sim_reference()["entries"][sim_reference_key(cfg)]
    for key, want in ref.items():
        got = metrics.samples[key].tolist()
        for r, (a, b) in enumerate(zip(got, want)):
            if a != b and abs(a - b) > SIM_RTOL * max(abs(a), abs(b)):
                return f"{sim_reference_key(cfg)} replication {r} {key}: {a!r} != {b!r}"
        if len(got) != len(want):
            return f"{sim_reference_key(cfg)} {key}: {len(got)} replications != {len(want)}"
    return None


# --- bundle-simulate: one bundle task, then one simulation -----------------
# Scenario B/C alternates with k and the pricing mode with k // 2, so that
# the four pairings take turns.


def _bundle_simulate_input(seed, k):
    pricing_mode = "custom" if (k // 2) % 2 == 0 else "linear"
    return _bundle_input(seed, k), _sim_input(seed, pricing_mode, (k // 4) * 2 + k % 2)


def _bundle_simulate_task(inp):
    return _bundle_task(inp[0]), simulate_task(inp[1])


def _bundle_simulate_check(inp, out):
    return _bundle_check(inp[0], out[0]) or _simulate_check(inp[1], out[1])


WORKLOADS = {
    "bounds-table": Workload(_bounds_table_input, _bounds_table_task, _bounds_table_check,
                             lambda inst: inst.horizon, 1.3, 8),
    "exact": Workload(_exact_input, _exact_task, _exact_check,
                      lambda inst: inst.horizon, 1.3, 8),
    "bundle": Workload(_bundle_input, _bundle_task, _bundle_check,
                       lambda inst: inst.horizon, 0.6, GAP_TASKS, gap=lambda out: out[2]),
    "simulate": Workload(_simulate_input, simulate_task, _simulate_check,
                         lambda inp: inp[0].horizon_periods, 0.4, 8),
    "bundle-simulate": Workload(_bundle_simulate_input, _bundle_simulate_task,
                                _bundle_simulate_check,
                                lambda inp: f"{inp[0].horizon}/{inp[1][0].horizon_periods}",
                                1.0, GAP_TASKS, gap=lambda out: out[0][2]),
}


def _one_task(wl, inp, tracer=None):
    """Run and check one task; returns (seconds, error or None, output).
    With a tracer, spans are recorded for the task but not for the check."""
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            out = wl.task(inp)
        except Exception:
            return time.perf_counter() - t0, traceback.format_exc(limit=3), None
        dt = time.perf_counter() - t0
    try:
        err = wl.check(inp, out)
    except Exception:
        err = traceback.format_exc(limit=3)
    return dt, err, out


def environment():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "uip": uip.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--deadline", type=float, required=True,
                    help="monotonic time after which no new task starts")
    ap.add_argument("--spans-out", help="trace mode: where to write the spans")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(uip.__file__).startswith(src + os.sep):
        print(f"uip imported from {uip.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    first = wl.make_input(args.seed, 0)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "env": environment()}

    if args.mode == "run":
        tasks, errors, gaps = [], [], []
        timed = 0.0
        inp, k = first, 0
        while True:
            dt, err, out = _one_task(wl, inp)
            tasks.append([dt, err is None, wl.horizon(inp)])
            if err is not None:
                errors.append(f"task {k}: {err}")
            elif wl.gap is not None and k < GAP_TASKS:
                gaps.append(wl.gap(out))
            timed += dt
            k += 1
            if timed >= args.seconds and k >= wl.min_tasks:
                break
            if time.monotonic() >= args.deadline:
                break
            inp = wl.make_input(args.seed, k)
        result.update(tasks=tasks, errors=errors[:5], gaps=gaps)

    elif args.mode == "trace":
        n_tasks = max(2, int(args.seconds / (2.0 * wl.nominal_task_s)))
        tracer = Tracer()
        tasks, errors = [], []
        totals = [0.0, 0.0]  # untraced, traced task time over the same inputs
        for k in range(n_tasks):
            for traced in (False, True):
                inp = wl.make_input(args.seed, k)
                dt, err, _ = _one_task(wl, inp, tracer if traced else None)
                tasks.append([dt, err is None, wl.horizon(inp)])
                if err is not None:
                    errors.append(f"task {k}: {err}")
                totals[traced] += dt
        layers = tracer.layer_metrics()
        layers["trace.overhead_ratio"] = totals[1] / totals[0]
        if args.spans_out:
            tracer.write(args.spans_out)
        result.update(tasks=tasks, errors=errors[:5], layers=layers,
                      spans=len(tracer.names))

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
