"""In-memory span tracer for the benchmark's traced run.

Every public function of the library layers (the modules of ``src/uip``
other than the CLI and the error types) is wrapped at every name it is
bound to inside the ``uip`` package, so that a call from one module into
another (``uip.bundling.dfa``, ``uip.freight.lambert_w_exp``,
``uip.bounds.simplex_solve``) is caught as well as a call from the
benchmark. A span is (name, start, end, parent); spans stay in memory and
are written out once, when the run ends. Self time is a span's duration
minus the durations of its direct child spans.

The wrappers are installed from the benchmark's own files; no library code
is changed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("numerics", "model", "pricing", "bounds", "optim", "bundling", "freight")

# Per-layer metrics reported by the traced run, in the order they are printed.
PER_LAYER = [
    ("bounds.fluid.calls", "count"),
    ("bounds.fluid.self_s", "s"),
    ("bounds.fluid.converged_ratio", "ratio"),
    ("optim.simplex_solve.calls", "count"),
    ("optim.simplex_solve.self_s", "s"),
    ("optim.bnb_solve.calls", "count"),
    ("optim.bnb_solve.nodes", "count"),
    ("optim.bnb_solve.self_s", "s"),
    ("optim.enumerate_top_solutions.self_s", "s"),
    ("bounds.dfa.calls", "count"),
    ("bounds.dfa.self_s", "s"),
    ("bounds.singleton_upper_profiles.calls", "count"),
    ("bounds.singleton_upper_profiles.self_s", "s"),
    ("bounds.backward_upper.self_s", "s"),
    ("bounds.backward_lower.self_s", "s"),
    ("bounds.static.self_s", "s"),
    ("bundling.column_generation.calls", "count"),
    ("bundling.column_generation.columns", "count"),
    ("bundling.column_generation.pool_size", "count"),
    ("bundling.column_generation.self_s", "s"),
    ("bundling.best_upper_bound_partition.self_s", "s"),
    ("pricing.exact_dp.calls", "count"),
    ("pricing.exact_dp.states", "count"),
    ("pricing.exact_dp.self_s", "s"),
    ("numerics.lambert_w_exp.calls", "count"),
    ("numerics.lambert_w_exp.elems", "count"),
    ("numerics.lambert_w_exp.self_s", "s"),
    ("numerics.log_sum_exp.calls", "count"),
    ("numerics.log_sum_exp.self_s", "s"),
    ("numerics.weighted_lse_rows.calls", "count"),
    ("numerics.weighted_lse_rows.self_s", "s"),
    ("freight.simulate.self_s", "s"),
    ("freight.simulate.periods", "count"),
    ("freight.sample_choice.calls", "count"),
    ("freight.sample_choice.self_s", "s"),
    ("freight.load_marginal_value.calls", "count"),
    ("model.enumerate_options.calls", "count"),
    ("model.enumerate_options.self_s", "s"),
    ("model.quality_matrix.calls", "count"),
    ("model.quality_matrix.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Metrics that are counts of work and must repeat exactly between two traced
# runs at one seed (the self-test compares them).
EXACT_SUFFIXES = (".calls", ".elems", ".states", ".nodes", ".columns",
                  ".pool_size", ".periods", ".converged_ratio")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_lambert(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    size = getattr(x, "size", None)  # arrays and numpy scalars
    if size is None:
        size = len(x) if isinstance(x, (list, tuple)) else 1
    return {"elems": int(size)}


def _count_exact_dp(args, kwargs, result):
    inst = _arg(args, kwargs, 0, "instance")
    n = len(_arg(args, kwargs, 1, "option_set").options)
    return {"states": (inst.horizon + 1) * (1 << n) * inst.customer.n_types}


def _count_fluid(args, kwargs, result):
    return {"converged": int(bool(result.extra.get("converged")))}


def _count_column_generation(args, kwargs, result):
    trace = result[2]
    return {"columns": len(trace.iterations), "pool_size": trace.pool_size}


def _count_simulate(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "config")
    return {"periods": cfg.horizon_periods * cfg.replications}


COUNTERS = {
    "numerics.lambert_w_exp": _count_lambert,
    "pricing.exact_dp": _count_exact_dp,
    "bounds.fluid": _count_fluid,
    "bundling.column_generation": _count_column_generation,
    "freight.simulate": _count_simulate,
}


class Tracer:
    """Records a span for every wrapped call while installed, i.e. inside
    ``with tracer:``; outside it the library runs unwrapped."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings = self._find_bindings()  # (owner, attr, original, wrapper)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _find_bindings(self):
        """Every public function of each layer at every binding inside the
        ``uip`` package, and ``CustomerModel.quality_matrix``."""
        for layer in LAYERS:
            importlib.import_module(f"uip.{layer}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "uip" or key.startswith("uip.")]
        bindings = []
        for layer in LAYERS:
            mod = sys.modules[f"uip.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    bindings += [(m, name, fn, wrapped)
                                 for name, value in vars(m).items() if value is fn]
        customer = sys.modules["uip.model"].CustomerModel
        fn = customer.quality_matrix
        bindings.append((customer, "quality_matrix", fn,
                         self._wrap("model.quality_matrix", fn)))
        return bindings

    def __enter__(self):
        for owner, attr, _original, wrapped in self._bindings:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _wrapped in self._bindings:
            setattr(owner, attr, original)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counts per span name, plus the derived
        metrics of PER_LAYER (without trace.overhead_ratio)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            calls[self.names[i]] += 1
            self_s[self.names[i]] += self.end[i] - self.start[i] - child[i]
        nodes = sum(
            1 for i in range(n)
            if self.names[i] == "optim.simplex_solve" and self.parent[i] >= 0
            and self.names[self.parent[i]] == "optim.bnb_solve"
        )
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            span, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls[span]
            elif stat == "self_s":
                out[name] = self_s[span]
            elif stat == "nodes":
                out[name] = nodes
            elif stat == "converged_ratio":
                fluid_calls = calls[span]
                converged = self.counts[f"{span}.converged"]
                out[name] = converged / fluid_calls if fluid_calls else 0.0
            elif stat in ("elems", "states", "columns", "pool_size", "periods"):
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, path):
        """Write every span as [name index, start ns, end ns, parent index]
        (gzipped JSON); times count from the first span's start."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [index[self.names[i]], round((self.start[i] - t0) * 1e9),
             round((self.end[i] - t0) * 1e9), self.parent[i]]
            for i in range(len(self.names))
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": table, "spans": spans}, separators=(",", ":")))
