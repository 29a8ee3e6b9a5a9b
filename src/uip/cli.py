"""Experiment runner: desk-scale reproductions of the headline tables and
figures, plus direct access to every library capability.

Every output file is deterministic for a fixed seed and carries a
provenance comment (tool version, seed, hash of the resolved experiment
arguments). Data only; no plot rendering.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import backward_upper, bound_suite, dfa
from .bundling import (
    ColumnGenConfig,
    best_upper_bound_partition,
    column_generation,
    greedy_bundle,
    optimality_gap,
)
from .errors import ConfigError, UipError, config_errors
from .freight import RegionModel, FreightCoeffs, SimConfig, demo_coeffs, demo_regions, simulate
from .model import (
    BundleOption,
    CustomerModel,
    Item,
    MarketInstance,
    OptionSet,
    generate_synthetic,
    instance_from_json,
    singletons,
)
from .pricing import bundling_condition, exact_dp

def _spec_hash(args: dict) -> str:
    """Hash of the experiment-defining arguments (the output path and the
    handler function are excluded)."""
    semantic = {k: v for k, v in args.items() if k not in ("func", "out")}
    blob = json.dumps(semantic, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(args, seed=None) -> dict:
    """Tool version, seed (args.seed unless given) and spec hash of a run."""
    return {"version": __version__, "seed": args.seed if seed is None else seed,
            "spec": _spec_hash(vars(args))}


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_table(args, header: list[str], rows: list[list], doc=None, seed=None):
    """Write rows under header as CSV, after a provenance comment with the
    seed (args.seed unless given); with --format json, write doc instead,
    by default one object per row. Floats are written as repr, so the CSV
    round-trips them."""
    if args.format == "json":
        _emit(args.out, _json([dict(zip(header, r)) for r in rows] if doc is None else doc))
        return
    lines = ["# uip {version} seed={seed} spec={spec}".format(**_provenance(args, seed)),
             ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _emit(args.out, "\n".join(lines) + "\n")


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")
    return value


class _Unset(str):
    """--format's default: equal to, and hashed and serialized as, the plain
    string, but of its own type, so that _reject_ignored sees an explicit
    --format csv."""


def _reject_ignored(args, flags: dict[str, str], reason: str) -> None:
    """ConfigError if a flag in flags (dest -> flag) is set to other than
    its default, or given at all where the default is _Unset: the command
    would ignore it, yet it enters the spec hash."""
    defaults = build_parser().parse_args([args.command])
    given = [flag for dest, flag in flags.items()
             if getattr(args, dest) != getattr(defaults, dest)
             or type(getattr(args, dest)) is not type(getattr(defaults, dest))]
    if given:
        raise ConfigError(f"{reason}; drop {', '.join(given)}")


def _load_instance(args) -> MarketInstance:
    if args.instance:
        _reject_ignored(args, {"scenario": "--scenario", "L": "--L", "lam": "--lambda",
                               "mu": "--mu", "beta": "--beta", "beta_p": "--beta-p",
                               "kb": "--kb", "ks": "--ks"},
                        "--instance takes the whole market from the file")
        with open(args.instance) as fh:
            return instance_from_json(fh.read())
    return generate_synthetic(
        seed=args.seed,
        count=args.L,
        scenario=args.scenario,
        beta=args.beta,
        demand=args.lam,
        arrival_prob=args.mu,
        beta_p=args.beta_p,
        max_bundles=args.ks,
        max_bundle_size=args.kb,
    )


def _add_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--instance", help="instance JSON file (overrides synthetic flags)")
    p.add_argument("--scenario", default="bounds-two-type",
                   choices=["bounds-two-type", "A", "B", "C"])
    p.add_argument("--L", type=int, default=5, help="number of items")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="demand (expected arrivals); default L")
    p.add_argument("--mu", type=float, default=0.1, help="per-period arrival probability")
    p.add_argument("--beta", type=float, default=1.0, help="quality sensitivity")
    p.add_argument("--beta-p", dest="beta_p", type=float, default=-1.0)
    p.add_argument("--ks", type=int, default=None, help="max number of bundles")
    p.add_argument("--kb", type=int, default=2, help="max bundle size")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds to sweep")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=["csv", "json"], default=_Unset("csv"))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_exact(args) -> int:
    _reject_ignored(args, {"seeds": "--seeds", "kb": "--kb", "ks": "--ks"},
                    "exact prices the singletons of one instance")
    inst = _load_instance(args)
    header = ["value", "horizon", "items"]
    row = [exact_dp(inst, singletons(inst)).value(), inst.horizon, inst.n_items]
    _write_table(args, header, [row],
                 doc={**dict(zip(header, row)), "provenance": _provenance(args)})
    return 0


def cmd_bounds_table(args) -> int:
    if args.instance:
        # the table averages over --seeds synthetic draws; the flag stays
        # registered so that the spec hash of valid runs keeps its value
        raise ConfigError("bounds-table draws synthetic instances and takes no --instance")
    _reject_ignored(args, {"kb": "--kb", "ks": "--ks"},
                    "bounds-table prices singletons only, without bundles")
    lam = args.lam if args.lam is not None else float(args.L)

    def one(seed: int):
        inst = generate_synthetic(
            seed=seed, count=args.L, scenario=args.scenario, beta=args.beta,
            demand=lam, arrival_prob=args.mu, beta_p=args.beta_p,
            max_bundle_size=1,
        )
        s0 = singletons(inst)
        v = exact_dp(inst, s0).value()
        out = {}
        for kind, res in bound_suite(inst, s0).items():
            out[kind] = (res.value - v) / v
        return out

    seeds = [args.seed + k for k in range(_at_least_one("--seeds", args.seeds))]
    rows = list(map(one, seeds))
    kinds = ["fluid", "upper_backward", "dfa", "lower_backward", "static"]
    table = [
        [kind, args.L, lam, float(np.mean([r[kind] for r in rows]))]
        for kind in kinds
    ]
    _write_table(args, ["kind", "L", "lambda", "mean_rel_err"], table,
                 doc={k: dict(L=args.L, demand=lam, mean_rel_err=v) for k, _, _, v in table})
    return 0


def _table_instance(table: dict, n_items: int, demand: float, mu: float, beta_p: float,
                    max_bundle_size: int) -> MarketInstance:
    """Items 0..n_items-1 and one customer type whose quality of an option
    is table[option.items]; at most one bundle."""
    customer = CustomerModel(types=(0,), arrival_pmf=np.array([1.0]),
                             price_sensitivity=beta_p,
                             quality=lambda option: (table[option.items],))
    return MarketInstance(items=tuple(Item(j) for j in range(n_items)), customer=customer,
                          demand=demand, arrival_prob=mu, max_bundles=1,
                          max_bundle_size=max_bundle_size)


# The introduction's example: three items with one complementary and one
# high-quality bundle.
_INTRO_QUALITY = {
    (0,): 1.0, (1,): 1.5, (2,): 2.5,
    (0, 1): 3.0, (1, 0): 3.0,
    (1, 2): 4.0, (2, 1): 4.0,
}


def intro_example_values(demand: float) -> tuple[float, float, float]:
    """Exact values of S0, {(0, 1), (2,)} and {(0,), (1, 2)} on the
    introduction's example."""
    inst = _table_instance(_INTRO_QUALITY, 3, demand, mu=0.1, beta_p=-1.0, max_bundle_size=2)
    s0 = singletons(inst)
    s1 = OptionSet((BundleOption((0, 1)), BundleOption((2,))))
    s2 = OptionSet((BundleOption((0,)), BundleOption((1, 2))))
    return tuple(exact_dp(inst, s).value() for s in (s0, s1, s2))


def _parse_grid(spec: str) -> np.ndarray:
    """Grid from lo:hi[:count][:log|lin]; 25 log-spaced points by default."""
    parts = spec.split(":")
    if len(parts) < 2:
        raise ConfigError(f"grid {spec!r}: expected lo:hi[:count][:log|lin]")
    n = 25
    log = True
    with config_errors(f"grid {spec!r}"):
        lo, hi = float(parts[0]), float(parts[1])
        for p in parts[2:]:
            if p in ("log", "lin"):
                log = p == "log"
            else:
                n = int(p)
    _at_least_one(f"grid {spec!r}: the point count", n)
    if not (math.isfinite(lo) and math.isfinite(hi)) or (log and min(lo, hi) <= 0):
        raise ConfigError(f"grid {spec!r}: bounds must be finite, and positive on a log grid")
    if log:
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))
    return np.linspace(lo, hi, n)


def cmd_figure1(args) -> int:
    _reject_ignored(args, {"seeds": "--seeds"}, "figure1 computes one fixed example")
    grid = _parse_grid(args.lambda_grid)
    vals = list(map(intro_example_values, grid))
    rows = [
        [float(lam), v0, v1, v2] for lam, (v0, v1, v2) in zip(grid, vals)
    ]
    _write_table(args, ["lambda", "v_s0", "v_s1", "v_s2"], rows)
    return 0


def cmd_bundle(args) -> int:
    _reject_ignored(args, {"seeds": "--seeds", "format": "--format"},
                    "bundle writes one JSON document for one instance")
    inst = _load_instance(args)
    cfg = ColumnGenConfig(n_gen=args.n_gen, n_eval=args.n_eval)
    chosen, res, trace = column_generation(inst, cfg)
    _, z_star = best_upper_bound_partition(inst)
    payload = {
        "options": [list(o.items) for o in chosen],
        "dfa": res.value,
        "z_star": z_star,
        "optimality_gap": optimality_gap(z_star, res.value, inst.customer.price_sensitivity),
        "trace": trace.to_json_dict(),
        "provenance": _provenance(args),
    }
    _emit(args.out, _json(payload))
    return 0


def cmd_greedy(args) -> int:
    _reject_ignored(args, {"seeds": "--seeds", "format": "--format"},
                    "greedy writes one JSON document for one instance")
    inst = _load_instance(args)
    chosen = greedy_bundle(inst, value_kind=args.value_kind)
    up = backward_upper(inst, chosen)
    res = dfa(inst, chosen, up.trajectory)
    payload = {
        "options": [list(o.items) for o in chosen],
        "dfa": res.value,
        "value_kind": args.value_kind,
        "provenance": _provenance(args),
    }
    _emit(args.out, _json(payload))
    return 0


def cmd_simulate(args) -> int:
    _at_least_one("--seeds", args.seeds)
    if args.config:
        _reject_ignored(args, {"pricing": "--pricing", "seeds": "--seeds", "seed": "--seed"},
                        "simulate --config takes the pricing, replications and seed from the file")
        with open(args.config) as fh:
            cfg = SimConfig.from_json(fh.read())
    else:
        from .freight import demo_sim_config

        cfg = demo_sim_config(pricing=args.pricing, seed=args.seed, replications=args.seeds)
    coeffs = demo_coeffs()
    regions = demo_regions()
    if args.coeffs:
        with open(args.coeffs) as fh, config_errors(f"coeffs file {args.coeffs}"):
            coeffs = FreightCoeffs.from_dict(json.load(fh))
    if args.regions:
        with open(args.regions) as fh, config_errors(f"regions file {args.regions}"):
            regions = RegionModel.from_dict(json.load(fh))
    metrics = simulate(cfg, coeffs, regions)
    keys = list(metrics.samples)
    rows = []
    for r in range(len(metrics.samples[keys[0]])):
        rows.append([r] + [float(metrics.samples[k][r]) for k in keys])
    rows.append(["mean"] + [metrics.mean(k) for k in keys])
    rows.append(["half_width"] + [metrics.half_width(k) for k in keys])
    _write_table(args, ["replication"] + keys, rows, doc=metrics.to_json_dict(), seed=cfg.seed)
    return 0


def cmd_condition_scatter(args) -> int:
    """Sampled first-order-condition checks: does delta-kappa above the
    size threshold predict a positive exact improvement?"""
    _reject_ignored(args, {"seeds": "--seeds"}, "condition-scatter draws from one --seed")
    rng = np.random.default_rng(args.seed)
    grid = _parse_grid(args.lambda_grid)
    _at_least_one("--samples", args.samples)
    draws = []
    for k in range(args.samples):
        draws.append(
            (
                float(rng.choice(grid)),
                2 if k % 2 == 0 else 3,
                rng.uniform(0.0, 2.0, 5),
                float(rng.uniform(0.5, 1.5)),
            )
        )

    def one(draw):
        lam, n_bundle, qs, mult = draw
        table = {(j,): float(qs[j]) for j in range(5)}
        members = tuple(range(n_bundle))
        bundle_q = float(mult * qs[:n_bundle].sum())
        for perm in itertools.permutations(members):
            table[perm] = bundle_q
        inst = _table_instance(table, 5, lam, args.mu, -1.0, n_bundle)
        s = OptionSet((BundleOption(members),) + tuple(
            BundleOption((j,)) for j in range(n_bundle, 5)))
        v = exact_dp(inst, s).value()
        v0 = exact_dp(inst, singletons(inst)).value()
        delta_kappa, threshold, satisfied = bundling_condition(inst, s)
        return [lam, n_bundle, delta_kappa, threshold, v - v0, int(satisfied), int(v > v0)]

    rows = list(map(one, draws))
    _write_table(args, ["lambda", "bundle_size", "delta_kappa", "threshold", "improvement",
                        "condition_satisfied", "improvement_positive"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uip",
        description="Unique-items pricing: exact DP, revenue bounds, bundling, simulation",
    )
    parser.add_argument("--version", action="version", version=f"uip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact expected revenue of the no-bundle set")
    _add_instance_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bounds-table", help="relative errors of the five approximations")
    _add_instance_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_bounds_table)

    p = sub.add_parser("figure1", help="revenue of three option sets over a demand grid")
    p.add_argument("--lambda-grid", default="0.5:50:25:log")
    _add_common(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("bundle", help="column-generation bundling")
    _add_instance_flags(p)
    _add_common(p)
    p.add_argument("--n-gen", type=int, default=50)
    p.add_argument("--n-eval", type=int, default=10)
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("greedy", help="greedy bundling")
    _add_instance_flags(p)
    _add_common(p)
    p.add_argument("--value-kind", default="dfa",
                   choices=["dfa", "upper", "fluid", "static"])
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("simulate", help="freight marketplace simulation")
    _add_common(p)
    p.add_argument("--config", help="SimConfig JSON file")
    p.add_argument("--coeffs", help="FreightCoeffs JSON file")
    p.add_argument("--regions", help="RegionModel JSON file")
    p.add_argument("--pricing", default="custom", choices=["linear", "custom"])
    p.set_defaults(func=cmd_simulate, seeds=20)

    p = sub.add_parser("condition-scatter", help="first-order bundling condition samples")
    p.add_argument("--lambda-grid", default="2:30:12:log")
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--mu", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=cmd_condition_scatter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
