"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime budget is pinned here. Criterion 7 (trajectory
and availability monotonicity) is accumulated while criteria 3-5 run and
asserted afterwards; criterion 14 reports the module's own elapsed time.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize

from uip.bounds import backward_lower, backward_upper, dfa, fluid, static
from uip.bundling import ColumnGenConfig, column_generation, min_empty_miles
from uip.cli import intro_example_values
from uip.freight import demo_coeffs, demo_regions, demo_sim_config, sample_choice, simulate
from uip.model import (
    CustomerModel,
    FreightItemData,
    Item,
    MarketInstance,
    enumerate_options,
    generate_synthetic,
    singletons,
)
from uip.numerics import lambert_w0
from uip.optim import LE, EQ, GE, LinearProgram, SetPartitionMilp, bnb_solve, simplex_solve
from uip.pricing import (
    cumulative_aggregated_utility,
    enumerate_partitions,
    exact_dp,
    single_period_optimum,
)

MODULE_T0 = time.perf_counter()
MONOTONE_CHECKS: list[bool] = []


def _report(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:02d} PASS ({elapsed:6.1f}s / budget {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _record_monotonicity(inst, option_set, upper_result, dfa_result):
    traj = upper_result.trajectory
    xi = inst.salvage_vector(option_set.options)
    ok = bool(
        traj.monotone_ok
        and np.all(traj.prices[:1] >= xi - 1e-12)
        and np.all(np.diff(traj.prices, axis=0) >= -1e-12)
    )
    a = dfa_result.availability
    ok = ok and bool(
        np.all(a >= -1e-12) and np.all(a <= 1 + 1e-12)
        and np.all(np.diff(a, axis=0) >= -1e-12)
    )
    MONOTONE_CHECKS.append(ok)


def _sandwich_instance(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 4))
    lam = float(rng.uniform(0.5, 4.0))  # T <= 40 at mu = 0.1
    salvage = float(rng.uniform(0.0, 0.8)) if seed % 3 == 0 else 0.0
    if seed % 2 == 0:
        return generate_synthetic(
            seed, L, "bounds-two-type", float(rng.uniform(0.3, 2.0)),
            demand=lam, arrival_prob=0.1, beta_p=-float(rng.uniform(0.5, 2.0)),
            salvage=salvage, max_bundle_size=1,
        )
    qs = rng.uniform(-2.0, 2.0, L)
    cust = CustomerModel(
        types=(0,), arrival_pmf=[1.0],
        price_sensitivity=-float(rng.uniform(0.5, 2.0)),
        quality=lambda o, w, qs=qs: float(qs[o.items[0]]),
    )
    return MarketInstance(
        items=tuple(Item(i, salvage=salvage) for i in range(L)), customer=cust,
        demand=lam, arrival_prob=0.1, max_bundles=L, max_bundle_size=1,
    )


def test_criterion_01_lambert_w():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [
            rng.uniform(-np.exp(-1.0), 10.0, 40_000),
            np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 60_000)),
        ]
    )
    w = lambert_w0(z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * (1.0 + np.abs(z)))

    lo, hi = 0.0, 1.0
    for _ in range(200):  # bisection oracle for the Omega constant
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(lambert_w0(1.0) - 0.5 * (lo + hi)) <= 1e-12
    _report(1, "Lambert W residuals and Omega constant", t0, 5.0)


def test_criterion_02_closed_form_pricing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        q = rng.uniform(-2.0, 2.0, n)
        d = rng.uniform(0.0, 3.0, n)
        bp = -float(rng.uniform(0.5, 2.0))
        spo = single_period_optimum(q, d, bp)

        def revenue(p):
            e = np.exp(q + bp * np.asarray(p))
            return float(np.sum(e / (1 + e.sum()) * (np.asarray(p) - d)))

        # grid over the common markup (the optimum prices all items at
        # marginal value plus one shared markup)
        markups = np.arange(0.0, 12.0, 1e-3)
        grid_best = max(revenue(d + m) for m in markups)
        if n == 1:  # direct price grid as well
            grid_best = max(grid_best, max(revenue([p]) for p in np.arange(0, 10, 1e-3)))
        assert spo.revenue >= grid_best - 1e-4

        best_polish = -np.inf
        for start in [spo.prices, spo.prices + rng.uniform(-1, 1, n)]:
            res = minimize(lambda p: -revenue(p), start, method="Nelder-Mead",
                           options={"xatol": 1e-8, "fatol": 1e-10})
            best_polish = max(best_polish, -res.fun)
        assert spo.revenue >= best_polish - 1e-4
    _report(2, "single-period closed form vs grid + Nelder-Mead", t0, 30.0)


def test_criterion_03_bound_sandwich():
    t0 = time.perf_counter()
    for seed in range(50):
        inst = _sandwich_instance(seed)
        s0 = singletons(inst)
        v = exact_dp(inst, s0).value()
        up = backward_upper(inst, s0)
        lo = backward_lower(inst, s0)
        df = dfa(inst, s0, up.trajectory)
        fl = fluid(inst, s0)
        st = static(inst, s0)
        assert lo.value <= v + 1e-9
        assert st.value <= v + 1e-9
        assert df.value <= v + 1e-9
        assert v <= up.value + 1e-9
        assert v <= fl.value + fl.certificate + 1e-6
        _record_monotonicity(inst, s0, up, df)
    _report(3, "bound sandwich on 50 instances", t0, 120.0)


def test_criterion_04_relative_error_signs():
    t0 = time.perf_counter()
    rel = {k: [] for k in ("fluid", "upper", "dfa", "lower", "static")}
    for seed in range(20):
        inst = generate_synthetic(seed, 5, "bounds-two-type", 1.0, demand=20.0,
                                  arrival_prob=0.1, beta_p=-1.0, max_bundle_size=1)
        s0 = singletons(inst)
        v = exact_dp(inst, s0).value()
        up = backward_upper(inst, s0)
        df = dfa(inst, s0, up.trajectory)
        rel["fluid"].append((fluid(inst, s0).value - v) / v)
        rel["upper"].append((up.value - v) / v)
        rel["dfa"].append((df.value - v) / v)
        rel["lower"].append((backward_lower(inst, s0).value - v) / v)
        rel["static"].append((static(inst, s0).value - v) / v)
        _record_monotonicity(inst, s0, up, df)
    means = {k: float(np.mean(vs)) for k, vs in rel.items()}
    assert means["fluid"] > 0
    assert means["upper"] > 0
    assert means["dfa"] < 0
    assert means["lower"] < 0
    assert means["static"] < 0
    assert abs(means["dfa"]) <= min(abs(means["lower"]), abs(means["static"]))
    _report(4, f"relative-error sign pattern {means}", t0, 300.0)


def test_criterion_05_gap_shrinks_with_demand():
    t0 = time.perf_counter()
    gaps = []
    for lam in (10.0, 30.0, 100.0, 300.0):
        inst = generate_synthetic(12, 3, "bounds-two-type", 1.0, demand=lam,
                                  arrival_prob=0.1, beta_p=-1.0, max_bundle_size=1)
        s0 = singletons(inst)
        v = exact_dp(inst, s0).value()
        up = backward_upper(inst, s0)
        df = dfa(inst, s0, up.trajectory)
        gaps.append((up.value - df.value) / v)
        _record_monotonicity(inst, s0, up, df)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02
    _report(5, f"(V^U - V^DFA)/V* decreasing {np.round(gaps, 5).tolist()}", t0, 120.0)


def test_criterion_06_single_option_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(20):
        q0 = float(rng.uniform(-2, 2))
        cust = CustomerModel(types=(0,), arrival_pmf=[1.0],
                             price_sensitivity=-float(rng.uniform(0.5, 2.0)),
                             quality=lambda o, w, q0=q0: q0)
        inst = MarketInstance(
            items=(Item(0, salvage=float(rng.uniform(0, 1))),), customer=cust,
            demand=float(rng.uniform(0.5, 6.0)), arrival_prob=float(rng.uniform(0.1, 1.0)),
            max_bundles=1, max_bundle_size=1,
        )
        s0 = singletons(inst)
        v = exact_dp(inst, s0).value()
        up = backward_upper(inst, s0)
        df = dfa(inst, s0, up.trajectory)
        assert abs(up.value - v) <= 1e-10
        assert abs(df.value - v) <= 1e-9
    _report(6, "N=1 exactness of V^U and V^DFA", t0, 60.0)


def test_criterion_07_monotonicity_everywhere():
    t0 = time.perf_counter()
    assert len(MONOTONE_CHECKS) >= 74  # instances of criteria 3-5
    assert all(MONOTONE_CHECKS)
    _report(7, f"tau^U and availability monotone on {len(MONOTONE_CHECKS)} instances",
            t0, 10.0)


def test_criterion_08_revenue_utility_equivalence():
    t0 = time.perf_counter()
    for seed in range(10):
        inst = generate_synthetic(seed, 3, ("B" if seed % 2 else "A"), 2.0,
                                  demand=float(1.0 + seed % 4), arrival_prob=0.1,
                                  max_bundle_size=3, max_bundles=3)
        parts = enumerate_partitions(inst)
        vals, utils = [], []
        for p in parts:
            sol = exact_dp(inst, p)
            vals.append(sol.value())
            utils.append(cumulative_aggregated_utility(inst, p, sol))
        vmax, umax = max(vals), max(utils)
        argv = {parts[i].canonical() for i in range(len(parts)) if vals[i] >= vmax - 1e-9}
        argu = {parts[i].canonical() for i in range(len(parts)) if utils[i] >= umax - 1e-9}
        assert argv == argu
    _report(8, "argmax by exact value == argmax by cumulative utility", t0, 120.0)


def test_criterion_09_intro_example_regimes():
    t0 = time.perf_counter()
    grid = np.exp(np.linspace(np.log(0.5), np.log(50.0), 25))
    winners = [int(np.argmax(intro_example_values(float(lam)))) for lam in grid]
    assert 2 in winners and 1 in winners and 0 in winners
    lam_low = grid[winners.index(2)]
    lam_mid = grid[winners.index(1)]
    lam_high = grid[winners.index(0)]
    assert lam_low < lam_mid < lam_high
    _report(9, f"figure-1 regimes at lambda ~ ({lam_low:.2f}, {lam_mid:.2f}, {lam_high:.2f})",
            t0, 60.0)


def test_criterion_10_milp_and_simplex():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    for trial in range(50):
        inst = generate_synthetic(trial, 6, "A", 1.0, max_bundle_size=3, max_bundles=3)
        pool = enumerate_options(inst)
        rewards = rng.uniform(-1.0, 1.0, len(pool))
        milp = SetPartitionMilp(pool, rewards, [it.id for it in inst.items], 3)
        _, obj = bnb_solve(milp)
        ridx = {o.items: k for k, o in enumerate(pool)}
        best = max(
            sum(rewards[ridx[o.items]] for o in p) for p in enumerate_partitions(inst)
        )
        assert abs(obj - best) <= 1e-8

    solved = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            rel = [LE, GE, EQ][int(rng.integers(0, 3))] if rng.random() < 0.3 else LE
            coeff = rng.uniform(-1, 1, n)
            rhs = float(rng.uniform(0.3, 2.0))
            if rel == GE:
                coeff = np.abs(coeff)  # keep it feasible-ish
                rhs = float(rng.uniform(0.1, 0.5))
            rows.append((coeff, rel, rhs))
        rows += [(e, LE, 2.0) for e in np.eye(n)]  # x_j <= 2
        lp = LinearProgram(rng.uniform(-1, 1, n), np.array([a for a, _, _ in rows]),
                           [rel for _, rel, _ in rows], [b for _, _, b in rows])
        sol = simplex_solve(lp)
        if sol.status == "optimal":
            solved += 1
            assert max(sol.residuals.values()) <= 1e-9
    assert solved >= 120
    _report(10, f"bnb == brute force (50); simplex certificates on {solved} LPs", t0, 300.0)


def test_criterion_11_column_generation_contracts():
    t0 = time.perf_counter()
    cfg = ColumnGenConfig(n_gen=50, n_eval=10)
    total_iters = 0
    for seed in range(20):
        inst = generate_synthetic(seed, 8, "B" if seed % 2 else "C", 2.0,
                                  demand=8.0, arrival_prob=0.1,
                                  max_bundle_size=3, max_bundles=3)
        chosen, res, trace = column_generation(inst, cfg)
        chosen.validate(inst)
        objs = [it.master_objective for it in trace.iterations]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        assert all(it.score > 0 for it in trace.iterations)
        assert all(it.exact_score <= it.score + 1e-9 for it in trace.iterations)
        assert len(trace.iterations) <= cfg.n_gen
        s0 = singletons(inst)
        up0 = backward_upper(inst, s0)
        v0 = dfa(inst, s0, up0.trajectory).value
        assert res.value >= v0
        total_iters += len(trace.iterations)
    assert total_iters > 0
    _report(11, f"column-generation contracts (20 runs, {total_iters} columns)", t0, 300.0)


def test_criterion_12_min_empty_miles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    for n in (5, 6, 7, 8):
        loads = [
            Item(i, freight=FreightItemData(tuple(rng.uniform(0, 100, 2)),
                                            tuple(rng.uniform(0, 100, 2)), 50))
            for i in range(n)
        ]
        ehat = list(rng.uniform(5.0, 80.0, n))
        chosen = min_empty_miles(loads, ehat)

        def gap(k, l):
            fk, fl = loads[k].freight, loads[l].freight
            return math.hypot(fl.pickup[0] - fk.dropoff[0], fl.pickup[1] - fk.dropoff[1])

        def objective(groups):
            total = 0.0
            for g in groups:
                if len(g) == 1:
                    total += ehat[g[0]]
                else:
                    total += gap(g[0], g[1]) + ehat[g[1]]
            return total

        pos = {l.id: k for k, l in enumerate(loads)}
        got = objective([tuple(pos[i] for i in o.items) for o in chosen])

        best = [np.inf]

        def rec(remaining, acc):
            if acc >= best[0]:
                return
            if not remaining:
                best[0] = acc
                return
            k, rest = remaining[0], remaining[1:]
            rec(rest, acc + ehat[k])
            for l in rest:
                others = tuple(x for x in rest if x != l)
                rec(others, acc + gap(k, l) + ehat[l])
                rec(others, acc + gap(l, k) + ehat[k])

        rec(tuple(range(n)), 0.0)
        assert got == pytest.approx(best[0], abs=1e-8)

        no_deadhead = min_empty_miles(loads, [0.0] * n)
        assert no_deadhead.bundle_count == 0
    _report(12, "P_EM matches exhaustive pairing; zero deadhead -> no pairs", t0, 120.0)


def test_criterion_13_simulator():
    t0 = time.perf_counter()
    regions = demo_regions()
    coeffs = demo_coeffs(aversion=-3.0)

    # determinism
    probe = demo_sim_config("custom", replications=3)
    a = simulate(probe, coeffs, regions)
    b = simulate(probe, coeffs, regions)
    assert all(np.array_equal(a.samples[k], b.samples[k]) for k in a.samples)

    # unbiased choice sampling over a fixed menu
    rng = np.random.default_rng(13)
    utilities = np.array([0.4, -0.8, 1.2, 0.0])
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        k = sample_choice(rng, utilities, "mnl")
        counts[k if k >= 0 else 4] += 1
    e = np.exp(utilities)
    probs = np.append(e, 1.0) / (1.0 + e.sum())
    for k in range(5):
        sd = math.sqrt(n * probs[k] * (1 - probs[k]))
        assert abs(counts[k] - n * probs[k]) <= 3.0 * sd

    # directional: custom pricing meets deadlines at least as well as linear
    out = {}
    for pricing in ("linear", "custom"):
        cfg = demo_sim_config(pricing, replications=200)
        out[pricing] = simulate(cfg, coeffs, regions)
    lin = out["linear"].samples["unmet_deadline_rate"]
    cus = out["custom"].samples["unmet_deadline_rate"]
    d = lin - cus
    n_rep = len(d)
    t_stat = d.mean() / (d.std(ddof=1) / math.sqrt(n_rep))
    t_crit = stats.t.ppf(0.95, n_rep - 1)
    assert t_stat > t_crit, f"one-sided t={t_stat:.2f} below {t_crit:.2f}"
    _report(
        13,
        f"simulator determinism, 3-sigma choice frequencies, "
        f"unmet {lin.mean():.4f} (linear) vs {cus.mean():.4f} (custom), t={t_stat:.1f}",
        t0, 600.0,
    )


def test_criterion_14_total_runtime():
    elapsed = time.perf_counter() - MODULE_T0
    print(f"criterion 14 PASS: acceptance module elapsed {elapsed:6.1f}s (< 1800s)")
    assert elapsed < 1800.0
