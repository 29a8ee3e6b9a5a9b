
import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

import uip.bundling
from uip.bounds import PriceTrajectory, backward_upper, dfa, singleton_upper_profiles
from uip.bundling import (
    ColumnGenConfig,
    _SetEvaluator,
    _undominated,
    best_upper_bound_partition,
    column_generation,
    greedy_bundle,
    min_empty_miles,
    optimality_gap,
)
from uip.errors import CapExceeded, DomainError, MissingFreightData, ValidityWarning
from uip.model import (
    BundleOption,
    CustomerModel,
    FreightItemData,
    Item,
    MarketInstance,
    OptionSet,
    enumerate_options,
    generate_synthetic,
    singletons,
    sub_instance,
)
from uip.optim import LpSolution, SetPartitionMilp, _lp_residuals, bnb_solve, simplex_solve
from uip.pricing import canonical_sign


def dfa_value(inst, option_set):
    up = backward_upper(inst, option_set)
    return dfa(inst, option_set, up.trajectory).value


class TestColumnGeneration:
    def test_contracts_on_synthetic(self):
        for seed in range(4):
            inst = generate_synthetic(seed, 5, "B", 2.0, demand=3.0,
                                      max_bundle_size=2, max_bundles=2)
            cfg = ColumnGenConfig(n_gen=10, n_eval=4)
            chosen, res, trace = column_generation(inst, cfg)
            chosen.validate(inst)
            objs = [it.master_objective for it in trace.iterations]
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
            assert all(it.score > 0 for it in trace.iterations)
            assert all(it.exact_score <= it.score + 1e-9 for it in trace.iterations)
            assert len(trace.iterations) <= 10
            opts = [it.option.items for it in trace.iterations]
            assert len(set(opts)) == len(opts)  # generated columns distinct
            assert res.value >= dfa_value(inst, singletons(inst))

    def test_kb1_returns_singletons(self):
        inst = generate_synthetic(1, 4, "A", 1.0, max_bundle_size=1)
        chosen, res, trace = column_generation(inst)
        assert chosen.canonical() == singletons(inst).canonical()
        assert len(trace.iterations) == 0

    def test_hopeless_bundles_stop_immediately(self):
        # bundle quality so low that even the optimistic score is negative
        qs = {(i,): 1.0 for i in range(3)}

        def quality(option):
            return (qs.get(option.items, -50.0),)

        cust = CustomerModel(types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.0,
                             quality=quality)
        inst = MarketInstance(items=tuple(Item(i) for i in range(3)), customer=cust,
                              demand=3.0, arrival_prob=0.5, max_bundles=1,
                              max_bundle_size=2)
        chosen, res, trace = column_generation(inst)
        assert len(trace.iterations) == 0
        assert chosen.canonical() == singletons(inst).canonical()

    def test_pool_limit(self):
        inst = generate_synthetic(2, 4, "B", 3.0, demand=2.0, max_bundle_size=2,
                                  max_bundles=2)
        cfg = ColumnGenConfig(n_gen=2, n_eval=3)
        _, _, trace = column_generation(inst, cfg)
        assert len(trace.iterations) <= 2

    def test_trace_serializes(self):
        import json

        inst = generate_synthetic(3, 4, "B", 2.0, demand=2.0, max_bundle_size=2,
                                  max_bundles=2)
        _, _, trace = column_generation(inst, ColumnGenConfig(n_gen=4, n_eval=2))
        json.loads(json.dumps(trace.to_json_dict()))

    def test_huge_n_gen_equals_one_column_per_candidate(self):
        # at most one column per bundle candidate can enter, so the master
        # is sized by the candidates, not by an n_gen far beyond them
        inst = generate_synthetic(0, 4, "B", 2.0, demand=4.0, max_bundle_size=2,
                                  max_bundles=2)
        n_bundles = sum(o.cardinality > 1 for o in enumerate_options(inst))
        want_set, want_res, want = column_generation(inst, ColumnGenConfig(n_gen=n_bundles))
        got_set, got_res, got = column_generation(inst, ColumnGenConfig(n_gen=10**12))
        assert got_set.canonical() == want_set.canonical()
        assert got_res.value == want_res.value
        assert got.to_json_dict() == want.to_json_dict()


class TestSetEvaluator:
    def test_batched_values_equal_values_alone(self, monkeypatch):
        # mixed set lengths, shuffled batch order, batches split by the
        # element cap, and the public dfa under the pool trajectory all give
        # the same bits
        rng = np.random.default_rng(3)
        for seed, L, beta_p in ((0, 9, -1.0), (1, 6, 1.0)):
            inst = generate_synthetic(seed, L, "C", 1.5, demand=float(L), beta_p=beta_p,
                                      salvage=0.3, max_bundle_size=3, max_bundles=2)
            ev = _SetEvaluator(inst, enumerate_options(inst))
            bundles = [j for j, o in enumerate(ev.options) if o.cardinality > 1]
            sets = [ev.complete_with_singletons(int(j))
                    for j in rng.choice(bundles, size=30, replace=False)]
            sets.append(sorted(ev.singleton_of.values()))
            assert len({len(idx) for idx in sets}) == 3
            batch = ev.dfa_many(sets)
            perm = rng.permutation(len(sets))
            alone = np.array([ev.dfa_many([idx])[0] for idx in sets])
            public = np.array([ev.sign * dfa(inst, ev.set_of(idx), ev.trajectory(idx)).value
                               for idx in sets])
            assert np.array_equal(batch, alone)
            assert np.array_equal(ev.dfa_many([sets[k] for k in perm]), batch[perm])
            assert np.array_equal(public, alone)
            with monkeypatch.context() as m:
                m.setattr(uip.bundling, "_BATCH_ELEMS", 3 * inst.horizon * 2 * L)
                assert np.array_equal(ev.dfa_many(sets), batch)
        # one batch of set lengths 1 to 9 that holds S0: the sets of 1 to 7
        # options share one padded recursion, a lone option over nine
        # customer types included. The public dfa runs each set on the
        # market of its items.
        table = rng.uniform(-0.5, 1.5, size=(9, 9))
        cust = CustomerModel(types=tuple(range(9)), arrival_pmf=np.full(9, 1 / 9),
                             price_sensitivity=-1.2,
                             quality=lambda o: [1.2 ** len(o.items) * sum(table[w, o.items])
                                                for w in range(9)])
        inst = MarketInstance(items=tuple(Item(i, salvage=0.05 * i) for i in range(9)),
                              customer=cust, demand=9.0, arrival_prob=0.1, max_bundles=4,
                              max_bundle_size=2)
        ev = _SetEvaluator(inst, enumerate_options(inst))
        pair = next(j for j, o in enumerate(ev.options) if o.items == (0, 1))
        sets = [[ev.singleton_of[l] for l in range(n)] for n in range(1, 10)]
        sets += [[pair] + [ev.singleton_of[l] for l in range(2, n + 1)] for n in range(1, 9)]
        sets = [sets[k] for k in rng.permutation(len(sets))]
        assert {len(idx) for idx in sets} == set(range(1, 10))
        assert sorted(ev.singleton_of.values()) in sets
        batch, avails = ev.dfa_many(sets, availability=True)
        for idx, value, avail in zip(sets, batch, avails):
            (alone,), (avail_alone,) = ev.dfa_many([idx], availability=True)
            opt_set = ev.set_of(idx)
            public = dfa(sub_instance(inst, opt_set.item_ids()), opt_set, ev.trajectory(idx))
            assert value.hex() == alone.hex() == (ev.sign * public.value).hex()
            assert avail.tobytes() == avail_alone.tobytes() == public.availability.tobytes()
        # the sets of 1 to 7 options make one padded recursion
        real_forward = uip.bundling._dfa_forward
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return real_forward(*args)

        short = [idx for idx in sets if len(idx) < 8]
        assert {len(idx) for idx in short} == set(range(1, 8))
        monkeypatch.setattr(uip.bundling, "_dfa_forward", counted)
        assert np.array_equal(ev.dfa_many(short), batch[[len(idx) < 8 for idx in sets]])
        assert len(calls) == 1

    def test_non_monotone_column_warns(self, monkeypatch):
        # the singleton of item 0 gets a constant trajectory below its
        # salvage: monotone in t, failing at the salvage row only
        real = uip.bundling._upper_profiles

        def broken(instance, q, xi):
            r, tau = real(instance, q, xi)
            tau = tau.copy()
            tau[:, 0] = xi[0] - 0.1
            return r, tau

        monkeypatch.setattr(uip.bundling, "_upper_profiles", broken)
        inst = generate_synthetic(2, 4, "B", 2.0, demand=3.0, salvage=0.5,
                                  max_bundle_size=2, max_bundles=2)
        ev = _SetEvaluator(inst, enumerate_options(inst))
        assert ev.options[0].items == (0,)
        assert not ev.monotone[0] and ev.monotone[1:].all()
        with pytest.warns(ValidityWarning):
            ev.dfa_many([sorted(ev.singleton_of.values())])
        j = next(j for j, o in enumerate(ev.options) if o.items == (0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            ev.dfa_many([ev.complete_with_singletons(j)])
        with pytest.warns(ValidityWarning):
            column_generation(inst, ColumnGenConfig(n_gen=2, n_eval=2))


class TestColumnGenerationValues:
    def test_improvements_are_exact_dfa_differences(self):
        # improvement of column j == V^DFA(S_j) - V^DFA(S0), both under the
        # pool trajectory, canonical orientation, bit for bit
        for seed, beta_p in ((0, -1.0), (4, 1.0)):
            inst = generate_synthetic(seed, 6, "B", 2.0, demand=4.0, beta_p=beta_p,
                                      salvage=0.2, max_bundle_size=3, max_bundles=2)
            _, _, trace = column_generation(inst, ColumnGenConfig(n_gen=8, n_eval=3))
            assert trace.iterations
            pool = enumerate_options(inst)
            _, tau = singleton_upper_profiles(inst, pool)
            pos = {o.items: j for j, o in enumerate(pool)}
            s = canonical_sign(beta_p)
            singles = sorted(singletons(inst).options, key=lambda o: o.items)

            def value(options):
                traj = PriceTrajectory(tau[:, [pos[o.items] for o in options]], True)
                return s * dfa(inst, OptionSet(tuple(options)), traj).value

            v0 = value(singles)
            for it in trace.iterations:
                s_j = [it.option] + [o for o in singles if o.items[0] not in it.option.items]
                assert it.improvement == value(s_j) - v0

    def test_result_value_is_the_chosen_sets_evaluated_value(self):
        # `uip bundle` reports res.value as "dfa"; it must be the very value
        # the ranking saw for the chosen set
        for seed in range(4):
            inst = generate_synthetic(seed, 8, "B" if seed % 2 else "C", 2.0, demand=8.0,
                                      max_bundle_size=3, max_bundles=3)
            chosen, res, trace = column_generation(inst)
            entries = [v for opt_set, v in trace.evaluated_sets
                       if opt_set.canonical() == chosen.canonical()]
            assert entries == [res.value]

    def test_freight_pool_values_equal_values_alone(self):
        # eight demo-geometry loads in bundles of up to three: 400 options
        # over four regions, 1,600 W elements per step. Each option's profile
        # is the same bits in the pool as alone, and the reported V^DFA is
        # the public dfa of the chosen set under its own upper trajectory.
        from uip.freight import demo_coeffs, demo_regions, freight_instance

        ends = [((0.0, 0.0), (180.0, 240.0)), ((60.0, 65.0), (190.0, -10.0)),
                ((175.0, 250.0), (5.0, 5.0)), ((185.0, -20.0), (50.0, 75.0)),
                ((10.0, -5.0), (60.0, 70.0)), ((170.0, 235.0), (195.0, -20.0)),
                ((195.0, -10.0), (0.0, 5.0)), ((50.0, 70.0), (185.0, 250.0))]
        loads = []
        for i, (pickup, dropoff) in enumerate(ends):
            f = FreightItemData(pickup, dropoff, 30)
            loads.append(Item(i, salvage=3.0 * f.loaded_miles, freight=f))
        inst = freight_instance(loads, demo_coeffs(), demo_regions(), demand=6.0,
                                arrival_prob=0.3, max_bundles=3, max_bundle_size=3)
        pool = enumerate_options(inst)
        assert len(pool) == 400
        r, tau = singleton_upper_profiles(inst, pool)
        for j, option in enumerate(pool):
            r_alone, tau_alone = singleton_upper_profiles(inst, [option])
            assert r_alone[0] == r[j]
            assert np.array_equal(tau_alone[:, 0], tau[:, j])
        chosen, res, _ = column_generation(inst)
        assert res.value == dfa_value(inst, chosen)


def _greedy_case(name):
    """Instances of the greedy pins: two retail scenarios, one of them also
    capped at one bundle, a beta_p > 0 instance, and three types of which
    the middle one has zero weight."""
    if name == "zero-weight-type":
        table = np.random.default_rng(5).uniform(-0.5, 1.5, size=(3, 4))
        cust = CustomerModel(types=(0, 1, 2), arrival_pmf=[0.25, 0.0, 0.75],
                             price_sensitivity=-1.3,
                             quality=lambda o: [float(sum(table[w, i] for i in o.items))
                                                for w in range(3)])
        return MarketInstance(items=tuple(Item(i, salvage=0.1 * i) for i in range(4)),
                              customer=cust, demand=6.0, arrival_prob=0.2,
                              max_bundles=2, max_bundle_size=2)
    if name == "B":
        return generate_synthetic(3, 6, "B", 2.0, demand=6.0, max_bundle_size=2, max_bundles=3)
    if name == "B-one-bundle":  # the sweep skips bundles at the cap
        return generate_synthetic(3, 6, "B", 2.0, demand=6.0, max_bundle_size=2, max_bundles=1)
    if name == "C":
        return generate_synthetic(1, 6, "C", 1.5, demand=4.0, max_bundle_size=3, max_bundles=2)
    return generate_synthetic(4, 5, "B", 2.0, demand=3.0, beta_p=0.8, max_bundle_size=2,
                              max_bundles=2)


# greedy_bundle's chosen options per instance and value kind
GREEDY_PINS = [
    ("B", "dfa", [(1, 5), (2, 3), (0, 4)]),
    ("B", "upper", [(1,), (5,), (4,), (3,), (2,), (0,)]),
    ("B", "fluid", [(1, 5), (2, 3), (0, 4)]),
    ("B", "static", [(1, 5), (2, 3), (0, 4)]),
    ("B-one-bundle", "dfa", [(1, 5), (4,), (3,), (2,), (0,)]),
    ("C", "dfa", [(3, 5, 4), (0, 1, 2)]),
    ("C", "upper", [(3, 5, 4), (0,), (1,), (2,)]),
    ("C", "fluid", [(3, 5, 4), (0, 1, 2)]),
    ("C", "static", [(3, 5, 4), (0, 1, 2)]),
    ("freight-sign", "dfa", [(0, 4), (2, 3), (1,)]),
    ("freight-sign", "upper", [(0, 4), (2,), (3,), (1,)]),
    ("freight-sign", "fluid", [(0, 4), (2, 3), (1,)]),
    ("freight-sign", "static", [(0, 4), (2, 3), (1,)]),
    ("zero-weight-type", "dfa", [(1,), (2,), (0,), (3,)]),
    ("zero-weight-type", "upper", [(1,), (2,), (0,), (3,)]),
    ("zero-weight-type", "fluid", [(0,), (2,), (1,), (3,)]),
    ("zero-weight-type", "static", [(1,), (2,), (0,), (3,)]),
]


class TestGreedy:
    def test_kb1(self):
        inst = generate_synthetic(1, 4, "A", 1.0, max_bundle_size=1)
        assert greedy_bundle(inst, "upper").canonical() == singletons(inst).canonical()

    def test_bundle_favored_when_key_dominates(self):
        inst = generate_synthetic(3, 2, "B", 3.0, demand=1.0, max_bundle_size=2,
                                  max_bundles=1)
        chosen = greedy_bundle(inst, "upper")
        assert chosen.bundle_count == 1

    def test_always_partition(self):
        for seed in range(5):
            inst = generate_synthetic(seed, 6, "C", 1.5, demand=4.0,
                                      max_bundle_size=3, max_bundles=2)
            for kind in ("dfa", "upper"):
                greedy_bundle(inst, kind).validate(inst)

    def test_unknown_kind(self):
        inst = generate_synthetic(0, 3, "A", 1.0)
        with pytest.raises(ValueError):
            greedy_bundle(inst, "nope")

    @pytest.mark.parametrize("case, kind, want", GREEDY_PINS,
                             ids=[f"{case}-{kind}" for case, kind, _ in GREEDY_PINS])
    def test_chosen_sets_pinned(self, case, kind, want):
        assert [o.items for o in greedy_bundle(_greedy_case(case), kind)] == want


class TestZStar:
    def test_dominates_feasible_sets(self):
        inst = generate_synthetic(7, 5, "B", 2.0, demand=3.0, max_bundle_size=2,
                                  max_bundles=2)
        zset, z_star = best_upper_bound_partition(inst)
        zset.validate(inst)
        from uip.pricing import enumerate_partitions

        for p in enumerate_partitions(inst)[:200]:
            assert z_star >= backward_upper(inst, p).value - 1e-9
        chosen, res, _ = column_generation(inst, ColumnGenConfig(n_gen=8, n_eval=3))
        assert z_star >= backward_upper(inst, chosen).value - 1e-9
        assert z_star >= res.value - 1e-9
        gap = optimality_gap(z_star, res.value, inst.customer.price_sensitivity)
        assert gap >= -1e-9

    def test_gap_undefined_at_zero_z_star(self):
        # a zero-period horizon: every partition is worth its salvage, here 0
        inst = generate_synthetic(0, 4, "B", 2.0, demand=0.05, max_bundle_size=2)
        assert inst.horizon == 0
        _, z_star = best_upper_bound_partition(inst)
        assert z_star == 0
        with pytest.raises(DomainError):
            optimality_gap(z_star, 0.0, inst.customer.price_sensitivity)

    def test_pruned_pool_keeps_the_optimum(self):
        rng = np.random.default_rng(10)
        for trial in range(12):
            inst = generate_synthetic(trial, 6, "A", 1.0, max_bundle_size=3, max_bundles=3)
            pool = enumerate_options(inst)
            ids = [it.id for it in inst.items]
            r, _ = singleton_upper_profiles(inst, pool)
            sign = canonical_sign(inst.customer.price_sensitivity)
            _, full = bnb_solve(SetPartitionMilp(pool, sign * r, ids, 3))
            assert best_upper_bound_partition(inst)[1] == pytest.approx(sign * full, abs=1e-12)
            # random rewards: member orders differ and some bundles pay
            rewards = rng.uniform(-1.0, 1.0, len(pool))
            keep = _undominated(pool, rewards)
            assert len(ids) < len(keep) < len(pool)
            _, pruned = bnb_solve(SetPartitionMilp([pool[j] for j in keep], rewards[keep], ids, 3))
            _, full = bnb_solve(SetPartitionMilp(pool, rewards, ids, 3))
            assert pruned == pytest.approx(full, abs=1e-12)


def brute_force_pairings(loads, ehat_dst):
    """Exhaustive ordered pairings (oracle for the P_EM MILP)."""
    ids = list(range(len(loads)))
    coords = [(l.freight.pickup, l.freight.dropoff) for l in loads]

    def trailing(k):
        return ehat_dst[k]

    def gap(k, l):
        (pk, dk), (pl, dl) = coords[k], coords[l]
        return float(np.hypot(pl[0] - dk[0], pl[1] - dk[1]))

    best = np.inf
    n = len(ids)

    def rec(remaining, acc):
        nonlocal best
        if not remaining:
            best = min(best, acc)
            return
        k = remaining[0]
        rest = remaining[1:]
        rec(rest, acc + trailing(k))  # k unpaired
        for l in rest:
            others = tuple(x for x in rest if x != l)
            # ordered pair (k, l): k's trailing deadhead replaced by the gap
            rec(others, acc + gap(k, l) + trailing(l))
            rec(others, acc + gap(l, k) + trailing(k))

    rec(tuple(ids), 0.0)
    return best


class TestMinEmptyMiles:
    def make_loads(self, seed, n):
        rng = np.random.default_rng(seed)
        loads = []
        for i in range(n):
            p = rng.uniform(0, 100, 2)
            d = rng.uniform(0, 100, 2)
            loads.append(Item(i, freight=FreightItemData(tuple(p), tuple(d), 50)))
        return loads

    def em_objective(self, loads, chosen, ehat_dst):
        total = 0.0
        by_id = {l.id: l for l in loads}
        pos = {l.id: k for k, l in enumerate(loads)}
        for opt in chosen:
            if opt.cardinality == 1:
                total += ehat_dst[pos[opt.items[0]]]
            else:
                k, l = opt.items
                fk, fl = by_id[k].freight, by_id[l].freight
                total += float(np.hypot(fl.pickup[0] - fk.dropoff[0],
                                        fl.pickup[1] - fk.dropoff[1]))
                total += ehat_dst[pos[l]]
        return total

    def test_chain_pairs_under_big_deadhead(self):
        loads = [
            Item(0, freight=FreightItemData((0, 0), (10, 0), 50)),
            Item(1, freight=FreightItemData((10, 0), (20, 0), 50)),
        ]
        chosen = min_empty_miles(loads, [100.0, 100.0])
        assert [o.items for o in chosen] == [(0, 1)]

    def test_zero_deadhead_means_no_pairs(self):
        loads = self.make_loads(0, 5)
        chosen = min_empty_miles(loads, [0.0] * 5)
        assert chosen.bundle_count == 0

    def test_matches_exhaustive(self):
        for seed, n in ((0, 5), (1, 6), (2, 7)):
            loads = self.make_loads(seed, n)
            rng = np.random.default_rng(100 + seed)
            ehat = list(rng.uniform(10, 80, n))
            chosen = min_empty_miles(loads, ehat)
            got = self.em_objective(loads, chosen, ehat)
            best = brute_force_pairings(loads, ehat)
            assert got == pytest.approx(best, abs=1e-8)

    def test_max_bundles_caps_the_pairs(self):
        loads = self.make_loads(0, 6)
        ehat = [100.0] * 6
        assert min_empty_miles(loads, ehat).bundle_count == 3
        assert min_empty_miles(loads, ehat, max_bundles=1).bundle_count == 1
        assert min_empty_miles(loads, ehat, max_bundles=0).bundle_count == 0

    def test_missing_freight(self):
        with pytest.raises(MissingFreightData):
            min_empty_miles([Item(0)], [1.0])

    def test_more_than_64_loads(self):
        # no item-count cap of its own: 65 loads without savings solve
        chosen = min_empty_miles(self.make_loads(3, 65), [0.0] * 65)
        assert len(chosen) == 65 and chosen.bundle_count == 0

    def test_simplex_size_cap(self):
        # 71 loads whose every pair saves miles (no gap on the 100 x 100
        # square reaches 1000) make 5,041 columns, past the simplex's
        # 5,000-column cap
        with pytest.raises(CapExceeded):
            min_empty_miles(self.make_loads(4, 71), [1000.0] * 71)

    def test_pairs_without_saving_are_not_columns(self):
        # 71 loads with a deadhead of 10 offer only the pairs whose gap is
        # below 10; with all 4,970 pairs offered this raised CapExceeded
        loads, ehat = self.make_loads(4, 71), [10.0] * 71
        chosen = min_empty_miles(loads, ehat)
        assert chosen.bundle_count > 0
        for option in chosen:
            if option.cardinality > 1:
                # the pair's empty miles beat its two loads' deadheads
                assert self.em_objective(loads, [option], ehat) < 20.0


def test_bundled_fraction_shrinks_with_horizon():
    """Directional reproduction: the share of items placed in bundles is
    non-increasing in the horizon, averaged over seeds (scenario A)."""
    lams = (3.0, 12.0, 48.0)
    fractions = []
    for lam in lams:
        shares = []
        for seed in range(20):
            inst = generate_synthetic(seed, 6, "A", 1.0, demand=lam,
                                      max_bundle_size=3, max_bundles=3)
            chosen, _, _ = column_generation(inst, ColumnGenConfig(n_gen=8, n_eval=3))
            inside = sum(o.cardinality for o in chosen if o.cardinality > 1)
            shares.append(inside / 6.0)
        fractions.append(float(np.mean(shares)))
    assert fractions[0] >= fractions[1] - 1e-9 >= fractions[2] - 2e-9


# Set-partitioning LP results on benchmark-size `bundle` inputs (L=8,
# K_b=K_s=3), pinned bit for bit: a rewrite of the LP layer that keeps every
# pivot and basis leaves them unchanged. `trace` is the first 16 hex digits
# of the SHA-256 of the JSON list [[column items, master objective hex], ...].
# `n_lp` counts the master solves (the first round and each round after a
# column with a positive exact reduced cost) plus Z*'s branch-and-bound LP.
_CG_PINS = [
    (0, "bb391a69843ac9e5", "0x1.a32cf900444eep+1", [(0, 2, 4), (1,), (3,), (5, 6, 7)],
     [(0,), (1,), (2,), (3,), (4,), (5, 6, 7)], "0x1.0baf5ecf470eep+4", 11),
    (1, "746784f4b1430d5c", "0x1.f1e5460163c28p+0", [(0, 3), (1, 4, 5), (2,), (6,), (7,)],
     [(0, 3), (1,), (2,), (4,), (5,), (6,), (7,)], "0x1.142f001e88dfbp+4", 10),
    (2, "d87f309e1f72510c", "0x1.dfb99e1d5c6f0p-1", [(0,), (1, 2, 5), (3,), (4,), (6,), (7,)],
     [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], "0x1.d08f3ab1c4aaap+3", 6),
    (3, "eacca8c76b5ec85d", "0x1.30665672e3c58p+0", [(0,), (1, 7), (2, 4, 6), (3,), (5,)],
     [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], "0x1.1066e65e312d0p+4", 8),
    (4, "04517132e17da33c", "0x1.854b265b87312p+2", [(0, 1, 7), (2,), (3, 4, 5), (6,)],
     [(0, 1, 7), (2,), (3, 4, 5), (6,)], "0x1.46275ef45fb2cp+4", 12),
    (5, "e0677867cccf1029", "0x1.b7d7bdca8bbe4p+0", [(0, 1), (2,), (3,), (4,), (5, 6, 7)],
     [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], "0x1.1eebbdfcb6fa8p+4", 14),
]

# Work per column_generation on the _CG_PINS inputs: _dfa_forward calls (one
# for S0, one per batch of improvements, one for the final ranking) and the
# lambert_w_exp elements of the singleton profiles (80 periods x 2 types x
# the pool's 112-129 distinct columns of 400). Per-length recursions or
# profiles over the full pool (64,000 elements) fail here.
_CG_RECURSIONS = {0: (6, 18720), 1: (6, 18720), 2: (4, 18880), 3: (6, 19040),
                  4: (6, 17920), 5: (6, 20640)}

# min_empty_miles on 10 random loads (TestMinEmptyMiles.make_loads(seed, 10),
# deadheads uniform on [10, 80] from seed 100 + seed); these seeds branch, so
# the dual-simplex re-solves of x_j <= 0 and x_j >= 1 rows are covered.
_PAIRING_PINS = [
    (4, [(0, 2), (5, 1), (6, 4), (8, 3), (9, 7)], 5),
    (15, [(0, 4), (1,), (2, 6), (3, 7), (5,), (9, 8)], 5),
    (31, [(0, 2), (1, 4), (5, 9), (6, 3), (8, 7)], 7),
]


@pytest.fixture
def simplex_calls(monkeypatch):
    import uip.optim

    calls = []
    real = uip.optim.simplex_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(uip.optim, "simplex_solve", counted)
    monkeypatch.setattr(uip.bundling, "simplex_solve", counted)
    return calls


@pytest.mark.parametrize("seed,trace,last_master,chosen,zset,zstar,n_lp", _CG_PINS)
def test_set_partitioning_lp_pins(simplex_calls, seed, trace, last_master, chosen, zset,
                                  zstar, n_lp):
    import hashlib
    import json

    inst = generate_synthetic(seed, 8, "B" if seed % 2 else "C", 2.0, demand=8.0,
                              arrival_prob=0.1, max_bundle_size=3, max_bundles=3)
    got_set, _, got_trace = column_generation(inst, ColumnGenConfig())
    z_set, z = best_upper_bound_partition(inst)
    doc = [[list(it.option.items), it.master_objective.hex()] for it in got_trace.iterations]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16] == trace
    assert got_trace.iterations[-1].master_objective.hex() == last_master
    assert sorted(o.items for o in got_set) == chosen
    assert sorted(o.items for o in z_set) == zset
    assert z.hex() == zstar
    assert len(simplex_calls) == n_lp


@pytest.mark.parametrize("seed", sorted(_CG_RECURSIONS))
def test_column_generation_recursion_counts(monkeypatch, seed):
    import uip.bounds

    counts = {"forward": 0, "w_elems": 0, "base_lp": 0}
    real_forward, real_w = uip.bounds._dfa_forward, uip.bounds.lambert_w_exp
    real_base_lp = SetPartitionMilp.base_lp

    def forward(*args):
        counts["forward"] += 1
        return real_forward(*args)

    def w(x):
        counts["w_elems"] += np.size(x)
        return real_w(x)

    def base_lp(self):
        counts["base_lp"] += 1
        return real_base_lp(self)

    for module in (uip.bounds, uip.bundling):
        monkeypatch.setattr(module, "_dfa_forward", forward)
    monkeypatch.setattr(uip.bounds, "lambert_w_exp", w)
    monkeypatch.setattr(SetPartitionMilp, "base_lp", base_lp)
    inst = generate_synthetic(seed, 8, "B" if seed % 2 else "C", 2.0, demand=8.0,
                              arrival_prob=0.1, max_bundle_size=3, max_bundles=3)
    column_generation(inst, ColumnGenConfig())
    assert (counts["forward"], counts["w_elems"]) == _CG_RECURSIONS[seed]
    assert counts["base_lp"] == 0


def _cg_pin_instance(seed):
    return generate_synthetic(seed, 8, "B" if seed % 2 else "C", 2.0, demand=8.0,
                              arrival_prob=0.1, max_bundle_size=3, max_bundles=3)


@pytest.mark.parametrize("seed", [pin[0] for pin in _CG_PINS])
def test_carried_master_rounds_equal_resolved_rounds(seed):
    # replay the master with a warm re-solve in every round: round k holds
    # the singletons (reward 0) and the first k accepted columns (reward
    # their improvement); each round's objective is the traced one, bit for
    # bit, and a round after a column with exact_score <= 0 makes no pivot,
    # so the solution column_generation carries over is the re-solved one
    inst = _cg_pin_instance(seed)
    _, _, trace = column_generation(inst, ColumnGenConfig())
    item_ids = sorted(it.id for it in inst.items)
    options = [BundleOption((l,)) for l in item_ids]
    rewards = [0.0] * len(options)
    prev, carried = None, 0
    for k, it in enumerate(trace.iterations):
        lp = SetPartitionMilp(options=options, rewards=rewards, item_ids=item_ids,
                              max_bundles=inst.max_bundles).base_lp()
        sol = simplex_solve(lp, warm_basis=None if prev is None else prev.basis)
        assert sol.objective.hex() == it.master_objective.hex()
        if k > 0 and trace.iterations[k - 1].exact_score <= 0:
            carried += 1
            x = np.append(prev.primal, 0.0)
            assert np.array_equal(sol.primal, x) and np.array_equal(sol.duals, prev.duals)
            assert sol.basis == prev.basis
            kept = LpSolution(status="optimal", primal=x, duals=prev.duals,
                              objective=float(lp.objective @ x),
                              reduced_costs=lp.objective - lp.A.T @ prev.duals)
            assert max(_lp_residuals(lp, kept).values()) <= 1e-7
        prev = sol
        options.append(it.option)
        rewards.append(it.improvement)
    assert carried > 0


class TestPoolRecord:
    """column_generation and best_upper_bound_partition share one option
    pool per market, built on first use and stored on the instance."""

    def test_z_star_is_the_same_after_column_generation(self, monkeypatch):
        inst = _cg_pin_instance(1)
        want_set, want = best_upper_bound_partition(inst)
        column_generation(inst, ColumnGenConfig())
        for module, name in ((uip.bundling, "enumerate_options"),
                             (CustomerModel, "quality_matrix")):
            def fail(*args, name=name):
                raise AssertionError(f"{name} called on a market with a pool record")
            monkeypatch.setattr(module, name, fail)
        got_set, got = best_upper_bound_partition(inst)
        assert got_set == want_set and got.hex() == want.hex()
        monkeypatch.undo()
        fresh_set, fresh = best_upper_bound_partition(_cg_pin_instance(1))
        assert fresh_set == want_set and fresh.hex() == want.hex()

    def test_second_column_generation_call_repeats_the_first(self):
        inst = _cg_pin_instance(2)
        first = column_generation(inst, ColumnGenConfig())
        second = column_generation(inst, ColumnGenConfig())
        assert second[0] == first[0]
        assert second[1].value.hex() == first[1].value.hex()
        assert second[2].to_json_dict() == first[2].to_json_dict()

    def test_markets_are_frozen(self):
        pmf = np.array([0.5, 0.5])
        inst = generate_synthetic(0, 3, "B", 2.0)
        cust = dataclasses.replace(inst.customer, arrival_pmf=pmf)
        pmf[0] = 0.9  # the model holds a copy
        assert cust.arrival_pmf.tolist() == [0.5, 0.5]
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.demand = 4.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.customer.price_sensitivity = -2.0
        with pytest.raises(ValueError):
            inst.customer.arrival_pmf[0] = 0.9

    def test_record_is_freed_with_its_instance(self):
        inst = _cg_pin_instance(0)
        best_upper_bound_partition(inst)
        refs = weakref.ref(inst), weakref.ref(uip.bundling._pool_evaluator(inst))
        del inst
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("seed,pairs,n_lp", _PAIRING_PINS)
def test_min_empty_miles_pins(simplex_calls, seed, pairs, n_lp):
    loads = TestMinEmptyMiles().make_loads(seed, 10)
    ehat = list(np.random.default_rng(100 + seed).uniform(10, 80, 10))
    chosen = min_empty_miles(loads, ehat)
    assert sorted(o.items for o in chosen) == pairs
    assert len(simplex_calls) == n_lp


@pytest.mark.parametrize("seed,pairs,n_lp", _PAIRING_PINS)
def test_min_empty_miles_maps_positions_to_ids(simplex_calls, seed, pairs, n_lp):
    # the pinned loads under scrambled, non-contiguous ids, in the same
    # order: the same pairing from the same LPs, reported under the new ids
    import dataclasses

    label = (np.random.default_rng(seed).permutation(10) * 7 + 3).tolist()
    loads = [dataclasses.replace(it, id=label[it.id])
             for it in TestMinEmptyMiles().make_loads(seed, 10)]
    ehat = list(np.random.default_rng(100 + seed).uniform(10, 80, 10))
    chosen = min_empty_miles(loads, ehat)
    assert sorted(o.items for o in chosen) == sorted(
        tuple(label[k] for k in p) for p in pairs)
    assert len(simplex_calls) == n_lp


@pytest.mark.parametrize("seed,pairs,n_lp", _PAIRING_PINS)
def test_min_empty_miles_pins_under_bland_rule(monkeypatch, seed, pairs, n_lp):
    # Bland's rule from the first degenerate pivot on gives the same pairings
    import uip.optim

    monkeypatch.setattr(uip.optim, "_BLAND_AFTER", 0)
    loads = TestMinEmptyMiles().make_loads(seed, 10)
    ehat = list(np.random.default_rng(100 + seed).uniform(10, 80, 10))
    assert sorted(o.items for o in min_empty_miles(loads, ehat)) == pairs
