
import warnings

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
from uip.errors import CapExceeded, MissingFreightData, ValidityWarning
from uip.model import (
    CustomerModel,
    FreightItemData,
    Item,
    MarketInstance,
    OptionSet,
    enumerate_options,
    generate_synthetic,
    singletons,
)
from uip.optim import SetPartitionMilp, bnb_solve
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

        def quality(option, w):
            return qs.get(option.items, -50.0)

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

    def test_non_monotone_column_warns(self, monkeypatch):
        # the singleton of item 0 gets a constant trajectory below its
        # salvage: monotone in t, failing at the salvage row only
        real = uip.bundling.singleton_upper_profiles

        def broken(instance, options, horizon=None):
            r, tau = real(instance, options, horizon)
            tau = tau.copy()
            tau[:, 0] = instance.salvage_vector(options[:1])[0] - 0.1
            return r, tau

        monkeypatch.setattr(uip.bundling, "singleton_upper_profiles", broken)
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
                traj = PriceTrajectory(tau[:, [pos[o.items] for o in options]], True, True)
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

    def test_missing_freight(self):
        with pytest.raises(MissingFreightData):
            min_empty_miles([Item(0)], [1.0])

    def test_more_than_64_loads(self):
        # no item-count cap of its own: 65 loads without savings solve
        chosen = min_empty_miles(self.make_loads(3, 65), [0.0] * 65)
        assert len(chosen) == 65 and chosen.bundle_count == 0

    def test_simplex_size_cap(self):
        # 71 loads make 5,041 columns, past the simplex's 5,000-column cap
        with pytest.raises(CapExceeded):
            min_empty_miles(self.make_loads(4, 71), [10.0] * 71)


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
_CG_PINS = [
    (0, "bb391a69843ac9e5", "0x1.a32cf900444eep+1", [(0, 2, 4), (1,), (3,), (5, 6, 7)],
     [(0,), (1,), (2,), (3,), (4,), (5, 6, 7)], "0x1.0baf5ecf470eep+4", 51),
    (1, "746784f4b1430d5c", "0x1.f1e5460163c28p+0", [(0, 3), (1, 4, 5), (2,), (6,), (7,)],
     [(0, 3), (1,), (2,), (4,), (5,), (6,), (7,)], "0x1.142f001e88dfbp+4", 51),
    (2, "d87f309e1f72510c", "0x1.dfb99e1d5c6f0p-1", [(0,), (1, 2, 5), (3,), (4,), (6,), (7,)],
     [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], "0x1.d08f3ab1c4aaap+3", 51),
    (3, "eacca8c76b5ec85d", "0x1.30665672e3c58p+0", [(0,), (1, 7), (2, 4, 6), (3,), (5,)],
     [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], "0x1.1066e65e312d0p+4", 51),
    (4, "04517132e17da33c", "0x1.854b265b87312p+2", [(0, 1, 7), (2,), (3, 4, 5), (6,)],
     [(0, 1, 7), (2,), (3, 4, 5), (6,)], "0x1.46275ef45fb2cp+4", 51),
    (5, "e0677867cccf1029", "0x1.b7d7bdca8bbe4p+0", [(0, 1), (2,), (3,), (4,), (5, 6, 7)],
     [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], "0x1.1eebbdfcb6fa8p+4", 51),
]

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


@pytest.mark.parametrize("seed,pairs,n_lp", _PAIRING_PINS)
def test_min_empty_miles_pins(simplex_calls, seed, pairs, n_lp):
    loads = TestMinEmptyMiles().make_loads(seed, 10)
    ehat = list(np.random.default_rng(100 + seed).uniform(10, 80, 10))
    chosen = min_empty_miles(loads, ehat)
    assert sorted(o.items for o in chosen) == pairs
    assert len(simplex_calls) == n_lp
