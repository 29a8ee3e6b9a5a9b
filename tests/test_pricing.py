import hashlib

import numpy as np
import pytest
from scipy.optimize import minimize

import uip.pricing
from uip.bounds import singleton_upper_profiles
from uip.errors import CapExceeded, DomainError, MissingDp
from uip.model import (
    BundleOption,
    CustomerModel,
    Item,
    MarketInstance,
    OptionSet,
    aggregated_quality,
    enumerate_options,
    generate_synthetic,
    mnl_choice,
    singletons,
    sub_instance,
)
from uip.numerics import lambert_w0, lambert_w_exp
from uip.pricing import (
    _member_tables,
    asymptotic_profile,
    bundling_condition,
    cumulative_aggregated_utility,
    enumerate_partitions,
    exact_dp,
    exhaustive_best_partition,
    price_from_probs,
    single_period_optimum,
)

OMEGA_INV = lambert_w0(np.exp(-1.0))  # W(1/e)


def revenue(qualities, prices, beta_p, marginals):
    """Direct expected-revenue evaluation for one type (oracle side); the
    last axis of prices holds the options, any leading axes a grid."""
    v = qualities + beta_p * prices
    e = np.exp(v)
    probs = e / (1.0 + e.sum(axis=-1, keepdims=True))
    return np.sum(probs * (prices - marginals), axis=-1)


def flat_customer(q=0.0, beta_p=-1.0):
    return CustomerModel(types=(0,), arrival_pmf=[1.0],
                         price_sensitivity=beta_p, quality=lambda o: (q,))


def single_item_instance(q=0.0, beta_p=-1.0, salvage=0.0, demand=1.0, mu=1.0):
    return MarketInstance(
        items=(Item(0, salvage=salvage),), customer=flat_customer(q, beta_p),
        demand=demand, arrival_prob=mu, max_bundles=1, max_bundle_size=1,
    )


class TestSinglePeriod:
    def test_singleton_against_grid(self):
        spo = single_period_optimum([0.0], [0.0], -1.0)
        grid = np.arange(0.0, 10.0, 1e-4)
        rev = np.exp(-grid) / (1 + np.exp(-grid)) * grid
        assert spo.gamma == pytest.approx(OMEGA_INV, abs=1e-12)
        assert spo.revenue == pytest.approx(rev.max(), abs=1e-7)
        assert spo.prices[0] == pytest.approx(grid[rev.argmax()], abs=1e-3)
        assert spo.prices[0] == pytest.approx(1.0 + OMEGA_INV, abs=1e-12)
        assert spo.choice.probs[0] == pytest.approx(OMEGA_INV / (1 + OMEGA_INV), abs=1e-12)

    def test_huge_marginal_kills_revenue(self):
        spo = single_period_optimum([0.0], [1e4], -1.0)
        assert spo.revenue <= 1e-3

    def test_two_options_symmetric_grid(self):
        spo = single_period_optimum([0.0, 0.0], [0.0, 0.0], -1.0)
        # closed form: Gamma = W(2/e); oracle: 2-D grid
        assert spo.gamma == pytest.approx(lambert_w0(2 * np.exp(-1.0)), abs=1e-12)
        g = np.arange(0.5, 3.0, 2e-3)
        grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)  # (p1, p2, options)
        best = revenue(np.zeros(2), grid, -1.0, np.zeros(2)).max()
        assert spo.revenue >= best - 1e-5
        assert spo.prices[0] == pytest.approx(spo.prices[1])

    def test_closed_form_optimality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            q = rng.uniform(-2, 2, n)
            d = rng.uniform(0, 3, n)
            bp = -rng.uniform(0.5, 2.0)
            spo = single_period_optimum(q, d, bp)
            # random search should not beat the closed form
            for _ in range(200):
                p = spo.prices + rng.uniform(-0.5, 0.5, n)
                assert revenue(q, p, bp, d) <= spo.revenue + 1e-9
            # Nelder-Mead polish from the closed-form point
            res = minimize(lambda p: -revenue(q, p, bp, d), spo.prices, method="Nelder-Mead")
            assert spo.revenue >= -res.fun - 1e-6

    def test_invariants(self):
        spo = single_period_optimum([0.4, -0.3], [0.5, 1.0], -1.5)
        assert spo.revenue == pytest.approx(-spo.gamma / -1.5)
        assert np.allclose(spo.prices, np.array([0.5, 1.0]) - (1 + spo.gamma) / -1.5)
        assert spo.choice.probs.sum() == pytest.approx(spo.gamma / (1 + spo.gamma), abs=1e-10)
        assert spo.choice.total == pytest.approx(1.0, abs=1e-12)

    def test_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            single_period_optimum([], [], -1.0)
        with pytest.raises(DomainError):
            single_period_optimum([np.inf], [0.0], -1.0)

    def test_pinned_against_softmax_reference(self):
        # gamma, revenue and prices pinned bit for bit; the choice against
        # gamma/(1+gamma) times the softmax of the scores
        rng = np.random.default_rng(11)
        pinned = []
        for k in range(200):
            n = int(rng.integers(1, 9))
            bp = float(rng.choice([-1, 1]) * rng.uniform(0.2, 3.0))
            q = rng.uniform(-3, 3, n) * (50 if k % 10 == 0 else 1)
            d = rng.uniform(-2, 2, n)
            spo = single_period_optimum(q, d, bp)
            pinned.append(np.r_[spo.gamma, spo.revenue, spo.prices])
            e = np.exp(q + bp * d - np.max(q + bp * d))
            want = spo.gamma / (1.0 + spo.gamma) * e / e.sum()
            np.testing.assert_allclose(spo.choice.probs, want, rtol=1e-15, atol=0)
        assert _digest(*pinned) == "0d80d783cab37a2b"


class TestPriceFromProbs:
    def test_equal_probs_zero_price(self):
        from uip.model import ChoiceVector

        cv = ChoiceVector(probs=np.array([0.5]), outside=0.5)
        p = price_from_probs([0.0], cv, -1.0)
        assert p[0] == pytest.approx(0.0, abs=1e-14)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        qs = rng.uniform(-2, 2, 3)
        cust = CustomerModel(types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.4,
                             quality=lambda o: (float(qs[o.items[0]]),))
        opts = [BundleOption((i,)) for i in range(3)]
        p = rng.uniform(-1, 3, 3)
        cv = mnl_choice(cust, opts, p, 0)
        assert np.allclose(price_from_probs(qs, cv, -1.4), p, atol=1e-10)

    def test_closed_form_price_inverse(self):
        from uip.model import ChoiceVector

        cv = ChoiceVector(probs=np.array([OMEGA_INV / (1 + OMEGA_INV)]),
                          outside=1.0 / (1 + OMEGA_INV))
        p = price_from_probs([0.0], cv, -1.0)
        assert p[0] == pytest.approx(1.0 + OMEGA_INV, abs=1e-10)

    def test_zero_prob_rejected(self):
        from uip.model import ChoiceVector

        with pytest.raises(DomainError):
            price_from_probs([0.0], ChoiceVector(probs=np.array([0.0]), outside=1.0), -1.0)


class TestExactDp:
    def test_horizon_zero(self):
        inst = single_item_instance(salvage=0.7, demand=0.05, mu=0.1)
        assert inst.horizon == 0
        sol = exact_dp(inst, singletons(inst))
        assert sol.value() == 0.7

    def test_one_period(self):
        inst = single_item_instance(demand=1.0, mu=1.0)
        sol = exact_dp(inst, singletons(inst))
        assert sol.value(1) == pytest.approx(OMEGA_INV, abs=1e-12)

    def test_two_periods_hand_recursion(self):
        inst = single_item_instance(demand=2.0, mu=1.0)
        sol = exact_dp(inst, singletons(inst))
        v1 = lambert_w0(np.exp(-1.0))
        v2 = v1 + lambert_w0(np.exp(-1.0 - v1))
        assert sol.value(2) == pytest.approx(v2, abs=1e-9)

    def test_two_periods_against_price_grid(self):
        # brute force over both periods' prices
        inst = single_item_instance(demand=2.0, mu=1.0)
        sol = exact_dp(inst, singletons(inst))
        grid = np.arange(0.5, 3.0, 1e-3)
        e = np.exp(-grid)
        rho = e / (1 + e)
        v1 = np.max(rho * grid)
        v2 = np.max(rho * grid + (1 - rho) * v1)
        assert sol.value(2) == pytest.approx(v2, abs=1e-5)

    def test_value_nondecreasing_in_time_without_salvage(self):
        inst = generate_synthetic(11, 3, "A", 1.0, demand=3.0)
        sol = exact_dp(inst, singletons(inst))
        assert np.all(np.diff(sol.values, axis=0) >= -1e-12)

    def test_subset_monotonicity(self):
        inst = generate_synthetic(4, 3, "bounds-two-type", 1.0, demand=3.0,
                                  salvage=0.3)
        sol = exact_dp(inst, singletons(inst))
        for t in range(inst.horizon + 1):
            for mask in range(8):
                for sub in range(8):
                    if sub & mask == sub:
                        assert sol.values[t, mask] >= sol.values[t, sub] - 1e-12

    def test_caps(self):
        inst = generate_synthetic(0, 15, "A", 1.0, max_bundle_size=1)
        with pytest.raises(CapExceeded):
            exact_dp(inst, singletons(inst))
        inst = generate_synthetic(0, 3, "A", 1.0, demand=1000.0, arrival_prob=0.01)
        with pytest.raises(CapExceeded):
            exact_dp(inst, singletons(inst), cap=1000)

    def test_dp_prices_match_single_period_optimum(self):
        inst = generate_synthetic(5, 2, "A", 1.0, demand=2.0)
        sol = exact_dp(inst, singletons(inst))
        t = inst.horizon
        delta = sol.marginals(t)
        for w in range(2):
            spo = single_period_optimum(sol.qualities[w], delta,
                                        inst.customer.price_sensitivity)
            assert np.allclose(sol.prices(t, w), spo.prices, atol=1e-12)

    def test_empty_option_set_is_worth_zero(self):
        inst = sub_instance(generate_synthetic(0, 2, demand=3.0), [])
        sol = exact_dp(inst, singletons(inst))
        assert inst.horizon == 30 and sol.values.shape == (31, 1)
        assert sol.value() == 0.0

    @pytest.mark.parametrize("types", [1, 2, 3])
    def test_one_w_call_per_period(self, monkeypatch, types):
        inst = {1: single_item_instance(demand=3.0, mu=0.5),
                2: generate_synthetic(0, 3, demand=3.0),
                3: _three_type_instance()}[types]
        assert inst.customer.n_types == types
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return lambert_w_exp(x)

        monkeypatch.setattr(uip.pricing, "lambert_w_exp", counted)
        exact_dp(inst, singletons(inst))
        assert len(calls) == inst.horizon
        assert set(calls) == {(types, 2**inst.n_items - 1)}


class TestAsymptotics:
    def test_value_zero_at_lambda_e(self):
        inst = single_item_instance(demand=np.e, mu=0.1)
        prof = asymptotic_profile(inst, singletons(inst))
        assert prof.value == pytest.approx(0.0, abs=1e-12)

    def test_value_price_at_lambda_e2(self):
        inst = single_item_instance(demand=np.e**2, mu=0.1)
        prof = asymptotic_profile(inst, singletons(inst))
        assert prof.value == pytest.approx(1.0)
        assert prof.prices[0] == pytest.approx(2.0)

    def test_unit_expected_sales(self):
        inst = generate_synthetic(6, 3, "bounds-two-type", 1.3, demand=40.0)
        prof = asymptotic_profile(inst, singletons(inst))
        expected = inst.customer.arrival_pmf @ prof.choice_probs * inst.demand
        assert np.allclose(expected, 1.0, atol=1e-10)

    def test_dp_converges_to_asymptote(self):
        # |V*_T - v_T| -> 0, monotonically in the tail of a dyadic sweep
        # (the signed gap changes sign once early on)
        gaps = []
        for k in range(4, 13):
            T = 2**k
            inst = single_item_instance(q=0.5, demand=float(T), mu=1.0)
            v = exact_dp(inst, singletons(inst)).value()
            prof = asymptotic_profile(inst, singletons(inst))
            gaps.append(abs(v - prof.value))
        tail = gaps[3:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert gaps[-1] < 1e-3


class TestBundlingCondition:
    def test_lambda_e_threshold_zero(self):
        inst = generate_synthetic(2, 2, "A", 1.0, demand=np.e, max_bundle_size=2,
                                  max_bundles=1)
        s = OptionSet(((0, 1),))
        dk, thr, sat = bundling_condition(inst, s)
        assert thr == pytest.approx(0.0, abs=1e-12)
        assert sat == (dk >= 0)

    def test_one_pair_lambda_e2(self):
        inst = generate_synthetic(2, 3, "A", 1.0, demand=np.e**2, max_bundle_size=2,
                                  max_bundles=1)
        s = OptionSet(((0, 1), (2,)))
        _, thr, _ = bundling_condition(inst, s)
        assert thr == pytest.approx(1.0)

    def test_all_singletons(self):
        inst = generate_synthetic(2, 3, "A", 1.0, demand=5.0)
        dk, thr, sat = bundling_condition(inst, singletons(inst))
        assert dk == pytest.approx(0.0, abs=1e-12)
        assert thr == 0.0
        assert sat

    def test_delta_kappa_is_summed_per_bundle(self):
        # kappa(bundle) - sum kappa(member), not the difference of the set's
        # and the singletons' totals, which differs in the last bits here
        qs = np.random.default_rng(1).uniform(0.0, 2.0, 5)
        table = {(j,): float(qs[j]) for j in range(5)}
        table[(0, 1)] = table[(1, 0)] = float(1.3 * (qs[0] + qs[1]))
        cust = CustomerModel(types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.0,
                             quality=lambda o: (table[o.items],))
        inst = MarketInstance(items=tuple(Item(j) for j in range(5)), customer=cust,
                              demand=4.0, arrival_prob=0.1, max_bundles=1,
                              max_bundle_size=2)
        s = OptionSet(((0, 1), (2,), (3,), (4,)))
        dk, _, _ = bundling_condition(inst, s)
        want = aggregated_quality(cust, (0, 1)) - (aggregated_quality(cust, 0)
                                                   + aggregated_quality(cust, 1))
        assert dk.hex() == want.hex()


class TestCumulativeUtility:
    def test_gamma_identity(self):
        inst = generate_synthetic(8, 3, "bounds-two-type", 1.0, demand=3.0)
        s0 = singletons(inst)
        sol = exact_dp(inst, s0)
        for t in (1, inst.horizon // 2, inst.horizon):
            gam = sol.gammas(t)
            delta = sol.marginals(t)
            for w in range(2):
                u = sol.qualities[w] + sol.beta_p * delta - 1.0 - gam[w]
                assert np.sum(np.exp(u)) == pytest.approx(gam[w], abs=1e-10)

    def test_single_period_value(self):
        inst = single_item_instance(demand=1.0, mu=1.0)
        sol = exact_dp(inst, singletons(inst))
        u = cumulative_aggregated_utility(inst, singletons(inst), sol)
        assert u == pytest.approx(np.log(OMEGA_INV), abs=1e-12)

    def test_matches_gamma_sum(self):
        inst = generate_synthetic(9, 3, "A", 1.5, demand=4.0)
        s0 = singletons(inst)
        sol = exact_dp(inst, s0)
        total = 0.0
        for t in range(1, inst.horizon + 1):
            total += float(inst.customer.arrival_pmf @ sol.gammas(t))
        u = cumulative_aggregated_utility(inst, s0, sol)
        assert u == pytest.approx(np.log(total), abs=1e-10)

    def test_wrong_dp_rejected(self):
        inst = generate_synthetic(9, 3, "A", 1.5, demand=4.0, max_bundle_size=2,
                                  max_bundles=1)
        sol = exact_dp(inst, singletons(inst))
        other = OptionSet(((0, 1), (2,)))
        with pytest.raises(MissingDp):
            cumulative_aggregated_utility(inst, other, sol)

    def test_revenue_utility_equivalence_quick(self):
        # argmax over partitions by exact value == argmax by cumulative utility
        for seed in range(3):
            inst = generate_synthetic(seed, 3, "B", 2.0, demand=2.0,
                                      max_bundle_size=3, max_bundles=3)
            parts = enumerate_partitions(inst)
            vals, utils = [], []
            for p in parts:
                sol = exact_dp(inst, p)
                vals.append(sol.value())
                utils.append(cumulative_aggregated_utility(inst, p, sol))
            vmax, umax = max(vals), max(utils)
            argv = {parts[i].canonical() for i in range(len(parts))
                    if vals[i] >= vmax - 1e-9}
            argu = {parts[i].canonical() for i in range(len(parts))
                    if utils[i] >= umax - 1e-9}
            assert argv == argu


def test_dp_value_matches_policy_rollout():
    """Monte-Carlo rollout of the DP's optimal policy reproduces V*.

    End-to-end oracle for the DP + closed-form-pricing + MNL stack: play the
    computed prices against simulated arrivals and compare mean revenue.
    """
    inst = generate_synthetic(3, 3, "bounds-two-type", 1.2, demand=3.0,
                              arrival_prob=0.25)
    s0 = singletons(inst)
    sol = exact_dp(inst, s0)
    v_star = sol.value()
    T = inst.horizon
    pmf = inst.customer.arrival_pmf
    salv = inst.salvage_vector(s0.options)
    price_cache = {
        (t, mask, w): sol.prices(t, w, mask)
        for t in range(1, T + 1)
        for mask in range(1, 8)
        for w in range(2)
    }
    rng = np.random.default_rng(0)
    n_ep = 20_000
    revenues = np.empty(n_ep)
    for ep in range(n_ep):
        mask, rev = 7, 0.0
        for t in range(T, 0, -1):
            if mask == 0 or rng.random() >= inst.arrival_prob:
                continue
            w = 0 if rng.random() < pmf[0] else 1
            members = [i for i in range(3) if mask >> i & 1]
            prices = price_cache[(t, mask, w)]
            e = np.exp(sol.qualities[w, members] + sol.beta_p * prices)
            probs = np.append(e, 1.0) / (1 + e.sum())
            k = rng.choice(len(members) + 1, p=probs)
            if k < len(members):
                rev += prices[k]
                mask ^= 1 << members[k]
        rev += sum(salv[i] for i in range(3) if mask >> i & 1)
        revenues[ep] = rev
    se = revenues.std(ddof=1) / np.sqrt(n_ep)
    assert abs(revenues.mean() - v_star) <= 5 * se + 1e-3


def test_enumerate_partitions_count():
    inst = generate_synthetic(0, 3, "A", 1.0, max_bundle_size=3, max_bundles=3)
    assert len(enumerate_partitions(inst)) == 13
    inst = generate_synthetic(0, 3, "A", 1.0, max_bundle_size=2, max_bundles=1)
    # singletons + 3 pairs x 2 orders
    assert len(enumerate_partitions(inst)) == 7


def test_exhaustive_best_partition_deterministic_ties():
    inst = generate_synthetic(0, 2, "A", 1.0, max_bundle_size=2, max_bundles=1)
    best, val, scored = exhaustive_best_partition(inst)
    again, val2, _ = exhaustive_best_partition(inst)
    assert best.canonical() == again.canonical()
    assert val == val2


# ---------------------------------------------------------------------------
# bit-for-bit pins of the backward recursions
# ---------------------------------------------------------------------------


def _digest(*arrays) -> str:
    """SHA-256 prefix of the arrays' float64 bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _three_type_instance():
    """Three customer types, the middle one with zero arrival weight."""
    table = np.random.default_rng(5).uniform(-0.5, 1.5, size=(3, 4))
    cust = CustomerModel(types=(0, 1, 2), arrival_pmf=[0.25, 0.0, 0.75],
                         price_sensitivity=-1.3,
                         quality=lambda o: [float(sum(table[w, i] for i in o.items))
                                            for w in range(3)])
    return MarketInstance(items=tuple(Item(i, salvage=0.1 * i) for i in range(4)),
                          customer=cust, demand=6.0, arrival_prob=0.2,
                          max_bundles=2, max_bundle_size=2)


def _pinned_case(name):
    """(instance, option set) of a pinned case: the bounds-table inputs of
    seeds 0-4, the three-type instance, and a beta_p > 0 instance."""
    if name.startswith("bounds-table-"):
        inst = generate_synthetic(int(name[-1]), 5, "bounds-two-type", 1.0, demand=20.0,
                                  arrival_prob=0.1, beta_p=-1.0, max_bundle_size=1)
        return inst, singletons(inst)
    if name == "three-type":
        return _three_type_instance(), OptionSet([(0, 1), (2,), (3,)])
    inst = generate_synthetic(1, 4, "B", 1.2, demand=6.0, beta_p=0.8, salvage=0.2)
    return inst, OptionSet([(1, 0), (2,), (3,)])


# (case, SHA-256 prefix of exact_dp(...).values, and of (r, tau) from
# singleton_upper_profiles on every option of the case's instance)
PINNED_TABLES = [
    ("bounds-table-0", "dfa3ed40c5dc3fc5", "5948ae668253f0e8"),
    ("bounds-table-1", "1c805cbc8bf7df5a", "be295e73abad2f45"),
    ("bounds-table-2", "3cd919cec25d02f9", "6dcc67990536ec08"),
    ("bounds-table-3", "554b5c71bec28c78", "5be9bcaa7b85521a"),
    ("bounds-table-4", "471316a0438858b1", "3fe3f906e2f6c571"),
    ("three-type", "600bd2b56779bc81", "05be9915bd102f7d"),
    ("freight-sign", "1a58edfd20ddd430", "baa2557b1bae2e8c"),
]


@pytest.mark.parametrize("name, dp_digest, profile_digest", PINNED_TABLES,
                         ids=[case[0] for case in PINNED_TABLES])
def test_backward_recursions_pinned(name, dp_digest, profile_digest):
    inst, option_set = _pinned_case(name)
    assert _digest(exact_dp(inst, option_set).values) == dp_digest
    pool = enumerate_options(inst)
    assert _digest(*singleton_upper_profiles(inst, pool)) == profile_digest


def _per_type_dp(inst, option_set):
    """Reference subset DP with one W(e^x) call per customer type and period."""
    q = inst.customer.quality_matrix(option_set.options)
    beta_p = inst.customer.price_sensitivity
    pmf = inst.customer.arrival_pmf
    n = q.shape[1]
    salv = inst.salvage_vector(option_set.options)
    masks = np.arange(1 << n)
    values = np.zeros((inst.horizon + 1, 1 << n))
    for i in range(n):
        values[0, (masks >> i & 1) == 1] += salv[i]
    member_mask, member_opt, member_prev, seg_starts = _member_tables(n)
    seg_len = np.diff(np.append(seg_starts, len(member_mask)))
    for t in range(1, inst.horizon + 1):
        prev = values[t - 1]
        delta = prev[member_mask] - prev[member_prev]
        expected = np.zeros(len(seg_starts))
        for w in range(len(pmf)):
            score = q[w, member_opt] + beta_p * delta
            seg_max = np.maximum.reduceat(score, seg_starts)
            e = np.exp(score - np.repeat(seg_max, seg_len))
            expected += pmf[w] * lambert_w_exp(seg_max + np.log(np.add.reduceat(e, seg_starts)) - 1.0)
        values[t, 0] = prev[0]
        values[t, 1:] = prev[1:] + inst.arrival_prob * (-expected / beta_p)
    return values


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_member_tables_match_the_mask_loop(n):
    member_mask, member_opt, member_prev, seg_starts = [], [], [], []
    for mask in range(1, 1 << n):
        seg_starts.append(len(member_mask))
        for i in range(n):
            if mask >> i & 1:
                member_mask.append(mask)
                member_opt.append(i)
                member_prev.append(mask ^ (1 << i))
    want = [np.array(t) for t in (member_mask, member_opt, member_prev, seg_starts)]
    for got, ref in zip(_member_tables(n), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("seed", [0, 1])
def test_ten_options_match_per_type_loop(seed):
    # two types at N=10 give one W call of 2046 elements where the per-type
    # loop makes two of 1023; W is elementwise, so the values are the same bits
    inst = generate_synthetic(seed, 10, "bounds-two-type", 1.0, demand=3.0,
                              arrival_prob=0.1, salvage=0.3, max_bundle_size=1)
    got = exact_dp(inst, singletons(inst)).values
    want = _per_type_dp(inst, singletons(inst))
    assert np.array_equal(got, want)


# (case, SHA-256 prefix of DpSolution.gammas at every period and nonempty
# mask, and cumulative_aggregated_utility as float.hex)
PINNED_GAMMAS = [
    ("bounds-table-0", "67e64e850fdc6e4b", "0x1.36fb862c5eaa7p+2"),
    ("three-type", "8b63ad61c1901dd9", "0x1.762cab795497ap+1"),
    ("freight-sign", "b5d12e25f0099352", "0x1.f4b00dbbe8da4p+1"),
]


@pytest.mark.parametrize("name, gamma_digest, utility_hex", PINNED_GAMMAS,
                         ids=[case[0] for case in PINNED_GAMMAS])
def test_gammas_and_cumulative_utility_pinned(name, gamma_digest, utility_hex):
    inst, option_set = _pinned_case(name)
    sol = exact_dp(inst, option_set)
    gammas = [sol.gammas(t, mask) for t in range(1, sol.horizon + 1)
              for mask in range(1, sol.full_mask + 1)]
    assert _digest(*gammas) == gamma_digest
    assert cumulative_aggregated_utility(inst, option_set, sol).hex() == utility_hex
    with pytest.raises(DomainError):
        sol.gammas(1, 0)
