import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from uip.errors import ConfigError, MissingFreightData
from uip.freight import (
    FreightCoeffs,
    RegionModel,
    SimConfig,
    SimMetrics,
    SupplyModel,
    demo_coeffs,
    demo_regions,
    demo_sim_config,
    load_marginal_value,
    quality_vector,
    sample_choice,
    simulate,
    splitmix64,
    truncated_geometric_pmf,
)
from uip.freight import _closed_form_price, _greedy_pairs, _log_trajectory, _Loads
from uip.model import FreightItemData, Item
from uip.numerics import lambert_w0, lambert_w_exp, log_sum_exp


def one_region():
    return RegionModel(names=("X",), centroids=np.array([[0.0, 0.0]]),
                       arrival_pmf=np.array([1.0]), ehat=np.array([0.0]))


def zeroish_coeffs(beta_p=-1.0, n=1, **kw):
    base = dict(beta0=0.0, beta_d=0.0, beta_e=0.0, beta_b=0.0, beta_p=beta_p,
                beta_org=np.zeros(n), beta_dst=np.zeros(n))
    base.update(kw)
    return FreightCoeffs(**base)


def centroid_load(expiration=10):
    return Item(0, freight=FreightItemData((0.0, 0.0), (0.0, 0.0), expiration))


def price_alone(loads, delta, coeffs, regions):
    """_closed_form_price of the option of loads (in order) alone, at
    marginal value delta; at delta = salvage, a load's expiration price."""
    q = quality_vector(loads, coeffs, regions)[None, :]
    return float(_closed_form_price(q, np.array([delta]), coeffs.beta_p,
                                    regions.arrival_pmf)[0])


def log_prices(pbar, kappa, alpha, mu, beta_p, expiration=10):
    """_log_trajectory in the periods t = 0 .. expiration - 1 after supply."""
    with np.errstate(divide="ignore"):  # the last period: log 0 = -inf
        log_togo = np.log(alpha * mu * (expiration - 1 - np.arange(expiration)))
    return _log_trajectory(-(beta_p * pbar + kappa), kappa, log_togo, beta_p)


def _options(first, last, q):
    """_greedy_pairs' chosen options as tuples of positions."""
    return [(i,) if i == j else (i, j) for i, j in zip(first.tolist(), last.tolist())]


class TestPerceivedQuality:
    def test_all_zero_coeffs(self):
        regions = demo_regions()
        c = zeroish_coeffs(beta_p=1.0, n=4)
        ld = Item(0, freight=FreightItemData((5.0, 5.0), (80.0, 10.0), 10))
        assert quality_vector([ld], c, regions)[1] == 0.0

    def test_intercept_only_at_centroid(self):
        c = zeroish_coeffs(beta0=1.0)
        assert quality_vector([centroid_load()], c, one_region())[0] == pytest.approx(1.0)

    def test_zero_gap_bundle_has_no_interload_deadhead(self):
        # chained loads: dropoff(1) == pickup(2) adds no empty miles
        regions = one_region()
        c = zeroish_coeffs(beta_e=-1.0)
        a = Item(0, freight=FreightItemData((0.0, 0.0), (7.0, 0.0), 10))
        b = Item(1, freight=FreightItemData((7.0, 0.0), (9.0, 0.0), 10))
        q = quality_vector([a, b], c, regions)[0]
        # only the approach leg (centroid -> first pickup = 0 here)
        assert q == pytest.approx(0.0, abs=1e-12)
        b2 = Item(1, freight=FreightItemData((10.0, 0.0), (12.0, 0.0), 10))
        q2 = quality_vector([a, b2], c, regions)[0]
        assert q2 == pytest.approx(-3.0)  # gap of 3 miles

    def test_bundle_indicator(self):
        regions = one_region()
        c = zeroish_coeffs(beta_b=-2.0)
        a, b = centroid_load(), Item(1, freight=FreightItemData((0.0, 0.0), (0.0, 0.0), 10))
        assert quality_vector([a], c, regions)[0] == 0.0
        assert quality_vector([a, b], c, regions)[0] == pytest.approx(-2.0)
        # every option of more than one load is a bundle, three chained loads too
        c3 = Item(2, freight=FreightItemData((0.0, 0.0), (0.0, 0.0), 10))
        assert quality_vector([a, b, c3], c, regions)[0] == -2.0

    def test_missing_freight(self):
        with pytest.raises(MissingFreightData):
            quality_vector([Item(0)], zeroish_coeffs(), one_region())[0]


class TestExpirationPrice:
    def test_canonical_example(self):
        # xi=0, q=0, beta_p=-1 -> 1 + W(1/e), the closed-form singleton price
        p = price_alone([centroid_load()], 0.0, zeroish_coeffs(), one_region())
        assert p == pytest.approx(1.0 + lambert_w0(np.exp(-1.0)), abs=1e-12)

    def test_single_region_collapse(self):
        # with one region the expectation has a single term
        ld = centroid_load()
        q = quality_vector([ld], zeroish_coeffs(beta0=0.3), one_region())[0]
        gam = lambert_w_exp(q - 1.0)
        p = price_alone([ld], ld.salvage, zeroish_coeffs(beta0=0.3), one_region())
        assert p == pytest.approx(1.0 + gam)

    def test_markup_sign(self):
        # canonical sign: pbar >= xi - 1/beta_p is exactly W >= 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            ld = Item(0, salvage=float(rng.uniform(0, 2)),
                      freight=FreightItemData((0.0, 0.0), (0.0, 0.0), 10))
            c = zeroish_coeffs(beta0=float(rng.uniform(-2, 2)))
            p = price_alone([ld], ld.salvage, c, one_region())
            assert p >= ld.salvage - 1.0 / c.beta_p - 1e-12


class TestLogPrice:
    def setup_method(self):
        self.ld = centroid_load(expiration=10)
        self.c = zeroish_coeffs()
        self.pbar = price_alone([self.ld], self.ld.salvage, self.c, one_region())
        self.kappa = log_sum_exp(quality_vector([self.ld], self.c, one_region()),
                                 one_region().arrival_pmf)

    def test_terminal_value(self):
        p = log_prices(self.pbar, self.kappa, 1.0, 0.5, self.c.beta_p)[9]
        assert p == pytest.approx(self.pbar, abs=1e-12)

    def test_alpha_to_zero(self):
        for p in log_prices(self.pbar, self.kappa, 1e-14, 0.5, self.c.beta_p):
            assert p == pytest.approx(self.pbar, abs=1e-9)

    def test_monotone_toward_deadline(self):
        # canonical sign: price decreases as the deadline approaches
        ps = log_prices(self.pbar, self.kappa, 0.7, 0.5, self.c.beta_p)
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        # freight sign: the payment rises toward the deadline
        cf = zeroish_coeffs(beta_p=0.01, beta0=-5.0)
        ldf = Item(0, salvage=500.0,
                   freight=FreightItemData((0.0, 0.0), (0.0, 0.0), 10))
        pbar = price_alone([ldf], ldf.salvage, cf, one_region())
        kap = log_sum_exp(quality_vector([ldf], cf, one_region()), one_region().arrival_pmf)
        ps = log_prices(pbar, kap, 0.2, 0.5, cf.beta_p)
        assert all(a <= b for a, b in zip(ps, ps[1:]))


class TestMarginalValue:
    def test_closed_form_roundtrip(self):
        for beta_p in (-1.0, -0.4, 0.01):
            for delta in (0.0, 0.8, 40.0 if beta_p > 0 else 2.0):
                q = 0.3
                gam = lambert_w_exp(q + beta_p * delta - 1.0)
                price = delta - (1.0 + gam) / beta_p
                assert load_marginal_value(price, q, beta_p) == pytest.approx(delta, abs=1e-6)

    def test_vanishing_exponent_limit(self):
        # as beta_p * p -> -inf the marginal tends to p + 1/beta_p
        p = 60.0
        got = load_marginal_value(p, 0.0, -1.0)
        assert got == pytest.approx(p - 1.0, abs=1e-20)

    def test_quality_shift_scales_exponential(self):
        p, bp = 1.0, -1.0
        base = load_marginal_value(p, 0.0, bp) - (p + 1.0 / bp)
        shifted = load_marginal_value(p, 0.5, bp) - (p + 1.0 / bp)
        assert shifted == pytest.approx(base * math.exp(0.5))


class TestBundlePrice:
    def test_singleton_custom_is_closed_form(self):
        regions = demo_regions()
        c = demo_coeffs()
        ld = Item(0, freight=FreightItemData((1.0, 2.0), (30.0, 40.0), 10))
        delta = 120.0
        q = quality_vector([ld], c, regions)
        gam = lambert_w_exp(q + c.beta_p * delta - 1.0)
        expect = delta - (1.0 + float(regions.arrival_pmf @ gam)) / c.beta_p
        assert price_alone([ld], delta, c, regions) == pytest.approx(expect)

    def test_custom_monotone_in_quality(self):
        # freight sign: lower bundle quality -> higher required payment
        regions = demo_regions()
        loads = [Item(0, freight=FreightItemData((0, 0), (50, 0), 10)),
                 Item(1, freight=FreightItemData((60, 0), (90, 0), 10))]
        delta = 120.0 + 100.0
        p_low = price_alone(loads, delta, demo_coeffs(aversion=-3.0), regions)
        p_high = price_alone(loads, delta, demo_coeffs(aversion=-0.5), regions)
        assert p_low > p_high
        # canonical sign: higher quality -> higher markup
        c_lo = zeroish_coeffs(beta0=0.0)
        c_hi = zeroish_coeffs(beta0=1.0)
        ld = centroid_load()
        assert (price_alone([ld], 1.0, c_hi, one_region())
                > price_alone([ld], 1.0, c_lo, one_region()))


class TestSimulatorArrays:
    def test_load_table_quality_is_quality_vector(self):
        regions, c = demo_regions(), demo_coeffs()
        rng = np.random.default_rng(4)
        loads = _Loads(regions, c, 0.0)
        for _ in range(70):  # past the initial capacity, so the table grows
            loads.add(rng.uniform(-20, 200, (1, 2)), rng.uniform(-20, 200, (1, 2)), 10)
        items = [Item(u, freight=FreightItemData(tuple(loads.pickup[u]),
                                                 tuple(loads.dropoff[u]), 10))
                 for u in range(loads.size)]
        first, last = np.array([3, 3, 66, 0]), np.array([3, 66, 3, 69])
        q = loads.quality(first, last)
        for k, (a, b) in enumerate(zip(first, last)):
            members = [items[a]] if a == b else [items[a], items[b]]
            np.testing.assert_allclose(q[k], quality_vector(members, c, regions), rtol=1e-12)

    def test_array_pricing_matches_scalar(self):
        ld = Item(0, salvage=300.0, freight=FreightItemData((0.0, 0.0), (100.0, 0.0), 10))
        c, regions = demo_coeffs(), demo_regions()
        pbar = price_alone([ld], ld.salvage, c, regions)
        kappa = log_sum_exp(quality_vector([ld], c, regions), regions.arrival_pmf)
        prices = log_prices(pbar, kappa, 0.3, 0.6, c.beta_p)
        marg = load_marginal_value(prices, kappa, c.beta_p)
        assert marg.shape == (10,)
        for p, m in zip(prices, marg):
            assert load_marginal_value(float(p), kappa, c.beta_p) == m

    def test_greedy_tie_break_prefers_singletons_then_row_major_pairs(self):
        regions = demo_regions()
        c = zeroish_coeffs(beta_p=1.0, n=4)
        loads = _Loads(regions, c, 0.0)
        for _ in range(3):
            loads.add(np.zeros((1, 2)), np.zeros((1, 2)), 10)
        uids = np.arange(3)
        # every key equal: the singletons, in order
        assert _options(*_greedy_pairs(loads, uids, np.zeros(3), None)) == [(0,), (1,), (2,)]
        # every pair beats every singleton, and the pairs tie: (0, 1) first
        assert _options(*_greedy_pairs(loads, uids, np.ones(3), None)) == [(0, 1), (2,)]
        assert _options(*_greedy_pairs(loads, uids, np.ones(3), None, region=2)) == [(0, 1), (2,)]
        assert _options(*_greedy_pairs(loads, uids, np.ones(3), 0)) == [(0,), (1,), (2,)]


class TestChoiceSampling:
    def test_mnl_unbiased(self):
        rng = np.random.default_rng(0)
        utilities = np.array([0.3, -0.5, 1.1])
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            k = sample_choice(rng, utilities, "mnl")
            counts[k if k >= 0 else 3] += 1
        e = np.exp(utilities)
        probs = np.append(e, 1.0) / (1.0 + e.sum())
        for k in range(4):
            sd = math.sqrt(n * probs[k] * (1 - probs[k]))
            assert abs(counts[k] - n * probs[k]) <= 3.0 * sd

    def test_sequential_walks_in_order(self):
        rng = np.random.default_rng(1)
        n = 50_000
        hits = np.zeros(3)
        utilities = np.array([0.0, 0.0, 0.0])
        for _ in range(n):
            k = sample_choice(rng, utilities, "sequential_logit")
            if k >= 0:
                hits[k] += 1
        # first option accepted w.p. 1/2, second 1/4, third 1/8
        assert hits[0] / n == pytest.approx(0.5, abs=0.01)
        assert hits[1] / n == pytest.approx(0.25, abs=0.01)
        assert hits[2] / n == pytest.approx(0.125, abs=0.01)

    def test_empty_menu(self):
        rng = np.random.default_rng(2)
        assert sample_choice(rng, np.array([]), "mnl") == -1


class TestSimulate:
    def small_config(self, **kw):
        base = dict(
            supply=SupplyModel(rate=0.3, lifetime=(15, 30), scatter=10.0),
            horizon_periods=300, seed=7, replications=3, arrival_prob=0.6,
            alpha=0.15, salvage_multiplier=1.5, rolling_period=20,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_bit_identical_reruns(self):
        cfg = self.small_config()
        a = simulate(cfg, demo_coeffs(), demo_regions())
        b = simulate(cfg, demo_coeffs(), demo_regions())
        for k in a.samples:
            assert np.array_equal(a.samples[k], b.samples[k])

    def test_zero_supply_is_all_zero(self):
        cfg = self.small_config(supply=SupplyModel(rate=0.0, lifetime=(5, 5)))
        m = simulate(cfg, demo_coeffs(), demo_regions())
        assert m.cost_per_loaded_mile == 0.0
        assert m.avg_empty_miles == 0.0
        assert m.unmet_deadline_rate == 0.0

    def test_topk_zero_blocks_all_bookings(self):
        cfg = self.small_config(topk_pmf=np.array([1.0]), framework="no_bundle")
        m = simulate(cfg, demo_coeffs(), demo_regions())
        assert m.unmet_deadline_rate == 1.0
        assert np.all(m.samples["booked"] == 0)

    def test_accounting_identity(self):
        for fw in ("no_bundle", "rolling_horizon", "personalized"):
            cfg = self.small_config(framework=fw, replications=2)
            m = simulate(cfg, demo_coeffs(), demo_regions())
            assert np.allclose(
                m.samples["total_cost"],
                m.samples["price_paid"] + m.samples["penalty_paid"],
                rtol=1e-12,
            )
            assert np.allclose(
                m.samples["loaded_miles"],
                m.samples["booked_miles"] + m.samples["salvaged_miles"],
                rtol=1e-12,
            )

    def test_all_frameworks_and_choice_modes_run(self):
        for fw in ("no_bundle", "rolling_horizon", "personalized"):
            for cm in ("mnl", "sequential_logit"):
                cfg = self.small_config(framework=fw, choice_mode=cm,
                                        replications=1, horizon_periods=150)
                m = simulate(cfg, demo_coeffs(), demo_regions())
                assert np.isfinite(m.cost_per_loaded_mile)

    def test_min_empty_miles_bundling_runs(self):
        cfg = self.small_config(bundling="min_empty_miles", replications=1,
                                horizon_periods=150,
                                supply=SupplyModel(rate=0.15, lifetime=(15, 30)))
        m = simulate(cfg, demo_coeffs(), demo_regions())
        assert np.isfinite(m.cost_per_loaded_mile)

    def test_min_empty_miles_past_70_open_loads(self):
        # one rebuild over 93 open loads: offering all n(n-1) pairs made an
        # LP of 8,649 columns, past the dense simplex's size cap
        cfg = dataclasses.replace(
            demo_sim_config("custom", seed=5, replications=1, bundling="min_empty_miles"),
            supply=SupplyModel(rate=80, lifetime=(2, 3)), horizon_periods=2)
        m = simulate(cfg, demo_coeffs(), demo_regions())
        assert np.isfinite(m.cost_per_loaded_mile)

    def test_min_empty_miles_honours_max_bundles(self):
        # with no bundle allowed, min-empty-miles pairing is no bundling at all
        base = dataclasses.replace(demo_sim_config("custom", seed=3, replications=2),
                                   horizon_periods=600)
        capped = simulate(dataclasses.replace(base, bundling="min_empty_miles", max_bundles=0),
                          demo_coeffs(), demo_regions())
        plain = simulate(dataclasses.replace(base, framework="no_bundle"),
                         demo_coeffs(), demo_regions())
        for key, expect in plain.samples.items():
            assert capped.samples[key].tolist() == expect.tolist(), key

    def test_directional_custom_beats_linear_quick(self):
        coeffs = demo_coeffs(aversion=-3.0)
        out = {}
        for pricing in ("linear", "custom"):
            cfg = demo_sim_config(pricing, replications=30)
            out[pricing] = simulate(cfg, coeffs, demo_regions())
        d = (out["linear"].samples["unmet_deadline_rate"]
             - out["custom"].samples["unmet_deadline_rate"])
        assert d.mean() > 0
        t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
        assert t > 2.0

    def test_ci_half_width(self):
        cfg = self.small_config(replications=4)
        m = simulate(cfg, demo_coeffs(), demo_regions())
        assert m.half_width("cost_per_loaded_mile") >= 0
        one = simulate(self.small_config(replications=1), demo_coeffs(), demo_regions())
        assert one.half_width("cost_per_loaded_mile") == 0.0

    def test_metrics_json(self):
        import json

        cfg = self.small_config(replications=2, horizon_periods=100)
        m = simulate(cfg, demo_coeffs(), demo_regions())
        doc = json.loads(m.to_json())
        assert "summary" in doc and "samples" in doc

    def test_isolated_loads_match_analytic_booking(self):
        """With loads so sparse they never coexist, the unmet-deadline rate
        must match the analytic no-booking probability of one load walked
        through its own price trajectory. Catches event-loop off-by-ones
        (supply/expiry timing, price ages, menu wiring)."""
        regions = RegionModel(names=("A", "B"),
                              centroids=np.array([[0.0, 0.0], [100.0, 0.0]]),
                              arrival_pmf=np.array([0.6, 0.4]),
                              ehat=np.array([10.0, 10.0]))
        coeffs = FreightCoeffs(beta0=-1.0, beta_d=-0.002, beta_e=-0.01,
                               beta_b=-1.0, beta_p=0.01,
                               beta_org=np.zeros(2), beta_dst=np.zeros(2))
        life, mu, alpha = 15, 0.55, 0.2
        sup = SupplyModel(rate=0.002, lifetime=(life, life), scatter=0.0,
                          pickup_pmf=np.array([1.0, 0.0]),
                          dropoff_pmf=np.array([0.0, 1.0]))
        cfg = SimConfig(supply=sup, horizon_periods=4000, seed=11,
                        replications=80, framework="no_bundle", pricing="linear",
                        arrival_prob=mu, alpha=alpha, salvage_multiplier=1.4,
                        reference_cost_per_mile=2.0,
                        topk_pmf=np.array([0.0, 1.0]))
        m = simulate(cfg, coeffs, regions)
        resolved = m.samples["booked"].sum() + m.samples["salvaged"].sum()
        emp = m.samples["salvaged"].sum() / resolved

        ld = Item(0, salvage=1.4 * 2.0 * 100.0,
                  freight=FreightItemData((0.0, 0.0), (100.0, 0.0), life))
        pbar = price_alone([ld], ld.salvage, coeffs, regions)
        kappa = log_sum_exp(quality_vector([ld], coeffs, regions), regions.arrival_pmf)
        q = np.array([quality_vector([ld], coeffs, regions)[w] for w in range(2)])
        alive = 1.0
        for price in log_prices(pbar, kappa, alpha, mu, coeffs.beta_p, expiration=life):
            e = np.exp(q + coeffs.beta_p * price)
            alive *= 1.0 - mu * float(regions.arrival_pmf @ (e / (1.0 + e)))
        se = math.sqrt(alive * (1 - alive) / resolved)
        assert abs(emp - alive) <= 4 * se + 0.01


# Per-replication metrics of demo_sim_config(seed=3, replications=3) at 400
# periods and demo_coeffs(aversion=-3.0), recorded from the scalar
# simulator before its arrival loop was batched. They pin every draw site
# and pricing path: a batched rewrite must reproduce them to 1e-9 relative.
GOLDEN_SETTINGS = {
    "rolling_custom": dict(pricing="custom"),
    "rolling_linear": dict(pricing="linear"),
    "personalized": dict(pricing="custom", framework="personalized"),
    "no_bundle": dict(pricing="custom", framework="no_bundle"),
    "sequential_logit": dict(pricing="custom", choice_mode="sequential_logit"),
    "min_empty_miles": dict(pricing="custom", bundling="min_empty_miles"),
}

GOLDEN_METRICS = {
    "rolling_custom": {
        "cost_per_loaded_mile": (1.696589852054611, 1.636315979200958, 1.7107394698207345),
        "avg_empty_miles": (48.574346294877195, 45.50386150739619, 60.828306816712235),
        "unmet_deadline_rate": (0.04054054054054054, 0.013071895424836602, 0.03468208092485549),
        "total_cost": (62002.10922537563, 61901.22019132179, 73604.35193260663),
        "loaded_miles": (36545.1373826677, 37829.625193508924, 43024.87505027256),
        "empty_miles": (7189.003251641825, 6962.0908106316165, 10523.297079291217),
        "booked": (142.0, 151.0, 167.0),
        "salvaged": (6.0, 2.0, 6.0),
        "price_paid": (59117.118941857494, 61287.57954508181, 71094.9421972556),
        "penalty_paid": (2884.990283518141, 613.6406462399771, 2509.4097353510288),
        "booked_miles": (35583.47395482832, 37625.07831142892, 42188.40513848887),
        "salvaged_miles": (961.6634278393803, 204.54688207999237, 836.4699117836764),
    },
    "rolling_linear": {
        "cost_per_loaded_mile": (1.6562806033765962, 1.6005958033829268, 1.7077377469575117),
        "avg_empty_miles": (42.565907592758, 40.82426008206983, 55.11718981136681),
        "unmet_deadline_rate": (0.05405405405405406, 0.025974025974025976, 0.07471264367816093),
        "total_cost": (60529.002194645465, 60793.061862123686, 73911.57670025447),
        "loaded_miles": (36545.1373826677, 37981.52021493183, 43280.402293580846),
        "empty_miles": (6299.754323728184, 6286.936052638754, 9590.391027177826),
        "booked": (140.0, 150.0, 161.0),
        "salvaged": (8.0, 4.0, 13.0),
        "price_paid": (56407.31307603134, 59152.515996863134, 66585.07410003817),
        "penalty_paid": (4121.68911861413, 1640.5458652605419, 7326.502600216344),
        "booked_miles": (35171.24100979632, 37434.67159317831, 40838.2347601754),
        "salvaged_miles": (1373.8963728713768, 546.848621753514, 2442.1675334054485),
    },
    "personalized": {
        "cost_per_loaded_mile": (1.6850835993497506, 1.6612827831130739, 1.6939209735010594),
        "avg_empty_miles": (51.680309012713835, 41.991871517048686, 45.33733214702007),
        "unmet_deadline_rate": (0.006493506493506494, 0.007246376811594203, 0.011235955056179775),
        "total_cost": (64823.90116695817, 57312.03978310203, 74578.16493598197),
        "loaded_miles": (38469.249354733955, 34498.66594999867, 44026.944646562246),
        "empty_miles": (7958.767587957931, 5794.878269352719, 8070.045122169573),
        "booked": (153.0, 137.0, 176.0),
        "salvaged": (1.0, 1.0, 2.0),
        "price_paid": (64309.938480104036, 56804.67030257201, 73986.6599173463),
        "penalty_paid": (513.9626868541278, 507.36948053001504, 591.5050186356686),
        "booked_miles": (38297.92845911591, 34329.542789822, 43829.77630701702),
        "salvaged_miles": (171.3208956180426, 169.1231601766717, 197.16833954522292),
    },
    "no_bundle": {
        "cost_per_loaded_mile": (1.7579439975870872, 1.7005568809914378, 1.8335425139708192),
        "avg_empty_miles": (49.021062427376236, 37.37234212402649, 44.37590862137031),
        "unmet_deadline_rate": (0.13513513513513514, 0.07894736842105263, 0.16091954022988506),
        "total_cost": (64265.35633778809, 64010.13636830289, 79499.94977815909),
        "loaded_miles": (36557.11241427327, 37640.691166404555, 43358.66181034967),
        "empty_miles": (7255.117239251683, 5680.596002852026, 7721.408100118433),
        "booked": (128.0, 140.0, 146.0),
        "salvaged": (20.0, 12.0, 28.0),
        "price_paid": (51918.82518802906, 57141.56553250216, 61967.532870651245),
        "penalty_paid": (12346.531149759054, 6868.570835800738, 17532.416907507904),
        "booked_miles": (32441.602031020244, 35351.16755447096, 37514.522841180384),
        "salvaged_miles": (4115.5103832530185, 2289.523611933579, 5844.1389691693),
    },
    "sequential_logit": {
        "cost_per_loaded_mile": (1.6853734520916257, 1.7085986993540867, 1.5978598110995905),
        "avg_empty_miles": (53.070852046244156, 53.64590036488092, 59.64600291916271),
        "unmet_deadline_rate": (0.029239766081871343, 0.03184713375796178, 0.013605442176870748),
        "total_cost": (71510.12176048243, 64731.288322871216, 59543.593645404704),
        "loaded_miles": (42429.83753644339, 37885.60084198942, 37264.59181949693),
        "empty_miles": (9075.11569990775, 8422.406357286305, 8767.962429116918),
        "booked": (166.0, 152.0, 145.0),
        "salvaged": (5.0, 5.0, 2.0),
        "price_paid": (69183.37715188938, 62259.58689069747, 58838.47895428045),
        "penalty_paid": (2326.744608593052, 2471.7014321737342, 705.1146911242524),
        "booked_miles": (41654.2560002457, 37061.70036459817, 37029.55358912217),
        "salvaged_miles": (775.581536197684, 823.9004773912447, 235.0382303747508),
    },
    "min_empty_miles": {
        "cost_per_loaded_mile": (1.7066167848569174, 1.6620231158394076, 1.7262750691893236),
        "avg_empty_miles": (45.66460847180976, 43.01007451472889, 50.98128562535564),
        "unmet_deadline_rate": (0.05405405405405406, 0.025974025974025976, 0.03488372093023256),
        "total_cost": (62368.54486216269, 63266.67914328399, 73948.5974147276),
        "loaded_miles": (36545.1373826677, 38066.06450917564, 42837.08821066078),
        "empty_miles": (6758.362053827844, 6623.551475268249, 8768.78112756117),
        "booked": (140.0, 150.0, 166.0),
        "salvaged": (8.0, 4.0, 6.0),
        "price_paid": (58606.298047638105, 61307.723582909486, 70177.50634836694),
        "penalty_paid": (3762.2468145245953, 1958.9555603745177, 3771.0910663606455),
        "booked_miles": (35291.055111159505, 37413.079322384125, 41580.05785520722),
        "salvaged_miles": (1254.0822715081988, 652.985186791506, 1257.0303554535483),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SETTINGS))
def test_golden_replication_metrics(name):
    cfg = dataclasses.replace(
        demo_sim_config(seed=3, replications=3, **GOLDEN_SETTINGS[name]),
        horizon_periods=400,
    )
    m = simulate(cfg, demo_coeffs(aversion=-3.0), demo_regions())
    assert set(m.samples) == set(GOLDEN_METRICS[name])
    for key, expect in GOLDEN_METRICS[name].items():
        np.testing.assert_allclose(m.samples[key], expect, rtol=1e-9, atol=0, err_msg=key)


def _metrics_digest(m) -> str:
    """SHA-256 prefix of every per-replication metric as float.hex."""
    doc = {k: [float(x).hex() for x in v] for k, v in sorted(m.samples.items())}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# Bit-exact pins of simulate (every per-replication metric), recorded before
# the per-period load setup and the array menu: the golden settings, a
# supply of 150 loads a period (past _Loads' initial capacity of 64 in one
# period) for each framework, and greedy bundling capped at one bundle.
BIT_PINS = {
    "golden/min_empty_miles": "5a44516325a5449b",
    "golden/no_bundle": "299e21fa8af0747d",
    "golden/personalized": "02fed7d20bad4044",
    "golden/rolling_custom": "e30de26e94bd9680",
    "golden/rolling_linear": "14ee59161733be9e",
    "golden/sequential_logit": "16e84eafecc25a78",
    "burst/no_bundle": "db6cb74c3054387a",
    "burst/rolling_horizon": "6a7cd1e71dc948f6",
    "burst/personalized": "bfef5de1632096be",
    "one_bundle/rolling_horizon": "aa501eec70098d33",
    "one_bundle/personalized": "6a2a1654a0e4bec5",
}


def _pin_config(case: str) -> SimConfig:
    kind, name = case.split("/")
    if kind == "golden":
        cfg = demo_sim_config(seed=3, replications=3, **GOLDEN_SETTINGS[name])
        return dataclasses.replace(cfg, horizon_periods=400)
    if kind == "burst":
        cfg = demo_sim_config("custom", seed=5, replications=1, framework=name)
        return dataclasses.replace(cfg, supply=SupplyModel(rate=150, lifetime=(2, 3)),
                                   horizon_periods=20)
    cfg = demo_sim_config("custom", seed=3, replications=3, framework=name)
    return dataclasses.replace(cfg, horizon_periods=400, max_bundles=1)


@pytest.mark.parametrize("case", sorted(BIT_PINS))
def test_simulate_bit_pins(case):
    m = simulate(_pin_config(case), demo_coeffs(aversion=-3.0), demo_regions())
    assert _metrics_digest(m) == BIT_PINS[case]


# Bit-exact pins of the Student-t confidence half-width, as float.hex, for
# fixed samples of n replications at confidence 0.9, 0.95 and 0.99.
HALF_WIDTH_PINS = {
    2: ("0x1.02dd22ca3696ep+4", "0x1.047a2996ae167p+5", "0x1.463da4f7c568ep+7"),
    3: ("0x1.147ae9e735389p+3", "0x1.976609a60f61fp+3", "0x1.d5de7ce5c2a8cp+4"),
    20: ("0x1.72975fce0b662p+0", "0x1.c094cb3effe40p+0", "0x1.3294a8abf4bf5p+1"),
    200: ("0x1.b5fbfa3316c54p-2", "0x1.0551d6ac18159p-1", "0x1.58a5c08a7344ap-1"),
}


@pytest.mark.parametrize("n", sorted(HALF_WIDTH_PINS))
def test_half_width_bit_pins(n):
    x = (np.arange(n) * 7919 % 101) / 8.0 + 3.0  # exact in binary
    for confidence, expect in zip((0.9, 0.95, 0.99), HALF_WIDTH_PINS[n]):
        m = SimMetrics(samples={"x": x}, confidence=confidence)
        assert m.half_width("x").hex() == expect, confidence


class TestConfigs:
    def test_validation(self):
        sup = SupplyModel(rate=0.1, lifetime=(5, 10))
        with pytest.raises(ConfigError):
            SimConfig(supply=sup, horizon_periods=0, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(supply=sup, horizon_periods=10, seed=0, framework="nope")
        with pytest.raises(ConfigError):
            SimConfig(supply=sup, horizon_periods=10, seed=0,
                      topk_pmf=np.array([0.5, 0.4]))
        with pytest.raises(ConfigError):
            SupplyModel(rate=-1.0, lifetime=(5, 10))
        with pytest.raises(ConfigError):
            SimConfig(supply=sup, horizon_periods=10, seed=0, max_bundles=-1)
        for confidence in (2.0, 1.0, 0.0, -0.5, float("nan")):
            with pytest.raises(ConfigError):
                SimConfig(supply=sup, horizon_periods=10, seed=0, confidence=confidence)
        with pytest.raises(ConfigError):
            SimConfig(supply=sup, horizon_periods=10, seed=0, rolling_period=0)
        for key in ("pickup_pmf", "dropoff_pmf"):
            for pmf in ([0.5, -0.1, 0.3, 0.3], [0.0, 0.0, 0.0, 0.0]):
                with pytest.raises(ConfigError):
                    SupplyModel(rate=0.1, lifetime=(5, 10), **{key: np.array(pmf)})
            for n in (3, 5):
                bad = SupplyModel(rate=0.1, lifetime=(5, 10), **{key: np.full(n, 1.0 / n)})
                cfg = SimConfig(supply=bad, horizon_periods=10, seed=0)
                with pytest.raises(ConfigError):
                    simulate(cfg, demo_coeffs(), demo_regions())

    def test_config_json_roundtrip(self):
        import json

        text = json.dumps({
            "supply": {"rate": 0.2, "lifetime": [10, 20], "scatter": 5.0},
            "horizon_periods": 100, "seed": 3, "replications": 2,
            "framework": "rolling_horizon", "pricing": "linear",
        })
        cfg = SimConfig.from_json(text)
        assert cfg.supply.rate == 0.2
        assert cfg.pricing == "linear"

    @staticmethod
    def assert_same_record(a, b):
        # field by field, as arrays make the dataclass == ambiguous
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert type(x) is type(y), f.name
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
            elif dataclasses.is_dataclass(x):
                TestConfigs.assert_same_record(x, y)
            else:
                assert x == y, f.name

    @pytest.mark.parametrize("record", [
        demo_regions(),
        demo_coeffs(),
        SupplyModel(rate=0.3, lifetime=(4, 9), scatter=8.0, pickup_pmf=[0.1, 0.2, 0.3, 0.4],
                    dropoff_pmf=np.array([0.25, 0.25, 0.5, 0.0]), inter_region=False),
        dataclasses.replace(demo_sim_config("linear", seed=7, replications=3),
                            topk_pmf=[0.0, 0.5, 0.5], max_bundles=2),
    ], ids=lambda r: type(r).__name__)
    def test_record_json_roundtrip(self, record):
        text = json.dumps(record.to_dict())
        back = (SimConfig.from_json(text) if isinstance(record, SimConfig)
                else type(record).from_dict(json.loads(text)))
        self.assert_same_record(back, record)

    def test_record_built_in_code_has_the_json_types(self):
        sup = SupplyModel(rate=1, lifetime=[20, 40])
        assert type(sup.rate) is float and sup.lifetime == (20, 40)
        assert type(sup.lifetime) is tuple and all(type(v) is int for v in sup.lifetime)
        self.assert_same_record(SupplyModel.from_dict(json.loads(json.dumps(sup.to_dict()))),
                                sup)

    def test_splitmix_is_stable(self):
        # reference values of the standard splitmix64 stream
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_topk_pmf_mean(self):
        pmf = truncated_geometric_pmf(mean=5.0, kmax=15)
        assert pmf[0] == 0.0
        mean = float(np.arange(16) @ pmf)
        assert 4.0 < mean < 6.0
