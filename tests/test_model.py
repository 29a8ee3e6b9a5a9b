import json

import numpy as np
import pytest

from uip.errors import (
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    DomainError,
    PartitionMismatch,
    UnknownScenario,
)
from uip.model import (
    BundleOption,
    CustomerModel,
    Item,
    OptionSet,
    aggregated_quality,
    enumerate_options,
    extended_choice,
    generate_synthetic,
    instance_from_json,
    instance_to_json,
    mnl_choice,
    option_count,
    singletons,
)


def flat_customer(q=0.0, beta_p=-1.0, n_types=1):
    pmf = np.full(n_types, 1.0 / n_types)
    return CustomerModel(
        types=tuple(range(n_types)), arrival_pmf=pmf,
        price_sensitivity=beta_p, quality=lambda o: (q,) * n_types,
    )


def tiny_instance(n=2, kb=2, ks=None, **kw):
    return generate_synthetic(0, n, "A", 1.0, max_bundle_size=kb, max_bundles=ks, **kw)


class TestOptions:
    def test_enumerate_small(self):
        inst = tiny_instance(2, kb=1)
        assert [o.items for o in enumerate_options(inst)] == [(0,), (1,)]
        inst = tiny_instance(2, kb=2)
        assert [o.items for o in enumerate_options(inst)] == [(0,), (1,), (0, 1), (1, 0)]

    def test_enumerate_l3_kb3(self):
        # 3 singletons + 6 ordered pairs + 6 ordered triples
        assert option_count(3, 3) == 15
        inst = tiny_instance(3, kb=3)
        opts = enumerate_options(inst)
        assert len(opts) == 15
        assert len({o.items for o in opts}) == 15

    def test_cap(self):
        # 60 + 3,540 + 205,320 options, above the cap of 200,000; the check
        # raises before any option is built
        inst = tiny_instance(60, kb=3)
        with pytest.raises(CapExceeded, match="208920 options"):
            enumerate_options(inst)

    def test_bundle_option_validation(self):
        with pytest.raises(ValueError):
            BundleOption((1, 1))
        with pytest.raises(ValueError):
            BundleOption(())

    def test_option_set_validation(self):
        inst = tiny_instance(3, kb=2, ks=1)
        OptionSet(((0,), (1, 2))).validate(inst)
        with pytest.raises(PartitionMismatch):  # overlap
            OptionSet(((0, 1), (1, 2))).validate(inst)
        with pytest.raises(PartitionMismatch):  # omission
            OptionSet(((0,), (1,))).validate(inst)
        with pytest.raises(PartitionMismatch):  # too many bundles
            inst2 = tiny_instance(4, kb=2, ks=1)
            OptionSet(((0, 1), (2, 3))).validate(inst2)
        with pytest.raises(PartitionMismatch):  # oversized option
            OptionSet(((0, 1, 2),)).validate(inst)


class TestChoice:
    def test_single_option_half(self):
        cv = mnl_choice(flat_customer(), [BundleOption((0,))], [0.0], 0)
        assert cv.probs[0] == pytest.approx(0.5)
        assert cv.outside == pytest.approx(0.5)

    def test_price_to_infinity(self):
        cv = mnl_choice(flat_customer(), [BundleOption((0,))], [1e4], 0)
        assert cv.probs[0] < 1e-300
        cv = mnl_choice(flat_customer(), [BundleOption((0,))], [700.0], 0)
        assert cv.probs[0] < 1e-200

    def test_two_identical_symmetric(self):
        cv = mnl_choice(flat_customer(), [BundleOption((0,)), BundleOption((1,))], [0.0, 0.0], 0)
        assert np.allclose(cv.probs, 1.0 / 3.0)
        assert cv.outside == pytest.approx(1.0 / 3.0)

    def test_normalization_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 6)
            qs = rng.uniform(-3, 3, n)
            cust = CustomerModel(
                types=(0,), arrival_pmf=[1.0], price_sensitivity=-rng.uniform(0.2, 3),
                quality=lambda o, qs=qs: (float(qs[o.items[0]]),),
            )
            opts = [BundleOption((i,)) for i in range(n)]
            cv = mnl_choice(cust, opts, rng.uniform(-2, 4, n), 0)
            assert cv.total == pytest.approx(1.0, abs=1e-12)
            assert np.all(cv.probs >= 0)

    def test_monotone_substitution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            qs = rng.uniform(-2, 2, 4)
            cust = CustomerModel(
                types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.0,
                quality=lambda o, qs=qs: (float(qs[o.items[0]]),),
            )
            opts = [BundleOption((i,)) for i in range(4)]
            p = rng.uniform(0, 2, 4)
            small = mnl_choice(cust, opts[:3], p[:3], 0)
            large = mnl_choice(cust, opts, p, 0)
            assert np.all(large.probs[:3] <= small.probs + 1e-15)

    def test_extended_matches_mnl_at_ones(self):
        rng = np.random.default_rng(2)
        qs = rng.uniform(-2, 2, 3)
        cust = CustomerModel(
            types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.3,
            quality=lambda o: (float(qs[o.items[0]]),),
        )
        opts = [BundleOption((i,)) for i in range(3)]
        p = rng.uniform(0, 2, 3)
        full = mnl_choice(cust, opts, p, 0)
        ext = extended_choice(cust, opts, p, np.ones(3), 0)
        assert np.allclose(ext, full.probs, atol=1e-14)

    def test_extended_at_indicator_matches_subset(self):
        rng = np.random.default_rng(3)
        qs = rng.uniform(-2, 2, 3)
        cust = CustomerModel(
            types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.0,
            quality=lambda o: (float(qs[o.items[0]]),),
        )
        opts = [BundleOption((i,)) for i in range(3)]
        p = rng.uniform(0, 2, 3)
        sub = mnl_choice(cust, opts[:2], p[:2], 0)
        ext = extended_choice(cust, opts, p, np.array([1.0, 1.0, 0.0]), 0)
        assert np.allclose(ext[:2], sub.probs, atol=1e-14)

    @pytest.mark.parametrize("type_index", [-1, 2])
    def test_type_index_outside_the_types_is_an_error(self, type_index):
        # both choice functions once read type 2 for any index but 0
        inst = generate_synthetic(0, 3, "B", 2.0)
        opts = [BundleOption((i,)) for i in range(3)]
        with pytest.raises(DomainError):
            mnl_choice(inst.customer, opts, [1.0] * 3, type_index)
        with pytest.raises(DomainError):
            extended_choice(inst.customer, opts, [1.0] * 3, np.ones(3), type_index)

    def test_extended_zero_rivals_and_partial(self):
        ext = extended_choice(flat_customer(), [BundleOption((0,))], [0.0], [0.0], 0)
        assert ext[0] == pytest.approx(0.5)
        ext = extended_choice(
            flat_customer(), [BundleOption((0,)), BundleOption((1,))],
            [0.0, 0.0], [1.0, 0.5], 0,
        )
        assert ext[0] == pytest.approx(1.0 / 2.5)

    def test_extended_convex_in_availability(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            qs = rng.uniform(-2, 2, n)
            cust = CustomerModel(
                types=(0,), arrival_pmf=[1.0], price_sensitivity=-1.0,
                quality=lambda o, qs=qs: (float(qs[o.items[0]]),),
            )
            opts = [BundleOption((i,)) for i in range(n)]
            p = rng.uniform(-1, 3, n)
            a1 = rng.uniform(0, 1, n)
            a2 = rng.uniform(0, 1, n)
            mid = extended_choice(cust, opts, p, (a1 + a2) / 2, 0)
            avg = (
                extended_choice(cust, opts, p, a1, 0)
                + extended_choice(cust, opts, p, a2, 0)
            ) / 2
            assert np.all(mid <= avg + 1e-12)


class TestAggregatedQuality:
    def test_single_type(self):
        cust = flat_customer(q=1.7)
        assert aggregated_quality(cust, BundleOption((0,))) == pytest.approx(1.7)

    def test_two_types(self):
        cust = CustomerModel(
            types=(0, 1), arrival_pmf=[0.5, 0.5], price_sensitivity=-1.0,
            quality=lambda o: [[0.0, np.log(3.0)][w] for w in range(2)],
        )
        assert aggregated_quality(cust, BundleOption((0,))) == pytest.approx(np.log(2.0))

    def test_zero_weight_ignored(self):
        cust = CustomerModel(
            types=(0, 1), arrival_pmf=[1.0, 0.0], price_sensitivity=-1.0,
            quality=lambda o: [[5.0, 99.0][w] for w in range(2)],
        )
        assert aggregated_quality(cust, BundleOption((0,))) == pytest.approx(5.0)


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(7, 4, "A", 1.0)
        b = generate_synthetic(7, 4, "A", 1.0)
        assert [it.features for it in a.items] == [it.features for it in b.items]
        opts = [BundleOption((0, 1)), BundleOption((2,))]
        qa = a.customer.quality_matrix(opts)
        qb = b.customer.quality_matrix(opts)
        assert np.array_equal(qa, qb)

    def test_scenario_formulas(self):
        beta = 1.7
        inst = generate_synthetic(3, 3, "A", beta)
        feats = np.array([it.features for it in inst.items])
        o = BundleOption((0, 2))
        sa = feats[0, 0] + feats[2, 0]
        sb = feats[0, 1] + feats[2, 1]
        assert inst.customer.quality(o)[0] == pytest.approx(0.5 * beta * (sa + sb))
        assert inst.customer.quality(o)[1] == pytest.approx(beta * sa)
        inst_c = generate_synthetic(3, 3, "C", beta)
        assert inst_c.customer.quality(o)[1] == pytest.approx(beta * sa**1.5)
        inst_b = generate_synthetic(3, 3, "B", beta)
        assert inst_b.customer.quality(o)[1] == pytest.approx(2 * beta * min(sa, sb))

    def test_bounds_two_type_example(self):
        # item with intrinsic qualities (1, 0): type 1 sees 1, type 2 sees 0.5
        from uip.model import _scenario_quality

        q = _scenario_quality("bounds-two-type", 1.0, np.array([[1.0, 0.0]]))
        assert q(BundleOption((0,)))[0] == pytest.approx(1.0)
        assert q(BundleOption((0,)))[1] == pytest.approx(0.5)

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            generate_synthetic(0, 3, "Z", 1.0)

    def test_horizon_floor(self):
        inst = generate_synthetic(0, 3, "A", 1.0, demand=2.05, arrival_prob=0.1)
        assert inst.horizon == 20

    def test_horizon_integral_ratio_keeps_its_period(self):
        # lambda = k/10, mu = m/100: T = floor(10k/m) in exact arithmetic;
        # 0.3/0.1 rounds to 2.9999999999999996 in floating point
        wrong = []
        for k in range(1, 200):
            for m in (5, 10, 20, 30):
                inst = tiny_instance(n=1, demand=k / 10, arrival_prob=m / 100)
                if inst.horizon != (10 * k) // m:
                    wrong.append((k / 10, m / 100, inst.horizon))
        assert wrong == []


class TestSerialization:
    def test_scenario_roundtrip(self):
        inst = generate_synthetic(5, 4, "C", 2.0, demand=6.0, arrival_prob=0.2,
                                  max_bundles=2, max_bundle_size=2)
        text = instance_to_json(inst, {"scenario": "C", "beta": 2.0})
        back = instance_from_json(text)
        assert back.demand == inst.demand
        assert back.horizon == inst.horizon
        assert back.max_bundles == 2
        opts = [BundleOption((0, 1)), BundleOption((2,)), BundleOption((3,))]
        assert np.allclose(
            back.customer.quality_matrix(opts), inst.customer.quality_matrix(opts)
        )

    def test_scenario_sparse_item_ids(self):
        inst = generate_synthetic(2, 3, "A", 1.0)
        doc = json.loads(instance_to_json(inst, {"scenario": "A", "beta": 1.0}))
        doc["items"][2]["id"] = 7
        back = instance_from_json(json.dumps(doc))
        assert sorted(back.items_by_id()) == [0, 1, 7]
        want = inst.customer.quality_matrix([BundleOption((2,)), BundleOption((0, 2))])
        got = back.customer.quality_matrix([BundleOption((7,)), BundleOption((0, 7))])
        assert np.array_equal(got, want)

    def test_negative_item_id_rejected(self):
        inst = generate_synthetic(2, 3, "A", 1.0)
        doc = json.loads(instance_to_json(inst, {"scenario": "A", "beta": 1.0}))
        doc["items"][2]["id"] = -1
        with pytest.raises(ConfigError):
            instance_from_json(json.dumps(doc))

    @staticmethod
    def markets():
        """A scenario market with salvage and a two-load freight market, each
        with its quality_spec."""
        from uip.freight import demo_coeffs, demo_regions, freight_instance
        from uip.model import FreightItemData

        scenario = generate_synthetic(0, 4, "B", 2.0, demand=4.0, salvage=0.5)
        coeffs, regions = demo_coeffs(), demo_regions()
        loads = [Item(i, salvage=100.0 * (i + 1),
                      freight=FreightItemData((10.0 * i, 0), (50, 60.0 * i), 40 + i))
                 for i in range(2)]
        return [(scenario, {"scenario": "B", "beta": 2.0}),
                (freight_instance(loads, coeffs, regions, demand=4.0),
                 {"freight": {"coeffs": coeffs.to_dict(), "regions": regions.to_dict()}})]

    def test_items_roundtrip_as_records(self):
        for inst, spec in self.markets():
            assert instance_from_json(instance_to_json(inst, spec)).items == inst.items

    def test_file_without_null_item_keys_reads_to_an_equal_market(self):
        # files written before items were records leave out a null features
        # or freight key
        opts = [BundleOption((0,)), BundleOption((1, 0))]
        for inst, spec in self.markets():
            doc = json.loads(instance_to_json(inst, spec))
            for d in doc["items"]:
                for key in [k for k, v in d.items() if v is None]:
                    del d[key]
            back = instance_from_json(json.dumps(doc))
            assert back.items == inst.items
            assert (back.demand, back.arrival_prob, back.max_bundles, back.max_bundle_size) == (
                inst.demand, inst.arrival_prob, inst.max_bundles, inst.max_bundle_size)
            assert np.array_equal(back.customer.quality_matrix(opts),
                                  inst.customer.quality_matrix(opts))

    def test_item_fields_hold_the_types_of_a_read_item(self):
        from uip.model import FreightItemData

        it = Item(np.int64(3), salvage=1, features=[0.1, 0.2])
        assert type(it.id) is int and type(it.salvage) is float
        assert type(it.features) is tuple and it.features == (0.1, 0.2)
        f = FreightItemData([np.float64(1.0), 2], (3, 4.0), np.int64(30))
        assert f.pickup == (1.0, 2.0) and f.dropoff == (3.0, 4.0) and f.expiration == 30
        assert all(type(x) is float for x in f.pickup + f.dropoff)
        assert type(f.expiration) is int

    def test_freight_roundtrip(self):
        from uip.freight import demo_coeffs, demo_regions
        from uip.model import FreightItemData

        regions = demo_regions()
        coeffs = demo_coeffs()
        items = (
            Item(0, salvage=300.0,
                 freight=FreightItemData(pickup=(0.0, 0.0), dropoff=(100.0, 0.0), expiration=40)),
            Item(1, salvage=200.0,
                 freight=FreightItemData(pickup=(50.0, 60.0), dropoff=(10.0, 5.0), expiration=40)),
        )
        from uip.freight import freight_instance

        inst = freight_instance(items, coeffs, regions, demand=4.0)
        spec = {"freight": {"coeffs": coeffs.to_dict(), "regions": regions.to_dict()}}
        back = instance_from_json(instance_to_json(inst, spec))
        opts = [BundleOption((0,)), BundleOption((0, 1))]
        assert np.allclose(
            back.customer.quality_matrix(opts), inst.customer.quality_matrix(opts)
        )


def test_quality_matrix_has_one_row_per_type():
    calls = []

    def quality(option):
        calls.append(option.items)
        return [float(len(option.items)), -1.0]

    cust = CustomerModel(types=(0, 1), arrival_pmf=[0.5, 0.5], price_sensitivity=-1.0,
                         quality=quality)
    q = cust.quality_matrix([BundleOption((0,)), BundleOption((0, 1)), BundleOption((2,))])
    assert q.dtype == np.float64 and q.flags.c_contiguous
    assert q.tolist() == [[1.0, 2.0, 1.0], [-1.0, -1.0, -1.0]]
    assert calls == [(0,), (0, 1), (2,)]  # one call per option
    assert cust.quality_matrix([]).shape == (2, 0)


@pytest.mark.parametrize("value", [(1.0,), (1.0, 2.0, 3.0), 1.0])
def test_wrong_length_quality_is_an_error(value):
    cust = CustomerModel(types=(0, 1), arrival_pmf=[0.5, 0.5], price_sensitivity=-1.0,
                         quality=lambda o: value)
    with pytest.raises(DimensionMismatch, match=r"expected \(2,\)"):
        cust.quality_matrix([BundleOption((0,))])


@pytest.mark.parametrize("pickup, dropoff", [
    ((1.0,), (2.0, 3.0)),
    ((1.0, 2.0), (2.0, 3.0, 4.0)),
    ((np.nan, 2.0), (2.0, 3.0)),
    ((1.0, 2.0), (np.inf, 3.0)),
    ((1.0, "2"), (2.0, 3.0)),
    (1.0, (2.0, 3.0)),
], ids=["one-coordinate", "three-coordinates", "nan", "inf", "text", "scalar"])
def test_freight_ends_are_two_finite_numbers(pickup, dropoff):
    from uip.model import FreightItemData

    with pytest.raises(DomainError):
        FreightItemData(pickup, dropoff, 10)


def test_customer_model_validation():
    with pytest.raises(ValueError):
        CustomerModel(types=(0,), arrival_pmf=[0.7], price_sensitivity=-1.0,
                      quality=lambda o: (0.0,))
    with pytest.raises(ValueError):
        CustomerModel(types=(0,), arrival_pmf=[1.0], price_sensitivity=0.0,
                      quality=lambda o: (0.0,))
