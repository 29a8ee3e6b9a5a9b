import numpy as np
import pytest

import uip.bounds

from uip.bounds import (
    _FLUID_MAX_ITER,
    _STATIC_MAX_ITER,
    PriceTrajectory,
    _fluid_dual,
    _fluid_objective,
    _static_objective_grad,
    backward_lower,
    backward_upper,
    bound_suite,
    check_monotone,
    dfa,
    fluid,
    monotone_columns,
    singleton_upper_profiles,
    static,
)
from uip.errors import DimensionMismatch, ValidityWarning
from uip.model import (
    CustomerModel,
    Item,
    MarketInstance,
    OptionSet,
    enumerate_options,
    extended_choice,
    generate_synthetic,
    singletons,
    sub_instance,
)
from uip.numerics import lambert_w0
from uip.pricing import _closed_form_choice, canonical_sign, exact_dp


def single_item_instance(q=0.0, beta_p=-1.0, salvage=0.0, demand=1.0, mu=1.0):
    cust = CustomerModel(types=(0,), arrival_pmf=[1.0], price_sensitivity=beta_p,
                         quality=lambda o: (q,))
    return MarketInstance(items=(Item(0, salvage=salvage),), customer=cust,
                          demand=demand, arrival_prob=mu, max_bundles=1,
                          max_bundle_size=1)


def random_instance(seed, L=3, lam=None, salvage_max=0.0):
    rng = np.random.default_rng(seed)
    return generate_synthetic(
        seed, L, "bounds-two-type", float(rng.uniform(0.3, 2.0)),
        demand=float(rng.uniform(1.0, 4.0)) if lam is None else lam,
        arrival_prob=0.1,
        beta_p=-float(rng.uniform(0.5, 2.0)),
        salvage=float(rng.uniform(0, salvage_max)) if salvage_max else 0.0,
        max_bundle_size=1,
    )


class TestBackwardUpper:
    def test_horizon_zero(self):
        inst = single_item_instance(salvage=0.4, demand=0.05, mu=0.1)
        res = backward_upper(inst, singletons(inst))
        assert res.value == pytest.approx(0.4)

    def test_n1_equals_dp_exactly(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            inst = single_item_instance(
                q=rng.uniform(-2, 2), beta_p=-rng.uniform(0.5, 2),
                salvage=rng.uniform(0, 1), demand=rng.uniform(1, 4), mu=0.25,
            )
            s0 = singletons(inst)
            up = backward_upper(inst, s0)
            v = exact_dp(inst, s0).value()
            assert abs(up.value - v) <= 1e-10 * (1 + abs(v))

    def test_upper_bounds_dp(self):
        for seed in range(8):
            inst = random_instance(seed)
            s0 = singletons(inst)
            assert backward_upper(inst, s0).value >= exact_dp(inst, s0).value() - 1e-9

    def test_trajectory_monotone_and_above_salvage(self):
        for seed in range(8):
            inst = random_instance(seed, salvage_max=1.0)
            s0 = singletons(inst)
            res = backward_upper(inst, s0)
            traj = res.trajectory
            assert traj.homogeneous and traj.monotone_ok
            xi = inst.salvage_vector(s0.options)
            assert np.all(traj.prices[0] >= xi - 1e-12)
            assert np.all(np.diff(traj.prices, axis=0) >= -1e-12)


    def test_repeated_columns_equal_each_column_alone(self):
        # the member orders of a bundle whose quality sums round alike are
        # bit-equal pool columns, which share one recursion; every column's
        # r and tau equal its recursion run alone, bit for bit
        for seed, scenario, beta_p in ((0, "A", -1.0), (3, "C", 0.8)):
            inst = generate_synthetic(seed, 5, scenario, 1.5, demand=6.0, beta_p=beta_p,
                                      salvage=0.2, max_bundle_size=3, max_bundles=2)
            options = enumerate_options(inst)
            pool = [options[j] for j in np.random.default_rng(seed).permutation(len(options))]
            cols = np.vstack([inst.customer.quality_matrix(pool), inst.salvage_vector(pool)])
            assert np.unique(cols, axis=1).shape[1] < len(pool)
            r, tau = singleton_upper_profiles(inst, pool)
            for j, option in enumerate(pool):
                r_j, tau_j = singleton_upper_profiles(inst, [option])
                assert r_j.tobytes() == r[j : j + 1].tobytes()
                assert tau_j.tobytes() == tau[:, j : j + 1].copy().tobytes()
        # random pmfs over 3 to 9 types, whose type sums are inexact, with
        # bit-equal columns at random positions
        rng = np.random.default_rng(11)
        for n_types in range(3, 10):
            table = rng.uniform(-0.5, 1.5, size=(n_types, 5))
            cust = CustomerModel(
                types=tuple(range(n_types)), arrival_pmf=rng.dirichlet(np.ones(n_types)),
                price_sensitivity=-float(rng.uniform(0.5, 2.0)),
                quality=lambda o, table=table: [1.2 ** len(o.items) * sum(table[w, o.items])
                                                 for w in range(len(table))])
            inst = MarketInstance(items=tuple(Item(i, salvage=0.1 * i) for i in range(5)),
                                  customer=cust, demand=4.0, arrival_prob=0.1,
                                  max_bundles=2, max_bundle_size=2)
            options = enumerate_options(inst)
            pool = [options[j] for j in rng.integers(len(options), size=2 * len(options))]
            r, tau = singleton_upper_profiles(inst, pool)
            for j, option in enumerate(pool):
                r_j, tau_j = singleton_upper_profiles(inst, [option])
                assert r_j.tobytes() == r[j : j + 1].tobytes()
                assert tau_j.tobytes() == tau[:, j : j + 1].copy().tobytes()


class TestBackwardLower:
    def test_horizon_zero(self):
        inst = single_item_instance(salvage=0.4, demand=0.05, mu=0.1)
        assert backward_lower(inst, singletons(inst)).value == pytest.approx(0.4)

    def test_n1_equals_upper(self):
        inst = single_item_instance(q=0.7, demand=3.0, mu=0.5)
        s0 = singletons(inst)
        lo = backward_lower(inst, s0)
        up = backward_upper(inst, s0)
        assert lo.value == pytest.approx(up.value, abs=1e-12)

    def test_lower_bounds_dp(self):
        for seed in range(8):
            inst = random_instance(seed, lam=2.0)
            s0 = singletons(inst)
            assert backward_lower(inst, s0).value <= exact_dp(inst, s0).value() + 1e-9


class TestDfa:
    def test_horizon_zero(self):
        inst = single_item_instance(salvage=0.4, demand=0.05, mu=0.1)
        traj = PriceTrajectory(np.zeros((0, 1)), True, True)
        res = dfa(inst, singletons(inst), traj)
        assert res.value == pytest.approx(0.4)
        assert np.all(res.availability == 1.0)

    def test_n1_exact(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            inst = single_item_instance(
                q=rng.uniform(-2, 2), beta_p=-rng.uniform(0.5, 2),
                salvage=rng.uniform(0, 1), demand=rng.uniform(1, 5), mu=0.3,
            )
            s0 = singletons(inst)
            up = backward_upper(inst, s0)
            res = dfa(inst, s0, up.trajectory)
            v = exact_dp(inst, s0).value()
            assert abs(res.value - v) <= 1e-9 * (1 + abs(v))

    def test_lower_bounds_dp(self):
        for seed in range(8):
            inst = random_instance(seed, lam=3.0)
            s0 = singletons(inst)
            up = backward_upper(inst, s0)
            assert dfa(inst, s0, up.trajectory).value <= exact_dp(inst, s0).value() + 1e-9

    def test_availability_monotone_in_unit_interval(self):
        inst = random_instance(3, lam=3.0)
        s0 = singletons(inst)
        res = dfa(inst, s0, backward_upper(inst, s0).trajectory)
        a = res.availability
        assert np.all(a >= -1e-12) and np.all(a <= 1 + 1e-12)
        assert np.all(np.diff(a, axis=0) >= -1e-12)  # larger t = earlier = larger

    def test_uncertified_warning(self):
        inst = random_instance(4, lam=2.0)
        s0 = singletons(inst)
        T, n = inst.horizon, len(s0.options)
        bad = PriceTrajectory(np.linspace(2, 0, T)[:, None] * np.ones((1, n)),
                              homogeneous=True, monotone_ok=False)
        with pytest.warns(ValidityWarning):
            res = dfa(inst, s0, bad)
        assert not res.certified

    def test_matches_extended_choice_reference(self):
        # period by period and type by type: the sale probability of each
        # option is the pmf-weighted extended choice at the current
        # availability, in both orientations and with nonzero salvage
        def reference(inst, option_set, prices):
            cust, opts = inst.customer, option_set.options
            a = np.ones(len(opts))
            avail, value = [a], 0.0
            for t in range(inst.horizon, 0, -1):
                sale = inst.arrival_prob * sum(
                    cust.arrival_pmf[w] * extended_choice(cust, opts, prices[t - 1], a, w)
                    for w in range(cust.n_types)
                )
                value += float(np.sum(a * sale * prices[t - 1]))
                a = a * (1.0 - sale)
                avail.append(a)
            return value + float(a @ inst.salvage_vector(opts)), np.array(avail[::-1])

        for seed, beta_p, lam in ((0, -1.0, 3.0), (1, 1.0, 3.0), (2, -0.7, 0.05),
                                  (3, 1.4, 2.0)):
            inst = generate_synthetic(seed, 4, "C", 1.5, demand=lam, arrival_prob=0.1,
                                      beta_p=beta_p, salvage=0.6, max_bundle_size=2)
            pool = enumerate_options(inst)
            sets = [singletons(inst),
                    OptionSet((pool[-1],) + tuple(o for o in pool[:4]
                                                  if not set(o.items) & set(pool[-1].items)))]
            for option_set in sets:
                res = dfa(inst, option_set, backward_upper(inst, option_set).trajectory)
                want, want_avail = reference(inst, option_set, res.trajectory.prices)
                assert res.availability.shape == (inst.horizon + 1, len(option_set.options))
                assert abs(res.value - want) <= 1e-12 * max(1.0, abs(want))
                assert np.max(np.abs(res.availability - want_avail)) <= 1e-12

    def test_dimension_mismatch(self):
        inst = random_instance(4, lam=2.0)
        s0 = singletons(inst)
        with pytest.raises(DimensionMismatch):
            dfa(inst, s0, PriceTrajectory(np.zeros((3, 99)), True, True))


class TestFluid:
    def test_n1_stationarity_oracle(self):
        # mu*T = 1, q=0, beta=-1: optimum solves ln((1-r)/r) = 1/(1-r)
        inst = single_item_instance(demand=1.0, mu=1.0)
        res = fluid(inst, singletons(inst))
        lo, hi = 1e-6, 1 - 1e-6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.log((1 - mid) / mid) > 1 / (1 - mid):
                lo = mid
            else:
                hi = mid
        r = 0.5 * (lo + hi)
        oracle = r * np.log((1 - r) / r)
        assert res.value == pytest.approx(oracle, abs=1e-6)
        assert res.value == pytest.approx(lambert_w0(np.exp(-1.0)), abs=1e-6)

    def test_upper_bound_with_certificate(self):
        for seed in range(6):
            inst = random_instance(seed, lam=3.0)
            s0 = singletons(inst)
            res = fluid(inst, s0)
            v = exact_dp(inst, s0).value()
            assert res.value + res.certificate >= v - 1e-6

    def test_rho_feasible_and_certificate_is_duality_gap(self):
        for seed, lam in ((0, 2.0), (1, 3.0), (2, 20.0)):
            inst = random_instance(seed, lam=lam, salvage_max=0.5)
            s0 = singletons(inst)
            res = fluid(inst, s0)
            rho = res.extra["rho"]
            cust = inst.customer
            pmf, beta_p = cust.arrival_pmf, cust.price_sensitivity
            mu_t = inst.arrival_prob * inst.horizon
            assert np.all(rho > 0)
            assert np.all(rho.sum(axis=1) < 1)
            assert np.all(mu_t * (pmf @ rho) <= 1 + 1e-12)
            # primal fluid revenue at rho, priced by inverting the MNL map
            q = cust.quality_matrix(s0.options)
            xi = inst.salvage_vector(s0.options)
            rho0 = 1 - rho.sum(axis=1, keepdims=True)
            prices = (np.log(rho) - np.log(rho0) - q) / beta_p
            f = mu_t * pmf @ np.sum(rho * (prices - xi), axis=1) + xi.sum()
            assert res.certificate == pytest.approx(res.value - f, abs=1e-9)
            assert res.extra["converged"]

    def test_gap_does_not_vanish(self):
        # fluid stays bounded away from V* as the horizon grows
        diffs = []
        for k in (6, 8, 10):
            inst = single_item_instance(demand=float(2**k), mu=1.0)
            s0 = singletons(inst)
            v = exact_dp(inst, s0).value()
            res = fluid(inst, s0)
            diffs.append(res.value - v)
        assert diffs[-1] > 0.5  # ~ -|S|/beta_p = 1 in the limit

    def test_stopped_early_is_not_converged(self, monkeypatch):
        # one Newton step leaves a duality gap of about 0.46; g(nu) is still
        # an upper bound, by weak duality
        monkeypatch.setattr(uip.bounds, "_FLUID_MAX_ITER", 1)
        inst = random_instance(2, lam=20.0)
        res = fluid(inst, singletons(inst))
        assert res.extra["iterations"] == 1
        assert res.extra["converged"] is False
        assert res.certificate > 1e-6 * res.value
        assert res.value >= exact_dp(inst, singletons(inst)).value() - 1e-9


class TestStatic:
    def test_t1_equals_exact(self):
        inst = generate_synthetic(5, 2, "bounds-two-type", 1.0, demand=0.15,
                                  arrival_prob=0.1, salvage=0.7, max_bundle_size=1)
        assert inst.horizon == 1
        s0 = singletons(inst)
        v = exact_dp(inst, s0).value()
        res = static(inst, s0)
        assert res.value == pytest.approx(v, abs=1e-6)

    def test_lower_bounds_dp(self):
        for seed in range(6):
            inst = random_instance(seed, lam=2.0)
            s0 = singletons(inst)
            assert static(inst, s0).value <= exact_dp(inst, s0).value() + 1e-9

    def test_gap_does_not_vanish(self):
        diffs = []
        for k in (6, 8, 10):
            inst = single_item_instance(demand=float(2**k), mu=1.0)
            s0 = singletons(inst)
            v = exact_dp(inst, s0).value()
            res = static(inst, s0)
            diffs.append(v - res.value)
        assert diffs[-1] > 0.1  # stationary prices cannot track the horizon

    # static values pinned on criterion 4's instances (L=5, lambda=20,
    # singletons) and on one bundled set in scenarios A, B and C
    PINNED_C4 = (
        11.588522798794331, 11.358430274378062, 10.73148642990339, 10.593577122656882,
        11.773290681261345, 10.95505721675431, 11.307813306157213, 11.732608990206668,
        11.333456077667332, 12.079486027440332, 11.689224273604932, 10.825245984477588,
        11.135635606854398, 12.052047803522793, 12.0796541303349, 11.359022513668785,
        11.11805620771877, 10.913712781304389, 11.199212956122366, 11.435847105239665,
    )
    PINNED_SCENARIOS = {
        ("A", 0, -1.0): 5.77877835955965, ("A", 0, 1.0): -3.930746697535081,
        ("A", 1, -1.0): 5.692315334460773, ("A", 1, 1.0): -3.850062029076845,
        ("B", 0, -1.0): 6.219971310058557, ("B", 0, 1.0): -4.415996967594554,
        ("B", 1, -1.0): 5.9568896719682805, ("B", 1, 1.0): -4.167790744856992,
        ("C", 0, -1.0): 5.781658191454894, ("C", 0, 1.0): -3.934312993307471,
        ("C", 1, -1.0): 5.638325242014876, ("C", 1, 1.0): -3.7917422309036493,
    }

    def test_values_pinned(self):
        cases = []
        for seed, want in enumerate(self.PINNED_C4):
            inst = generate_synthetic(seed, 5, "bounds-two-type", 1.0, demand=20.0,
                                      arrival_prob=0.1, beta_p=-1.0, max_bundle_size=1)
            cases.append((inst, singletons(inst), want))
        bundled = OptionSet([(0, 1), (3, 2), (4,), (5,)])
        for (scenario, seed, beta_p), want in self.PINNED_SCENARIOS.items():
            inst = generate_synthetic(seed, 6, scenario, 1.0, beta_p=beta_p, salvage=0.3)
            cases.append((inst, bundled, want))
        for inst, option_set, want in cases:
            got = static(inst, option_set).value
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_logit_gradient_matches_central_differences(self):
        instances = [
            (random_instance(0, lam=3.0, salvage_max=0.5), None),
            (generate_synthetic(1, 6, "B", 1.0, beta_p=1.0, salvage=0.3),
             OptionSet([(0, 1), (3, 2), (4,), (5,)])),
            (single_item_instance(q=0.4, salvage=0.2, demand=2.0, mu=0.5), None),
        ]
        rng = np.random.default_rng(7)
        for inst, option_set in instances:
            option_set = option_set or singletons(inst)
            cust = inst.customer
            s = canonical_sign(cust.price_sensitivity)
            q = cust.quality_matrix(option_set.options)
            xi = inst.salvage_vector(option_set.options)
            args = (q, cust.arrival_pmf, -abs(cust.price_sensitivity), s * xi,
                    inst.arrival_prob, inst.horizon)
            z = rng.normal(-1.0, 1.0, size=q.shape)
            _, grad, _ = _static_objective_grad(z, *args)
            fd = np.empty_like(z)
            h = 1e-6
            for idx in np.ndindex(*z.shape):
                step = np.zeros_like(z)
                step[idx] = h
                fd[idx] = (_static_objective_grad(z + step, *args)[0]
                           - _static_objective_grad(z - step, *args)[0]) / (2 * h)
            assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))

    def test_reports_convergence(self):
        inst = random_instance(2, lam=20.0)
        res = static(inst, singletons(inst))
        assert res.extra["converged"]
        assert res.extra["iterations"] >= 1
        assert res.extra["grad_norm"] < 1e-6
        rho = res.extra["rho"]
        assert np.all(rho > 0) and np.all(rho.sum(axis=1) < 1)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 4, "bounds-two-type", 1.2, dict(demand=8, beta_p=-1.3, salvage=0.2)),
            (2, 4, "B", 1.2, dict(demand=2, beta_p=0.8, salvage=0.2)),
        ],
    )
    def test_stationary_point_counts_as_converged(self, args):
        # converged is a stationarity test on the final logit gradient, not
        # a solver's own success flag: L-BFGS-B ended these two with an
        # abnormal line search at grad_norm 1.0e-8 and 3.7e-9
        inst = generate_synthetic(*args[:4], **args[4])
        res = static(inst, singletons(inst))
        assert res.extra["grad_norm"] < 1e-7
        assert res.extra["converged"] is True

    def test_stopped_early_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(uip.bounds, "_STATIC_MAX_ITER", 1)
        inst = random_instance(2, lam=20.0)
        res = static(inst, singletons(inst))
        assert res.extra["converged"] is False
        assert res.value <= exact_dp(inst, singletons(inst)).value() + 1e-9


def _lbfgsb_oracle(inst, option_set):
    """The fluid value and certificate and the static value, with the fluid
    dual and the static logits solved by scipy's L-BFGS-B (ftol 1e-15,
    gtol 1e-10) from the starting points bounds.py uses."""
    from scipy.optimize import minimize

    cust = inst.customer
    q = cust.quality_matrix(option_set.options)
    xi = inst.salvage_vector(option_set.options)
    pmf, beta_p = cust.arrival_pmf, cust.price_sensitivity
    s = canonical_sign(beta_p)
    beta_c, xi_c = -abs(beta_p), s * xi
    options = {"ftol": 1e-15, "gtol": 1e-10}
    mu_t = inst.arrival_prob * inst.horizon
    args = (q, pmf, beta_c, xi_c, mu_t)
    res = minimize(lambda nu: _fluid_dual(nu, *args)[:2], np.zeros(q.shape[1]), jac=True,
                   method="L-BFGS-B", bounds=[(0.0, None)] * q.shape[1], options=options)
    g, _, rho, _ = _fluid_dual(np.maximum(res.x, 0.0), *args)
    rho = rho / np.maximum(1.0, mu_t * (pmf @ rho))[None, :]
    gap = max(g - _fluid_objective(rho, *args), 0.0)
    args = (q, pmf, beta_c, xi_c, inst.arrival_prob, inst.horizon)
    score = q + beta_c * xi_c[None, :]
    gam, _ = _closed_form_choice(score)

    def neg_objective(z):
        f, grad, _ = _static_objective_grad(z.reshape(q.shape), *args)
        return -f, -grad.ravel()

    res = minimize(neg_objective, (score - 1.0 - gam[:, None]).ravel(), jac=True,
                   method="L-BFGS-B", options=options)
    return s * g, gap, -s * res.fun


def _random_market(k):
    """Draw k: 2-9 types, the sign of beta_p alternating, a zero-weight type
    on every third draw, mu*T = 0.3 on every fifth (every capacity row
    slack at nu = 0), and a random partition of 2-12 items into options of
    1-3 items."""
    rng = np.random.default_rng(500 + k)
    n_types = 2 + k % 8
    pmf = rng.dirichlet(np.ones(n_types))
    if k % 3 == 0:
        pmf[0] = 0.0
        pmf /= pmf.sum()
    n_items = int(rng.integers(2, 13))
    table = rng.uniform(-0.5, 1.5, size=(n_types, n_items))
    cust = CustomerModel(
        types=tuple(range(n_types)), arrival_pmf=pmf,
        price_sensitivity=(-1.0) ** k * float(rng.uniform(0.5, 2.0)),
        quality=lambda o: [1.2 ** len(o.items) * sum(table[w, o.items])
                           for w in range(n_types)])
    inst = MarketInstance(
        items=tuple(Item(i, salvage=float(rng.uniform(0.0, 0.5))) for i in range(n_items)),
        customer=cust, demand=0.3 if k % 5 == 0 else float(rng.uniform(1.0, 30.0)),
        arrival_prob=0.1, max_bundles=n_items, max_bundle_size=3)
    order = [int(i) for i in rng.permutation(n_items)]
    groups = []
    while order:
        size = int(rng.integers(1, 4))
        groups.append(tuple(order[:size]))
        order = order[size:]
    return inst, OptionSet(groups)


class TestSolversAgainstLbfgsb:
    def test_values_match_lbfgsb(self):
        for k in range(40):
            inst, option_set = _random_market(k)
            fl, st = fluid(inst, option_set), static(inst, option_set)
            want_fluid, oracle_gap, want_static = _lbfgsb_oracle(inst, option_set)
            assert abs(fl.value - want_fluid) <= 1e-12 * abs(want_fluid), k
            assert abs(st.value - want_static) <= 1e-12 * abs(want_static), k
            assert fl.certificate <= max(oracle_gap, 1e-9), k
            assert fl.extra["converged"] and st.extra["converged"], k
            assert fl.extra["iterations"] < _FLUID_MAX_ITER, k
            assert st.extra["iterations"] < _STATIC_MAX_ITER, k
            if k % 5 == 0:
                # every capacity row is slack at nu = 0: no Newton step
                assert fl.extra["iterations"] == 0, k

    def test_iterations_reported_below_caps(self):
        inst = random_instance(2, lam=20.0)
        for bound, cap in ((fluid, _FLUID_MAX_ITER), (static, _STATIC_MAX_ITER)):
            iterations = bound(inst, singletons(inst)).extra["iterations"]
            assert isinstance(iterations, int) and 0 <= iterations < cap


class TestSandwich:
    def test_full_sandwich_small(self):
        for seed in range(10):
            inst = random_instance(seed, L=int(np.random.default_rng(seed).integers(1, 4)))
            s0 = singletons(inst)
            v = exact_dp(inst, s0).value()
            suite = bound_suite(inst, s0)
            assert suite["static"].value <= v + 1e-9
            assert suite["lower_backward"].value <= v + 1e-9
            assert suite["dfa"].value <= v + 1e-9
            assert suite["upper_backward"].value >= v - 1e-9
            assert suite["fluid"].value + suite["fluid"].certificate >= v - 1e-6

    def test_full_sandwich_freight_orientation(self):
        # beta_p > 0: the sandwich holds in the canonical orientation
        inst = generate_synthetic(3, 3, "bounds-two-type", 1.0, demand=3.0,
                                  arrival_prob=0.1, beta_p=1.0, salvage=0.5,
                                  max_bundle_size=1)
        s = canonical_sign(inst.customer.price_sensitivity)
        s0 = singletons(inst)
        v = s * exact_dp(inst, s0).value()
        suite = {k: s * r.value for k, r in bound_suite(inst, s0).items()}
        assert suite["static"] <= v + 1e-9
        assert suite["lower_backward"] <= v + 1e-9
        assert suite["dfa"] <= v + 1e-9
        assert suite["upper_backward"] >= v - 1e-9
        assert suite["fluid"] >= v - 1e-9


def test_check_monotone_freight_sign():
    # freight orientation: canonical monotone means user prices non-increasing
    prices = np.array([[3.0], [2.0], [1.0]])
    assert check_monotone(prices, np.array([5.0]), beta_p=0.5)
    assert not check_monotone(prices, np.array([5.0]), beta_p=-0.5)


def test_monotone_columns_match_set_flag():
    # a trajectory is monotone iff every column is; a column may fail at its
    # salvage row alone
    rng = np.random.default_rng(11)
    for _ in range(300):
        beta_p = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        s = canonical_sign(beta_p)
        T, n = int(rng.integers(0, 6)), int(rng.integers(1, 5))
        canon = 1.0 + np.cumsum(rng.uniform(-0.1, 1.0, size=(T, n)), axis=0)
        xi_canon = rng.uniform(0.0, 1.4, size=n)
        want = np.array([
            (T == 0 or canon[0, i] >= xi_canon[i] - 1e-12)
            and bool(np.all(np.diff(canon[:, i]) >= -1e-12))
            for i in range(n)
        ])
        got = monotone_columns(s * canon, s * xi_canon, beta_p)
        assert got.dtype == bool and np.array_equal(got, want)
        assert check_monotone(s * canon, s * xi_canon, beta_p) == bool(want.all())
    # increasing column whose first price lies below its salvage
    prices = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    flags = monotone_columns(prices, np.array([0.5, 1.5]), beta_p=-1.0)
    assert flags.tolist() == [True, False]
    assert not check_monotone(prices, np.array([0.5, 1.5]), beta_p=-1.0)


@pytest.mark.parametrize("bound", [backward_lower, fluid, static])
@pytest.mark.parametrize("beta_p", [-1.0, 1.0])
def test_empty_option_set_is_worth_zero(bound, beta_p):
    inst = sub_instance(generate_synthetic(0, 2, demand=3.0, beta_p=beta_p), [])
    res = bound(inst, singletons(inst))
    assert res.value == 0.0 and np.copysign(1.0, res.value) == 1.0
    if bound is fluid:
        assert res.certificate == 0.0


def test_bound_result_json():
    inst = random_instance(0)
    res = backward_upper(inst, singletons(inst))
    d = res.to_json_dict()
    assert d["kind"] == "upper_backward"
    assert "per_option" in d
