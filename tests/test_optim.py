import itertools

import numpy as np
import pytest

import uip.optim
from uip.errors import (
    CapExceeded,
    DimensionMismatch,
    DomainError,
    Infeasible,
    NumericalFailure,
    PartitionMismatch,
)
from uip.model import BundleOption, enumerate_options, generate_synthetic
from uip.optim import (
    EQ,
    GE,
    LE,
    LinearProgram,
    SetPartitionMilp,
    assignment_options,
    bnb_solve,
    enumerate_top_solutions,
    simplex_solve,
)
from uip.pricing import enumerate_partitions


def rows_lp(c, rows):
    """LinearProgram from a list of (coeffs, relation, rhs) rows."""
    c = np.asarray(c, float)
    A = np.array([a for a, _, _ in rows]).reshape(len(rows), c.size)
    return LinearProgram(c, A, [rel for _, rel, _ in rows], [b for _, _, b in rows])


def box_rows(n, hi):
    """Rows x_j <= hi, j = 0..n-1."""
    return [(e, LE, hi) for e in np.eye(n)]


def vertex_oracle(lp: LinearProgram):
    """Enumerate candidate basic points from all active-set combinations."""
    n = lp.objective.size
    planes = [(a, rel, float(b)) for a, rel, b in zip(lp.A, lp.rels, lp.b)]
    planes += [(e, GE, 0.0) for e in np.eye(n)]  # x >= 0
    best = None
    eqs = [(a, b) for a, rel, b in planes if rel == EQ]
    frees = [(a, rel, b) for a, rel, b in planes if rel != EQ]
    need = n - len(eqs)
    for combo in itertools.combinations(frees, max(need, 0)):
        A = np.array([a for a, _ in eqs] + [a for a, _, _ in combo])
        if A.shape[0] != n:
            continue
        b = np.array([b for _, b in eqs] + [b for _, _, b in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        ok = True
        for a, rel, bb in planes:
            v = a @ x
            if rel == LE and v > bb + 1e-9:
                ok = False
            elif rel == GE and v < bb - 1e-9:
                ok = False
            elif rel == EQ and abs(v - bb) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            val = float(lp.objective @ x)
            if best is None or val > best:
                best = val
    return best


class TestSimplex:
    def test_box(self):
        sol = simplex_solve(LinearProgram([1.0], [[1.0]], [LE], [1.0]))
        assert sol.status == "optimal"
        assert sol.primal[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals[0] == pytest.approx(1.0)

    def test_equality_dual(self):
        sol = simplex_solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [EQ], [1.0]))
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals[0] == pytest.approx(1.0)

    def test_statuses(self):
        infeas = LinearProgram([1.0], [[1.0], [1.0]], [GE, LE], [2.0, 1.0])
        assert simplex_solve(infeas).status == "infeasible"
        unb = LinearProgram([1.0], [[-1.0]], [LE], [1.0])
        assert simplex_solve(unb).status == "unbounded"

    def test_random_vs_vertex_oracle(self):
        rng = np.random.default_rng(3)
        solved = 0
        for _ in range(60):
            n = 3
            c = rng.uniform(-1, 1, n)
            rows = []
            for _ in range(rng.integers(1, 4)):
                rows.append((rng.uniform(-1, 1, n), LE, float(rng.uniform(0.3, 2))))
            if rng.random() < 0.4:
                rows.append((rng.uniform(0, 1, n) + 0.2, EQ, float(rng.uniform(0.5, 1.5))))
            lp = rows_lp(c, rows + box_rows(n, 2.0))
            sol = simplex_solve(lp)
            oracle = vertex_oracle(lp)
            if sol.status == "optimal":
                solved += 1
                assert oracle is not None
                assert sol.objective == pytest.approx(oracle, abs=1e-8)
            else:
                assert oracle is None
        assert solved > 30

    def test_certificates_on_random_lps(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            rows = [
                (rng.uniform(-1, 1, n), LE, float(rng.uniform(0.5, 2.0)))
                for _ in range(m)
            ]
            lp = rows_lp(rng.uniform(-1, 1, n), rows + box_rows(n, 3.0))
            sol = simplex_solve(lp)
            assert sol.status == "optimal"
            assert max(sol.residuals.values()) <= 1e-9

    def test_warm_start_matches_cold(self):
        rng = np.random.default_rng(5)
        n = 4
        c = rng.uniform(0, 1, n)
        rows = [(np.ones(n), LE, 2.0), (rng.uniform(0, 1, n), LE, 1.0)]
        lp = rows_lp(c.copy(), [(r[0].copy(), r[1], r[2]) for r in rows])
        sol = simplex_solve(lp)
        # append a column and re-solve warm vs cold
        c2 = np.append(c, 2.0)
        rows2 = [
            (np.append(rows[0][0], 1.0), LE, 2.0),
            (np.append(rows[1][0], 0.3), LE, 1.0),
        ]
        lp2 = rows_lp(c2, rows2)
        warm = simplex_solve(lp2, warm_basis=sol.basis)
        cold = simplex_solve(lp2)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-10)

    def test_dual_warm_start_after_one_added_row(self, monkeypatch):
        dual_runs = []
        real = uip.optim._run_dual_simplex

        def counted(*args):
            dual_runs.append(1)
            return real(*args)

        monkeypatch.setattr(uip.optim, "_run_dual_simplex", counted)
        rng = np.random.default_rng(7)
        statuses = []
        for _ in range(120):
            n = int(rng.integers(3, 8))
            rows = [
                (rng.uniform(0.1, 1.0, n), LE, float(rng.uniform(1.0, 3.0)))
                for _ in range(rng.integers(2, 5))
            ]
            if rng.random() < 0.5:
                rows.append((rng.uniform(0.1, 1.0, n), EQ, float(rng.uniform(0.5, 1.5))))
            lp = rows_lp(rng.uniform(-0.2, 1.0, n), rows)
            parent = simplex_solve(lp)
            if parent.status != "optimal":
                continue
            x = parent.primal
            frac = np.flatnonzero(np.abs(x - np.round(x)) > 1e-6)
            if frac.size and rng.random() < 0.7:  # branch on a fractional coordinate
                j = int(frac[0])
                e = np.zeros(n)
                e[j] = 1.0
                if rng.random() < 0.5:
                    row = (e, LE, float(np.floor(x[j])))
                else:
                    row = (e, GE, float(np.ceil(x[j])))
            else:  # a cut the parent optimum violates
                a = rng.uniform(0.1, 1.0, n)
                if a @ x < 1e-6:
                    continue
                row = (a, LE, 0.8 * float(a @ x))
            child = rows_lp(lp.objective, rows + [row])
            warm = simplex_solve(child, warm_basis=parent.basis + (("s", len(rows)),))
            cold = simplex_solve(child)
            assert warm.status == cold.status
            statuses.append(cold.status)
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
                assert max(warm.residuals.values()) <= 1e-9
        assert set(statuses) == {"optimal", "infeasible"}
        assert len(dual_runs) == len(statuses)

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            simplex_solve(LinearProgram(np.ones(5001), np.zeros((0, 5001)), [], []))

    def test_debug_dump_parses(self):
        import json

        lp = LinearProgram([1.0], [[1.0]], [LE], [1.0])
        json.loads(lp.to_debug_json())


class TestLpValidation:
    @pytest.mark.parametrize(
        "c,A,b",
        [
            ([1.0, 0.0], [[1.0, 1.0]], [np.nan]),  # was "optimal" with primal [nan, 0]
            ([1.0, 0.0], [[np.inf, 1.0]], [1.0]),  # was "infeasible"
            ([np.nan, 1.0], [[1.0, 1.0]], [1.0]),  # spun 50,000 pivots
        ],
    )
    def test_non_finite_data_rejected(self, c, A, b):
        with pytest.raises(DomainError):
            LinearProgram(c, A, [LE], b)

    @pytest.mark.parametrize(
        "c,A,rels,b",
        [
            ([1.0, 0.0], [[1.0, 1.0, 1.0]], [LE], [1.0]),  # A has a column too many
            ([1.0, 0.0], [[1.0, 1.0]], [LE, LE], [1.0]),  # one relation too many
            ([1.0, 0.0], [1.0, 1.0], [LE], [1.0]),  # A is not a matrix
        ],
    )
    def test_shape_mismatch_rejected(self, c, A, rels, b):
        with pytest.raises(DimensionMismatch):
            LinearProgram(c, A, rels, b)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], [[1.0]], ["<"], [1.0])

    def test_nan_residual_fails_the_certificate(self, monkeypatch):
        # a NaN after a 0.0 is what max() over Python floats drops
        monkeypatch.setattr(
            uip.optim, "_lp_residuals", lambda lp, sol: {"primal": 0.0, "duality_gap": np.nan}
        )
        with pytest.raises(NumericalFailure):
            simplex_solve(LinearProgram([1.0], [[1.0]], [LE], [1.0]))

    def test_milp_reward_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SetPartitionMilp([BundleOption((0,))], [0.0, 1.0], [0], 1)

    def test_top_solutions_need_n_at_least_one(self):
        milp = SetPartitionMilp([BundleOption((0,))], [0.0], [0], 1)
        with pytest.raises(DomainError):
            enumerate_top_solutions(milp, 0)


def criterion_10_milp(trial, rng):
    inst = generate_synthetic(trial, 6, "A", 1.0, max_bundle_size=3, max_bundles=3)
    pool = enumerate_options(inst)
    rewards = rng.uniform(-1.0, 1.0, len(pool))
    return inst, SetPartitionMilp(pool, rewards, [it.id for it in inst.items], 3)


class TestBnb:
    def options_l2(self):
        return [BundleOption((0,)), BundleOption((1,)), BundleOption((0, 1))]

    def test_bundle_iff_positive(self):
        for r, expect in ((-1.0, False), (0.0, False), (0.7, True)):
            milp = SetPartitionMilp(self.options_l2(), [0.0, 0.0, r], [0, 1], 1)
            z, obj = bnb_solve(milp)
            assert bool(z[2] > 0.5) is expect
            assert obj == pytest.approx(max(r, 0.0))

    def test_ks_zero_forces_singletons(self):
        milp = SetPartitionMilp(self.options_l2(), [0.0, 0.0, 100.0], [0, 1], 0)
        z, obj = bnb_solve(milp)
        assert list(z) == [1.0, 1.0, 0.0]
        assert obj == 0.0

    def test_uncovered_item_infeasible(self):
        with pytest.raises(Infeasible):
            SetPartitionMilp([BundleOption((0,))], [0.0], [0, 1], 1)

    def test_item_outside_item_ids_rejected(self):
        with pytest.raises(PartitionMismatch):
            SetPartitionMilp(self.options_l2() + [BundleOption((0, 5))], [0.0] * 4, [0, 1], 1)

    def test_matches_partition_enumeration(self):
        rng = np.random.default_rng(6)
        for trial in range(12):
            inst = generate_synthetic(trial, 6, "A", 1.0, max_bundle_size=3,
                                      max_bundles=3)
            from uip.model import enumerate_options

            pool = enumerate_options(inst)
            rewards = rng.uniform(-1, 1, len(pool))
            milp = SetPartitionMilp(pool, rewards, [it.id for it in inst.items], 3)
            _, obj = bnb_solve(milp)
            ridx = {o.items: k for k, o in enumerate(pool)}
            best = max(
                sum(rewards[ridx[o.items]] for o in p)
                for p in enumerate_partitions(inst)
            )
            assert obj == pytest.approx(best, abs=1e-8)

    def test_top_solutions(self):
        milp = SetPartitionMilp(self.options_l2(), [0.1, 0.2, 0.25], [0, 1], 1)
        tops = enumerate_top_solutions(milp, 5)
        # only two partitions exist for two items
        assert len(tops) == 2
        objs = [o for _, o in tops]
        assert objs == sorted(objs, reverse=True)
        assert objs[0] == pytest.approx(0.3)
        assert objs[1] == pytest.approx(0.25)
        keys = {tuple(np.flatnonzero(z > 0.5)) for z, _ in tops}
        assert len(keys) == 2

    def test_top_solutions_match_single(self):
        milp = SetPartitionMilp(self.options_l2(), [0.0, 0.0, 0.9], [0, 1], 1)
        z1, o1 = bnb_solve(milp)
        tops = enumerate_top_solutions(milp, 1)
        assert np.array_equal(tops[0][0], z1)
        assert tops[0][1] == pytest.approx(o1)

    def test_assignment_options(self):
        milp = SetPartitionMilp(self.options_l2(), [0.0, 0.0, 0.9], [0, 1], 1)
        z, _ = bnb_solve(milp)
        assert [o.items for o in assignment_options(milp, z)] == [(0, 1)]

    def test_top_solutions_match_brute_force_ranking(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            inst, milp = criterion_10_milp(trial, rng)
            ridx = {o.items: k for k, o in enumerate(milp.options)}
            every = sorted(
                (sum(milp.rewards[ridx[o.items]] for o in p) for p in enumerate_partitions(inst)),
                reverse=True,
            )
            for n in (1, 5, 10, len(every)):
                tops = enumerate_top_solutions(milp, n)
                objs = [o for _, o in tops]
                assert objs == pytest.approx(every[:n], abs=1e-12)
                assert all(a >= b for a, b in zip(objs, objs[1:]))
                assert len({tuple(np.flatnonzero(z)) for z, _ in tops}) == len(tops)
                for z, obj in tops:
                    items = sorted(i for o in assignment_options(milp, z) for i in o.items)
                    assert items == sorted(milp.item_ids)
                    assert obj == float(milp.rewards @ z)
                if n == 1:
                    assert objs[0] == pytest.approx(bnb_solve(milp)[1], abs=1e-12)

    def test_top_solutions_exact_tie_prefers_singletons(self):
        # with the bundle listed first, only the bundle count breaks the tie
        for options in (self.options_l2(), self.options_l2()[::-1]):
            milp = SetPartitionMilp(options, [0.0, 0.0, 0.0], [0, 1], 1)
            tops = enumerate_top_solutions(milp, 2)
            assert [len(assignment_options(milp, z)) for z, _ in tops] == [2, 1]

    def test_top_solutions_no_bundles_allowed(self):
        milp = SetPartitionMilp(self.options_l2(), [0.0, 0.0, 100.0], [0, 1], 0)
        tops = enumerate_top_solutions(milp, 5)
        assert [list(z) for z, _ in tops] == [[1.0, 1.0, 0.0]]
        assert tops[0][1] == 0.0

    def test_top_solutions_state_cap(self, monkeypatch):
        monkeypatch.setattr(uip.optim, "_TOP_STATE_CAP", 3)
        _, milp = criterion_10_milp(0, np.random.default_rng(0))
        with pytest.raises(CapExceeded):
            enumerate_top_solutions(milp, 5)
