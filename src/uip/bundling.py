"""Bundle selection: column generation on the DFA, a greedy heuristic, the
best-achievable upper bound Z*, and the min-empty-miles pairing baseline.

All scoring is done in the canonical orientation (values to maximize), so
the same code serves retail instances (beta_p < 0, maximize revenue) and
freight instances (beta_p > 0, minimize cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import (
    BoundResult,
    PriceTrajectory,
    check_monotone,
    dfa,
    fluid,
    singleton_upper_profiles,
    static,
)
from .errors import MissingFreightData
from .model import (
    BundleOption,
    Item,
    MarketInstance,
    OptionSet,
    enumerate_options,
    singletons,
    sub_instance,
)
from .numerics import weighted_lse_rows
from .optim import SetPartitionMilp, assignment_options, bnb_solve, enumerate_top_solutions, simplex_solve
from .pricing import canonical_sign


@dataclass(frozen=True)
class ColumnGenConfig:
    n_gen: int = 50
    n_eval: int = 10
    include_baseline: bool = True

    def __post_init__(self):
        if self.n_gen < 0 or self.n_eval < 1:
            raise ValueError("need n_gen >= 0 and n_eval >= 1")


@dataclass
class ColumnGenIteration:
    option: BundleOption
    score: float  # perturbed reduced cost (uses V^U in place of the DFA)
    exact_score: float  # exact reduced cost (uses the DFA improvement)
    improvement: float  # DFA improvement of the accepted column
    master_objective: float


@dataclass
class ColumnGenTrace:
    iterations: list[ColumnGenIteration] = field(default_factory=list)
    evaluated_sets: list[tuple[OptionSet, float]] = field(default_factory=list)
    pool_size: int = 0

    def to_json_dict(self) -> dict:
        return {
            "pool_size": self.pool_size,
            "iterations": [
                {
                    "option": list(it.option.items),
                    "score": it.score,
                    "exact_score": it.exact_score,
                    "improvement": it.improvement,
                    "master_objective": it.master_objective,
                }
                for it in self.iterations
            ],
            "evaluated_sets": [
                {"options": [list(o.items) for o in s], "dfa": v}
                for s, v in self.evaluated_sets
            ],
        }


class _SetEvaluator:
    """DFA evaluation of sets assembled from a precomputed option pool.

    Per-option individual values r and trajectories tau^U are computed once
    for the whole pool (the recursions are independent); a set's trajectory
    is just the corresponding columns.
    """

    def __init__(self, instance: MarketInstance, options: Sequence[BundleOption]):
        self.instance = instance
        self.options = list(options)
        self.sign = canonical_sign(instance.customer.price_sensitivity)
        self.r, self.tau = singleton_upper_profiles(instance, self.options)
        self.index = {o.items: j for j, o in enumerate(self.options)}
        self.singleton_of = {
            o.items[0]: j for j, o in enumerate(self.options) if o.cardinality == 1
        }
        self._dfa_cache: dict = {}

    def upper_canonical(self, indices: Sequence[int]) -> float:
        return float(self.sign * self.r[list(indices)].sum())

    def set_of(self, indices: Sequence[int]) -> OptionSet:
        return OptionSet(tuple(self.options[j] for j in indices))

    def complete_with_singletons(self, j: int) -> list[int]:
        """Indices of S_j: option j plus singletons of the items not in j."""
        inside = set(self.options[j].items)
        return [j] + [
            self.singleton_of[l] for l in sorted(self.singleton_of) if l not in inside
        ]

    def dfa_canonical(self, indices: Sequence[int]) -> float:
        key = tuple(sorted(indices))
        hit = self._dfa_cache.get(key)
        if hit is not None:
            return hit
        idx = list(indices)
        option_set = self.set_of(idx)
        tau = self.tau[:, idx]
        xi = self.instance.salvage_vector(option_set.options)
        traj = PriceTrajectory(
            prices=tau,
            homogeneous=True,
            monotone_ok=check_monotone(tau, xi, self.instance.customer.price_sensitivity),
        )
        val = self.sign * dfa(self.instance, option_set, traj).value
        self._dfa_cache[key] = val
        return val


# Scores and DFA values this close (relative) count as tied: permutations of
# one bundle differ only by rounding, and a tie goes to the lowest pool index
# (column selection) or the fewest bundles, then smallest encoding (ranking).
_TIE_RTOL = 1e-12


def _tied_with_best(values: np.ndarray) -> np.ndarray:
    best = float(np.max(values))
    return values >= best - _TIE_RTOL * max(1.0, abs(best))


def column_generation(
    instance: MarketInstance,
    config: ColumnGenConfig = ColumnGenConfig(),
    option_cap: int = 200_000,
) -> tuple[OptionSet, BoundResult, ColumnGenTrace]:
    """Column-generation bundle selection.

    Phase 1 computes every option's individual value and trajectory. The
    restricted master (LP relaxation of the partition problem over the
    generated pool, singleton rewards zero) supplies duals; candidates are
    priced by the perturbed reduced cost, which substitutes the cheap
    individual upper bound for the DFA of the candidate's completed set.
    Accepted columns get their exact DFA improvement as master reward.
    Finally the binary problem is solved for the top n_eval partitions,
    whose DFA values decide the returned set (values within 1e-12 relative
    of the best tie; ties prefer fewer bundles, then the lexicographically
    smallest encoding).
    """
    pool = enumerate_options(instance, cap=option_cap)
    ev = _SetEvaluator(instance, pool)
    item_ids = sorted(it.id for it in instance.items)
    trace = ColumnGenTrace(pool_size=len(pool))

    singleton_idx = [ev.singleton_of[l] for l in item_ids]
    s0_indices = list(singleton_idx)
    dfa_s0 = ev.dfa_canonical(s0_indices)
    r_c = ev.sign * ev.r  # canonical individual values
    singleton_r_by_item = {l: r_c[ev.singleton_of[l]] for l in item_ids}
    total_singleton_r = sum(singleton_r_by_item.values())

    # perturbed-score constant per option: canonical V^U(S_i) - V^DFA(S_0)
    bundle_idx = np.array([j for j, o in enumerate(pool) if o.cardinality > 1], dtype=int)
    vu_si = np.array(
        [
            r_c[j] + total_singleton_r - sum(singleton_r_by_item[l] for l in pool[j].items)
            for j in bundle_idx
        ]
    )
    base_score = vu_si - dfa_s0

    # item incidence of the bundle candidates, columns in dual (item_ids) order
    item_pos = {l: k for k, l in enumerate(item_ids)}
    incidence = np.zeros((bundle_idx.size, len(item_ids)))
    for r, j in enumerate(bundle_idx):
        incidence[r, [item_pos[l] for l in pool[j].items]] = 1.0
    cand_mask = np.ones(bundle_idx.size, dtype=bool)

    columns = [j for j in singleton_idx]
    rewards = [0.0] * len(columns)
    warm = None

    while True:
        lp = SetPartitionMilp(
            [pool[j] for j in columns], rewards, item_ids, instance.max_bundles
        ).base_lp()
        sol = simplex_solve(lp, warm_basis=warm)
        warm = sol.basis
        master_obj = sol.objective

        if not np.any(cand_mask):
            break
        dual_cost = incidence @ sol.duals[: len(item_ids)] + sol.duals[len(item_ids)]
        scores = np.where(cand_mask, base_score - dual_cost, -np.inf)
        j_rel = int(np.flatnonzero(_tied_with_best(scores))[0])
        score = float(scores[j_rel])
        if score <= 0:
            break
        j_star = int(bundle_idx[j_rel])
        improvement = ev.dfa_canonical(ev.complete_with_singletons(j_star)) - dfa_s0
        exact_score = improvement - float(dual_cost[j_rel])
        trace.iterations.append(
            ColumnGenIteration(
                option=pool[j_star],
                score=score,
                exact_score=exact_score,
                improvement=improvement,
                master_objective=master_obj,
            )
        )
        columns.append(j_star)
        rewards.append(improvement)
        cand_mask[j_rel] = False
        if len(columns) >= len(item_ids) + config.n_gen:
            break

    milp = SetPartitionMilp(
        options=[pool[j] for j in columns],
        rewards=np.asarray(rewards),
        item_ids=item_ids,
        max_bundles=instance.max_bundles,
    )
    candidates: list[list[int]] = []
    for z, _ in enumerate_top_solutions(milp, config.n_eval):
        candidates.append([columns[k] for k in np.flatnonzero(z > 0.5)])
    if config.include_baseline:
        candidates.append(s0_indices)

    seen = set()
    ranked = []  # (value, bundle_count, canonical, indices)
    for idx in candidates:
        opt_set = ev.set_of(idx)
        key = opt_set.canonical()
        if key in seen:
            continue
        seen.add(key)
        val = ev.dfa_canonical(idx)
        trace.evaluated_sets.append((opt_set, ev.sign * val))
        ranked.append((val, opt_set.bundle_count, key, idx))
    tied = _tied_with_best(np.array([r[0] for r in ranked]))
    idx = min((r for r, t in zip(ranked, tied) if t), key=lambda r: r[1:3])[3]
    final_set = ev.set_of(idx)
    tau = ev.tau[:, list(idx)]
    xi = instance.salvage_vector(final_set.options)
    traj = PriceTrajectory(
        prices=tau,
        homogeneous=True,
        monotone_ok=check_monotone(tau, xi, instance.customer.price_sensitivity),
    )
    result = dfa(instance, final_set, traj)
    return final_set, result, trace


def best_upper_bound_partition(
    instance: MarketInstance, option_cap: int = 200_000
) -> tuple[OptionSet, float]:
    """Partition maximizing the backward upper bound; its value Z* is the
    denominator of optimality gaps for any candidate set."""
    pool = enumerate_options(instance, cap=option_cap)
    ev = _SetEvaluator(instance, pool)
    item_ids = sorted(it.id for it in instance.items)
    milp = SetPartitionMilp(
        options=pool,
        rewards=ev.sign * ev.r,
        item_ids=item_ids,
        max_bundles=instance.max_bundles,
    )
    z, obj = bnb_solve(milp)
    chosen = OptionSet(tuple(assignment_options(milp, z)))
    return chosen, ev.sign * obj  # Z* reported in the instance's own sign


def optimality_gap(z_star: float, value: float, beta_p: float) -> float:
    """(Z* - V) / |Z*| in canonical orientation."""
    s = canonical_sign(beta_p)
    return (s * z_star - s * value) / abs(z_star)


def greedy_bundle(
    instance: MarketInstance,
    value_kind: str = "dfa",
    option_cap: int = 200_000,
) -> OptionSet:
    """Greedy partition: rank options by expected acceptance weight at the
    estimated marginal values, then sweep.

    Marginal values come from L+1 evaluations of the chosen value-function
    approximation on leave-one-out singleton sets; an option's marginal is
    the sum of its members'. The ranking key E_X[e^{q_i + beta_p Delta_i}]
    is computed in log space.
    """
    pool = enumerate_options(instance, cap=option_cap)
    cust = instance.customer
    item_ids = sorted(it.id for it in instance.items)

    def value_of(inst: MarketInstance, option_set: OptionSet) -> float:
        if value_kind == "dfa":
            from .bounds import backward_upper

            up = backward_upper(inst, option_set)
            return dfa(inst, option_set, up.trajectory).value
        if value_kind == "upper":
            from .bounds import backward_upper

            return backward_upper(inst, option_set).value
        if value_kind == "fluid":
            return fluid(inst, option_set).value
        if value_kind == "static":
            return static(inst, option_set).value
        raise ValueError(f"unknown value_kind {value_kind!r}")

    v0 = value_of(instance, singletons(instance))
    delta = {}
    for l in item_ids:
        rest = sub_instance(instance, [m for m in item_ids if m != l])
        delta[l] = v0 - value_of(rest, singletons(rest))

    q = cust.quality_matrix(pool)  # (types, M)
    dsum = np.array([sum(delta[l] for l in o.items) for o in pool])
    keys = weighted_lse_rows((q + cust.price_sensitivity * dsum[None, :]).T, cust.arrival_pmf)

    order = sorted(range(len(pool)), key=lambda j: (-keys[j], j))
    chosen: list[BundleOption] = []
    used: set[int] = set()
    n_bundles = 0
    remaining = set(item_ids)
    for j in order:
        o = pool[j]
        if used.intersection(o.items):
            continue
        if o.cardinality > 1 and n_bundles >= instance.max_bundles:
            continue
        chosen.append(o)
        used.update(o.items)
        remaining.difference_update(o.items)
        if o.cardinality > 1:
            n_bundles += 1
        if not remaining:
            break
    return OptionSet(tuple(chosen))


def min_empty_miles(
    loads: Sequence[Item], ehat_dst: Sequence[float]
) -> OptionSet:
    """Pairing that minimizes expected empty miles after drop-offs.

    ehat_dst[k] is the expected deadhead of load k's destination region.
    Pairing load l behind load k replaces k's trailing deadhead with the
    dropoff(k) -> pickup(l) distance; the equivalent set-partitioning
    problem maximizes those savings (ties resolve to no pairing).
    """
    for it in loads:
        if it.freight is None:
            raise MissingFreightData(f"load {it.id} has no freight data")
    ehat_dst = np.asarray(ehat_dst, dtype=float)
    if ehat_dst.shape != (len(loads),):
        raise ValueError("one trailing-deadhead value per load required")
    by_id = {it.id: it for it in loads}
    ids = [it.id for it in loads]
    pos = {l: k for k, l in enumerate(ids)}

    options = [BundleOption((l,)) for l in ids]
    rewards = [0.0] * len(ids)
    for k in ids:
        for l in ids:
            if k == l:
                continue
            fk, fl = by_id[k].freight, by_id[l].freight
            gap = float(np.hypot(
                fl.pickup[0] - fk.dropoff[0], fl.pickup[1] - fk.dropoff[1]
            ))
            options.append(BundleOption((k, l)))
            rewards.append(ehat_dst[pos[k]] - gap)
    milp = SetPartitionMilp(
        options=options,
        rewards=np.asarray(rewards),
        item_ids=ids,
        max_bundles=len(ids),
    )
    z, _ = bnb_solve(milp)
    return OptionSet(tuple(assignment_options(milp, z)))
