"""Bundle selection: column generation on the DFA, a greedy heuristic, the
best-achievable upper bound Z*, and the min-empty-miles pairing baseline.

All scoring is done in the canonical orientation (values to maximize), so
the same code serves retail instances (beta_p < 0, maximize revenue) and
freight instances (beta_p > 0, minimize cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BoundResult,
    PriceTrajectory,
    _dfa_forward,
    _upper_profiles,
    _warn_uncertified,
    backward_upper,
    dfa,
    fluid,
    monotone_columns,
    static,
)
from .errors import ConfigError, DimensionMismatch, DomainError, MissingFreightData
from .model import (
    BundleOption,
    Item,
    MarketInstance,
    OptionSet,
    enumerate_options,
    singletons,
    sub_instance,
)
from .numerics import log_sum_exp
from .optim import (
    EQ,
    LE,
    LinearProgram,
    SetPartitionMilp,
    assignment_options,
    bnb_solve,
    enumerate_top_solutions,
    simplex_solve,
)
from .pricing import canonical_sign


@dataclass(frozen=True)
class ColumnGenConfig:
    n_gen: int = 50
    n_eval: int = 10

    def __post_init__(self):
        if self.n_gen < 0 or self.n_eval < 1:
            raise ConfigError("need n_gen >= 0 and n_eval >= 1")


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


# Upper limit on the elements of one batch's exp(q + beta_p tau) array; a
# larger batch is split, which leaves every value unchanged.
_BATCH_ELEMS = 1 << 22
# Sets of fewer options than this share one padded recursion in dfa_many.
# numpy adds a row of fewer than 8 elements one element after another (its
# pairwise sum works in blocks of 8), so exact zeros appended to such a row
# change no bit of its sum.
_PAD_BELOW = 8


class _SetEvaluator:
    """DFA evaluation of sets assembled from a precomputed option pool.

    The pool's quality matrix and salvage vector are built once, and from
    them the per-option individual values r and trajectories tau^U, one
    recursion per distinct (quality column, salvage) pair (_upper_profiles),
    so an option's values are those of its column alone, wherever it sits;
    a set's trajectory is just the corresponding columns. Per-column
    monotonicity flags are also kept once; a set is certified iff all of its
    columns are. dfa_many gathers and exponentiates exp(q + beta_p tau) per
    batch, so no array of size T x W x M is built for the pool. A zero-mass
    column, appended after the pool at index len(options), pads every set of
    fewer than _PAD_BELOW options.
    """

    def __init__(self, instance: MarketInstance, options: Sequence[BundleOption]):
        self.options = list(options)
        cust = instance.customer
        self.beta_p = cust.price_sensitivity
        self.sign = canonical_sign(self.beta_p)
        q = cust.quality_matrix(self.options)
        xi = instance.salvage_vector(self.options)
        self.r, self.tau = _upper_profiles(instance, q, xi)
        self.monotone = monotone_columns(self.tau, xi, self.beta_p)
        self.mu_pmf = instance.arrival_prob * cust.arrival_pmf
        self.singleton_of = {
            o.items[0]: j for j, o in enumerate(self.options) if o.cardinality == 1
        }
        # the pad column: q = -inf, so exp(q + beta_p tau) = 0, and tau = xi = 0
        self._pad = len(self.options)
        self._q = np.hstack([q, np.full((q.shape[0], 1), -np.inf)])
        self._tau = np.hstack([self.tau, np.zeros((self.tau.shape[0], 1))])
        self._xi = np.append(xi, 0.0)

    def set_of(self, indices: Sequence[int]) -> OptionSet:
        return OptionSet(tuple(self.options[j] for j in indices))

    def trajectory(self, indices: Sequence[int]) -> PriceTrajectory:
        idx = list(indices)
        return PriceTrajectory(prices=self.tau[:, idx],
                               monotone_ok=bool(np.all(self.monotone[idx])))

    def complete_with_singletons(self, j: int) -> list[int]:
        """Indices of S_j: option j plus singletons of the items not in j."""
        inside = set(self.options[j].items)
        return [j] + [
            self.singleton_of[l] for l in sorted(self.singleton_of) if l not in inside
        ]

    def dfa_many(self, sets: Sequence[Sequence[int]], availability: bool = False):
        """Canonical V^DFA of every set (a list of pool indices), equal bit
        for bit to dfa() of that set under the pool trajectory; with
        availability=True also the list of each set's (T+1, N)
        availabilities, as dfa() returns them.

        All sets of fewer than _PAD_BELOW options share one forward
        recursion: each is padded at the end, to the longest of them, with
        the zero-mass pad column, whose terms in every option sum are exact
        zeros added after the set's own (always certified, never returned).
        Longer sets share one recursion per length.
        """
        values = np.empty(len(sets))
        avails = [None] * len(sets)
        groups: dict[int, list[int]] = {}
        for k, idx in enumerate(sets):
            groups.setdefault(len(idx) if len(idx) >= _PAD_BELOW else 0, []).append(k)
        T, W = self.tau.shape[0], self._q.shape[0]
        for ks in groups.values():
            n = max(len(sets[k]) for k in ks)
            step = max(1, _BATCH_ELEMS // max(1, T * W * n))
            for lo in range(0, len(ks), step):
                part = ks[lo : lo + step]
                idx = np.full((len(part), n), self._pad)  # (K, N)
                for row, k in enumerate(part):
                    idx[row, : len(sets[k])] = sets[k]
                tau = np.take(self._tau, idx, axis=1)  # (T, K, N), C order
                q = np.ascontiguousarray(self._q[:, idx].transpose(1, 0, 2))  # (K, W, N)
                ev = np.exp(q + self.beta_p * tau[:, :, None, :])
                values[part], avail = _dfa_forward(ev, tau, self._xi[idx], self.mu_pmf)
                if availability:
                    for row, k in enumerate(part):
                        avails[k] = avail[:, row, : len(sets[k])].copy()
        if not all(np.all(self.monotone[list(idx)]) for idx in sets):
            _warn_uncertified()
        return (self.sign * values, avails) if availability else self.sign * values


def _pool_evaluator(instance: MarketInstance) -> _SetEvaluator:
    """The _SetEvaluator of the market's whole option pool: options,
    quality matrix, salvages, r, tau and monotone flags. It is built on
    first use and stored in the instance's __dict__, as
    functools.cached_property stores, so it is freed with the instance.
    Markets are frozen, so it cannot go stale; callers only read it."""
    ev = instance.__dict__.get("_pool_evaluator")
    if ev is None:
        ev = _SetEvaluator(instance, enumerate_options(instance))
        instance.__dict__["_pool_evaluator"] = ev
    return ev


# Scores and DFA values this close (relative) count as tied: permutations of
# one bundle differ only by rounding, and a tie goes to the lowest pool index
# (column selection) or the fewest bundles, then smallest encoding (ranking).
_TIE_RTOL = 1e-12


def _tied_with_best(values: np.ndarray) -> np.ndarray:
    best = float(np.max(values))
    return values >= best - _TIE_RTOL * max(1.0, abs(best))


def column_generation(
    instance: MarketInstance, config: ColumnGenConfig = ColumnGenConfig()
) -> tuple[OptionSet, BoundResult, ColumnGenTrace]:
    """Column-generation bundle selection.

    Phase 1 computes every option's individual value and trajectory, one
    recursion per distinct (quality column, salvage) pair of the pool
    (_upper_profiles). The restricted master (LP relaxation of the
    partition problem over the generated pool, singleton rewards zero)
    supplies duals; candidates are priced by the perturbed
    reduced cost, which substitutes the cheap individual upper bound for the
    DFA of the candidate's completed set. Accepted columns get their exact
    DFA improvement as master reward. The master's incidence matrix, one =
    row per item and the bundle-count row, is allocated once and each round
    writes the accepted column into it.

    The master is solved in the first round, and after that only when the
    column accepted in the round before has a positive exact reduced cost
    (exact_score) at the duals it was priced with. Otherwise that column
    cannot enter: the simplex enters only reduced costs above 1e-10, so a
    re-solve, warm from the same basis, would make no pivot and recompute
    the same primal and duals from the same basis matrix. The previous
    solution then stands, its primal extended by a 0 for the new column,
    and the master objective is rewards @ x on both paths, so the trace is
    the same bits as with a solve in every round.

    Finally enumerate_top_solutions ranks the top n_eval partitions of the
    master's columns by their rewards, and their DFA values decide the
    returned set (values within 1e-12 relative of the best tie; ties prefer
    fewer bundles, then the lexicographically smallest encoding).

    DFA values are computed in batches, and a set's value does not depend on
    its batch; sets of fewer than 8 options share one recursion (see
    _SetEvaluator.dfa_many). When the best candidate has no exact
    improvement yet, the improvements of the candidates with positive score
    are computed together, best perturbed score first, as many as columns
    may still enter, plus the best candidate itself. The distinct
    top-n_eval partitions other than S0 are ranked from one batch, S0 with
    the value computed first. The returned BoundResult carries the value
    and availabilities of that evaluation, the same bits dfa() gives.
    """
    ev = _pool_evaluator(instance)
    pool = ev.options
    item_ids = sorted(it.id for it in instance.items)
    trace = ColumnGenTrace(pool_size=len(pool))

    singleton_idx = [ev.singleton_of[l] for l in item_ids]
    s0_indices = list(singleton_idx)
    (dfa_s0,), (avail_s0,) = ev.dfa_many([s0_indices], availability=True)
    dfa_s0 = float(dfa_s0)
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
    m = len(item_ids)
    item_pos = {l: k for k, l in enumerate(item_ids)}
    incidence = np.zeros((bundle_idx.size, m))
    for r, j in enumerate(bundle_idx):
        incidence[r, [item_pos[l] for l in pool[j].items]] = 1.0
    cand_mask = np.ones(bundle_idx.size, dtype=bool)
    improvements: dict[int, float] = {}  # exact DFA improvement by candidate

    # the master's incidence matrix as SetPartitionMilp.base_lp() builds it:
    # one = row per item in item_ids order, then the bundle-count row; the
    # singleton columns come first, then one per accepted bundle, of which
    # at most n_gen and at most one per candidate can enter
    master = np.zeros((m + 1, m + min(config.n_gen, bundle_idx.size)))
    master[np.arange(m), np.arange(m)] = 1.0
    rels = [EQ] * m + [LE]
    rhs = np.append(np.ones(m), instance.max_bundles)
    columns = [j for j in singleton_idx]
    rewards = [0.0] * len(columns)
    sol, resolve = None, True

    while len(columns) < m + config.n_gen:
        if resolve:
            lp = LinearProgram(np.asarray(rewards), master[:, : len(columns)], rels, rhs)
            sol = simplex_solve(lp, warm_basis=None if sol is None else sol.basis)
            x = sol.primal
        else:
            x = np.append(x, 0.0)  # the last column stays nonbasic
        master_obj = float(np.asarray(rewards) @ x)  # sol.objective's expression

        if not np.any(cand_mask):
            break
        dual_cost = incidence @ sol.duals[:m] + sol.duals[m]
        scores = np.where(cand_mask, base_score - dual_cost, -np.inf)
        j_rel = int(np.flatnonzero(_tied_with_best(scores))[0])
        score = float(scores[j_rel])
        if score <= 0:
            break
        if j_rel not in improvements:
            n_left = m + config.n_gen - len(columns)
            batch = [j_rel] + [
                k
                for k in np.argsort(-scores, kind="stable")[:n_left].tolist()
                if scores[k] > 0 and k != j_rel and k not in improvements
            ]
            vals = ev.dfa_many(
                [ev.complete_with_singletons(int(bundle_idx[k])) for k in batch]
            )
            improvements.update(zip(batch, (vals - dfa_s0).tolist()))
        j_star = int(bundle_idx[j_rel])
        improvement = improvements[j_rel]
        exact_score = improvement - float(dual_cost[j_rel])
        resolve = exact_score > 0
        trace.iterations.append(
            ColumnGenIteration(
                option=pool[j_star],
                score=score,
                exact_score=exact_score,
                improvement=improvement,
                master_objective=master_obj,
            )
        )
        master[:m, len(columns)] = incidence[j_rel]
        master[m, len(columns)] = 1.0
        columns.append(j_star)
        rewards.append(improvement)
        cand_mask[j_rel] = False

    milp = SetPartitionMilp(
        options=[pool[j] for j in columns],
        rewards=np.asarray(rewards),
        item_ids=item_ids,
        max_bundles=instance.max_bundles,
    )
    candidates: list[list[int]] = []
    for z, _ in enumerate_top_solutions(milp, config.n_eval):
        candidates.append([columns[k] for k in np.flatnonzero(z > 0.5)])
    candidates.append(s0_indices)

    distinct = {}  # canonical encoding -> indices, first occurrence kept
    for idx in candidates:
        distinct.setdefault(ev.set_of(idx).canonical(), idx)
    # S0's indices are the singleton columns in item order wherever it
    # appears, so its value and availabilities are the ones computed first
    s0_key = ev.set_of(s0_indices).canonical()
    others = [idx for key, idx in distinct.items() if key != s0_key]
    vals, avails = ev.dfa_many(others, availability=True)
    evaluated = iter(zip(vals.tolist(), avails))
    ranked = []  # (value, bundle_count, canonical, indices, availability)
    for key, idx in distinct.items():
        val, avail = (dfa_s0, avail_s0) if key == s0_key else next(evaluated)
        opt_set = ev.set_of(idx)
        trace.evaluated_sets.append((opt_set, ev.sign * val))
        ranked.append((val, opt_set.bundle_count, key, idx, avail))
    tied = _tied_with_best(np.array([r[0] for r in ranked]))
    val, _, _, idx, avail = min((r for r, t in zip(ranked, tied) if t), key=lambda r: r[1:3])
    traj = ev.trajectory(idx)
    result = BoundResult(
        kind="dfa",
        value=float(ev.sign * val),
        trajectory=traj,
        availability=avail,
        certified=traj.monotone_ok,
    )
    return ev.set_of(idx), result, trace


def _undominated(pool: Sequence[BundleOption], rewards: np.ndarray) -> list[int]:
    """Pool indices that some optimal partition still needs: every singleton,
    and per item set of a bundle the member order with the largest reward
    (lowest index on ties), unless that reward is at most the sum of its
    members' singleton rewards. Exact for the single best partition only."""
    single = {o.items[0]: rewards[j] for j, o in enumerate(pool) if o.cardinality == 1}
    best: dict[frozenset, int] = {}
    for j, o in enumerate(pool):
        if o.cardinality > 1 and rewards[j] <= sum(single[l] for l in o.items):
            continue
        key = frozenset(o.items)
        if key not in best or rewards[j] > rewards[best[key]]:
            best[key] = j
    return sorted(best.values())


def best_upper_bound_partition(instance: MarketInstance) -> tuple[OptionSet, float]:
    """Partition maximizing the backward upper bound; its value Z* is the
    denominator of optimality gaps for any candidate set. Dominated columns
    (_undominated) are dropped before branch and bound. The options and
    their individual upper bounds r are read from the market's pool record
    (_pool_evaluator), which column_generation shares."""
    ev = _pool_evaluator(instance)
    pool, sign = ev.options, ev.sign
    rewards = sign * ev.r
    keep = _undominated(pool, rewards)
    item_ids = sorted(it.id for it in instance.items)
    milp = SetPartitionMilp(
        options=[pool[j] for j in keep],
        rewards=rewards[keep],
        item_ids=item_ids,
        max_bundles=instance.max_bundles,
    )
    z, _ = bnb_solve(milp)
    chosen = OptionSet(tuple(assignment_options(milp, z)))
    # summed over the whole pool, so Z* does not depend on the pruning's last bits
    z_pool = np.zeros(len(pool))
    z_pool[keep] = z
    return chosen, sign * float(rewards @ z_pool)  # in the instance's own sign


def optimality_gap(z_star: float, value: float, beta_p: float) -> float:
    """(Z* - V) / |Z*| in canonical orientation; undefined, and a
    DomainError, when Z* is 0 (a zero-period horizon of salvage-free
    items, where every partition is worth 0)."""
    if z_star == 0:
        raise DomainError("optimality gap is undefined when Z* is 0")
    s = canonical_sign(beta_p)
    return (s * z_star - s * value) / abs(z_star)


def greedy_bundle(instance: MarketInstance, value_kind: str = "dfa") -> OptionSet:
    """Greedy partition: rank options by expected acceptance weight at the
    estimated marginal values, then sweep.

    Marginal values come from L+1 evaluations of the chosen value-function
    approximation on leave-one-out singleton sets; an option's marginal is
    the sum of its members'. The ranking key E_X[e^{q_i + beta_p Delta_i}]
    is computed in log space.
    """
    pool = enumerate_options(instance)
    cust = instance.customer
    item_ids = sorted(it.id for it in instance.items)

    def value_of(inst: MarketInstance, option_set: OptionSet) -> float:
        if value_kind == "dfa":
            up = backward_upper(inst, option_set)
            return dfa(inst, option_set, up.trajectory).value
        if value_kind == "upper":
            return backward_upper(inst, option_set).value
        if value_kind == "fluid":
            return fluid(inst, option_set).value
        if value_kind == "static":
            return static(inst, option_set).value
        raise ConfigError(f"unknown value_kind {value_kind!r}")

    v0 = value_of(instance, singletons(instance))
    delta = {}
    for l in item_ids:
        rest = sub_instance(instance, [m for m in item_ids if m != l])
        delta[l] = v0 - value_of(rest, singletons(rest))

    q = cust.quality_matrix(pool)  # (types, M)
    dsum = np.array([sum(delta[l] for l in o.items) for o in pool])
    keys = log_sum_exp((q + cust.price_sensitivity * dsum[None, :]).T, cust.arrival_pmf)

    pos = {l: k for k, l in enumerate(item_ids)}
    members = [tuple(pos[l] for l in o.items) for o in pool]
    chosen = _greedy_sweep(keys, members, len(item_ids), instance.max_bundles)
    return OptionSet(tuple(pool[k] for k in chosen))


def _greedy_sweep(keys, members, n_items: int, max_bundles: Optional[int]) -> list[int]:
    """The sweep of the greedy heuristics (greedy_bundle and the
    simulator's rebuilds): indices of the options chosen, in sweep order.

    Options are taken by descending key; equal keys go to the lower index
    (a stable sort). An option is skipped when one of its members is
    already covered, or when it is a bundle (more than one member) and
    max_bundles bundles are chosen already (None: no cap). members[k] holds
    option k's item positions in range(n_items); the sweep stops once every
    item is covered.
    """
    cap = n_items if max_bundles is None else max_bundles
    covered: set[int] = set()
    n_bundles = 0
    chosen = []
    for k in np.argsort(-keys, kind="stable").tolist():
        option = members[k]
        if not covered.isdisjoint(option) or (len(option) > 1 and n_bundles >= cap):
            continue
        chosen.append(k)
        covered.update(option)
        n_bundles += len(option) > 1
        if len(covered) == n_items:
            break
    return chosen


def min_empty_miles(
    loads: Sequence[Item], ehat_dst: Sequence[float], max_bundles: Optional[int] = None
) -> OptionSet:
    """Pairing that minimizes expected empty miles after drop-offs.

    ehat_dst[k] is the expected deadhead of load k's destination region.
    Pairing load l behind load k replaces k's trailing deadhead with the
    dropoff(k) -> pickup(l) distance; the equivalent set-partitioning
    problem maximizes those savings (ties resolve to no pairing) with at
    most max_bundles pairs (None: no cap). A pair whose saving is not
    positive is never offered: two singletons are worth as much and use no
    bundle, so the optimum value is unchanged and the LP holds only the
    pairs that can help.
    """
    for it in loads:
        if it.freight is None:
            raise MissingFreightData(f"load {it.id} has no freight data")
    ehat_dst = np.asarray(ehat_dst, dtype=float)
    if ehat_dst.shape != (len(loads),):
        raise DimensionMismatch("one trailing-deadhead value per load required")
    pickup = np.array([it.freight.pickup for it in loads], dtype=float).reshape(-1, 2)
    dropoff = np.array([it.freight.dropoff for it in loads], dtype=float).reshape(-1, 2)
    first, last = _min_deadhead_pairs(pickup, dropoff, ehat_dst, max_bundles)
    ids = [it.id for it in loads]
    return OptionSet(tuple(
        BundleOption((ids[k],) if k == l else (ids[k], ids[l]))
        for k, l in zip(first.tolist(), last.tolist())
    ))


def _min_deadhead_pairs(pickup, dropoff, ehat_dst, max_bundles: Optional[int]):
    """min_empty_miles on the loads k = 0..n-1 given as arrays: pickup[k]
    and dropoff[k] of shape (n, 2), trailing deadhead ehat_dst[k]. Returns
    the chosen options as first and last positions (equal for a singleton),
    the singletons first. The pairs (k, l) are the MILP's columns in
    row-major order, each saving scored in one array hypot."""
    n = len(ehat_dst)
    gap = np.hypot(pickup[:, 0] - dropoff[:, :1], pickup[:, 1] - dropoff[:, 1:])
    saving = ehat_dst[:, None] - gap
    kk, ll = np.nonzero((saving > 0.0) & ~np.eye(n, dtype=bool))
    options = [BundleOption((k,)) for k in range(n)]
    options += [BundleOption(pair) for pair in zip(kk.tolist(), ll.tolist())]
    milp = SetPartitionMilp(
        options=options,
        rewards=np.concatenate([np.zeros(n), saving[kk, ll]]),
        item_ids=range(n),
        max_bundles=n if max_bundles is None else max_bundles,
    )
    z, _ = bnb_solve(milp)
    chosen = assignment_options(milp, z)
    return (np.array([o.items[0] for o in chosen], dtype=np.int64),
            np.array([o.items[-1] for o in chosen], dtype=np.int64))
