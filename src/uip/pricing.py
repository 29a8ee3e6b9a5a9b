"""Single-period closed-form pricing, exact finite-horizon DP, asymptotics.

Sign conventions: every formula here is written so that it is invariant
under the mirror map (price, salvage, price-sensitivity) -> (-price,
-salvage, -price-sensitivity). For the usual retail case (beta_p < 0) the
value function is the maximal expected revenue; for the freight case
(beta_p > 0, the platform pays carriers) the same recursion yields the
minimal expected cost directly, and "better" means a smaller value. Use
canonical_sign() when an orientation-dependent comparison is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceeded, DomainError, MissingDp
from .model import (
    BundleOption,
    ChoiceVector,
    MarketInstance,
    OptionSet,
    aggregated_quality,
)
from .numerics import lambert_w_exp, log_sum_exp

DEFAULT_DP_CAP = 50_000_000


def canonical_sign(beta_p: float) -> float:
    """+1 when values are revenues to maximize, -1 when they are the mirrored
    cost problem (beta_p > 0)."""
    return 1.0 if beta_p < 0 else -1.0


@dataclass(frozen=True)
class SinglePeriodOptimum:
    """Closed-form optimum of the one-arrival pricing problem for one type."""

    gamma: float
    revenue: float
    prices: np.ndarray
    choice: ChoiceVector


def _closed_form_choice(score):
    """Single-arrival closed form for every row of score (types, N): Gamma =
    W(e^{lse(score) - 1}) per type and the optimal choice probabilities,
    Gamma/(1+Gamma) times the softmax of the scores. The one implementation
    of the closed form; raises DomainError on an empty option set."""
    if score.shape[1] == 0:
        raise DomainError("closed-form choice of an empty option set")
    m = score.max(axis=1)
    e = np.exp(score - m[:, None])
    total = e.sum(axis=1)
    gam = lambert_w_exp(m + np.log(total) - 1.0)
    return gam, (gam / ((1.0 + gam) * total))[:, None] * e


def single_period_optimum(
    qualities, marginals, beta_p: float
) -> SinglePeriodOptimum:
    """Optimal single-arrival pricing for one customer type.

    Gamma = W(sum_i e^{q_i + beta_p*Delta_i - 1}), evaluated by the closed
    form in log space so scores of magnitude ~1e3 neither overflow nor
    underflow. Revenue is -Gamma/beta_p, every option is priced at its
    marginal value plus the common markup -(1+Gamma)/beta_p.
    """
    q = np.asarray(qualities, dtype=float)
    delta = np.asarray(marginals, dtype=float)
    if q.size == 0:
        raise DomainError("single_period_optimum: empty option set")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(delta))):
        raise DomainError("single_period_optimum: non-finite inputs")
    gam, rho = _closed_form_choice((q + beta_p * delta)[None, :])
    gamma = float(gam[0])
    return SinglePeriodOptimum(
        gamma=gamma,
        revenue=-gamma / beta_p,
        prices=delta - (1.0 + gamma) / beta_p,
        choice=ChoiceVector(probs=rho[0], outside=1.0 / (1.0 + gamma)),
    )


def price_from_probs(qualities, choice: ChoiceVector, beta_p: float) -> np.ndarray:
    """Invert the MNL map: the price vector reproducing a probability vector.

    p_i = (ln rho_i - ln rho_0 - q_i) / beta_p; requires every probability
    (including the outside one) to be strictly positive.
    """
    q = np.asarray(qualities, dtype=float)
    probs = np.asarray(choice.probs, dtype=float)
    if np.any(probs <= 0) or choice.outside <= 0:
        raise DomainError("price_from_probs: probabilities must be positive")
    return (np.log(probs) - math.log(choice.outside) - q) / beta_p


# ---------------------------------------------------------------------------
# exact dynamic program over subsets of an option set
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DpSolution:
    """Value table of the exact DP plus everything needed to reconstruct
    optimal prices and marginal values on demand.

    values[t, mask] is the optimal expected revenue with t periods left when
    the available options are the set bits of mask (positions index
    option_set.options). Prices are not stored; they are recomputed from the
    closed form at the requested state.
    """

    option_set: OptionSet
    values: np.ndarray  # (T+1, 2^N)
    qualities: np.ndarray  # (n_types, N)
    arrival_pmf: np.ndarray
    mu: float
    beta_p: float
    salvages: np.ndarray

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_options(self) -> int:
        return len(self.option_set.options)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_options) - 1

    def value(self, t: Optional[int] = None, mask: Optional[int] = None) -> float:
        t = self.horizon if t is None else t
        mask = self.full_mask if mask is None else mask
        return float(self.values[t, mask])

    def members(self, mask: Optional[int] = None) -> list[int]:
        mask = self.full_mask if mask is None else mask
        return [i for i in range(self.n_options) if mask >> i & 1]

    def marginals(self, t: int, mask: Optional[int] = None) -> np.ndarray:
        """Delta_i V*_t = V*_{t-1}(S) - V*_{t-1}(S \\ {i}) for i in the mask."""
        if t < 1:
            raise DomainError("marginal values are defined for t >= 1")
        mask = self.full_mask if mask is None else mask
        prev = self.values[t - 1]
        return np.array(
            [prev[mask] - prev[mask ^ (1 << i)] for i in self.members(mask)]
        )

    def gammas(self, t: int, mask: Optional[int] = None) -> np.ndarray:
        """Gamma_t^omega at the given state, one entry per customer type."""
        mask = self.full_mask if mask is None else mask
        delta = self.marginals(t, mask)
        score = self.qualities[:, self.members(mask)] + self.beta_p * delta
        return _closed_form_choice(score)[0]

    def prices(
        self, t: int, type_index: Optional[int] = None, mask: Optional[int] = None
    ) -> np.ndarray:
        """Optimal prices at state (t, mask): (N_mask,) for one type or
        (n_types, N_mask) when type_index is None."""
        mask = self.full_mask if mask is None else mask
        delta = self.marginals(t, mask)
        gam = self.gammas(t, mask)
        if type_index is not None:
            return delta - (1.0 + gam[type_index]) / self.beta_p
        return delta[None, :] - (1.0 + gam[:, None]) / self.beta_p


def _member_tables(n_options: int):
    """Flattened (mask, member) incidence, grouped by mask for reduceat.

    Row k is one member i of one nonempty subset mask, in row-major order
    (masks ascending, members ascending within a mask): member_mask[k] is
    the mask, member_opt[k] is i and member_prev[k] is the mask without i.
    seg_starts holds the first row of each mask."""
    masks = np.arange(1, 1 << n_options)
    rows, member_opt = np.nonzero((masks[:, None] >> np.arange(n_options)) & 1)
    member_mask = masks[rows]
    seg_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return member_mask, member_opt, member_mask ^ (1 << member_opt), seg_starts


def exact_dp(
    instance: MarketInstance,
    option_set: OptionSet,
    cap: int = DEFAULT_DP_CAP,
) -> DpSolution:
    """Solve the finite-horizon pricing problem exactly over subset states.

    State space is a bitmask over the option list; each period applies the
    closed-form single-arrival optimum for every subset and type. Memory and
    time are O(T * 2^N * n_types); both are capped.

    One period is one pass over all types at once: the scores of every
    (type, subset member) pair form one (types, members) array, the
    per-subset log-sum-exp is a segmented reduceat along its rows (subsets
    are ragged; padding them for log_sum_exp adds work and changes bits), and
    Gamma comes from one lambert_w_exp call on the (types, 2^N - 1) block.
    The type-weighted sum adds the rows in type order, as a per-type loop
    would, so the values equal a per-type loop bit for bit. The empty set
    keeps its value in every period, and an empty option set is worth 0.
    """
    option_set.validate(instance)
    n = len(option_set.options)
    if n > 14:
        raise CapExceeded(f"{n} options exceed the 2^14 state-space limit")
    T = instance.horizon
    k = instance.customer.n_types
    if (T + 1) * (1 << n) * k > cap:
        raise CapExceeded(f"T*2^N*types = {(T+1) * (1 << n) * k} exceeds cap {cap}")

    q = instance.customer.quality_matrix(option_set.options)
    beta_p = instance.customer.price_sensitivity
    pmf = instance.customer.arrival_pmf
    mu = instance.arrival_prob
    salv = instance.salvage_vector(option_set.options)

    values = np.empty((T + 1, 1 << n))
    masks = np.arange(1 << n)
    salvage_by_mask = np.zeros(1 << n)
    for i in range(n):
        salvage_by_mask[(masks >> i & 1) == 1] += salv[i]
    values[0] = salvage_by_mask
    values[1:, 0] = salvage_by_mask[0]

    if T == 0 or n == 0:
        return DpSolution(option_set, values, q, pmf, mu, beta_p, salv)

    member_mask, member_opt, member_prev, seg_starts = _member_tables(n)
    seg_len = np.diff(np.append(seg_starts, len(member_mask)))
    q_members = q[:, member_opt]  # (types, members)
    weights = pmf[:, None]
    for t in range(1, T + 1):
        prev = values[t - 1]
        score = q_members + beta_p * (prev[member_mask] - prev[member_prev])
        seg_max = np.maximum.reduceat(score, seg_starts, axis=1)
        e = np.exp(score - np.repeat(seg_max, seg_len, axis=1))
        lse = seg_max + np.log(np.add.reduceat(e, seg_starts, axis=1))
        expected = (weights * lambert_w_exp(lse - 1.0)).sum(axis=0)
        values[t, 1:] = prev[1:] + mu * (-expected / beta_p)
    return DpSolution(option_set, values, q, pmf, mu, beta_p, salv)


# ---------------------------------------------------------------------------
# asymptotics and structural quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticProfile:
    """Large-demand limits of the value, prices, and choice probabilities."""

    value: float
    prices: np.ndarray  # (N,)
    choice_probs: np.ndarray  # (n_types, N)


def asymptotic_profile(instance: MarketInstance, option_set: OptionSet) -> AsymptoticProfile:
    """Closed-form large-demand profile of a fixed option set.

    value = (-1/beta_p) (|S| (ln lambda - 1) + kappa(S)); prices are
    (-1/beta_p)(ln lambda + kappa_i) and per-period acceptance probabilities
    e^{q_i - kappa_i} / lambda, which average to 1/lambda per option.
    """
    lam = instance.demand
    if lam <= 0:
        raise DomainError("asymptotic profile needs demand > 0")
    cust = instance.customer
    beta_p = cust.price_sensitivity
    opts = option_set.options
    kappa = np.array([aggregated_quality(cust, o) for o in opts])
    value = (-1.0 / beta_p) * (len(opts) * (math.log(lam) - 1.0) + kappa.sum())
    prices = (-1.0 / beta_p) * (math.log(lam) + kappa)
    q = cust.quality_matrix(opts)
    probs = np.exp(q - kappa[None, :]) / lam
    return AsymptoticProfile(value=value, prices=prices, choice_probs=probs)


def bundling_condition(
    instance: MarketInstance, option_set: OptionSet
) -> tuple[float, float, bool]:
    """First-order test for a set to beat the all-singletons partition.

    Returns (delta_kappa, threshold, satisfied) with
    threshold = (ln lambda - 1) * sum_i (#i - 1): a set must gain at least
    that much aggregated quality to pay for its reduced option count. The
    gain is summed per option, delta_kappa = sum_b (kappa(b) - sum_{i in b}
    kappa(i)), which is the set's total kappa less the singletons' because
    the set is a partition, without subtracting two large sums.
    """
    option_set.validate(instance)
    cust = instance.customer
    delta_kappa = sum(
        aggregated_quality(cust, o) - sum(aggregated_quality(cust, i) for i in o.items)
        for o in option_set
    )
    threshold = (math.log(instance.demand) - 1.0) * sum(o.cardinality - 1 for o in option_set)
    return delta_kappa, threshold, delta_kappa >= threshold


def cumulative_aggregated_utility(
    instance: MarketInstance, option_set: OptionSet, dp: DpSolution
) -> float:
    """Season-long attractiveness ln sum_{t,i} E_X[e^{u*_{t,i}}] under the
    optimal prices of the full set each period.

    The optimal utilities satisfy sum_i e^{u*_{t,i}} = Gamma_t per type, so
    this equals ln sum_t E_X[Gamma_t(S)]; it is maximized by the partitions
    that maximize the exact value, independent of the common salvage total.
    """
    if dp.option_set.canonical() != option_set.canonical():
        raise MissingDp("dp was solved for a different option set")
    T = dp.horizon
    if T < 1:
        raise MissingDp("cumulative utility needs at least one period")
    utilities = np.empty((T,) + dp.qualities.shape)  # (T, types, N)
    for t in range(1, T + 1):
        score = dp.qualities + dp.beta_p * dp.marginals(t)
        gam, _ = _closed_form_choice(score)
        utilities[t - 1] = score - 1.0 - gam[:, None]
    weights = np.broadcast_to(dp.arrival_pmf[:, None], utilities.shape)
    return log_sum_exp(utilities.ravel(), weights.ravel())


# ---------------------------------------------------------------------------
# exhaustive partition search (small instances; tests and figures)
# ---------------------------------------------------------------------------


def enumerate_partitions(instance: MarketInstance) -> list[OptionSet]:
    """Every feasible partition of the instance's items into ordered options
    of size <= K_b with at most K_s bundles. Deterministic order."""
    import itertools as it

    ids = sorted(item.id for item in instance.items)
    kb, ks = instance.max_bundle_size, instance.max_bundles
    out: list[OptionSet] = []

    def rec(remaining: tuple[int, ...], acc: list[BundleOption], bundles: int):
        if not remaining:
            out.append(OptionSet(tuple(acc)))
            return
        head, rest = remaining[0], remaining[1:]
        for k in range(1, kb + 1):
            if k > 1 and bundles >= ks:
                break
            for others in it.combinations(rest, k - 1):
                rest_set = tuple(x for x in rest if x not in others)
                for perm in it.permutations((head,) + others):
                    acc.append(BundleOption(perm))
                    rec(rest_set, acc, bundles + (1 if k > 1 else 0))
                    acc.pop()

    rec(tuple(ids), [], 0)
    return out


def exhaustive_best_partition(
    instance: MarketInstance, cap: int = DEFAULT_DP_CAP
) -> tuple[OptionSet, float, list[tuple[OptionSet, float]]]:
    """Argmax of the exact value over all partitions (canonical orientation:
    for beta_p > 0 the best set has the smallest value). Ties break on the
    lexicographically smallest canonical encoding."""
    sign = canonical_sign(instance.customer.price_sensitivity)
    scored = []
    for part in enumerate_partitions(instance):
        val = exact_dp(instance, part, cap=cap).value()
        scored.append((part, val))
    top = max(sign * v for _, v in scored)
    ties = [p for p, v in scored if sign * v == top]
    best = min(ties, key=lambda p: p.canonical())
    best_val = next(v for p, v in scored if p is best)
    return best, best_val, scored
