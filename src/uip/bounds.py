"""Revenue approximations for a fixed option set.

Bounds around the exact value V*:

* backward_upper  V^U   — each option priced as if alone; upper bound, and
                          the source of the homogeneous monotone trajectory.
* backward_lower  V^L   — each option priced as if all rivals stay offered;
                          lower bound.
* dfa             V^DFA — forward recursion of availability probabilities
                          under a fixed homogeneous monotone trajectory;
                          certified lower bound (tight for large demand).
* fluid                 — the classical deterministic relaxation (upper),
                          evaluated through its Lagrangian dual, so the
                          reported value is a certified bound by itself.
* static                — stationary-policy restriction (lower).

Values are reported in the instance's own sign convention (see pricing);
orientation-sensitive steps (the tau^U extremum over types, monotonicity
checks, the fluid/static maximizations) use the canonical orientation
internally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionMismatch, DomainError, ValidityWarning
from .model import MarketInstance, OptionSet
from .numerics import lambert_w_exp
from .pricing import canonical_sign

STATIC_MAX_ITER = 1500
STATIC_STARTS = 8
_RHO_FLOOR = 1e-9
# L-BFGS-B tolerances of the fluid dual, and the relative duality gap at
# which the fluid solve counts as converged
_FLUID_FTOL = 1e-15
_FLUID_GTOL = 1e-10
_FLUID_GAP_TOL = 1e-6


@dataclass
class PriceTrajectory:
    """Period-by-option price matrix; prices[t-1] applies when t periods
    remain. Flags certify homogeneity (type-independent by construction)
    and canonical monotonicity (non-increasing as t decreases, price at
    t=1 at or above salvage)."""

    prices: np.ndarray  # (T, N)
    homogeneous: bool
    monotone_ok: bool

    @property
    def horizon(self) -> int:
        return self.prices.shape[0]


def check_monotone(prices: np.ndarray, salvages: np.ndarray, beta_p: float) -> bool:
    """Canonical monotonicity: s*tau_t >= s*tau_{t-1} >= ... >= s*xi."""
    s = canonical_sign(beta_p)
    p = s * np.asarray(prices, dtype=float)
    if p.shape[0] == 0:
        return True
    if np.any(p[0] < s * np.asarray(salvages) - 1e-12):
        return False
    return bool(np.all(p[1:] >= p[:-1] - 1e-12))


@dataclass
class BoundResult:
    """A bound value with its certifying artifacts."""

    kind: str
    value: float
    per_option: Optional[np.ndarray] = None
    trajectory: Optional[PriceTrajectory] = None
    availability: Optional[np.ndarray] = None
    certificate: Optional[float] = None
    certified: bool = True
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "value": self.value}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.per_option is not None:
            out["per_option"] = [float(v) for v in self.per_option]
        return out


def _set_arrays(instance: MarketInstance, option_set: OptionSet):
    option_set.validate(instance)
    q = instance.customer.quality_matrix(option_set.options)
    xi = instance.salvage_vector(option_set.options)
    return q, xi, instance.customer.arrival_pmf, instance.customer.price_sensitivity


def singleton_upper_profiles(instance: MarketInstance, options, horizon=None):
    """Individual upper bounds r_{t,i} and the homogenized trajectory tau^U
    for an arbitrary collection of options, all recursions in parallel.

    Returns (r_final (M,), tau (T, M)). tau[t-1] is the extremal (over
    types) optimizer of the step that produced r_t from r_{t-1}, which is
    what makes the DFA exact at N=1 and keeps the trajectory monotone.
    """
    cust = instance.customer
    q = cust.quality_matrix(options)
    beta_p = cust.price_sensitivity
    pmf = cust.arrival_pmf
    mu = instance.arrival_prob
    T = instance.horizon if horizon is None else horizon
    by_id = instance.items_by_id()
    r = np.array([sum(by_id[i].salvage for i in o.items) for o in options], dtype=float)
    take_max = beta_p < 0
    tau = np.empty((T, len(options)))
    for t in range(1, T + 1):
        gam = lambert_w_exp(q + beta_p * r[None, :] - 1.0)  # (types, M)
        prices = r[None, :] - (1.0 + gam) / beta_p
        tau[t - 1] = prices.max(axis=0) if take_max else prices.min(axis=0)
        r = r + mu * (pmf @ (-gam / beta_p))
    return r, tau


def backward_upper(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Best-case availability bound: every option sold as if alone.

    Also yields the homogeneous price trajectory tau^U (the per-type
    optimizer extremum in the canonical direction), which is monotone and
    feeds the DFA.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    r, tau = singleton_upper_profiles(instance, option_set.options)
    traj = PriceTrajectory(
        prices=tau,
        homogeneous=True,
        monotone_ok=check_monotone(tau, xi, beta_p),
    )
    return BoundResult(
        kind="upper_backward", value=float(r.sum()), per_option=r, trajectory=traj
    )


def backward_lower(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Worst-case availability bound: selection probabilities always as if
    the full set were offered, priced by the closed form at the running
    individual values."""
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    mu = instance.arrival_prob
    T = instance.horizon
    n_types = q.shape[0]
    l = xi.astype(float).copy()
    for _ in range(T):
        incr = np.zeros_like(l)
        for w in range(n_types):
            score = q[w] + beta_p * l
            m = score.max()
            lse = m + math.log(np.sum(np.exp(score - m)))
            gam = lambert_w_exp(lse - 1.0)
            probs = (gam / (1.0 + gam)) * np.exp(score - m) / np.sum(np.exp(score - m))
            incr += pmf[w] * probs * (-(1.0 + gam) / beta_p)
        l = l + mu * incr
    return BoundResult(kind="lower_backward", value=float(l.sum()), per_option=l)


def dfa(
    instance: MarketInstance, option_set: OptionSet, trajectory: PriceTrajectory
) -> BoundResult:
    """Deterministic forward approximation under a fixed price trajectory.

    Availability enters fully for the own option and scaled by the rivals'
    availability; each step costs O(N) per type. Certified as a lower bound
    only for homogeneous, canonically monotone trajectories.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    mu = instance.arrival_prob
    T = instance.horizon
    n = len(option_set.options)
    if trajectory.prices.shape != (T, n):
        raise DimensionMismatch(
            f"trajectory shape {trajectory.prices.shape} != {(T, n)}"
        )
    certified = trajectory.homogeneous and trajectory.monotone_ok
    if not certified:
        warnings.warn(
            "trajectory is not homogeneous+monotone: DFA value returned "
            "but not certified as a bound",
            ValidityWarning,
        )
    avail = np.empty((T + 1, n))
    avail[T] = 1.0
    value = 0.0
    for t in range(T, 0, -1):
        a = avail[t]
        tau_t = trajectory.prices[t - 1]
        v = q + beta_p * tau_t[None, :]  # (types, N)
        ev = np.exp(v)
        base = 1.0 + ev @ a  # (types,)
        rho = ev / (base[:, None] + (1.0 - a)[None, :] * ev)
        sale = mu * (pmf @ rho)  # (N,)
        value += float(np.sum(a * sale * tau_t))
        avail[t - 1] = a * (1.0 - sale)
    value += float(avail[0] @ xi)
    return BoundResult(
        kind="dfa",
        value=value,
        trajectory=trajectory,
        availability=avail,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# fluid approximation (Lagrangian dual of the capacity rows)
# ---------------------------------------------------------------------------


def _fluid_objective(rho, q, pmf, beta_c, xi_c, mu_t):
    """Canonical fluid objective at choice probabilities rho (types, N);
    -inf outside the interior."""
    rho0 = 1.0 - rho.sum(axis=1)
    if np.any(rho0 <= 0.0) or np.any(rho <= 0.0):
        return -np.inf
    prices = (np.log(rho) - np.log(rho0)[:, None] - q) / beta_c
    return mu_t * float(pmf @ np.sum(rho * (prices - xi_c[None, :]), axis=1)) + xi_c.sum()


def _fluid_dual(nu, q, pmf, beta_c, xi_c, mu_t):
    """Dual function g(nu), its gradient, and the inner maximizer rho*(nu).

    For every type the inner problem is the single-arrival closed form at
    marginal cost xi + nu: revenue -Gamma/beta, choice Gamma/(1+Gamma)
    times the softmax of the scores.
    """
    score = q + beta_c * (xi_c + nu)[None, :]
    m = score.max(axis=1)
    e = np.exp(score - m[:, None])
    total = e.sum(axis=1)
    gam = lambert_w_exp(m + np.log(total) - 1.0)
    rho = (gam / ((1.0 + gam) * total))[:, None] * e
    g = xi_c.sum() + nu.sum() + mu_t * float(pmf @ (-gam / beta_c))
    return g, 1.0 - mu_t * (pmf @ rho), rho


def fluid(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Deterministic continuous relaxation, solved through its Lagrangian dual.

    The primal maximizes the expected fluid revenue over per-type choice
    probabilities rho subject to E_X[rho_i] <= 1/(mu T) for every option.
    Dualizing those N rows with multipliers nu >= 0 leaves one closed-form
    single-arrival problem per type; the smooth convex dual g(nu) is
    minimized by L-BFGS-B. By weak duality g(nu) bounds the fluid optimum,
    and hence the exact value, for every nu >= 0, so value is certified on
    its own even if the solver stops early. certificate is the duality gap
    against rho*(nu) with each option's column scaled down to feasibility
    (returned as extra["rho"]).
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    mu_t = instance.arrival_prob * instance.horizon
    if mu_t <= 0:
        raise DomainError("fluid approximation needs mu*T > 0")
    sign = canonical_sign(beta_p)
    args = (q, pmf, -abs(beta_p), sign * xi, mu_t)
    n = q.shape[1]
    res = minimize(
        lambda nu: _fluid_dual(nu, *args)[:2],
        np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * n,
        options={"ftol": _FLUID_FTOL, "gtol": _FLUID_GTOL},
    )
    g, _, rho = _fluid_dual(np.maximum(res.x, 0.0), *args)
    rho = rho / np.maximum(1.0, mu_t * (pmf @ rho))[None, :]
    gap = max(g - _fluid_objective(rho, *args), 0.0)
    return BoundResult(
        kind="fluid",
        value=float(sign * g),
        certificate=float(gap),
        certified=True,
        extra={"converged": gap <= _FLUID_GAP_TOL * max(1.0, abs(g)), "rho": rho},
    )


# ---------------------------------------------------------------------------
# static approximation (projected gradient, multistart)
# ---------------------------------------------------------------------------


def _static_objective_grad(rho, q, pmf, beta_t, xi_t, mu, T):
    rho0 = 1.0 - rho.sum(axis=1)
    if np.any(rho0 <= 0.0) or np.any(rho <= 0.0):
        return -np.inf, None
    prices = (np.log(rho) - np.log(rho0)[:, None] - q) / beta_t
    m = pmf @ rho  # (N,)
    surv = np.exp(T * np.log1p(-mu * m))  # (1 - mu m)^T
    surv_prev = np.exp((T - 1) * np.log1p(-mu * m))
    G = (1.0 - surv) / m
    Gp = (T * mu * surv_prev * m - (1.0 - surv)) / m**2
    R = pmf @ (rho * prices)  # (N,)
    f = float(G @ R + surv @ xi_t)
    Hp = -T * mu * surv_prev  # d surv / d m
    cross = rho @ G  # per type: sum_i G_i rho_iw
    grad = pmf[:, None] * (
        Gp[None, :] * R[None, :]
        + Hp[None, :] * xi_t[None, :]
        + G[None, :] * (prices + 1.0 / beta_t)
        + (cross / (beta_t * rho0))[:, None]
    )
    return f, grad


def _project_block(y, floor, total):
    """Project one type's row onto {x >= floor, sum x <= total} (euclidean)."""
    x = np.maximum(y, floor)
    if x.sum() <= total:
        return x
    lo_t, hi_t = 0.0, float(np.max(y) - floor + 1.0)
    for _ in range(100):
        mid = 0.5 * (lo_t + hi_t)
        s = np.maximum(y - mid, floor).sum()
        if s > total:
            lo_t = mid
        else:
            hi_t = mid
    return np.maximum(y - hi_t, floor)


def static(
    instance: MarketInstance,
    option_set: OptionSet,
    n_starts: int = STATIC_STARTS,
    max_iter: int = STATIC_MAX_ITER,
    seed: int = 0,
) -> BoundResult:
    """Stationary-policy value: time-invariant choice probabilities.

    Projected gradient ascent from several random starts; any feasible
    point's objective is a valid lower bound (it never exceeds the static
    optimum, which lower-bounds the exact value), so the best local optimum
    is returned without a certificate.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    mu = instance.arrival_prob
    T = instance.horizon
    if T < 1:
        raise DomainError("static approximation needs T >= 1")
    sign = canonical_sign(beta_p)
    beta_c, xi_c = -abs(beta_p), sign * xi
    n_types, n = q.shape
    cap = 1.0 - 1e-9
    rng = np.random.default_rng(seed)

    best_f = -np.inf
    best_rho = None
    for _ in range(n_starts):
        x = rng.uniform(0.05, 1.0, size=(n_types, n))
        x *= rng.uniform(0.2, 0.9) / np.maximum(x.sum(axis=1), 1e-12)[:, None]
        x = np.maximum(x, _RHO_FLOOR)
        f, grad = _static_objective_grad(x, q, pmf, beta_c, xi_c, mu, T)
        step = 0.5 / (1.0 + np.max(np.abs(grad)))
        for _ in range(max_iter):
            improved = False
            for _ in range(40):
                y = x + step * grad
                x_new = np.vstack(
                    [_project_block(y[w], _RHO_FLOOR, cap) for w in range(n_types)]
                )
                f_new, grad_new = _static_objective_grad(
                    x_new, q, pmf, beta_c, xi_c, mu, T
                )
                if f_new > f:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            move = float(np.max(np.abs(x_new - x)))
            x, f, grad = x_new, f_new, grad_new
            step *= 1.3
            if move < 1e-12:
                break
        if f > best_f:
            best_f, best_rho = f, x
    return BoundResult(
        kind="static", value=sign * best_f, certified=True, extra={"rho": best_rho}
    )


def bound_suite(instance: MarketInstance, option_set: OptionSet) -> dict[str, BoundResult]:
    """All four approximations (five results: DFA uses tau^U)."""
    upper = backward_upper(instance, option_set)
    return {
        "upper_backward": upper,
        "lower_backward": backward_lower(instance, option_set),
        "dfa": dfa(instance, option_set, upper.trajectory),
        "fluid": fluid(instance, option_set),
        "static": static(instance, option_set),
    }
