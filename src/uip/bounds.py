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
* static                — stationary-policy restriction (lower), maximized
                          by L-BFGS-B over unconstrained MNL logits.

Values are reported in the instance's own sign convention (see pricing);
orientation-sensitive steps (the tau^U extremum over types, monotonicity
checks, the fluid/static maximizations) use the canonical orientation
internally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionMismatch, DomainError, ValidityWarning
from .model import MarketInstance, OptionSet
from .numerics import lambert_w_exp
from .pricing import canonical_sign

# L-BFGS-B tolerances of the fluid dual and the static bound, the relative
# duality gap at which the fluid solve counts as converged, and the relative
# logit-gradient size at which the static solve does (max(1, |f|) scale)
_LBFGSB_OPTIONS = {"ftol": 1e-15, "gtol": 1e-10}
_FLUID_GAP_TOL = 1e-6
_STATIC_GRAD_TOL = 1e-7


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


def monotone_columns(prices: np.ndarray, salvages: np.ndarray, beta_p: float) -> np.ndarray:
    """Canonical monotonicity per option: column i of a (T, N) trajectory
    passes iff s*tau_{T,i} >= ... >= s*tau_{1,i} >= s*xi_i (within 1e-12)."""
    s = canonical_sign(beta_p)
    p = s * np.asarray(prices, dtype=float)
    if p.shape[0] == 0:
        return np.ones(p.shape[1], dtype=bool)
    ok = p[0] >= s * np.asarray(salvages) - 1e-12
    return ok & np.all(p[1:] >= p[:-1] - 1e-12, axis=0)


def check_monotone(prices: np.ndarray, salvages: np.ndarray, beta_p: float) -> bool:
    """Canonical monotonicity of a whole trajectory: every column passes
    monotone_columns."""
    return bool(np.all(monotone_columns(prices, salvages, beta_p)))


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


def _closed_form_choice(score):
    """Single-arrival closed form for every row of score (types, N): Gamma =
    W(e^{lse(score) - 1}) per type and the optimal choice probabilities,
    Gamma/(1+Gamma) times the softmax of the scores."""
    m = score.max(axis=1)
    e = np.exp(score - m[:, None])
    total = e.sum(axis=1)
    gam = lambert_w_exp(m + np.log(total) - 1.0)
    return gam, (gam / ((1.0 + gam) * total))[:, None] * e


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
    l = xi.astype(float).copy()
    for _ in range(instance.horizon):
        gam, rho = _closed_form_choice(q + beta_p * l[None, :])
        l = l + mu * (pmf @ (rho * (-(1.0 + gam) / beta_p)[:, None]))
    return BoundResult(kind="lower_backward", value=float(l.sum()), per_option=l)


def _warn_uncertified() -> None:
    warnings.warn(
        "trajectory is not homogeneous+monotone: DFA value returned "
        "but not certified as a bound",
        ValidityWarning,
        stacklevel=3,
    )


def _dfa_forward(ev, tau, xi, mu_pmf):
    """Forward availability recursion of K option sets of one length N.

    ev[t-1, k] = exp(q_k + beta_p tau[t-1, k]) is (T, K, W, N), tau is
    (T, K, N), xi is (K, N) and mu_pmf = mu * arrival pmf is (W,). Returns
    the K values and the (T+1, K, N) availabilities. Every step uses only
    elementwise products and sums over one set's own rows, and the value is
    added up once per step, so a set's value is bit-identical whether it is
    evaluated alone or in any batch. The inputs are made C-contiguous first:
    the sums' rounding depends on the memory layout.
    """
    ev, tau, xi = (np.ascontiguousarray(x, dtype=float) for x in (ev, tau, xi))
    T, K, _, N = ev.shape
    avail = np.empty((T + 1, K, N))
    avail[T] = 1.0
    value = np.zeros(K)
    weight = mu_pmf[:, None]
    for t in range(T, 0, -1):
        a = avail[t]
        e = ev[t - 1]
        base = 1.0 + (e * a[:, None, :]).sum(axis=-1)  # (K, W)
        rho = e / (base[:, :, None] + (1.0 - a)[:, None, :] * e)
        sale = (weight * rho).sum(axis=-2)  # (K, N)
        value += (a * sale * tau[t - 1]).sum(axis=-1)
        avail[t - 1] = a * (1.0 - sale)
    value += (avail[0] * xi).sum(axis=-1)
    return value, avail


def dfa(
    instance: MarketInstance, option_set: OptionSet, trajectory: PriceTrajectory
) -> BoundResult:
    """Deterministic forward approximation under a fixed price trajectory.

    Availability enters fully for the own option and scaled by the rivals'
    availability; each step costs O(N) per type. Certified as a lower bound
    only for homogeneous, canonically monotone trajectories. This is the
    K = 1 case of the batched recursion that column generation runs on many
    option sets at once, and it gives the same value bit for bit.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    T = instance.horizon
    n = len(option_set.options)
    tau = trajectory.prices
    if tau.shape != (T, n):
        raise DimensionMismatch(f"trajectory shape {tau.shape} != {(T, n)}")
    certified = trajectory.homogeneous and trajectory.monotone_ok
    if not certified:
        _warn_uncertified()
    ev = np.exp(q + beta_p * tau[:, None, None, :])  # (T, 1, W, N)
    value, avail = _dfa_forward(
        ev, tau[:, None, :], xi[None, :], instance.arrival_prob * pmf
    )
    return BoundResult(
        kind="dfa",
        value=float(value[0]),
        trajectory=trajectory,
        availability=avail[:, 0, :],
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
    gam, rho = _closed_form_choice(q + beta_c * (xi_c + nu)[None, :])
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
        options=_LBFGSB_OPTIONS,
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
# static approximation (L-BFGS-B over MNL logits)
# ---------------------------------------------------------------------------


def _static_objective_grad(z, q, pmf, beta_t, xi_t, mu, T):
    """Canonical static objective f, its gradient and the choice
    probabilities rho at logits z (types, N).

    Type w chooses option i with rho_wi = e^{z_wi} / (1 + sum_j e^{z_wj}),
    so every z is a feasible point, and the stationary price that induces
    rho is (z - q) / beta. The gradient g = df/drho is mapped to the logits
    by the softmax chain rule, df/dz_w = rho_w * (g_w - <g_w, rho_w>).
    """
    top = np.maximum(z.max(axis=1), 0.0)
    e = np.exp(z - top[:, None])
    denom = np.exp(-top) + e.sum(axis=1)
    rho = e / denom[:, None]
    rho0 = np.exp(-top) / denom  # from the logits: 1 - sum(rho) can round to 0
    prices = (z - q) / beta_t
    m = pmf @ rho  # (N,)
    surv = np.exp(T * np.log1p(-mu * m))  # (1 - mu m)^T
    surv_prev = np.exp((T - 1) * np.log1p(-mu * m))
    G = (1.0 - surv) / m
    Gp = (T * mu * surv_prev * m - (1.0 - surv)) / m**2
    R = pmf @ (rho * prices)  # (N,)
    f = float(G @ R + surv @ xi_t)
    Hp = -T * mu * surv_prev  # d surv / d m
    cross = rho @ G  # per type: sum_i G_i rho_iw
    g = pmf[:, None] * (
        Gp[None, :] * R[None, :]
        + Hp[None, :] * xi_t[None, :]
        + G[None, :] * (prices + 1.0 / beta_t)
        + (cross / (beta_t * rho0))[:, None]
    )
    return f, rho * (g - np.sum(g * rho, axis=1)[:, None]), rho


def static(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Stationary-policy value: time-invariant choice probabilities.

    Each type's choice probabilities are an MNL of free logits, which maps
    R^{types x N} onto the interior of the feasible set, so the search is
    one unconstrained L-BFGS-B run. It starts from the closed-form
    single-arrival choice at marginal cost xi (the fluid dual's rho*(0)).
    Every logit point is feasible, and its objective never exceeds the
    static optimum, which lower-bounds the exact value; so value is a
    certified lower bound however the solver stops. extra holds the final
    rho, L-BFGS-B's iteration count, the largest absolute entry of the final
    logit gradient as grad_norm, and converged, a stationarity test:
    grad_norm <= _STATIC_GRAD_TOL * max(1, |f|). L-BFGS-B's own success
    flag is not used, since its line search can end abnormally at a point
    that is already stationary.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    if instance.horizon < 1:
        raise DomainError("static approximation needs T >= 1")
    sign = canonical_sign(beta_p)
    beta_c, xi_c = -abs(beta_p), sign * xi
    args = (q, pmf, beta_c, xi_c, instance.arrival_prob, instance.horizon)
    score = q + beta_c * xi_c[None, :]
    gam, _ = _closed_form_choice(score)

    def neg_objective(z):
        f, grad, _ = _static_objective_grad(z.reshape(q.shape), *args)
        return -f, -grad.ravel()

    res = minimize(
        neg_objective,
        (score - 1.0 - gam[:, None]).ravel(),
        jac=True,
        method="L-BFGS-B",
        options=_LBFGSB_OPTIONS,
    )
    f, grad, rho = _static_objective_grad(res.x.reshape(q.shape), *args)
    grad_norm = float(np.max(np.abs(grad)))
    return BoundResult(
        kind="static",
        value=sign * f,
        certified=True,
        extra={
            "rho": rho,
            "converged": bool(grad_norm <= _STATIC_GRAD_TOL * max(1.0, abs(f))),
            "iterations": int(res.nit),
            "grad_norm": grad_norm,
        },
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
