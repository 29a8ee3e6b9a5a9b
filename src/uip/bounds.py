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
                          by BFGS over unconstrained MNL logits.

Both smooth solves are written here, on numpy alone: projected Newton with
an active set for the fluid dual (nu >= 0) and dense BFGS with a
backtracking line search for the static logits. Neither loads
scipy.optimize.

Values are reported in the instance's own sign convention (see pricing);
orientation-sensitive steps (monotonicity checks, the fluid/static
maximizations) use the canonical orientation internally. An empty option
set is worth 0 under every approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, ValidityWarning
from .model import MarketInstance, OptionSet
from .numerics import lambert_w_exp
from .pricing import _closed_form_choice, canonical_sign

# The relative duality gap at which the fluid solve counts as converged, and
# the relative logit-gradient size at which the static solve does
# (max(1, |f|) scale)
_FLUID_GAP_TOL = 1e-6
_STATIC_GRAD_TOL = 1e-7
# Solver stops. The fluid Newton iteration ends when the largest entry of the
# projected dual gradient is at most _FLUID_PG_TOL, the static BFGS iteration
# when the largest entry of the logit gradient is at most _STATIC_GTOL. Either
# also ends at its iteration cap; after a step that changed its objective by
# at most _FTOL relative (L-BFGS-B's ftol rule); after a unit step whose
# first-order change is at most that much, which is taken without a test
# because rounding hides so small a change; and when no step passes the
# Armijo test (gain >= _ARMIJO times the first-order gain) within
# _MAX_HALVINGS halvings. A static trial step moves no logit by more than
# _STATIC_MAX_STEP.
_FLUID_PG_TOL = 1e-13
_FLUID_MAX_ITER = 50
_STATIC_GTOL = 1e-10
_STATIC_MAX_ITER = 1000
_STATIC_MAX_STEP = 4.0
_FTOL = 1e-15
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass
class PriceTrajectory:
    """Period-by-option price matrix; prices[t-1] applies when t periods
    remain. A (T, N) matrix is homogeneous (type-independent) by its shape;
    the flag certifies canonical monotonicity (non-increasing as t
    decreases, price at t=1 at or above salvage)."""

    prices: np.ndarray  # (T, N)
    monotone_ok: bool


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


def _type_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_w weights[w] * x[w] over the leading (type) axis of x, added in
    type order. Each entry of the result depends on its own column alone,
    so a value is the same bits wherever its column sits and however many
    columns there are; pmf @ x (BLAS gemv) and numpy's pairwise sum of a
    single column over 8 or more types do not give that."""
    total = weights[0] * x[0]
    for w in range(1, weights.size):
        total = total + weights[w] * x[w]
    return total


def _upper_profiles(instance: MarketInstance, q: np.ndarray, xi: np.ndarray):
    """singleton_upper_profiles on the pool's quality matrix q (types, M)
    and salvages xi (M,), with one recursion per distinct column.

    Columns of q with their salvage that are equal (np.unique over the rows
    of [q; xi]) run one recursion, and r and tau are expanded back through
    the inverse index. Every step is elementwise per column, and the type
    sum is _type_sum, so a column's values equal its recursion run alone,
    bit for bit, wherever it sits in the pool and whatever the pool's size.
    """
    cust = instance.customer
    beta_p = cust.price_sensitivity
    pmf = cust.arrival_pmf
    mu = instance.arrival_prob
    cols, inverse = np.unique(np.vstack([q, xi]), axis=1, return_inverse=True)
    q, r = cols[:-1], cols[-1]
    tau = np.empty((instance.horizon, r.size))
    for t in range(1, instance.horizon + 1):
        gam = lambert_w_exp(q + beta_p * r[None, :] - 1.0)  # (types, columns)
        tau[t - 1] = r - (1.0 + gam.max(axis=0)) / beta_p
        r = r + mu * _type_sum(pmf, -gam / beta_p)
    inverse = inverse.reshape(-1)
    return r[inverse], tau[:, inverse]


def singleton_upper_profiles(instance: MarketInstance, options):
    """Individual upper bounds r_{t,i} and the homogenized trajectory tau^U
    for an arbitrary collection of options, all recursions in parallel and
    one per distinct (quality column, salvage) pair (_upper_profiles); an
    option's values do not depend on its position in the collection.

    Returns (r_final (M,), tau (T, M)). tau[t-1] is the extremal (over
    types) optimizer of the step that produced r_t from r_{t-1}, which is
    what makes the DFA exact at N=1 and keeps the trajectory monotone. The
    per-type optimizer is r - (1 + Gamma_w)/beta_p, and each rounded step of
    g -> r - (1 + g)/beta_p (add, divide, subtract) is monotone in g: non-
    decreasing for beta_p < 0, non-increasing for beta_p > 0. So the
    canonical extremum over types, the largest price for beta_p < 0 and the
    smallest for beta_p > 0, is the price at the largest Gamma, bit for bit.
    """
    q = instance.customer.quality_matrix(options)
    return _upper_profiles(instance, q, instance.salvage_vector(options))


def backward_upper(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Best-case availability bound: every option sold as if alone.

    Also yields the homogeneous price trajectory tau^U (the per-type
    optimizer extremum in the canonical direction), which is monotone and
    feeds the DFA.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    r, tau = _upper_profiles(instance, q, xi)
    traj = PriceTrajectory(prices=tau, monotone_ok=check_monotone(tau, xi, beta_p))
    return BoundResult(
        kind="upper_backward", value=float(r.sum()), per_option=r, trajectory=traj
    )


def backward_lower(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Worst-case availability bound: selection probabilities always as if
    the full set were offered, priced by the closed form at the running
    individual values."""
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    mu = instance.arrival_prob
    if xi.size == 0:
        return BoundResult(kind="lower_backward", value=0.0, per_option=xi)
    l = xi.astype(float).copy()
    for _ in range(instance.horizon):
        gam, rho = _closed_form_choice(q + beta_p * l[None, :])
        l = l + mu * (pmf @ (rho * (-(1.0 + gam) / beta_p)[:, None]))
    return BoundResult(kind="lower_backward", value=float(l.sum()), per_option=l)


def _warn_uncertified() -> None:
    warnings.warn(
        "trajectory is not monotone: DFA value returned but not certified as a bound",
        ValidityWarning,
        stacklevel=3,
    )


def _dfa_forward(ev, tau, xi, mu_pmf):
    """Forward availability recursion of K option sets of one length N.

    ev[t-1, k] = exp(q_k + beta_p tau[t-1, k]) is (T, K, W, N), tau is
    (T, K, N), xi is (K, N) and mu_pmf = mu * arrival pmf is (W,). Returns
    the K values and the (T+1, K, N) availabilities. Every step uses only
    elementwise products, sums over one set's own options and _type_sum
    over the types, and the value is added up once per step, so a set's
    value is bit-identical whether it is evaluated alone or in any batch.
    It also sums trailing pad columns of zero mass (ev = tau = xi = 0),
    which stay fully available: a set padded to N < 8 keeps its value and
    availabilities bit for bit, since numpy adds a row shorter than its
    8-element pairwise block in index order and the pad's exact zeros come
    last. The inputs are made C-contiguous first: the option sums' rounding
    depends on the memory layout.
    """
    ev, tau, xi = (np.ascontiguousarray(x, dtype=float) for x in (ev, tau, xi))
    T, K, _, N = ev.shape
    avail = np.empty((T + 1, K, N))
    avail[T] = 1.0
    value = np.zeros(K)
    for t in range(T, 0, -1):
        a = avail[t]
        e = ev[t - 1]
        base = 1.0 + (e * a[:, None, :]).sum(axis=-1)  # (K, W)
        rho = e / (base[:, :, None] + (1.0 - a)[:, None, :] * e)
        sale = _type_sum(mu_pmf, rho.transpose(1, 0, 2))  # (K, N)
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
    only for canonically monotone trajectories (every (T, N) price matrix
    is homogeneous). This is the K = 1 case of the batched recursion that
    column generation runs on many option sets at once, and it gives the
    same value bit for bit.
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    T = instance.horizon
    n = len(option_set.options)
    tau = trajectory.prices
    if tau.shape != (T, n):
        raise DimensionMismatch(f"trajectory shape {tau.shape} != {(T, n)}")
    certified = trajectory.monotone_ok
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
    """Dual function g(nu), its gradient, the inner maximizer rho*(nu) and
    the per-type Gamma.

    For every type the inner problem is the single-arrival closed form at
    marginal cost xi + nu: revenue -Gamma/beta, choice Gamma/(1+Gamma)
    times the softmax of the scores.
    """
    gam, rho = _closed_form_choice(q + beta_c * (xi_c + nu)[None, :])
    g = xi_c.sum() + nu.sum() + mu_t * float(pmf @ (-gam / beta_c))
    return g, 1.0 - mu_t * (pmf @ rho), rho, gam


def _fluid_hessian(rho, gam, pmf, beta_c, mu_t):
    """Hessian of g at the point where _fluid_dual gave rho and gam:
    mu_t |beta| sum_w pmf_w (diag(rho_w) - (2+Gamma_w)/(1+Gamma_w) rho_w rho_w^T).
    It is positive definite, since sum_i rho_wi = Gamma_w/(1+Gamma_w) and
    Gamma(2+Gamma)/(1+Gamma)^2 < 1."""
    c = pmf * (2.0 + gam) / (1.0 + gam)
    return mu_t * abs(beta_c) * (np.diag(pmf @ rho) - (c[:, None] * rho).T @ rho)


def _fluid_newton(args):
    """Minimize g over nu >= 0 by projected Newton with an active set
    (Bertsekas, SIAM J. Control Optim. 20, 1982), from nu = 0.

    Coordinates at (or within the projected-gradient size of) zero whose
    gradient is positive are active: they take a gradient step, the free
    ones a Newton step on their block of the Hessian, and the step is
    halved along the projection arc until it passes the Armijo test. Stops
    by the rules stated with the solver constants. Returns (g, rho, Newton
    steps taken) at the last iterate.
    """
    q, pmf, beta_c, _, mu_t = args
    n = q.shape[1]
    nu = np.zeros(n)
    g, grad, rho, gam = _fluid_dual(nu, *args)
    steps = 0
    while steps < _FLUID_MAX_ITER:
        pg = nu - np.maximum(nu - grad, 0.0)
        size = float(np.max(np.abs(pg)))
        if size <= _FLUID_PG_TOL:
            break
        hess = _fluid_hessian(rho, gam, pmf, beta_c, mu_t)
        active = (nu <= size) & (grad > 0.0)
        free = ~active
        d = np.zeros(n)
        d[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        d[active] = -grad[active]
        newton_decrease = -(grad[free] @ d[free])
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.maximum(nu + alpha * d, 0.0)
            g_t, grad_t, rho_t, gam_t = _fluid_dual(trial, *args)
            want = alpha * newton_decrease + grad[active] @ (nu - trial)[active]
            if g - g_t >= _ARMIJO * want or (alpha == 1.0 and want <= _FTOL * max(abs(g), 1.0)):
                break
            alpha *= 0.5
        else:
            break
        steps += 1
        stalled = g - g_t <= _FTOL * max(abs(g), abs(g_t), 1.0)
        nu, g, grad, rho, gam = trial, g_t, grad_t, rho_t, gam_t
        if stalled:
            break
    return g, rho, steps


def fluid(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Deterministic continuous relaxation, solved through its Lagrangian dual.

    The primal maximizes the expected fluid revenue over per-type choice
    probabilities rho subject to E_X[rho_i] <= 1/(mu T) for every option.
    Dualizing those N rows with multipliers nu >= 0 leaves one closed-form
    single-arrival problem per type; the smooth, strictly convex dual g(nu)
    is minimized by projected Newton on its closed-form Hessian
    (_fluid_newton). By weak duality g(nu) bounds the fluid optimum, and
    hence the exact value, for every nu >= 0, so value is certified on its
    own even if the solver stops early. certificate is the duality gap
    against rho*(nu) with each option's column scaled down to feasibility
    (returned as extra["rho"]); extra also holds the Newton steps taken as
    iterations and converged, certificate <= _FLUID_GAP_TOL * max(1, |g|).
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    mu_t = instance.arrival_prob * instance.horizon
    if mu_t <= 0:
        raise DomainError("fluid approximation needs mu*T > 0")
    n = q.shape[1]
    if n == 0:
        return BoundResult(kind="fluid", value=0.0, certificate=0.0,
                           extra={"converged": True, "rho": np.zeros_like(q),
                                  "iterations": 0})
    sign = canonical_sign(beta_p)
    args = (q, pmf, -abs(beta_p), sign * xi, mu_t)
    g, rho, steps = _fluid_newton(args)
    rho = rho / np.maximum(1.0, mu_t * (pmf @ rho))[None, :]
    gap = max(g - _fluid_objective(rho, *args), 0.0)
    return BoundResult(
        kind="fluid",
        value=float(sign * g),
        certificate=float(gap),
        certified=True,
        extra={"converged": bool(gap <= _FLUID_GAP_TOL * max(1.0, abs(g))), "rho": rho,
               "iterations": steps},
    )


# ---------------------------------------------------------------------------
# static approximation (BFGS over MNL logits)
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


def _static_bfgs(z0, args):
    """Maximize the static objective over the logits from z0 by dense BFGS
    (Nocedal & Wright, Numerical Optimization, 2006, Alg. 6.1) on the
    flattened logits, with a backtracking Armijo line search from the unit
    step, shortened so that no logit moves by more than _STATIC_MAX_STEP:
    longer steps carried logits onto the flat tail where a choice
    probability underflows, and there the search can stall or settle on a
    worse stationary point. The gradient of type w's logits carries the
    factor pmf_w, so the inverse-Hessian estimate starts as D = diag(1/pmf_w)
    (0 for a zero-weight type, whose logits do not enter f), is rescaled by
    s'y/y'Dy at its first update, skips an update whose curvature s'y is not
    positive and is reset to D when its direction is not an ascent. Stops
    by the rules stated with the solver constants. Returns (f, flattened
    logit gradient, rho, iterations) at the last iterate.
    """
    shape = z0.shape
    weights = np.repeat(args[1], shape[1])  # pmf_w for each logit
    start = np.diag(np.divide(1.0, weights, out=np.zeros_like(weights), where=weights > 0.0))

    def evaluate(x):
        f, grad, rho = _static_objective_grad(x.reshape(shape), *args)
        return f, grad.ravel(), rho

    x = z0.ravel()
    f, grad, rho = evaluate(x)
    inv_h = start
    it = 0
    while it < _STATIC_MAX_ITER and np.max(np.abs(grad)) > _STATIC_GTOL:
        d = inv_h @ grad
        slope = grad @ d
        if not slope > 0.0:
            inv_h = start
            d = inv_h @ grad
            slope = grad @ d
        alpha = min(1.0, _STATIC_MAX_STEP / np.max(np.abs(d)))
        for _ in range(_MAX_HALVINGS):
            x_t = x + alpha * d
            f_t, grad_t, rho_t = evaluate(x_t)
            want = alpha * slope
            if f_t - f >= _ARMIJO * want or (alpha == 1.0 and want <= _FTOL * max(abs(f), 1.0)):
                break
            alpha *= 0.5
        else:
            break
        it += 1
        stalled = f_t - f <= _FTOL * max(abs(f), abs(f_t), 1.0)
        s, y = x_t - x, grad - grad_t  # step and change of the gradient of -f
        x, f, grad, rho = x_t, f_t, grad_t, rho_t
        if stalled:
            break
        sy = s @ y
        if sy > 0.0:
            if inv_h is start:
                inv_h = (sy / (y @ start @ y)) * start
            hy = inv_h @ y
            inv_h = (inv_h + ((sy + y @ hy) / sy**2) * np.outer(s, s)
                     - (np.outer(hy, s) + np.outer(s, hy)) / sy)
    return f, grad, rho, it


def static(instance: MarketInstance, option_set: OptionSet) -> BoundResult:
    """Stationary-policy value: time-invariant choice probabilities.

    Each type's choice probabilities are an MNL of free logits, which maps
    R^{types x N} onto the interior of the feasible set, so the search is
    one unconstrained BFGS run (_static_bfgs). It starts from the
    closed-form single-arrival choice at marginal cost xi (the fluid dual's
    rho*(0)). Every logit point is feasible, and its objective never exceeds
    the static optimum, which lower-bounds the exact value; so value is a
    certified lower bound however the solver stops. extra holds the final
    rho, the BFGS iteration count, the largest absolute entry of the final
    logit gradient as grad_norm, and converged, a stationarity test:
    grad_norm <= _STATIC_GRAD_TOL * max(1, |f|).
    """
    q, xi, pmf, beta_p = _set_arrays(instance, option_set)
    if instance.horizon < 1:
        raise DomainError("static approximation needs T >= 1")
    if q.shape[1] == 0:
        extra = {"rho": np.zeros_like(q), "converged": True, "iterations": 0, "grad_norm": 0.0}
        return BoundResult(kind="static", value=0.0, extra=extra)
    sign = canonical_sign(beta_p)
    beta_c, xi_c = -abs(beta_p), sign * xi
    args = (q, pmf, beta_c, xi_c, instance.arrival_prob, instance.horizon)
    score = q + beta_c * xi_c[None, :]
    gam, _ = _closed_form_choice(score)
    f, grad, rho, iterations = _static_bfgs(score - 1.0 - gam[:, None], args)
    grad_norm = float(np.max(np.abs(grad)))
    return BoundResult(
        kind="static",
        value=sign * f,
        certified=True,
        extra={
            "rho": rho,
            "converged": bool(grad_norm <= _STATIC_GRAD_TOL * max(1.0, abs(f))),
            "iterations": iterations,
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
