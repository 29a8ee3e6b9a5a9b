"""Scalar numerics used throughout the pricing machinery.

The principal-branch Lambert W function (scipy's lambertw), an
overflow-safe evaluation of W(e^x) (scipy's Wright omega on small arrays,
Newton's method on large ones), and a weighted log-sum-exp. All three
accept scalars or numpy arrays and are pure functions, so they are safe to
call from any number of concurrent workers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import lambertw, wrightomega

from .errors import DimensionMismatch, DomainError, SolverStalled

_INV_E = np.exp(-1.0)

# Largest array lambert_w_exp hands to wrightomega (see its docstring).
_W_SMALL_MAX = 1024
# Residual tolerance and iteration cap of lambert_w_exp's Newton path
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 64


def lambert_w0(z):
    """Principal branch of the Lambert W function, the inverse of w -> w*e^w.

    Accepts a scalar or array with entries >= -1/e (a 1e-15 slack absorbs
    rounding at the branch point, where -1 is returned). The real part of
    scipy.special.lambertw on branch 0; scipy gives nan at the float -1/e
    itself, so the clamped branch point is set to -1 explicitly.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.isnan(z_arr)):
        raise DomainError("lambert_w0: nan argument")
    if np.any(z_arr < -_INV_E - 1e-15):
        raise DomainError("lambert_w0: argument below -1/e")
    at_branch = z_arr <= -_INV_E  # clamp branch-point rounding noise
    w = np.where(at_branch, -1.0, lambertw(np.where(at_branch, 0.0, z_arr)).real)
    return float(w) if z_arr.ndim == 0 else w


def lambert_w_exp(x):
    """W(e^x) computed without ever forming e^x.

    Two regimes, chosen by element count. Up to _W_SMALL_MAX (1024)
    elements, scalars included: one scipy.special.wrightomega call (the
    Wright omega function equals W(e^x) on the real line; Lawrence, Corless
    & Jeffrey, ACM TOMS Alg. 917). Larger arrays: Newton's method on
    u + e^u = x for u = ln g, returning g = e^u. The crossover was measured
    on a 2-vCPU x86 host at x in [-3, 1.5]: wrightomega takes 0.4 us for a
    scalar and 5.5 us at 64 elements, where the Newton loop's numpy
    overhead costs 50-65 us; at 1024 elements it takes 0.6-0.9x Newton's
    time, at 4096 1.6x and at 16k 2x. Newton takes one more step after its
    residual |u + e^u - x| passes, because for x << 0 that absolute test
    passes while g = e^u is still off by up to 1e-13 relative; with the
    extra step the two paths agree to a few ulps (3.7e-15 on [-50, -10]).
    Newton raises SolverStalled if the residual test has not passed after
    _NEWTON_MAX_ITER steps. Both handle arguments far beyond
    ln(float_max). The map is
    strictly increasing and nonexpansive, which the backward recursions
    rely on.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("lambert_w_exp: argument must be finite")
    if x_arr.size <= _W_SMALL_MAX:
        g = wrightomega(x_arr)
        return float(g) if x_arr.ndim == 0 else g

    # h(u) = u + e^u - x is increasing and convex; starting where h >= 0
    # makes Newton decrease monotonically to the root without overshoot.
    u = np.where(x_arr >= 1.0, np.log(np.maximum(x_arr, 1.0)), x_arr)
    for _ in range(_NEWTON_MAX_ITER):
        eu = np.exp(u)
        h = u + eu - x_arr
        done = np.all(np.abs(h) <= _NEWTON_TOL * (1.0 + np.abs(x_arr)))
        u = u - h / (1.0 + eu)
        if done:
            return np.exp(u)
    raise SolverStalled(f"lambert_w_exp: Newton not converged after {_NEWTON_MAX_ITER} steps")


def log_sum_exp(values, weights=None):
    """ln sum_k w_k * e^{v_k}, computed shift-stably (max subtracted first).

    Zero-weight entries are ignored entirely, so their values may be huge or
    non-finite without polluting the result. Raises DomainError on empty
    input or when every weight is zero.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DomainError("log_sum_exp: empty input")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise DimensionMismatch(f"values shape {v.shape} != weights shape {w.shape}")
        if np.any(w < 0):
            raise DomainError("log_sum_exp: negative weight")
    mask = w > 0
    if not np.any(mask):
        raise DomainError("log_sum_exp: all weights are zero")
    v = v[mask]
    w = w[mask]
    m = np.max(v)
    return float(m + np.log(np.sum(w * np.exp(v - m))))


def weighted_lse_rows(values, weights):
    """Row-wise weighted log-sum-exp for a 2-D array (internal vector path).

    values has shape (rows, k), weights shape (k,) with at least one positive
    entry; returns shape (rows,).
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = np.max(v, axis=-1, keepdims=True)
    return (m[..., 0] + np.log(np.sum(w * np.exp(v - m), axis=-1)))
