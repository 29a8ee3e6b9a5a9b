"""Numerics used throughout the pricing machinery.

The principal-branch Lambert W function (scipy's lambertw) and an
overflow-safe W(e^x) (scipy's Wright omega), on scalars or arrays, and the
weighted log-sum-exp of a vector or of every row of a matrix. All three are
pure functions, safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import lambertw, wrightomega

from .errors import DimensionMismatch, DomainError

_INV_E = np.exp(-1.0)


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
    """W(e^x) computed without ever forming e^x, on a scalar or an array.

    One scipy.special.wrightomega call at every size (the Wright omega
    function equals W(e^x) on the real line; Lawrence, Corless & Jeffrey,
    ACM TOMS Alg. 917). It works element by element, so each value is the
    same bits whatever else shares its call. It handles arguments far beyond
    ln(float_max). The map is strictly increasing and nonexpansive, which
    the backward recursions rely on. Raises DomainError on a non-finite
    argument.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.isfinite(x_arr).all():
        raise DomainError("lambert_w_exp: argument must be finite")
    g = wrightomega(x_arr)
    return float(g) if x_arr.ndim == 0 else g


def log_sum_exp(values, weights=None):
    """ln sum_k w_k * e^{v_k} over the last axis, shift-stably (max first).

    A float for 1-D values, one value per row (bit-identical to the 1-D call
    on it) for 2-D; weights has the length of the last axis. Zero-weight
    columns are dropped, so their values may be huge or non-finite. Raises
    DomainError on an empty last axis, a negative weight or all-zero
    weights, and DimensionMismatch on misshapen input.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise DimensionMismatch(f"log_sum_exp: values must be 1-D or 2-D, got shape {v.shape}")
    w, mask = _lse_weights(weights, v.shape[-1])
    out = _lse_kernel(v, w, mask)
    return float(out) if v.ndim == 1 else out


def _lse_weights(weights, n: int):
    """Validated log_sum_exp weights for a last axis of length n: the
    positive weights and the mask of their columns (None when all are
    positive), for _lse_kernel. Raises as log_sum_exp does."""
    if n == 0:
        raise DomainError("log_sum_exp: empty input")
    if weights is None:
        return np.ones(n), None
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DimensionMismatch(f"last axis of length {n} does not match weights shape {w.shape}")
    if (w < 0).any():
        raise DomainError("log_sum_exp: negative weight")
    mask = w > 0
    if not mask.any():
        raise DomainError("log_sum_exp: all weights are zero")
    return (w, None) if mask.all() else (w[mask], mask)


def _lse_kernel(v: np.ndarray, w: np.ndarray, mask) -> np.ndarray:
    """log_sum_exp of the float array v (1-D or 2-D) with weights already
    validated by _lse_weights; no checks. Rows shorter than numpy's
    8-element pairwise block are reduced column by column on a
    Fortran-ordered copy, which sums each row in the same order as the
    1-D call and is faster on many short rows; longer rows are made
    C-contiguous, since from 8 columns up only that order matches."""
    if mask is not None:
        v = v[..., mask]
    v = np.asfortranarray(v) if v.shape[-1] < 8 else np.ascontiguousarray(v)
    m = v.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log((w * np.exp(v - m)).sum(axis=-1))
