import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uip.errors import DomainError, SolverStalled
import uip.numerics
from uip.numerics import (
    _W_SMALL_MAX,
    lambert_w0,
    lambert_w_exp,
    log_sum_exp,
)


def bisect_w(z, lo=-1.0, hi=None, iters=200):
    """Independent oracle: bisection on w*e^w = z."""
    if hi is None:
        hi = max(1.0, np.log(max(z, 1.0)) + 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_w_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(np.e) - 1.0) < 1e-14


def test_w_omega_constant_vs_bisection():
    omega = bisect_w(1.0)
    assert abs(lambert_w0(1.0) - omega) <= 1e-12


def test_w_branch_point_and_domain():
    assert lambert_w0(-np.exp(-1.0)) == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(DomainError):
        lambert_w0(-np.exp(-1.0) - 1e-9)


def test_w_residual_and_monotonicity():
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [
            rng.uniform(-np.exp(-1.0), 2.0, 2000),
            np.exp(rng.uniform(0.0, np.log(1e6), 2000)),
        ]
    )
    w = lambert_w0(z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * (1.0 + np.abs(z)))
    order = np.argsort(z)
    assert np.all(np.diff(w[order]) >= -1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.36, max_value=1e6, allow_nan=False))
def test_w_residual_hypothesis(z):
    w = lambert_w0(z)
    assert abs(w * np.exp(w) - z) <= 1e-12 * (1.0 + abs(z))


def test_w_exp_trivial_points():
    assert abs(lambert_w_exp(1.0) - 1.0) < 1e-12
    omega = bisect_w(1.0)
    assert abs(lambert_w_exp(0.0) - omega) <= 1e-12


def test_w_exp_overflow_safe():
    g = lambert_w_exp(700.0)
    assert 690.0 < g < 700.0
    assert abs(g + np.log(g) - 700.0) <= 1e-12 * 701.0
    # far beyond float overflow of e^x
    g = lambert_w_exp(5e5)
    assert abs(g + np.log(g) - 5e5) <= 1e-12 * (1 + 5e5)


def test_w_exp_agrees_with_w():
    rng = np.random.default_rng(1)
    z = np.exp(rng.uniform(np.log(1e-6), np.log(700.0), 3000))
    assert np.max(np.abs(lambert_w_exp(np.log(z)) - lambert_w0(z))) < 1e-10


def test_w_exp_increasing_and_nonexpansive():
    rng = np.random.default_rng(2)
    a = rng.uniform(-50, 50, 4000)
    b = a + rng.uniform(1e-6, 10.0, 4000)
    ga, gb = lambert_w_exp(a), lambert_w_exp(b)
    assert np.all(gb - ga > 0)
    assert np.all(gb - ga <= (b - a) * (1 + 1e-12))


def test_w_exp_rejects_nonfinite():
    with pytest.raises(DomainError):
        lambert_w_exp(np.inf)


def test_w_exp_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(uip.numerics, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverStalled):
        lambert_w_exp(np.linspace(-3.0, 30.0, _W_SMALL_MAX + 1))


@pytest.fixture
def wrightomega_calls(monkeypatch):
    """Count the calls lambert_w_exp makes to scipy's wrightomega."""
    calls = []
    real = uip.numerics.wrightomega

    def counted(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(uip.numerics, "wrightomega", counted)
    return calls


def test_w_exp_small_and_large_paths_agree(wrightomega_calls):
    # the same points through wrightomega (arrays at and below the crossover)
    # and through the Newton loop (one element above it). An array entirely
    # below -10 makes Newton's absolute residual test pass early, so it gets
    # its own case.
    for lo, hi, rtol in ((-8.0, 50.0, 1e-14), (-50.0, -10.0, 5e-15)):
        wrightomega_calls.clear()
        x = np.random.default_rng(3).uniform(lo, hi, _W_SMALL_MAX + 1)
        small = np.concatenate([lambert_w_exp(x[:-1]), lambert_w_exp(x[-1:])])
        assert wrightomega_calls == [_W_SMALL_MAX, 1]
        large = lambert_w_exp(x)
        assert wrightomega_calls == [_W_SMALL_MAX, 1]
        assert np.max(np.abs(small - large) / large) <= rtol


def test_w_exp_small_path_increasing_and_nonexpansive(wrightomega_calls):
    x = np.linspace(-30.0, 30.0, 100_000)
    g = np.concatenate([lambert_w_exp(c) for c in np.array_split(x, 100)])
    assert len(wrightomega_calls) == 100
    assert np.all(np.diff(g) > 0)
    assert np.all(np.diff(g) <= np.diff(x) * (1 + 1e-12))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("size", [None, 3, _W_SMALL_MAX + 1])
def test_w_exp_both_paths_reject_nonfinite(bad, size):
    x = bad if size is None else np.concatenate([np.zeros(size - 1), [bad]])
    with pytest.raises(DomainError):
        lambert_w_exp(x)


def test_log_sum_exp_examples():
    assert log_sum_exp([0.0], [1.0]) == pytest.approx(0.0, abs=1e-15)
    assert log_sum_exp([0.0, np.log(3.0)], [0.5, 0.5]) == pytest.approx(np.log(2.0))
    assert log_sum_exp([1000.0, 1000.0], [1.0, 1.0]) == pytest.approx(1000.0 + np.log(2.0))


def test_log_sum_exp_ignores_zero_weight():
    assert log_sum_exp([5.0, 99.0], [1.0, 0.0]) == pytest.approx(5.0)
    assert np.isfinite(log_sum_exp([0.0, np.inf], [1.0, 0.0])) is not False


def test_log_sum_exp_domain_errors():
    with pytest.raises(DomainError):
        log_sum_exp([], [])
    with pytest.raises(DomainError):
        log_sum_exp([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        log_sum_exp([1.0], [-0.5])

