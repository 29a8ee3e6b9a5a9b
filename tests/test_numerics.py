import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uip.errors import DimensionMismatch, DomainError
import uip.numerics
from uip.numerics import lambert_w0, lambert_w_exp, log_sum_exp


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


def test_w_exp_value_does_not_depend_on_its_batch(wrightomega_calls):
    # one wrightomega call at every size, and each element's value is the
    # same bits in one call, in chunks and alone
    x = np.linspace(-50.0, 50.0, 4097)
    whole = lambert_w_exp(x)
    assert wrightomega_calls == [x.size]
    chunked = np.concatenate([lambert_w_exp(c) for c in np.array_split(x, 7)])
    scalar = np.array([lambert_w_exp(v) for v in x])
    assert np.array_equal(whole, chunked)
    assert np.array_equal(whole, scalar)


def test_w_exp_small_path_increasing_and_nonexpansive(wrightomega_calls):
    x = np.linspace(-30.0, 30.0, 100_000)
    g = np.concatenate([lambert_w_exp(c) for c in np.array_split(x, 100)])
    assert len(wrightomega_calls) == 100
    assert np.all(np.diff(g) > 0)
    assert np.all(np.diff(g) <= np.diff(x) * (1 + 1e-12))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("size", [None, 3, 1025])
def test_w_exp_both_paths_reject_nonfinite(bad, size):
    x = bad if size is None else np.concatenate([np.zeros(size - 1), [bad]])
    with pytest.raises(DomainError):
        lambert_w_exp(x)


def test_log_sum_exp_examples():
    assert log_sum_exp([0.0], [1.0]) == pytest.approx(0.0, abs=1e-15)
    assert log_sum_exp([0.0, np.log(3.0)], [0.5, 0.5]) == pytest.approx(np.log(2.0))
    assert log_sum_exp([1000.0, 1000.0], [1.0, 1.0]) == pytest.approx(1000.0 + np.log(2.0))
    # a 2-D call reduces every row and equals the 1-D call on it bit for bit
    rng = np.random.default_rng(3)
    values = rng.normal(scale=30.0, size=(6, 9))
    for weights in (None, rng.uniform(0.0, 1.0, 9), np.r_[0.0, rng.uniform(0.0, 1.0, 8)]):
        rows = log_sum_exp(values, weights)
        assert rows.shape == (6,)
        assert [float(r) for r in rows] == [log_sum_exp(v, weights) for v in values]


@pytest.mark.parametrize("width", range(1, 10))
def test_log_sum_exp_rows_equal_the_1d_call_at_every_width(width):
    # rows shorter than 8 reduce column-major, longer ones C-ordered; in
    # either order of the input each row equals the 1-D call bit for bit
    rng = np.random.default_rng(width)
    values = rng.normal(scale=30.0, size=(40, width))
    weights = [None, rng.uniform(0.1, 1.0, width)]
    if width > 1:
        weights.append(np.where(np.arange(width) == width // 2, 0.0, weights[1]))
    for w in weights:
        expect = [log_sum_exp(v, w).hex() for v in values]
        for layout in (values, np.asfortranarray(values)):
            assert [r.hex() for r in log_sum_exp(layout, w).tolist()] == expect


def test_log_sum_exp_ignores_zero_weight():
    assert log_sum_exp([5.0, 99.0], [1.0, 0.0]) == pytest.approx(5.0)
    assert log_sum_exp([0.0, np.inf], [1.0, 0.0]) == 0.0
    assert list(log_sum_exp([[0.0, np.inf], [2.0, np.nan]], [1.0, 0.0])) == [0.0, 2.0]


def test_log_sum_exp_domain_errors():
    with pytest.raises(DomainError):
        log_sum_exp([], [])
    with pytest.raises(DomainError):
        log_sum_exp([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        log_sum_exp([1.0], [-0.5])
    with pytest.raises(DomainError):
        log_sum_exp(np.zeros((2, 0)))
    with pytest.raises(DimensionMismatch):
        log_sum_exp(np.zeros((2, 3)), [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        log_sum_exp(np.zeros((2, 2, 2)))

