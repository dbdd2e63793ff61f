"""Tests of smooth_series, the scalar random-walk Kalman filter that
smooths the feature channels.

_scalar_reference below implements the filter directly from the
defining recursion, one float at a time, and the randomized agreement
tests compare smooth_series against it channel by channel;
_matrix_step is the general predict/update step written with 1x1
matrices, a second oracle.
"""

import numpy as np
import pytest

from stormstack.errors import UsageError
from stormstack.features import smooth_series


def _scalar_reference(obs, q, r):
    # x0 = z0, P0 = r; then predict cov += q, gain = cov/(cov+r)
    out = [obs[0]]
    x = obs[0]
    cov = r
    for z in obs[1:]:
        cov = cov + q
        k = cov / (cov + r)
        x = x + k * (z - x)
        cov = (1.0 - k) * cov
        out.append(x)
    return out


def _matrix_step(x, P, z, F, H, Q, R):
    # predict x = F x, P = F P F^T + Q; update with K = P H^T (H P H^T + R)^-1
    x = F @ x
    P = F @ P @ F.T + Q
    K = P @ H.T @ np.linalg.inv(H @ P @ H.T + R)
    x = x + K @ (z - H @ x)
    P = (np.eye(len(x)) - K @ H) @ P
    return x, P


def test_smooth_series_validation():
    with pytest.raises(UsageError):
        smooth_series(np.empty((0, 3)), 0.1, 1.0)
    with pytest.raises(UsageError):
        smooth_series([[1.0]], -0.1, 1.0)
    with pytest.raises(UsageError):
        smooth_series([[1.0]], 0.1, 0.0)


def test_smooth_series_refuses_overflowing_noise():
    # q + 2r bounds every covariance; past float range the gain comes out
    # inf/inf or rounds to 0
    for q, r in ((1e308, 1e308), (0.0, 1e308), (float("inf"), 1.0), (float("nan"), 1.0)):
        with pytest.raises(UsageError, match="kalman.q"):
            smooth_series([[1.0], [2.0]], q, r)
    assert np.isfinite(smooth_series([[1.0], [2.0]], 1e307, 1e307)).all()


def test_smooth_series_fixtures():
    const = np.full((8, 3), 4.25)
    assert np.array_equal(smooth_series(const, 0.3, 2.0), const)
    out = smooth_series(np.array([[0.0], [1.0]]), 0.1, 1.0)
    assert abs(out[1, 0] - 11.0 / 21.0) < 1e-15
    assert out[0, 0] == 0.0


def test_smooth_series_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(100):
        steps = int(rng.integers(1, 51))
        channels = int(rng.integers(1, 5))
        q = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(0.01, 3.0))
        series = rng.standard_normal((steps, channels)) * 10.0
        got = smooth_series(series, q, r)
        for c in range(channels):
            ref = _scalar_reference(list(series[:, c]), q, r)
            assert np.abs(got[:, c] - ref).max() < 1e-12


def test_smooth_series_channels_are_independent():
    rng = np.random.default_rng(5)
    series = rng.standard_normal((20, 4))
    whole = smooth_series(series, 0.2, 0.7)
    for c in range(4):
        alone = smooth_series(series[:, c:c + 1], 0.2, 0.7)
        assert np.array_equal(whole[:, c:c + 1], alone)


def test_zero_process_noise_is_running_mean():
    # with q=0 the gain schedule is 1/2, 1/3, ... independent of r, so
    # the filter reduces to the running mean of the observations
    rng = np.random.default_rng(11)
    series = rng.standard_normal((30, 2)) * 5.0
    for r in (1e-6, 1.0, 1e6):
        out = smooth_series(series, 0.0, r)
        means = np.cumsum(series, axis=0) / np.arange(1, 31)[:, None]
        assert np.abs(out - means).max() < 1e-10


def test_zero_process_noise_never_amplifies_spread():
    rng = np.random.default_rng(17)
    for _ in range(20):
        series = rng.standard_normal((40, 3)) * rng.uniform(0.5, 20.0)
        out = smooth_series(series, 0.0, 1.0)
        assert (out.var(axis=0) <= series.var(axis=0) + 1e-12).all()


def test_smooth_series_equals_matrix_recursion():
    # composing predict/update with 1x1 matrices must land on the same
    # numbers as the vectorized special case
    rng = np.random.default_rng(23)
    obs = rng.standard_normal(25) * 3.0
    q, r = 0.4, 1.3
    fast = smooth_series(obs[:, None], q, r)
    one = np.eye(1)
    x, P = np.array([obs[0]]), r * one
    slow = [obs[0]]
    for z in obs[1:]:
        x, P = _matrix_step(x, P, np.array([z]), one, one, q * one, r * one)
        slow.append(x[0])
    assert np.abs(fast[:, 0] - slow).max() < 1e-12
