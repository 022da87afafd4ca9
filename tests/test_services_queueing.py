"""Unit and property tests for the queueing formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.services.queueing import (
    erlang_c,
    erlang_c_batch,
    mmc_sojourn_tail,
    response_time_quantile,
    utilization,
)


def test_utilization_basic():
    assert utilization(50.0, 10.0, 10.0) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        utilization(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        utilization(-1.0, 1.0, 1.0)


def test_erlang_c_known_value():
    # M/M/1: P(wait) = rho
    assert erlang_c(1, 0.5) == pytest.approx(0.5)
    # M/M/2 at a=1: classic result Pw = 1/3
    assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)


def test_erlang_c_limits():
    assert erlang_c(4, 0.0) == 0.0
    assert erlang_c(4, 4.0) == 1.0
    assert erlang_c(4, 10.0) == 1.0


def test_erlang_c_fractional_interpolates():
    low = erlang_c(4, 2.0)
    high = erlang_c(5, 2.0)
    mid = erlang_c(4.5, 2.0)
    assert min(low, high) <= mid <= max(low, high)


#: Server counts the engine hands ``erlang_c_batch``: whole, fractional
#: (timeshared cores) and below one, up to a socket's 18 cores.
_SERVER_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=18).map(float),
    st.floats(min_value=1.0, max_value=18.0),
    st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
)


@st.composite
def _servers_and_load(draw):
    """A server count and an offered load of zero, below, at or above it
    (at: the count itself or either integer neighbour), inf or NaN."""
    servers = draw(_SERVER_COUNTS)
    kind = draw(st.sampled_from(["zero", "below", "at", "above", "inf", "nan"]))
    if kind == "zero":
        return servers, 0.0
    if kind == "below":
        return servers, servers * draw(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
        )
    if kind == "at":
        return servers, float(
            draw(st.sampled_from([servers, math.floor(servers), math.ceil(servers)]))
        )
    if kind == "above":
        return servers, servers * draw(
            st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
        )
    return servers, math.inf if kind == "inf" else math.nan


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(_servers_and_load(), min_size=1, max_size=24))
def test_erlang_c_batch_is_the_scalar_bit_for_bit(pairs):
    """The batch evaluates every pair as ``erlang_c`` does, to the bit
    (NaN payloads included), with pairs of different counts side by side."""
    servers, offered = (np.array(column) for column in zip(*pairs))
    scalar = np.array([erlang_c(s, a) for s, a in pairs])
    batch = erlang_c_batch(servers, offered)
    np.testing.assert_array_equal(batch.view(np.int64), scalar.view(np.int64))
    # The engine's (E, S) matrices: same values, same shape.
    if len(pairs) % 2 == 0:
        matrix = erlang_c_batch(servers.reshape(2, -1), offered.reshape(2, -1))
        assert matrix.shape == (2, len(pairs) // 2)
        np.testing.assert_array_equal(
            matrix.ravel().view(np.int64), scalar.view(np.int64)
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_erlang_c_refuses_non_finite_servers(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        erlang_c(bad, 1.0)
    with pytest.raises(ConfigurationError, match="finite"):
        erlang_c_batch(np.array([4.0, bad]), np.array([1.0, 2.0]))


def test_sojourn_tail_at_zero_is_one():
    assert mmc_sojourn_tail(0.0, 5.0, 1.0, 10.0) == pytest.approx(1.0)


def test_sojourn_tail_unstable_returns_one():
    assert mmc_sojourn_tail(10.0, 20.0, 1.0, 10.0) == 1.0


def test_mm1_sojourn_matches_closed_form():
    """For M/M/1 the sojourn time is exactly Exp(mu - lambda)."""
    lam, mu = 3.0, 5.0
    for t in (0.1, 0.5, 1.0, 2.0):
        expected = math.exp(-(mu - lam) * t)
        assert mmc_sojourn_tail(t, lam, mu, 1.0) == pytest.approx(expected, rel=1e-6)


def test_quantile_inverts_tail():
    lam, mu, c = 8.0, 1.0, 12.0
    q99 = response_time_quantile(lam, mu, c, 0.99)
    assert mmc_sojourn_tail(q99, lam, mu, c) == pytest.approx(0.01, abs=1e-4)


def test_quantile_unstable_is_inf():
    assert response_time_quantile(20.0, 1.0, 10.0) == math.inf


def test_quantile_validation():
    with pytest.raises(ConfigurationError):
        response_time_quantile(1.0, 1.0, 2.0, quantile=1.0)


@settings(max_examples=60)
@given(
    rho=st.floats(min_value=0.05, max_value=0.9),
    servers=st.floats(min_value=1.0, max_value=30.0),
)
def test_quantile_monotone_in_load(rho, servers):
    """Higher load never reduces the p99 latency."""
    mu = 1.0
    lam_low = rho * servers * mu * 0.5
    lam_high = rho * servers * mu
    low = response_time_quantile(lam_low, mu, servers)
    high = response_time_quantile(lam_high, mu, servers)
    assert high >= low - 1e-9


@settings(max_examples=60)
@given(
    lam=st.floats(min_value=0.1, max_value=5.0),
    extra=st.floats(min_value=0.5, max_value=10.0),
)
def test_quantile_monotone_in_servers(lam, extra):
    """More servers never increase the p99 latency."""
    mu = 1.0
    servers_small = lam / mu + 0.5
    servers_big = servers_small + extra
    small = response_time_quantile(lam, mu, servers_small)
    big = response_time_quantile(lam, mu, servers_big)
    assert big <= small + 1e-9


@settings(max_examples=40)
@given(
    t=st.floats(min_value=0.0, max_value=50.0),
    lam=st.floats(min_value=0.0, max_value=9.0),
    cv2=st.floats(min_value=0.1, max_value=4.0),
)
def test_tail_is_probability(t, lam, cv2):
    value = mmc_sojourn_tail(t, lam, 1.0, 10.0, cv2=cv2)
    assert 0.0 <= value <= 1.0
