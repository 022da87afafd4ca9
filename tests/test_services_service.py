"""Unit and property tests for the per-interval service dynamics of the
frozen scalar server (``tests/oracles/colocation_reference.py``), the
reference the engine's queueing step is pinned to."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.services.profiles import get_profile
from tests.oracles.colocation_reference import LCService, SocketContention


def _service(name="masstree", noise=0.0, seed=0):
    return LCService(
        get_profile(name),
        max_frequency_ghz=2.0,
        rng=np.random.default_rng(seed),
        latency_noise_std=noise,
    )


def test_latency_flat_then_knee():
    service = _service()
    low = service.step(200.0, cores=18, frequency_ghz=2.0).p99_ms
    service.reset()
    mid = service.step(1200.0, cores=18, frequency_ghz=2.0).p99_ms
    service.reset()
    high = service.step(2200.0, cores=18, frequency_ghz=2.0).p99_ms
    assert low <= mid <= high
    assert high > 3.0 * low  # the knee is sharp


def test_overload_latency_grows_over_time():
    """Sustained overload accumulates backlog -> runaway latency."""
    service = _service()
    latencies = [
        service.step(4000.0, cores=18, frequency_ghz=2.0).p99_ms for _ in range(5)
    ]
    assert latencies[-1] > latencies[0]
    assert service.backlog > 0


def test_backlog_drains_after_overload():
    service = _service()
    for _ in range(3):
        service.step(4000.0, cores=18, frequency_ghz=2.0)
    assert service.backlog > 0
    for _ in range(10):
        service.step(200.0, cores=18, frequency_ghz=2.0)
    assert service.backlog == 0.0


def test_backlog_capped():
    service = _service()
    for _ in range(100):
        result = service.step(50000.0, cores=1, frequency_ghz=1.2)
    assert result.backlog <= LCService.MAX_BACKLOG_SECONDS * result.capacity_rps + 1


def test_lower_frequency_increases_latency():
    fast = _service().step(1000.0, cores=12, frequency_ghz=2.0).p99_ms
    slow = _service().step(1000.0, cores=12, frequency_ghz=1.2).p99_ms
    assert slow > fast


def test_contention_inflates_latency():
    clean = _service().step(1000.0, cores=12, frequency_ghz=2.0).p99_ms
    contended = _service().step(
        1000.0,
        cores=12,
        frequency_ghz=2.0,
        contention=SocketContention(
            inflation=1.5, miss_inflation=1.3, membw_utilization=0.9, llc_overcommit=1.2
        ),
    ).p99_ms
    assert contended > clean


def test_result_ground_truth_fields():
    service = _service()
    result = service.step(1000.0, cores=12, frequency_ghz=1.8)
    assert result.throughput_rps == pytest.approx(1000.0)
    assert result.instructions == pytest.approx(
        1000.0 * get_profile("masstree").instr_per_req_m * 1e6
    )
    assert 0.0 < result.utilization <= 1.0
    assert result.membw_gbps > 0
    assert result.frequency_ghz == 1.8
    assert result.qos_target_ms == get_profile("masstree").qos_target_ms


def test_qos_met_and_tardiness():
    service = _service()
    result = service.step(100.0, cores=18, frequency_ghz=2.0)
    assert result.qos_met
    assert result.tardiness < 1.0


def test_step_validation():
    service = _service()
    with pytest.raises(ConfigurationError):
        service.step(-1.0, cores=4, frequency_ghz=2.0)
    with pytest.raises(ConfigurationError):
        service.step(1.0, cores=0, frequency_ghz=2.0)
    with pytest.raises(ConfigurationError):
        service.step(1.0, cores=4, frequency_ghz=2.0, interval_s=0.0)


def test_latency_noise_is_multiplicative_lognormal():
    noisy = LCService(
        get_profile("masstree"),
        max_frequency_ghz=2.0,
        rng=np.random.default_rng(3),
        latency_noise_std=0.1,
    )
    values = [noisy.step(500.0, cores=18, frequency_ghz=2.0).p99_ms for _ in range(200)]
    assert np.std(values) > 0
    ratio = max(values) / min(values)
    assert 1.1 < ratio < 3.0


@settings(max_examples=40, deadline=None)
@given(
    arrival=st.floats(min_value=10.0, max_value=2000.0),
    cores=st.integers(min_value=2, max_value=18),
    freq=st.sampled_from([1.2, 1.5, 1.8, 2.0]),
)
def test_latency_positive_and_finite_when_stable(arrival, cores, freq):
    service = _service()
    result = service.step(arrival, cores=cores, frequency_ghz=freq)
    assert result.p99_ms > 0
    assert np.isfinite(result.p99_ms)


@settings(max_examples=30, deadline=None)
@given(
    arrival=st.floats(min_value=100.0, max_value=2000.0),
    cores=st.integers(min_value=4, max_value=17),
)
def test_more_cores_never_hurt(arrival, cores):
    smaller = _service().step(arrival, cores=cores, frequency_ghz=2.0).p99_ms
    bigger = _service().step(arrival, cores=cores + 1, frequency_ghz=2.0).p99_ms
    assert bigger <= smaller * 1.001
