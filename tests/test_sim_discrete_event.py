"""Tests for the discrete-event simulator, including cross-validation of
the analytic queueing formulas against per-request ground truth."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.services.profiles import get_profile
from repro.services.queueing import response_time_quantile
from repro.sim.discrete_event import (
    MultiServerQueue,
    deterministic_service,
    exponential_service,
    lognormal_service,
    simulate_service_point,
)


def test_samplers_have_requested_means(rng):
    for factory in (exponential_service, deterministic_service):
        sampler = factory(0.05)
        samples = [sampler(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.05, rel=0.1)
    sampler = lognormal_service(0.05, cv2=2.0)
    samples = np.array([sampler(rng) for _ in range(20000)])
    assert samples.mean() == pytest.approx(0.05, rel=0.1)
    assert (samples.std() / samples.mean()) ** 2 == pytest.approx(2.0, rel=0.3)


def test_sampler_validation():
    with pytest.raises(ConfigurationError):
        exponential_service(0.0)
    with pytest.raises(ConfigurationError):
        lognormal_service(1.0, 0.0)


def test_mm1_matches_theory(rng):
    """M/M/1 sojourn mean = 1/(mu - lambda)."""
    lam, mu = 40.0, 50.0
    queue = MultiServerQueue(1, exponential_service(1.0 / mu), lam, rng)
    stats = queue.run(duration_s=2000.0, warmup_s=100.0)
    assert stats.mean_sojourn_s == pytest.approx(1.0 / (mu - lam), rel=0.15)


def test_mmc_p99_matches_analytic_quantile(rng):
    """The closed-form p99 used by the interval model agrees with the
    event-driven ground truth for M/M/c."""
    lam, mu, servers = 80.0, 10.0, 12
    queue = MultiServerQueue(servers, exponential_service(1.0 / mu), lam, rng)
    stats = queue.run(duration_s=3000.0, warmup_s=100.0)
    analytic_ms = response_time_quantile(lam, mu, servers, 0.99) * 1000.0
    assert stats.p99_sojourn_ms == pytest.approx(analytic_ms, rel=0.2)


def test_utilization_matches_offered_load(rng):
    lam, mu, servers = 30.0, 10.0, 6
    queue = MultiServerQueue(servers, exponential_service(1.0 / mu), lam, rng)
    stats = queue.run(duration_s=1500.0, warmup_s=50.0)
    assert stats.utilization == pytest.approx(lam / (mu * servers), rel=0.1)


def test_queue_limit_drops_under_overload(rng):
    queue = MultiServerQueue(
        2, exponential_service(0.1), arrival_rate=100.0, rng=rng, queue_limit=10
    )
    stats = queue.run(duration_s=60.0, warmup_s=5.0)
    assert stats.dropped > 0
    assert stats.max_queue_len <= 10


def test_validation(rng):
    with pytest.raises(ConfigurationError):
        MultiServerQueue(0, exponential_service(0.1), 1.0, rng)
    queue = MultiServerQueue(1, exponential_service(0.1), 1.0, rng)
    with pytest.raises(ConfigurationError):
        queue.run(duration_s=0.0)
    with pytest.raises(ConfigurationError):
        queue.run(duration_s=10.0, warmup_s=10.0)


@pytest.mark.slow
def test_interval_model_calibrated_against_discrete_event(rng):
    """The engine's stable-regime p99 (masstree alone on the 18-core
    socket at 2.0 GHz, no latency noise) sits within ~2x of per-request
    ground truth across moderate loads (the interval model is an
    approximation; what matters is the agreement in *shape* and knee
    position)."""
    from repro.cluster.environment import make_cluster_node
    from repro.server.machine import CoreAssignment
    from repro.sim.node import EnvironmentConfig

    profile = get_profile("masstree")
    for fraction in (0.3, 0.6):
        arrival = fraction * profile.max_load_rps
        stats = simulate_service_point(
            profile, arrival, cores=18, frequency_ghz=2.0, max_frequency_ghz=2.0,
            rng=np.random.default_rng(5), duration_s=150.0, warmup_s=15.0,
        )
        env = make_cluster_node(["masstree"], 6, EnvironmentConfig(latency_noise_std=0.0))
        env.load_generators["masstree"].set_rate(arrival)
        top = len(env.spec.dvfs) - 1
        full = {"masstree": CoreAssignment(tuple(env.socket_core_ids), freq_index=top)}
        interval_p99 = env.step(full).observations["masstree"].p99_ms
        des_p99 = stats.p99_latency_ms
        ratio = interval_p99 / des_p99
        assert 0.3 < ratio < 3.0, (fraction, interval_p99, des_p99)
