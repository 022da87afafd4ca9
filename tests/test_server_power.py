"""Unit tests for the physical power model and the frozen scalar server's
RAPL sensor (``tests/oracles/colocation_reference.py``)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from tests.oracles.colocation_reference import RaplSensor


def test_power_increases_with_frequency(spec):
    model = PowerModel(spec)
    assert model.core_dynamic_w(2.0, 1.0) > model.core_dynamic_w(1.2, 1.0)


def test_power_increases_superlinearly_with_frequency(spec):
    """CV^2 f: doubling frequency should more than double dynamic power."""
    model = PowerModel(spec)
    low = model.core_dynamic_w(1.0, 1.0)
    high = model.core_dynamic_w(2.0, 1.0)
    assert high > 2.0 * low


def test_power_scales_with_utilization(spec):
    model = PowerModel(spec)
    assert model.core_dynamic_w(2.0, 0.5) == pytest.approx(
        0.5 * model.core_dynamic_w(2.0, 1.0)
    )
    with pytest.raises(ConfigurationError):
        model.core_dynamic_w(2.0, 1.5)


def test_socket_power_breakdown(spec):
    model = PowerModel(spec)
    breakdown = model.socket_power([(2.0, 1.0)] * 4, membw_utilization=0.5)
    assert breakdown.idle_w == spec.idle_power_w
    assert breakdown.static_w == pytest.approx(spec.core_static_w * 18)
    assert breakdown.uncore_w == pytest.approx(0.5 * spec.uncore_bw_w)
    assert breakdown.total_w == pytest.approx(
        breakdown.idle_w + breakdown.static_w + breakdown.dynamic_w + breakdown.uncore_w
    )


def test_max_power_is_upper_bound(spec):
    model = PowerModel(spec)
    max_power = model.max_power_w()
    some = model.socket_power([(1.6, 0.7)] * 10).total_w
    assert some < max_power
    # realistic magnitude for an E5-2695v4-class socket
    assert 80.0 < max_power < 150.0


def test_idle_below_max(spec):
    model = PowerModel(spec)
    assert model.idle_power_w() < model.max_power_w()


def test_hotplugged_cores_reduce_static_power(spec):
    model = PowerModel(spec)
    on = model.socket_power([], online_cores=18).total_w
    off = model.socket_power([], online_cores=4).total_w
    assert off < on


def test_rapl_accumulates_energy(rng):
    sensor = RaplSensor(rng, noise_std=0.0)
    sensor.poll({1: 50.0}, interval_s=2.0)
    sensor.poll({1: 100.0}, interval_s=1.0)
    assert sensor.energy_j == pytest.approx(200.0)


def test_rapl_noise_is_bounded_and_centered(rng):
    sensor = RaplSensor(rng, noise_std=0.01)
    readings = [sensor.poll({0: 100.0}, 1.0)[0] for _ in range(500)]
    assert abs(np.mean(readings) - 100.0) < 1.0
    assert np.std(readings) > 0


def test_rapl_validation(rng):
    with pytest.raises(ConfigurationError):
        RaplSensor(rng, noise_std=-0.1)
    sensor = RaplSensor(rng)
    with pytest.raises(ConfigurationError):
        sensor.poll({0: 10.0}, interval_s=0.0)
