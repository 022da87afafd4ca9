"""Unit tests for the memory-bandwidth + LLC interference model: its
pressure curve, and the per-service ``resolve`` of the frozen scalar
server (``tests/oracles/colocation_reference.py``) the engine is pinned
to."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.services.interference import InterferenceModel
from repro.services.profiles import get_profile
from tests.oracles.colocation_reference import ScalarInterference, ServiceDemand


def _model():
    return ScalarInterference(membw_capacity_gbps=60.0, llc_capacity_mb=45.0)


def test_no_pressure_alone_at_low_load(masstree):
    model = _model()
    contention = model.resolve_single(masstree, throughput_rps=200.0)
    assert contention.inflation == pytest.approx(1.0)
    assert contention.miss_inflation == pytest.approx(1.0)


def test_bandwidth_pressure_kicks_in_past_knee(moses):
    model = _model()
    # Moses at high load generates tens of GB/s.
    low = model.resolve_single(moses, throughput_rps=500.0)
    high = model.resolve_single(moses, throughput_rps=5000.0)
    assert high.membw_utilization > low.membw_utilization
    assert high.inflation > low.inflation >= 1.0


def test_sensitive_service_suffers_more(masstree, moses):
    """Masstree (sensitive, light) is hurt by Moses (heavy) more than
    Moses is hurt by Masstree — the paper's motivating asymmetry."""
    model = _model()
    demands = {
        "masstree": ServiceDemand(profile=masstree, throughput_rps=500.0),
        "moses": ServiceDemand(profile=moses, throughput_rps=4500.0),
    }
    contention = model.resolve(demands)
    assert contention["masstree"].inflation > contention["moses"].inflation


def test_llc_overcommit_inflates_misses(moses, xapian):
    model = ScalarInterference(membw_capacity_gbps=1000.0, llc_capacity_mb=40.0)
    demands = {
        "moses": ServiceDemand(profile=moses, throughput_rps=2000.0),
        "xapian": ServiceDemand(profile=xapian, throughput_rps=800.0),
    }
    contention = model.resolve(demands)
    assert contention["moses"].llc_overcommit > 1.0
    assert contention["moses"].miss_inflation > 1.0
    assert contention["xapian"].miss_inflation > 1.0


def test_llc_fits_no_inflation(masstree, xapian):
    model = ScalarInterference(membw_capacity_gbps=1000.0, llc_capacity_mb=100.0)
    demands = {
        "masstree": ServiceDemand(profile=masstree, throughput_rps=200.0),
        "xapian": ServiceDemand(profile=xapian, throughput_rps=200.0),
    }
    contention = model.resolve(demands)
    assert contention["masstree"].miss_inflation == pytest.approx(1.0)


def test_pressure_curve_smooth_at_knee():
    model = _model()
    just_below = model._bandwidth_pressure(model.bandwidth_knee - 1e-9)
    just_above = model._bandwidth_pressure(model.bandwidth_knee + 1e-6)
    assert just_below == 0.0
    assert just_above < 1e-10  # continuous, starts at zero


@st.composite
def _utilization(draw):
    """A socket bandwidth utilization below, at or just above the knee,
    large, NaN or +-inf."""
    knee = _model().bandwidth_knee
    kind = draw(st.sampled_from(["below", "at", "just_above", "large", "nan", "inf"]))
    if kind == "below":
        return draw(st.floats(max_value=knee, allow_nan=False, allow_infinity=False))
    if kind == "at":
        return knee
    if kind == "just_above":
        return float(np.nextafter(knee, math.inf, dtype=np.float64)) + draw(
            st.floats(min_value=0.0, max_value=1e-6)
        )
    if kind == "large":
        return draw(st.floats(min_value=1.0, max_value=1e120))
    if kind == "nan":
        return math.nan
    return draw(st.sampled_from([math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_utilization(), min_size=1, max_size=16))
def test_pressure_batch_is_the_scalar_bit_for_bit(values):
    """The engine's array pass equals ``_bandwidth_pressure`` by float64
    bit pattern; where the scalar cube overflows, both raise."""
    model = _model()
    try:
        scalar = np.array([model._bandwidth_pressure(u) for u in values])
    except OverflowError:
        with pytest.raises(OverflowError):
            model.bandwidth_pressure_batch(np.array(values))
        return
    batch = model.bandwidth_pressure_batch(np.array(values))
    np.testing.assert_array_equal(batch.view(np.int64), scalar.view(np.int64))


def test_validation():
    with pytest.raises(ConfigurationError):
        InterferenceModel(membw_capacity_gbps=0.0, llc_capacity_mb=45.0)
