"""Unit tests for the PMC telemetry synthesiser of the frozen scalar
server (``tests/oracles/colocation_reference.py``), the reference the
engine's counters are pinned to, and for ``repro.sim.telemetry.ipc``."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pmc.counters import COUNTER_NAMES
from repro.services.profiles import get_profile
from repro.sim.telemetry import ipc
from tests.oracles.colocation_reference import LCService, SocketContention, TelemetrySynthesizer


def _result(name="masstree", arrival=1000.0, cores=12, freq=2.0, contention=None):
    service = LCService(
        get_profile(name), 2.0, np.random.default_rng(0), latency_noise_std=0.0
    )
    kwargs = {} if contention is None else {"contention": contention}
    return service.step(arrival, cores=cores, frequency_ghz=freq, **kwargs)


def test_all_counters_present(rng):
    synth = TelemetrySynthesizer(rng, noise_std=0.0)
    readings = synth.synthesize(get_profile("masstree"), _result())
    assert set(readings) == set(COUNTER_NAMES)
    assert all(v >= 0 for v in readings.values())


def test_counters_are_built_in_counter_names_order():
    """The vector engine draws one telemetry normal per counter in
    ``COUNTER_NAMES`` order and lays its counter matrices out that way;
    the scalar synthesiser must build (and so noise) them in that order."""
    readings = TelemetrySynthesizer(np.random.default_rng(3), noise_std=0.015).synthesize(
        get_profile("masstree"), _result()
    )
    assert tuple(readings) == COUNTER_NAMES
    clean = TelemetrySynthesizer(np.random.default_rng(3), noise_std=0.0).synthesize(
        get_profile("masstree"), _result()
    )
    z = np.random.default_rng(3).normal(size=len(COUNTER_NAMES))
    for name, draw in zip(COUNTER_NAMES, z):
        assert readings[name] == pytest.approx(clean[name] * (1.0 + 0.015 * draw), rel=1e-12)


def test_instructions_scale_with_throughput(rng):
    """Request instructions scale with throughput; spin instructions from
    allocated-but-idle cores shrink as the cores get busier, so the total
    grows sublinearly but strictly."""
    synth = TelemetrySynthesizer(rng, noise_std=0.0)
    low = synth.synthesize(get_profile("masstree"), _result(arrival=500.0))
    high = synth.synthesize(get_profile("masstree"), _result(arrival=1500.0))
    assert high["INSTRUCTION_RETIRED"] > low["INSTRUCTION_RETIRED"]
    # LLC misses carry no spin component, so they scale exactly 3x.
    assert high["LLC_MISSES"] == pytest.approx(3.0 * low["LLC_MISSES"], rel=0.01)


def test_cycles_reflect_frequency(rng):
    synth = TelemetrySynthesizer(rng, noise_std=0.0)
    profile = get_profile("img-dnn")  # compute bound: busy time ~ 1/f
    slow = synth.synthesize(profile, _result("img-dnn", 500.0, 18, 1.2))
    fast = synth.synthesize(profile, _result("img-dnn", 500.0, 18, 2.0))
    # cycles = busy_seconds * f: busy rises ~1/f while f rises, roughly flat,
    # but reference cycles (fixed clock) must rise with busy time at low f.
    assert slow["UNHALTED_REFERENCE_CYCLES"] > fast["UNHALTED_REFERENCE_CYCLES"]


def test_miss_inflation_shows_in_llc_counter(rng):
    synth = TelemetrySynthesizer(rng, noise_std=0.0)
    profile = get_profile("masstree")
    contended = SocketContention(
        inflation=1.2, miss_inflation=1.5, membw_utilization=0.9, llc_overcommit=1.3
    )
    clean = synth.synthesize(profile, _result())
    dirty = synth.synthesize(profile, _result(contention=contended))
    assert dirty["LLC_MISSES"] > 1.3 * clean["LLC_MISSES"] * (
        dirty["INSTRUCTION_RETIRED"] / clean["INSTRUCTION_RETIRED"]
    )


def test_branch_counters_follow_profile_mix(rng):
    """Branch counters combine the request mix and the spin-loop mix."""
    synth = TelemetrySynthesizer(rng, noise_std=0.0)
    profile = get_profile("xapian")
    result = _result("xapian", 500.0)
    readings = synth.synthesize(profile, result)
    request_instr = result.instructions
    spin_instr = readings["INSTRUCTION_RETIRED"] - request_instr
    expected_branches = (
        request_instr * profile.branch_per_instr
        + spin_instr * TelemetrySynthesizer.SPIN_BRANCH_FRACTION
    )
    assert readings["BRANCH_INSTRUCTIONS_RETIRED"] == pytest.approx(
        expected_branches, rel=1e-6
    )
    # Spin branches barely miss, so the aggregate miss rate is *below* the
    # request mix's rate.
    rate = readings["MISPREDICTED_BRANCH_RETIRED"] / readings["BRANCH_INSTRUCTIONS_RETIRED"]
    assert rate < profile.branch_miss_rate


def test_noise_perturbs_readings(rng):
    synth = TelemetrySynthesizer(rng, noise_std=0.05)
    result = _result()
    a = synth.synthesize(get_profile("masstree"), result)
    b = synth.synthesize(get_profile("masstree"), result)
    assert a["INSTRUCTION_RETIRED"] != b["INSTRUCTION_RETIRED"]


def test_ipc_helper(rng):
    synth = TelemetrySynthesizer(rng, noise_std=0.0)
    readings = synth.synthesize(get_profile("masstree"), _result())
    assert 0.0 < ipc(readings) < 5.0
    assert ipc({"UNHALTED_CORE_CYCLES": 0.0}) == 0.0


def test_noise_validation(rng):
    with pytest.raises(ConfigurationError):
        TelemetrySynthesizer(rng, noise_std=-0.1)
