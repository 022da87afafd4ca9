"""Fault injection and graceful degradation.

Covers the `repro.sim.faults` kinds, the SystemMonitor's rejection of
non-finite telemetry, Twig's hold-last-allocation degraded mode, and the
end-to-end property the ISSUE demands: a fault-injected run completes and
emits ``fault``/``degraded`` trace events instead of crashing.
"""

import math

import numpy as np
import pytest

from repro.core import Twig, TwigConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import run_manager
from repro.obs.sink import MemorySink
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import SystemMonitor
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from repro.sim.faults import FAULT_KINDS, Fault, FaultInjector


def _env(names=("masstree",), seed=3, faults=None, trace=None):
    spec = ServerSpec()
    profiles = [get_profile(n) for n in names]
    generators = {
        n: ConstantLoad(get_profile(n).max_load_rps, 0.4, rng=np.random.default_rng(i))
        for i, n in enumerate(names)
    }
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        profiles,
        generators,
        np.random.default_rng(seed),
        trace=trace,
        faults=faults,
    )


def _twig(names=("masstree",), seed=5, trace=None):
    spec = ServerSpec()
    profiles = [get_profile(n) for n in names]
    return Twig(
        profiles, TwigConfig.fast(), np.random.default_rng(seed), spec=spec, trace=trace
    )


# ---------------------------------------------------------------------- #
# Fault / FaultInjector units
# ---------------------------------------------------------------------- #
def test_fault_validation():
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        Fault("meteor_strike", "masstree", start=1)
    with pytest.raises(ConfigurationError, match="start"):
        Fault("pmc_dropout", "masstree", start=-1)
    with pytest.raises(ConfigurationError, match="duration"):
        Fault("pmc_dropout", "masstree", start=1, duration=0)
    with pytest.raises(ConfigurationError, match="magnitude"):
        Fault("latency_spike", "masstree", start=1, magnitude=0.0)
    with pytest.raises(ConfigurationError, match="magnitude"):
        Fault("latency_spike", "masstree", start=1, magnitude=math.nan)


def test_fault_active_window():
    fault = Fault("pmc_dropout", "masstree", start=3, duration=2)
    assert [t for t in range(8) if fault.active_at(t)] == [3, 4]
    injector = FaultInjector([fault])
    assert injector.active_at(3) == [fault]
    assert injector.active_at(5) == []


def test_injector_rejects_non_fault():
    with pytest.raises(ConfigurationError, match="expected a Fault"):
        FaultInjector(["pmc_dropout"])


def test_pmc_dropout_nans_all_counters_of_target_only():
    env = _env(
        ("masstree", "moses"),
        faults=FaultInjector([Fault("pmc_dropout", "masstree", start=1)]),
    )
    twig = _twig(("masstree", "moses"))
    result = env.step(twig.initial_assignments())
    assert all(math.isnan(v) for v in result.observations["masstree"].pmcs.values())
    assert all(math.isfinite(v) for v in result.observations["moses"].pmcs.values())
    # Latency observation itself is untouched by a PMC-only fault.
    assert math.isfinite(result.observations["masstree"].p99_ms)


def test_pmc_nan_hits_magnitude_counters():
    env = _env(
        faults=FaultInjector([Fault("pmc_nan", "masstree", start=1, magnitude=3)])
    )
    twig = _twig()
    result = env.step(twig.initial_assignments())
    pmcs = result.observations["masstree"].pmcs
    assert sum(1 for v in pmcs.values() if math.isnan(v)) == 3


def test_latency_spike_multiplies_measured_latency_exactly():
    # Paired runs with identical seeds: injection happens after all RNG
    # draws, so the faulted p99 is exactly magnitude x the clean one.
    clean_env, twig = _env(seed=11), _twig()
    assignments = twig.initial_assignments()
    clean = clean_env.step(assignments)

    spiked_env = _env(
        seed=11,
        faults=FaultInjector([Fault("latency_spike", "masstree", start=1, magnitude=4.0)]),
    )
    spiked = spiked_env.step(assignments)
    assert spiked.observations["masstree"].p99_ms == pytest.approx(
        4.0 * clean.observations["masstree"].p99_ms, rel=0, abs=0
    )
    # Power/energy are ground truth — sensor faults do not change them.
    assert spiked.true_power_w == clean.true_power_w


def test_service_crash_zeroes_service_and_drops_backlog():
    env = _env(
        faults=FaultInjector([Fault("service_crash", "masstree", start=2)])
    )
    twig = _twig()
    assignments = twig.initial_assignments()
    env.step(assignments)
    env.services["masstree"].backlog = 37.0  # pretend a queue built up
    result = env.step(assignments)
    observation = result.observations["masstree"]
    assert observation.interval.throughput_rps == 0.0
    assert math.isnan(observation.p99_ms)
    assert observation.interval.utilization == 0.0
    assert observation.interval.backlog == 0.0
    assert env.services["masstree"].backlog == 0.0  # restarted with empty queue
    assert not observation.qos_met  # NaN p99 counts as a violation, not a crash


def test_faults_do_not_perturb_rng_streams():
    """Intervals outside the fault window are bit-identical to a clean run."""
    clean_env = _env(seed=11)
    faulted_env = _env(
        seed=11,
        faults=FaultInjector([Fault("pmc_dropout", "masstree", start=2, duration=2)]),
    )
    twig = _twig()
    assignments = twig.initial_assignments()
    for t in range(1, 7):
        clean = clean_env.step(assignments)
        faulted = faulted_env.step(assignments)
        if not (2 <= t < 4):
            assert (
                faulted.observations["masstree"].p99_ms
                == clean.observations["masstree"].p99_ms
            )
            assert faulted.observations["masstree"].pmcs == clean.observations["masstree"].pmcs
        assert faulted.socket_power_w == clean.socket_power_w


def test_fault_events_emitted_when_tracing():
    sink = MemorySink()
    env = _env(
        faults=FaultInjector(
            [Fault("latency_spike", "masstree", start=2, duration=2, magnitude=3.0)]
        ),
        trace=sink,
    )
    twig = _twig()
    assignments = twig.initial_assignments()
    for _ in range(4):
        env.step(assignments)
    faults = [e for e in sink.events if e["ev"] == "fault"]
    assert [e["t"] for e in faults] == [2, 3]
    assert faults[0]["service"] == "masstree"
    assert faults[0]["kind"] == "latency_spike"
    assert faults[0]["magnitude"] == 3.0


# ---------------------------------------------------------------------- #
# SystemMonitor telemetry sanitization
# ---------------------------------------------------------------------- #
def _monitor():
    return SystemMonitor(CounterCatalogue(ServerSpec()).max_values(), eta=3)


def test_monitor_rejects_non_finite_and_recovers():
    monitor = _monitor()
    counters = sorted(monitor.max_values)
    good = {name: 100.0 for name in counters}
    state_good = monitor.observe("masstree", good)
    assert "masstree" not in monitor.degraded

    bad = dict(good)
    bad[counters[0]] = float("nan")
    state_bad = monitor.observe("masstree", bad)
    assert "masstree" in monitor.degraded
    assert np.array_equal(state_bad, state_good)  # last good state, no NaN
    assert np.all(np.isfinite(state_bad))

    state_recovered = monitor.observe("masstree", good)
    assert "masstree" not in monitor.degraded
    assert np.all(np.isfinite(state_recovered))


def test_monitor_degraded_state_before_any_good_sample():
    monitor = _monitor()
    bad = {name: float("inf") for name in monitor.max_values}
    state = monitor.observe("masstree", bad)
    assert "masstree" in monitor.degraded
    assert np.array_equal(state, np.zeros(monitor.state_dim))


# ---------------------------------------------------------------------- #
# Twig degraded mode
# ---------------------------------------------------------------------- #
#: Kinds that make telemetry unusable (latency_spike yields finite, merely
#: wrong readings — the manager still acts and learns from those).
DEGRADING_KINDS = ("pmc_dropout", "pmc_nan", "service_crash")


@pytest.mark.parametrize("kind", DEGRADING_KINDS)
def test_twig_holds_allocation_through_fault(kind):
    sink = MemorySink()
    env = _env(
        seed=11,
        faults=FaultInjector([Fault(kind, "masstree", start=4, duration=2)]),
        trace=sink,
    )
    twig = _twig(trace=sink)
    assignments = twig.initial_assignments()
    held = None
    for t in range(1, 9):
        result = env.step(assignments)
        before = np.stack([twig._alloc_cores, twig._alloc_freq, twig._alloc_ways])
        assignments = twig.update(result)
        if 4 <= t < 6:
            # Degraded: allocation held, transition chain broken.
            after = np.stack([twig._alloc_cores, twig._alloc_freq, twig._alloc_ways])
            assert np.array_equal(after, before)
            assert not twig._has_prev[0]
            if held is not None:
                assert assignments == held
            held = assignments
    degraded = [e for e in sink.events if e["ev"] == "degraded"]
    assert [e["t"] for e in degraded] == [4, 5]
    assert all(e["services"] == ["masstree"] for e in degraded)
    assert all(e["held_allocation"] for e in degraded)
    # Recovery: the agent acts again after the fault clears.
    assert twig._has_prev[0]


def test_latency_spike_does_not_degrade():
    """A spike is finite (just wrong): the manager keeps acting on it —
    that is the point of the kind (an antagonist burst, not broken
    sensors), and the QoS penalty is how the agent experiences it."""
    sink = MemorySink()
    env = _env(
        seed=11,
        faults=FaultInjector(
            [Fault("latency_spike", "masstree", start=3, magnitude=10.0)]
        ),
        trace=sink,
    )
    twig = _twig(trace=sink)
    assignments = twig.initial_assignments()
    for _ in range(4):
        result = env.step(assignments)
        assignments = twig.update(result)
    assert not any(e["ev"] == "degraded" for e in sink.events)
    assert twig._has_prev[0]  # chain unbroken


def test_twig_degraded_skips_learning():
    env = _env(
        seed=11, faults=FaultInjector([Fault("pmc_dropout", "masstree", start=3)])
    )
    twig = _twig()
    assignments = twig.initial_assignments()
    sizes, steps = [], []
    for _ in range(1, 6):
        result = env.step(assignments)
        assignments = twig.update(result)
        sizes.append(len(twig.agent.striped))
        steps.append(twig.agent.step_count)
    # t=1 seeds no transition; t=2 adds one; t=3 (degraded) adds nothing and
    # resets the chain; t=4 re-seeds; t=5 adds the next one. Only the
    # intervals that store a transition step the agent's schedules.
    assert sizes == [0, 1, 1, 1, 2]
    assert steps == [0, 1, 1, 1, 2]


def test_faulted_run_completes_end_to_end():
    """The acceptance scenario: a run with every fault kind injected
    completes all steps and records fault + degraded events."""
    sink = MemorySink()
    injector = FaultInjector(
        [
            Fault("pmc_dropout", "masstree", start=5, duration=2),
            Fault("pmc_nan", "masstree", start=10, magnitude=2),
            Fault("latency_spike", "masstree", start=15, duration=2, magnitude=5.0),
            Fault("service_crash", "masstree", start=20, duration=2),
        ]
    )
    env = _env(seed=11, faults=injector, trace=sink)
    twig = _twig(trace=sink)
    trace = run_manager(twig, env, 30)
    assert trace.steps() == 30
    kinds = {e["kind"] for e in sink.events if e["ev"] == "fault"}
    assert kinds == set(FAULT_KINDS)
    assert any(e["ev"] == "degraded" for e in sink.events)
    # Spiked/NaN latency lands in the recorded trace (NaN for the crash).
    p99 = trace.services["masstree"].p99_ms
    assert math.isnan(p99[19])  # step index 19 is interval t=20
    assert all(math.isfinite(v) for v in trace.power_w)


def test_injector_state_roundtrip():
    injector = FaultInjector(
        [Fault("pmc_nan", "masstree", start=1, duration=50, magnitude=2)],
        rng=np.random.default_rng(7),
    )
    injector._rng.random(13)
    state = injector.state_dict()
    other = FaultInjector(
        [Fault("pmc_nan", "masstree", start=1, duration=50, magnitude=2)],
        rng=np.random.default_rng(99),
    )
    other.load_state_dict(state)
    assert np.array_equal(injector._rng.random(8), other._rng.random(8))
