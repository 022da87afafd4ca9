"""Unit and behavioural tests for the Hipster and PARTIES baselines."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import HipsterManager, PartiesManager
from repro.errors import ConfigurationError
from repro.experiments.runner import run_manager
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def _env(names, fractions, seed=7):
    spec = ServerSpec()
    profiles = [get_profile(n) for n in names]
    gens = {
        n: ConstantLoad(get_profile(n).max_load_rps, f, rng=np.random.default_rng(seed + i))
        for i, (n, f) in enumerate(zip(names, fractions))
    }
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec), profiles, gens, np.random.default_rng(seed)
    )


# --------------------------------------------------------------------- #
# Hipster
# --------------------------------------------------------------------- #
def test_hipster_config_table_ordered_by_power(rng):
    manager = HipsterManager(get_profile("masstree"), rng)
    from repro.server.power import PowerModel

    model = PowerModel(manager.spec)
    powers = [
        c.num_cores * model.core_dynamic_w(manager.spec.dvfs[c.freq_index], 1.0)
        for c in manager.configs
    ]
    assert powers == sorted(powers)
    assert len(manager.configs) == 18 * 9


def test_hipster_bucket_quantization(rng):
    manager = HipsterManager(get_profile("masstree"), rng, bucket_pct=4.0)
    assert manager.n_buckets == 25  # the paper's 4% buckets
    assert manager._bucket(0.0) == 0
    assert manager._bucket(get_profile("masstree").max_load_rps) == 24


def test_hipster_heuristic_walks_up_on_violation(rng):
    manager = HipsterManager(get_profile("masstree"), rng)
    manager._current_index = 50
    target = manager.qos_target_ms
    assert manager._heuristic_move(target * 2.0) > 51  # violation: jump
    assert manager._heuristic_move(target * 0.9) == 51  # close: one up
    assert manager._heuristic_move(target * 0.3) == 49  # slack: one down
    assert manager._heuristic_move(target * 0.7) == 50  # in band: stay


def test_hipster_learns_and_saves_energy(rng):
    profile = get_profile("masstree")
    manager = HipsterManager(
        profile, np.random.default_rng(3), spec=ServerSpec(), learning_phase_steps=400
    )
    trace = run_manager(manager, _env(["masstree"], [0.4]), 900)
    assert trace.qos_guarantee("masstree", 200) > 85.0
    assert trace.mean_cores("masstree", 200) < 18.0


def test_hipster_q_table_small_on_platform(rng):
    manager = HipsterManager(get_profile("masstree"), rng)
    assert manager.q_table_bytes() == 25 * 162 * 8


def test_hipster_validation(rng):
    with pytest.raises(ConfigurationError):
        HipsterManager(get_profile("masstree"), rng, bucket_pct=0.0)
    with pytest.raises(ConfigurationError):
        HipsterManager(get_profile("masstree"), rng, learning_phase_steps=-1)


def test_hipster_table_entries_formula():
    assert HipsterManager.table_entries(25, 3, 30) == 25 * 3 ** 30


# --------------------------------------------------------------------- #
# PARTIES
# --------------------------------------------------------------------- #
def test_parties_starts_with_even_split(rng):
    profiles = [get_profile("masstree"), get_profile("moses")]
    manager = PartiesManager(profiles, rng)
    assignments = manager.initial_assignments()
    assert len(assignments["masstree"].cores) == 9
    assert len(assignments["moses"].cores) == 9


def test_parties_adjusts_one_resource_per_poll(rng):
    profiles = [get_profile("masstree"), get_profile("moses")]
    manager = PartiesManager(profiles, np.random.default_rng(3), poll_every=2)
    env = _env(["masstree", "moses"], [0.2, 0.5])
    assignments = manager.initial_assignments()
    previous = manager.cores[0].copy(), manager.freq[0].copy()
    changes = []
    for _ in range(40):
        result = env.step(assignments)
        assignments = manager.update(result)
        current = manager.cores[0].copy(), manager.freq[0].copy()
        delta = sum(np.abs(now - before).sum() for now, before in zip(current, previous))
        changes.append(delta)
        previous = current
    assert max(changes) <= 1  # single-resource, single-service adjustments


def test_parties_reverts_downsize_on_violation(rng):
    from repro.baselines.parties import CORES

    profiles = [get_profile("masstree"), get_profile("moses")]
    manager = PartiesManager(profiles, np.random.default_rng(0), poll_every=1)
    # masstree at (6 cores, DVFS 8), one core taken from (7, 8).
    manager.cores[0, 0], manager.freq[0, 0] = 6, 8
    manager._down_service[0], manager._down_resource[0] = 0, CORES
    manager._down_cores[0], manager._down_freq[0] = 7, 8

    # A real interval's result with the two p99s set: masstree violates.
    result = _env(["masstree", "moses"], [0.2, 0.5]).step(manager.initial_assignments())
    p99 = {"masstree": manager.qos_targets["masstree"] * 1.5, "moses": 1.0}
    observations = {
        name: replace(obs, interval=replace(obs.interval, p99_ms=p99[name]))
        for name, obs in result.observations.items()
    }
    manager.update(replace(result, observations=observations))
    assert manager.cores[0, 0] == 7  # reverted
    assert manager._avoid[0, 0] == CORES


def test_parties_keeps_qos_with_more_oscillation(rng):
    profiles = [get_profile("masstree"), get_profile("moses")]
    manager = PartiesManager(profiles, np.random.default_rng(3))
    env = _env(["masstree", "moses"], [0.2, 0.5])
    trace = run_manager(manager, env, 600)
    assert trace.qos_guarantee("masstree", 300) > 85.0
    assert trace.qos_guarantee("moses", 300) > 85.0
    # it never stops nudging allocations (the paper's ping-pong)
    total_migrations = sum(trace.migrations.values())
    assert total_migrations > 30


def test_parties_validation(rng):
    with pytest.raises(ConfigurationError):
        PartiesManager([], rng)
    with pytest.raises(ConfigurationError):
        PartiesManager([get_profile("masstree")], rng, poll_every=0)
