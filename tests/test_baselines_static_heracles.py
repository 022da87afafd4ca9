"""Unit and behavioural tests for the Static and Heracles baselines."""

import numpy as np
import pytest

from repro.baselines import HeraclesManager, StaticManager
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
# Static
# --------------------------------------------------------------------- #
def test_static_uses_all_cores_max_dvfs(spec):
    manager = StaticManager(["masstree"], spec=spec)
    assignments = manager.initial_assignments()
    assert set(assignments["masstree"].cores) == set(spec.socket_core_ids(1))
    assert assignments["masstree"].freq_index == len(spec.dvfs) - 1


def test_static_never_changes():
    manager = StaticManager(["masstree"], spec=ServerSpec())
    env = _env(["masstree"], [0.5])
    trace = run_manager(manager, env, 20)
    assert len(set(trace.services["masstree"].cores)) == 1
    assert env.migration_counts() == [{"masstree": 18}]  # initial placement only


def test_static_meets_qos_at_high_load():
    trace = run_manager(StaticManager(["masstree"]), _env(["masstree"], [0.8]), 60)
    assert trace.qos_guarantee("masstree") > 95.0


def test_static_requires_services():
    with pytest.raises(ConfigurationError):
        StaticManager([])


# --------------------------------------------------------------------- #
# Heracles
# --------------------------------------------------------------------- #
def test_heracles_sheds_cores_at_low_load():
    profile = get_profile("masstree")
    manager = HeraclesManager(profile, spec=ServerSpec())
    trace = run_manager(manager, _env(["masstree"], [0.2]), 300)
    # Heracles walks the allocation down until latency nears 80% of the
    # target (it may bounce back to 18 after boundary violations trigger
    # the 5-minute lockout, which is exactly the paper's criticism).
    assert min(trace.services["masstree"].cores) < 12.0


def test_heracles_lockout_on_violation():
    """A QoS violation at a main-controller poll grants all resources."""
    profile = get_profile("masstree")
    manager = HeraclesManager(profile, spec=ServerSpec(), qos_target_ms=0.001)
    env = _env(["masstree"], [0.5])
    assignments = manager.initial_assignments()
    for _ in range(manager.main_poll_every + 1):
        result = env.step(assignments)
        assignments = manager.update(result)
    assert manager.cores[0] == 18
    assert manager.freq_index[0] == len(ServerSpec().dvfs) - 1
    assert manager._lockout_until[0] > manager.step_count


def test_heracles_keeps_dvfs_high_until_power_cap():
    profile = get_profile("img-dnn")
    manager = HeraclesManager(profile, spec=ServerSpec())
    trace = run_manager(manager, _env(["img-dnn"], [0.5]), 120)
    freqs = trace.services["img-dnn"].frequency_ghz[-60:]
    assert np.mean(freqs) > 1.8  # paper: Heracles pins DVFS high


def test_heracles_poll_period_validation():
    with pytest.raises(ConfigurationError):
        HeraclesManager(get_profile("masstree"), main_poll_every=0)


def test_heracles_more_energy_than_needed():
    """The paper's observation: Heracles over-allocates despite QoS slack."""
    profile = get_profile("masstree")
    heracles_trace = run_manager(
        HeraclesManager(profile, spec=ServerSpec()), _env(["masstree"], [0.5]), 200
    )
    assert heracles_trace.mean_cores("masstree", 100) > 10.0


# --------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------- #
def test_oracle_table_monotone_capacity():
    """Higher load buckets never get less capacity than lower ones."""
    from repro.baselines import OracleManager
    from repro.services.profiles import get_profile

    oracle = OracleManager(get_profile("masstree"), spec=ServerSpec())
    spec = ServerSpec()
    capacities = [
        get_profile("masstree").capacity_rps(
            a.num_cores, spec.dvfs[a.freq_index], spec.dvfs.max_ghz
        )
        for a in oracle.table
    ]
    for low, high in zip(capacities, capacities[1:]):
        assert high >= low * 0.95


def test_oracle_beats_static_and_meets_qos():
    from repro.baselines import OracleManager, StaticManager
    from repro.services.profiles import get_profile

    profile = get_profile("masstree")
    static = run_manager(StaticManager(["masstree"]), _env(["masstree"], [0.5]), 150)
    oracle = run_manager(
        OracleManager(profile, spec=ServerSpec()), _env(["masstree"], [0.5]), 150
    )
    assert oracle.qos_guarantee("masstree", 100) > 95.0
    assert oracle.mean_power_w(100) < static.mean_power_w(100)


def test_oracle_validation():
    from repro.baselines import OracleManager
    from repro.errors import ConfigurationError
    from repro.services.profiles import get_profile

    with pytest.raises(ConfigurationError):
        OracleManager(get_profile("masstree"), safety=0.0)
    with pytest.raises(ConfigurationError):
        OracleManager(get_profile("masstree"), load_buckets=0)
