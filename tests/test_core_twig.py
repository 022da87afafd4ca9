"""Unit and behavioural tests for the Twig task manager."""

import numpy as np
import pytest

from repro.core import Twig, TwigConfig
from repro.core.config import TwigConfig as Config
from repro.errors import ConfigurationError
from repro.experiments.runner import run_manager
from repro.obs.sink import MemorySink
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from repro.sim.faults import Fault, FaultInjector


def _make(names=("masstree",), config=None, seed=5):
    spec = ServerSpec()
    profiles = [get_profile(n) for n in names]
    config = config or TwigConfig.fast()
    twig = Twig(profiles, config, np.random.default_rng(seed), spec=spec)
    gens = {
        n: ConstantLoad(get_profile(n).max_load_rps, 0.4, rng=np.random.default_rng(i))
        for i, n in enumerate(names)
    }
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec), profiles, gens, np.random.default_rng(seed + 1)
    )
    return twig, env


def test_names_reflect_variant():
    twig_s, _ = _make(("masstree",))
    twig_c, _ = _make(("masstree", "moses"))
    assert twig_s.name == "twig-s"
    assert twig_c.name == "twig-c"


def test_initial_assignment_is_full_socket_max_dvfs(spec):
    twig, env = _make()
    assignments = twig.initial_assignments()
    assert set(assignments["masstree"].cores) == set(env.socket_core_ids)
    assert assignments["masstree"].freq_index == len(spec.dvfs) - 1


def test_update_returns_valid_assignments():
    twig, env = _make()
    assignments = twig.initial_assignments()
    for _ in range(5):
        result = env.step(assignments)
        assignments = twig.update(result)
        assert set(assignments) == {"masstree"}
        assert all(c in env.socket_core_ids for c in assignments["masstree"].cores)


def test_transitions_are_fed_to_agent():
    twig, env = _make()
    assignments = twig.initial_assignments()
    result = env.step(assignments)
    assignments = twig.update(result)
    assert len(twig.agent.striped) == 0  # first update has no previous state
    result = env.step(assignments)
    twig.update(result)
    assert len(twig.agent.striped) == 1


def test_state_dim_scales_with_services():
    twig_s, _ = _make(("masstree",))
    twig_c, _ = _make(("masstree", "moses"))
    assert twig_s.agent.config.state_dim == 11
    assert twig_c.agent.config.state_dim == 22


def test_rewards_computed_per_service():
    twig, env = _make(("masstree", "moses"))
    assignments = twig.initial_assignments()
    result = env.step(assignments)
    twig.update(result)
    assert set(twig.last_rewards) == {"masstree", "moses"}


def test_exploit_freezes_exploration():
    twig, _ = _make()
    twig.exploit()
    assert twig.agent.epsilon() == 0.0


def test_transfer_to_swaps_service_and_resets_heads():
    twig, _ = _make(("masstree", "moses"))
    out_before = twig.agent.online.adv_heads[0][0].layers[-1].weight.value.copy()
    twig.transfer_to("moses", get_profile("xapian"))
    assert twig.service_order == ["masstree", "xapian"]
    assert "xapian" in twig.profiles
    assert "moses" not in twig.profiles
    assert not np.array_equal(
        twig.agent.online.adv_heads[0][0].layers[-1].weight.value, out_before
    )



def test_degraded_interval_right_after_transfer_holds_a_full_assignment():
    """The swapped-in slot falls back to the starting allocation, so a
    degraded first interval still assigns every service (the per-service
    dict runtime dropped the new service and the next step raised)."""
    twig, env = _make(("masstree", "moses"))
    assignments = twig.initial_assignments()
    for _ in range(5):
        assignments = twig.update(env.step(assignments))
    xapian = get_profile("xapian")
    env.swap_service(
        "moses", xapian, ConstantLoad(xapian.max_load_rps, 0.4, rng=np.random.default_rng(9))
    )
    twig.transfer_to("moses", xapian)
    env.faults = FaultInjector([Fault("pmc_dropout", "xapian", start=env.time + 1)])
    sink = MemorySink()
    twig.attach_obs(sink, None)
    assignments = {("xapian" if n == "moses" else n): a for n, a in assignments.items()}
    assignments = twig.update(env.step(assignments))
    assert [e["services"] for e in sink.of_type("degraded")] == [["xapian"]]
    assert set(assignments) == {"masstree", "xapian"}
    assert twig._alloc_cores[0, 1] == twig.action_space.max_cores
    env.step(assignments)

def test_transfer_unknown_service_raises():
    twig, _ = _make()
    with pytest.raises(ConfigurationError):
        twig.transfer_to("ghost", get_profile("xapian"))


def test_needs_at_least_one_profile():
    with pytest.raises(ConfigurationError):
        Twig([], TwigConfig.fast(), np.random.default_rng(0))


def test_paper_config_defaults():
    config = Config.paper()
    assert config.learning_rate == pytest.approx(0.0025)
    assert config.batch_size == 64
    assert config.discount == pytest.approx(0.99)
    assert config.target_update_every == 150
    assert config.epsilon_mid_steps == 10_000
    assert config.epsilon_final_steps == 25_000
    assert config.shared_hidden == (512, 256)
    assert config.branch_hidden == 128
    assert config.dropout == 0.5
    assert config.eta == 5
    assert config.reward.theta == 0.5


def test_twig_learns_to_shed_resources_at_low_load():
    """Behavioural: at 20% load Twig ends well below the full allocation."""
    spec = ServerSpec()
    profile = get_profile("masstree")
    config = TwigConfig.fast(epsilon_mid_steps=1200, epsilon_final_steps=2000)
    twig = Twig([profile], config, np.random.default_rng(42), spec=spec)
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {"masstree": ConstantLoad(profile.max_load_rps, 0.2, rng=np.random.default_rng(8))},
        np.random.default_rng(7),
    )
    trace = run_manager(twig, env, 3000)
    assert trace.qos_guarantee("masstree", 300) > 90.0
    assert trace.mean_cores("masstree", 300) < 14.0


def test_twig_save_load_roundtrip(tmp_path):
    twig_a, _ = _make(seed=5)
    twig_b, _ = _make(seed=99)
    path = tmp_path / "twig.npz"
    twig_a.save(path)
    twig_b.load(path)
    states = np.zeros((1, 11))
    assert np.array_equal(
        twig_b.agent.online.greedy_actions_batch(states),
        twig_a.agent.online.greedy_actions_batch(states),
    )
