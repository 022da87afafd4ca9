"""Resume-equivalence guarantees of the full-state checkpoint subsystem.

The contract under test: a run checkpointed at step T and resumed into
*freshly constructed* (differently seeded) objects reproduces the
uninterrupted run's actions, losses, traces, and Q-values bit for bit —
for both BDQ implementations at the agent level, and end to end through
``run_manager``. Plus the failure half of the contract: a torn checkpoint
raises ``CheckpointError`` and leaves the target object untouched.
"""

import copy

import numpy as np
import pytest

from repro.ckpt.checkpoint import load_state, save_state
from repro.core import Twig, TwigConfig
from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.runner import RUN_CKPT_NAME, run_manager
from repro.hier import BudgetConfig, HierFleetTwig
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from tests.oracles.bdq_reference import ReferenceBDQAgent
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from tests.helpers import _assert_tree_equal

IMPLEMENTATIONS = [BDQAgent, ReferenceBDQAgent]


def _config(**overrides):
    defaults = dict(
        state_dim=6,
        branch_sizes=[[5, 3], [4, 2]],
        min_buffer_size=16,
        buffer_capacity=256,
        batch_size=16,
        shared_hidden=(32, 16),
        branch_hidden=8,
        dropout=0.5,  # non-zero: resume must replay dropout masks exactly
        epsilon_mid_steps=40,
        epsilon_final_steps=90,
    )
    defaults.update(overrides)
    return BDQAgentConfig(**defaults)


def _drive(agent, feeder, steps):
    """Act/observe for ``steps`` transitions; returns (actions, losses)."""
    record = []
    for _ in range(steps):
        state = feeder.normal(size=agent.config.state_dim)
        actions = agent.act(state)
        loss = agent.observe(
            Transition(
                state=state,
                actions=actions,
                rewards=feeder.normal(size=len(agent.config.branch_sizes)),
                next_state=feeder.normal(size=agent.config.state_dim),
            )
        )
        record.append((tuple(tuple(b) for b in actions), loss))
    return record


@pytest.mark.parametrize("cls", IMPLEMENTATIONS)
def test_agent_resume_is_bit_identical(tmp_path, cls):
    path = tmp_path / "agent.ckpt"
    # Uninterrupted: 30 warmup + 30 recorded continuation steps.
    uninterrupted = cls(_config(), np.random.default_rng(5))
    feeder = np.random.default_rng(17)
    _drive(uninterrupted, feeder, 30)
    expected = _drive(uninterrupted, feeder, 30)

    # Checkpointed: same warmup, save, restore into a *differently seeded*
    # fresh agent — every bit of continuation state must come from disk.
    agent = cls(_config(), np.random.default_rng(5))
    feeder = np.random.default_rng(17)
    _drive(agent, feeder, 30)
    agent.save(path)
    resumed = cls(_config(), np.random.default_rng(12345))
    resumed.load(path)

    assert resumed.step_count == agent.step_count == 30
    assert resumed.train_count == agent.train_count
    got = _drive(resumed, feeder, 30)
    assert got == expected  # actions AND losses, bit for bit

    # After the continuation the resumed agent's Q-function matches the
    # uninterrupted agent's exactly.
    probe = np.random.default_rng(3).normal(size=(8, resumed.config.state_dim))
    assert np.array_equal(
        resumed.online.greedy_actions_batch(probe),
        uninterrupted.online.greedy_actions_batch(probe),
    )


@pytest.mark.parametrize("cls", IMPLEMENTATIONS)
def test_torn_checkpoint_never_half_loads(tmp_path, cls):
    path = tmp_path / "agent.ckpt"
    agent = cls(_config(), np.random.default_rng(5))
    _drive(agent, np.random.default_rng(17), 30)
    written = agent.save(path) or (tmp_path / "agent.ckpt.npz")

    victim = cls(_config(), np.random.default_rng(9))
    _drive(victim, np.random.default_rng(2), 20)
    before = [p.value.copy() for p in victim.online.parameters()]
    step_count, train_count = victim.step_count, victim.train_count

    data = written.read_bytes()
    written.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        victim.load(path)

    # Nothing committed: weights, counters, and buffer are untouched.
    for param, old in zip(victim.online.parameters(), before):
        assert np.array_equal(param.value, old)
    assert victim.step_count == step_count
    assert victim.train_count == train_count


def test_load_restores_schedule_state(tmp_path):
    """Regression: load used to leave ``step_count = 0``, silently
    restarting the epsilon schedule of a trained agent."""
    agent = BDQAgent(_config(), np.random.default_rng(5))
    _drive(agent, np.random.default_rng(17), 30)
    agent.save(tmp_path / "agent.ckpt")
    fresh = BDQAgent(_config(), np.random.default_rng(1))
    assert fresh.step_count == 0
    fresh.load(tmp_path / "agent.ckpt")
    assert fresh.step_count == 30
    assert fresh.epsilon() == agent.epsilon()


def test_legacy_weight_only_checkpoint_loads_with_warning(tmp_path):
    from repro.nn.network import save_weights

    agent = BDQAgent(_config(), np.random.default_rng(5))
    _drive(agent, np.random.default_rng(17), 20)
    path = tmp_path / "legacy.npz"
    save_weights(agent.online.parameters(), path)

    other = BDQAgent(_config(), np.random.default_rng(9))
    with pytest.warns(UserWarning, match="legacy weight-only"):
        other.load(path)
    probe = np.random.default_rng(3).normal(size=(8, agent.config.state_dim))
    assert np.array_equal(
        other.online.greedy_actions_batch(probe), agent.online.greedy_actions_batch(probe)
    )
    # Target resynced from the restored online network.
    for p, t in zip(other.online.parameters(), other.target.parameters()):
        assert np.array_equal(p.value, t.value)


def test_cross_implementation_checkpoints_interchange(tmp_path):
    """A fused-agent checkpoint restores into the reference agent (and
    back) exactly: weights, counters, and optimizer moments all match."""
    fused = BDQAgent(_config(), np.random.default_rng(5))
    _drive(fused, np.random.default_rng(17), 30)
    fused.save(tmp_path / "fused.ckpt")

    reference = ReferenceBDQAgent(_config(), np.random.default_rng(99))
    reference.load(tmp_path / "fused.ckpt")
    assert reference.step_count == fused.step_count
    probe = np.random.default_rng(3).normal(size=(8, fused.config.state_dim))
    assert np.array_equal(
        reference.online.greedy_actions_batch(probe), fused.online.greedy_actions_batch(probe)
    )

    reference.save(tmp_path / "reference.ckpt")
    round_tripped = BDQAgent(_config(), np.random.default_rng(4))
    round_tripped.load(tmp_path / "reference.ckpt")
    # Optimizer moments survive the fused -> reference -> fused translation
    # bit-exactly (padded arena entries are provably zero).
    a = load_state(tmp_path / "fused.ckpt")["optimizer"]
    b = round_tripped.state_dict()["optimizer"]
    assert a["step_count"] == b["step_count"]
    for name in ("first_moment", "second_moment"):
        assert sorted(a[name]) == sorted(b[name])
        for key in a[name]:
            assert np.array_equal(a[name][key], b[name][key])


def test_transfer_restart_epsilon_at_zero(tmp_path):
    """Regression: ``transfer(restart_epsilon_at=0)`` used a falsy check,
    making the 0 rewind unreachable."""
    agent = BDQAgent(_config(), np.random.default_rng(5))
    agent.step_count = 77
    agent.transfer(np.random.default_rng(1), restart_epsilon_at=0)
    assert agent.step_count == 0
    agent.step_count = 77
    agent.transfer(np.random.default_rng(1))  # no sentinel: untouched
    assert agent.step_count == 77
    with pytest.raises(ConfigurationError):
        agent.transfer(np.random.default_rng(1), restart_epsilon_at=-1)


# ---------------------------------------------------------------------- #
# end-to-end: run_manager checkpoint/resume
# ---------------------------------------------------------------------- #
def _twig_and_env(seed=5):
    spec = ServerSpec()
    profiles = [get_profile("masstree")]
    twig = Twig(profiles, TwigConfig.fast(), np.random.default_rng(seed), spec=spec)
    generators = {
        "masstree": ConstantLoad(
            get_profile("masstree").max_load_rps, 0.4, rng=np.random.default_rng(0)
        )
    }
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec), profiles, generators, np.random.default_rng(seed + 1)
    )
    return twig, env


def _trace_tuple(trace):
    parts = [tuple(trace.power_w), tuple(trace.true_power_w), tuple(trace.membw_utilization)]
    for name, service in trace.services.items():
        parts.append(
            (
                name,
                tuple(service.p99_ms),
                tuple(service.arrival_rps),
                tuple(service.cores),
                tuple(service.frequency_ghz),
                service.qos_target_ms,
            )
        )
    parts.append(tuple(sorted(trace.migrations.items())))
    return parts


def test_run_manager_resume_is_bit_identical(tmp_path):
    steps = 40
    twig, env = _twig_and_env()
    reference = run_manager(twig, env, steps)

    twig, env = _twig_and_env()
    checkpointed = run_manager(
        twig, env, steps, checkpoint_every=15, checkpoint_dir=tmp_path
    )
    assert (tmp_path / RUN_CKPT_NAME).exists()
    assert _trace_tuple(checkpointed) == _trace_tuple(reference)

    # Resume into freshly built, differently seeded manager + environment:
    # the full RunTrace must still be bit-identical to the uninterrupted run.
    twig, env = _twig_and_env(seed=123)
    resumed = run_manager(twig, env, steps, resume_from=tmp_path)
    assert _trace_tuple(resumed) == _trace_tuple(reference)
    assert resumed.steps() == steps


def test_run_manager_resume_validates_manager_and_steps(tmp_path):
    twig, env = _twig_and_env()
    run_manager(twig, env, 20, checkpoint_every=10, checkpoint_dir=tmp_path)

    twig, env = _twig_and_env()
    with pytest.raises(CheckpointError, match="20-step run"):
        run_manager(twig, env, 30, resume_from=tmp_path)

    from repro.baselines import StaticManager

    with pytest.raises(CheckpointError, match="manager"):
        run_manager(StaticManager(["masstree"]), env, 20, resume_from=tmp_path)


def test_run_manager_checkpoint_requires_capable_manager(tmp_path):
    from repro.baselines import StaticManager

    _, env = _twig_and_env()
    with pytest.raises(ConfigurationError, match="checkpointing"):
        run_manager(
            StaticManager(["masstree"]), env, 20,
            checkpoint_every=5, checkpoint_dir=tmp_path,
        )


def test_run_manager_checkpoint_flag_validation(tmp_path):
    twig, env = _twig_and_env()
    with pytest.raises(ConfigurationError, match="requires checkpoint_dir"):
        run_manager(twig, env, 10, checkpoint_every=5)
    with pytest.raises(ConfigurationError, match="checkpoint_every must be positive"):
        run_manager(twig, env, 10, checkpoint_every=0, checkpoint_dir=tmp_path)


def test_run_checkpoint_rejects_wrong_kind(tmp_path):
    twig, env = _twig_and_env()
    save_state(tmp_path / RUN_CKPT_NAME, "twig", twig.state_dict())
    with pytest.raises(CheckpointError, match="expected 'run'"):
        run_manager(twig, env, 10, resume_from=tmp_path)


def test_twig_full_checkpoint_roundtrip(tmp_path):
    """Twig.save/.load restores the control-loop context, not just the
    agent: held allocations, pending transition half, monitor history."""
    twig, env = _twig_and_env()
    assignments = twig.initial_assignments()
    for _ in range(6):
        result = env.step(assignments)
        assignments = twig.update(result)
    twig.save(tmp_path / "twig.ckpt")

    other, _ = _twig_and_env(seed=77)
    other.load(tmp_path / "twig.ckpt")
    assert np.array_equal(other._alloc_cores, twig._alloc_cores)
    assert np.array_equal(other._alloc_freq, twig._alloc_freq)
    assert np.array_equal(other._alloc_ways, twig._alloc_ways)
    assert np.array_equal(other._prev_action_mat, twig._prev_action_mat)
    assert other._has_prev[0] and twig._has_prev[0]
    assert np.array_equal(other._prev_state_mat, twig._prev_state_mat)
    assert other.last_rewards == twig.last_rewards
    assert other.agent.step_count == twig.agent.step_count
    # Both managers now produce identical next assignments.
    result = env.step(assignments)
    assert twig.update(result) == other.update(result)


# ---------------------------------------------------------------------- #
# a loaded tree stays the caller's
# ---------------------------------------------------------------------- #
FLEET_SERVICES = ["masstree", "xapian"]


def _stepped_fleet(cls, ticks, seed):
    """A 3-environment fleet after ``ticks`` intervals, with its batch."""
    venv = VectorEnvironment.from_services(
        FLEET_SERVICES, {"masstree": 0.4, "xapian": 0.5}, 3, seed
    )
    kwargs = {"budget": BudgetConfig(period=4)} if cls is HierFleetTwig else {}
    fleet = cls(
        [get_profile(s) for s in FLEET_SERVICES],
        TwigConfig.fast().scaled(batch_size=2, min_buffer_size=2, buffer_capacity=48),
        np.random.default_rng(seed + 1),
        num_envs=3,
        **kwargs,
    )
    if ticks:
        run_fleet(fleet, venv, ticks)
    return fleet, venv


def _loaded_then_stepped(cls, manager_tree, env_tree):
    fleet, venv = _stepped_fleet(cls, 0, seed=99)
    fleet.load_state_dict(manager_tree)
    venv.load_state_dict(copy.deepcopy(env_tree))
    run_fleet(fleet, venv, 6)
    return fleet


@pytest.mark.parametrize("cls", [FleetTwig, HierFleetTwig])
def test_stepping_a_loaded_fleet_leaves_its_tree_alone(cls):
    """The striped replay buffer used to keep the tree's ``sizes`` and
    ``cursors`` arrays as its own, so every later insert advanced the
    caller's tree; loading it a second time then raised or resumed from
    the wrong ring positions."""
    source, source_venv = _stepped_fleet(cls, 5, seed=11)
    tree, env_tree = source.state_dict(), source_venv.state_dict()
    pristine = copy.deepcopy(tree)
    _loaded_then_stepped(cls, tree, env_tree)
    _assert_tree_equal(tree, pristine)
    again = _loaded_then_stepped(cls, tree, env_tree)
    untouched = _loaded_then_stepped(cls, copy.deepcopy(pristine), env_tree)
    _assert_tree_equal(again.state_dict(), untouched.state_dict())
