"""Unit and behavioural tests for the BDQ deep Q-learning agent."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from tests.helpers import _assert_tree_equal, parameter


def _config(**overrides):
    defaults = dict(
        state_dim=4,
        branch_sizes=[[4, 3]],
        min_buffer_size=16,
        buffer_capacity=500,
        batch_size=16,
        shared_hidden=(32, 16),
        branch_hidden=8,
        dropout=0.0,
        epsilon_mid_steps=50,
        epsilon_final_steps=100,
    )
    defaults.update(overrides)
    return BDQAgentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _config(epsilon_mid_steps=100, epsilon_final_steps=100)
    with pytest.raises(ConfigurationError):
        _config(discount=0.0)
    with pytest.raises(ConfigurationError):
        _config(buffer_capacity=4, batch_size=16)


def test_act_respects_branch_ranges(rng):
    agent = BDQAgent(_config(), rng)
    for _ in range(50):
        actions = agent.act(rng.random(4))
        assert len(actions) == 1
        cores, dvfs = actions[0]
        assert 0 <= cores < 4
        assert 0 <= dvfs < 3


def test_act_rejects_wrong_state_dim(rng):
    agent = BDQAgent(_config(), rng)
    with pytest.raises(ShapeError):
        agent.act(np.ones(7))


def test_epsilon_anneals_and_freezes(rng):
    agent = BDQAgent(_config(), rng)
    assert agent.epsilon() == 1.0
    agent.step_count = 100
    assert agent.epsilon() == pytest.approx(0.01)
    agent.exploring_frozen = True
    assert agent.epsilon() == 0.0


def test_observe_rejects_wrong_reward_count(rng):
    agent = BDQAgent(_config(), rng)
    with pytest.raises(ShapeError):
        agent.observe(
            Transition(np.ones(4), [[0, 0]], np.array([1.0, 2.0]), np.ones(4))
        )


@pytest.mark.parametrize(
    "field,bad",
    [
        ("state", np.ones(5)),
        ("state", np.ones((1, 4))),
        ("next_state", np.ones(3)),
        ("next_state", np.ones((4, 1))),
        ("actions", []),
        ("actions", [[4, 0]]),
        ("actions", [[0, -1]]),
    ],
    ids=["state-wide", "state-2d", "next-narrow", "next-2d", "no-actions",
         "cores-past-branch", "negative-dvfs"],
)
def test_observe_refuses_a_wrong_width_before_storing(rng, field, bad):
    """The first stored row fixes the replay widths, so a wrong-width
    transition must be refused before it is stored: otherwise every later
    correct ``observe`` raises."""
    agent = BDQAgent(_config(), rng)
    good = dict(state=np.ones(4), actions=[[0, 0]], rewards=np.array([1.0]), next_state=np.ones(4))
    before = agent.state_dict()
    with pytest.raises(ShapeError, match=field):
        agent.observe(Transition(**{**good, field: bad}))
    assert len(agent.striped) == 0
    _assert_tree_equal(agent.state_dict(), before)
    agent.observe(Transition(**good))
    assert len(agent.striped) == 1


def test_training_starts_after_min_buffer(rng):
    agent = BDQAgent(_config(min_buffer_size=10), rng)
    state = rng.random(4)
    for step in range(9):
        loss = agent.observe(Transition(state, [[0, 0]], np.array([0.0]), state))
        assert loss is None
    loss = agent.observe(Transition(state, [[0, 0]], np.array([0.0]), state))
    assert loss is not None and np.isfinite(loss)


def test_target_sync_interval(rng):
    agent = BDQAgent(_config(target_update_every=5, min_buffer_size=1000), rng)
    state = rng.random(4)
    agent.online.parameters()[0].value += 1.0  # diverge from target
    for _ in range(4):
        agent.observe(Transition(state, [[0, 0]], np.array([0.0]), state))
    assert not np.allclose(
        agent.online.parameters()[0].value, agent.target.parameters()[0].value
    )
    agent.observe(Transition(state, [[0, 0]], np.array([0.0]), state))
    assert np.allclose(
        agent.online.parameters()[0].value, agent.target.parameters()[0].value
    )


def test_agent_learns_contextual_bandit(rng):
    """Reward depends on state: the agent must learn a state-conditional
    greedy policy, exercising the full pipeline (PER, double-Q, BDQ)."""
    agent = BDQAgent(
        _config(epsilon_mid_steps=300, epsilon_final_steps=500, min_buffer_size=32),
        rng,
    )
    def reward(state, actions):
        cores, dvfs = actions[0]
        want_cores = 3 if state[0] > 0.5 else 0
        return float(cores == want_cores) + 0.5 * float(dvfs == 1)

    state = rng.random(4)
    for _ in range(800):
        actions = agent.act(state)
        next_state = rng.random(4)
        agent.observe(
            Transition(state, actions, np.array([reward(state, actions)]), next_state)
        )
        state = next_state

    agent.exploring_frozen = True
    high = np.array([0.9, 0.5, 0.5, 0.5])
    low = np.array([0.1, 0.5, 0.5, 0.5])
    assert agent.act(high)[0][0] == 3
    assert agent.act(low)[0][0] == 0
    assert agent.act(high)[0][1] == 1


def test_multi_agent_rewards_are_per_agent(rng):
    config = _config(branch_sizes=[[3, 2], [3, 2]], epsilon_mid_steps=200,
                     epsilon_final_steps=400, min_buffer_size=32)
    agent = BDQAgent(config, rng)
    state = rng.random(4)
    for _ in range(600):
        actions = agent.act(state)
        rewards = np.array(
            [float(actions[0][0] == 2), float(actions[1][0] == 0)]
        )
        next_state = rng.random(4)
        agent.observe(Transition(state, actions, rewards, next_state))
        state = next_state
    agent.exploring_frozen = True
    actions = agent.act(state)
    assert actions[0][0] == 2
    assert actions[1][0] == 0


def test_transfer_reinitialises_heads_and_targets(rng):
    agent = BDQAgent(_config(), rng)
    out_before = parameter(agent.online, "adv0.0.out.W").value.copy()
    trunk_before = parameter(agent.online, "trunk.0.W").value.copy()
    agent.transfer(np.random.default_rng(11))
    assert not np.array_equal(parameter(agent.online, "adv0.0.out.W").value, out_before)
    assert np.array_equal(parameter(agent.online, "trunk.0.W").value, trunk_before)
    # target resynced to the online network
    assert np.allclose(
        parameter(agent.target, "adv0.0.out.W").value,
        parameter(agent.online, "adv0.0.out.W").value,
    )


def test_save_load_roundtrip(tmp_path, rng):
    agent = BDQAgent(_config(), rng)
    other = BDQAgent(_config(), np.random.default_rng(77))
    path = tmp_path / "agent.npz"
    agent.save(path)
    other.load(path)
    states = rng.random((8, 4))
    assert np.array_equal(
        other.online.greedy_actions_batch(states), agent.online.greedy_actions_batch(states)
    )


def test_uniform_replay_mode(rng):
    agent = BDQAgent(_config(use_prioritized_replay=False), rng)
    state = rng.random(4)
    for _ in range(40):
        agent.observe(Transition(state, [[0, 0]], np.array([1.0]), state))
    assert agent.last_loss is not None
