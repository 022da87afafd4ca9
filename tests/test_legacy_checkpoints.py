"""Checkpoints written by the scalar Twig runtime still load and resume.

``tests/data/legacy_twig.ckpt.npz`` (a ``twig`` checkpoint: per-service
dicts, one ``SystemMonitor`` tree and a scalar agent with a
``PrioritizedReplayBuffer``) and ``tests/data/legacy_bdq_agent.ckpt.npz``
(that agent on its own, a ``bdq_agent`` checkpoint) were written by the
per-service-dict ``Twig`` that preceded the one-server ``FleetTwig``:

    config = TwigConfig.fast(epsilon_mid_steps=150, epsilon_final_steps=300)
        .scaled(shared_hidden=(12,), branch_hidden=8, buffer_capacity=32,
                batch_size=8, min_buffer_size=8)
    twig = Twig([masstree, xapian], config, np.random.default_rng(21))
    run_manager(twig, make_environment([masstree, xapian], [0.4, 0.4], 13), 100)
    twig.save(...); twig.agent.save(...)

The recorded hashes are the run traces of 20 more intervals, by that same
runtime, from each file loaded into a differently seeded Twig, on a fresh
environment (seed 17). The replay ring has wrapped three times, so the
conversion has to keep its cursor and sum tree exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.ckpt.checkpoint import load_state
from repro.core import Twig, TwigConfig
from repro.core.fleet import FleetBDQAgent
from repro.errors import CheckpointError
from repro.experiments.common import make_environment
from repro.experiments.runner import run_manager
from repro.nn.network import save_weights
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.services.profiles import get_profile
from tests.helpers import _assert_tree_equal
from tests.test_golden_run_traces import trace_sha256

DATA = Path(__file__).parent / "data"
SERVICES = ["masstree", "xapian"]

#: file -> (run-trace sha256 of the resumed 20 intervals, agent step count after).
RESUMED = {
    "legacy_twig.ckpt.npz": (
        "ebc6da7d0e5b44021271ec90b8ee89ee6d6caec0dbcbad2bfabaa80f68ec9c69", 119
    ),
    "legacy_bdq_agent.ckpt.npz": (
        "b2d629999a9bae015817d06a244a86cb877f5f3ca752b9b4223a118a732954f9", 118
    ),
}


def _twig(seed: int = 99) -> Twig:
    config = TwigConfig.fast(epsilon_mid_steps=150, epsilon_final_steps=300).scaled(
        shared_hidden=(12,), branch_hidden=8, buffer_capacity=32, batch_size=8,
        min_buffer_size=8,
    )
    return Twig([get_profile(s) for s in SERVICES], config, np.random.default_rng(seed))


@pytest.mark.parametrize("name", sorted(RESUMED))
def test_legacy_checkpoint_resumes_the_recorded_run(name):
    twig = _twig()
    twig.load(DATA / name)
    trace = run_manager(twig, make_environment(SERVICES, [0.4, 0.4], 17), 20)
    digest, steps = RESUMED[name]
    assert trace_sha256([trace]) == digest
    assert twig.agent.step_count == steps


@pytest.mark.parametrize("name", sorted(RESUMED))
def test_legacy_checkpoint_restores_the_stored_state(name):
    twig = _twig()
    twig.load(DATA / name)
    tree = load_state(DATA / name)
    agent_tree = tree.get("agent", tree)
    for i, param in enumerate(twig.agent.online.parameters()):
        assert np.array_equal(param.value, agent_tree["online"][f"{i:04d}"])
    assert twig.agent.step_count == agent_tree["counters"]["step_count"]
    buffer = agent_tree["buffer"]
    assert len(twig.agent.striped) == buffer["size"]
    assert np.array_equal(twig.agent.striped._tree._tree, buffer["tree"]["tree"])
    if "monitor" in tree:
        bank = twig.monitor_bank.state_dict()
        for row, service in enumerate(SERVICES):
            stored = tree["monitor"]["history"][service]
            assert bank["counts"][row] == len(stored)
            assert np.array_equal(bank["history"][row, -len(stored):], stored)
        assert twig._has_prev[0]
        assert np.array_equal(twig._prev_state_mat[0], tree["prev_state"])
        assert np.array_equal(twig._prev_action_mat[0], tree["prev_actions"])


def test_weight_only_npz_restores_the_online_network(tmp_path):
    """The third format Twig.load reads: bare online weights (pre-repro.ckpt)."""
    source = _twig(seed=1)
    path = tmp_path / "weights.npz"
    save_weights(source.agent.online.parameters(), path)
    twig = _twig()
    with pytest.warns(UserWarning, match="weight-only"):
        twig.load(path)
    for mine, theirs in zip(twig.agent.online.parameters(), source.agent.online.parameters()):
        assert np.array_equal(mine.value, theirs.value)


@pytest.mark.parametrize("name", sorted(RESUMED))
def test_truncated_legacy_checkpoint_leaves_the_policy_untouched(tmp_path, name):
    data = (DATA / name).read_bytes()
    torn = tmp_path / name
    torn.write_bytes(data[: len(data) // 2])
    twig = _twig()
    run_manager(twig, make_environment(SERVICES, [0.4, 0.4], 3), 12)
    before = twig.state_dict()
    with pytest.raises(CheckpointError):
        twig.load(torn)
    _assert_tree_equal(twig.state_dict(), before)


@pytest.mark.parametrize("prioritized", [True, False], ids=["prioritized", "uniform"])
def test_scalar_agent_tree_trains_like_the_scalar_agent(prioritized):
    """A scalar agent's tree, ring wrapped, becomes a one-stripe fleet agent
    that draws the same minibatch and takes the same gradient step."""
    config = BDQAgentConfig(
        state_dim=6, branch_sizes=[[5, 3], [4, 2]], batch_size=8, min_buffer_size=8,
        buffer_capacity=16, shared_hidden=(8,), branch_hidden=4,
        use_prioritized_replay=prioritized,
    )
    scalar = BDQAgent(config, np.random.default_rng(3))
    feeder = np.random.default_rng(4)
    for _ in range(21):
        scalar.observe(Transition(
            state=feeder.normal(size=6), actions=[[1, 2], [3, 1]],
            rewards=feeder.normal(size=2), next_state=feeder.normal(size=6),
        ))
    fleet = FleetBDQAgent(config, np.random.default_rng(99), num_envs=1)
    fleet.load_state_dict(scalar.state_dict())
    assert fleet.train_step() == scalar.train_step()
    # One more stored transition overwrites the same ring slot on both.
    state, next_state, rewards = feeder.normal(size=6), feeder.normal(size=6), feeder.normal(size=2)
    loss = scalar.observe(Transition(state, [[1, 2], [3, 1]], rewards, next_state))
    assert fleet.observe_batch(
        np.array([0]), state[None], np.array([[1, 2, 3, 1]]), rewards[None], next_state[None]
    ) == loss
    for mine, theirs in zip(fleet.online.parameters(), scalar.online.parameters()):
        assert np.array_equal(mine.value, theirs.value)
    assert fleet._rng.bit_generator.state == scalar._rng.bit_generator.state
