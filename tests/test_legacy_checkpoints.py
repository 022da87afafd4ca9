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

``tests/data/scalar_bdq_agent_{prioritized,uniform}.ckpt.npz`` are a
plain ``BDQAgent``'s own ``bdq_agent`` checkpoints from before every
agent replayed from a striped buffer; the recipe is in
``test_scalar_agent_tree_trains_like_the_scalar_agent``.
"""

from __future__ import annotations

import hashlib
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


def scalar_agent_config(prioritized: bool = True) -> BDQAgentConfig:
    """The config of the ``scalar_bdq_agent_*`` fixtures."""
    return BDQAgentConfig(
        state_dim=6, branch_sizes=[[5, 3], [4, 2]], batch_size=8, min_buffer_size=8,
        buffer_capacity=16, shared_hidden=(8,), branch_hidden=4,
        use_prioritized_replay=prioritized,
    )


#: use_prioritized_replay -> (train_step loss after the load, loss of the
#: observe after it, sha256 of the online weights after both), as the
#: scalar agent that wrote the file went on.
SCALAR_AGENT = {
    True: (
        1.55703652338876, 2.7843590805395966,
        "117b5c4a3b3e1a7951345cc4c2f2b263b97c6150c0f527c54e6c0698018780c2",
    ),
    False: (
        6.501537809952767, 7.440676641279388,
        "51db9c8d193f0d94115f84292fd05f73f62cabf2c23a8e80848351989d137fd1",
    ),
}


@pytest.mark.parametrize("prioritized", [True, False], ids=["prioritized", "uniform"])
def test_scalar_agent_tree_trains_like_the_scalar_agent(prioritized):
    """A scalar agent's tree, ring wrapped, loads as replay stripe 0 and the
    agent draws the same minibatch and takes the same gradient steps.

    ``tests/data/scalar_bdq_agent_{prioritized,uniform}.ckpt.npz`` are
    ``bdq_agent`` checkpoints (format version 1) that a plain ``BDQAgent``
    wrote while it still kept its own ``ReplayBuffer`` /
    ``PrioritizedReplayBuffer`` ring, so its tree has a ``buffer`` subtree
    and no ``striped`` one:

        config = BDQAgentConfig(
            state_dim=6, branch_sizes=[[5, 3], [4, 2]], batch_size=8,
            min_buffer_size=8, buffer_capacity=16, shared_hidden=(8,),
            branch_hidden=4, use_prioritized_replay=prioritized)
        agent = BDQAgent(config, np.random.default_rng(3))
        feeder = np.random.default_rng(4)
        for _ in range(21):
            agent.observe(Transition(
                state=feeder.normal(size=6), actions=[[1, 2], [3, 1]],
                rewards=feeder.normal(size=2), next_state=feeder.normal(size=6)))
        agent.save(path)

    21 transitions in a 16-slot ring: it has wrapped and its cursor is at
    slot 5. ``SCALAR_AGENT`` holds what that agent did next: one
    ``train_step``, then one more observed transition (the feeder's next
    draws), which trained once more.
    """
    config = scalar_agent_config(prioritized)
    feeder = np.random.default_rng(4)
    for _ in range(21):
        feeder.normal(size=6), feeder.normal(size=2), feeder.normal(size=6)
    state, next_state, rewards = feeder.normal(size=6), feeder.normal(size=6), feeder.normal(size=2)
    kind = "prioritized" if prioritized else "uniform"
    tree = load_state(DATA / f"scalar_bdq_agent_{kind}.ckpt.npz", kind="bdq_agent")
    assert "striped" not in tree and tree["buffer"]["next_index"] == 5
    train_loss, observe_loss, weights = SCALAR_AGENT[prioritized]
    for agent in (
        BDQAgent(config, np.random.default_rng(99)),
        FleetBDQAgent(config, np.random.default_rng(99), num_envs=1),
    ):
        agent.load_state_dict(tree)
        assert agent.train_step() == train_loss
        if isinstance(agent, FleetBDQAgent):
            loss = agent.observe_batch(
                np.array([0]), state[None], np.array([[1, 2, 3, 1]]), rewards[None],
                next_state[None],
            )
        else:
            loss = agent.observe(Transition(state, [[1, 2], [3, 1]], rewards, next_state))
        assert loss == observe_loss
        digest = hashlib.sha256()
        for param in agent.online.parameters():
            digest.update(np.ascontiguousarray(param.value).tobytes())
        assert digest.hexdigest() == weights
