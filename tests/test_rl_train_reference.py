"""The BDQ gradient step, pinned byte for byte to its frozen predecessor.

:class:`tests.oracles.train_reference.ReferenceTrainAgent` runs the step
as it was before it gathered Q at the taken actions only, addressed
action columns by flat offsets, walked the sum tree with one ``take``
per child and read dropout masks back from activations. Fed the same
transitions from the same seed, the package's agent must leave every
byte the same after every tick: online and target weights, the Adam
step and moments, the sum-tree nodes and max priority, the RNG state
and the losses. The sum tree's batched descent and update are also
checked against the frozen ones on arbitrary trees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fleet import FleetBDQAgent
from repro.rl.agent import BDQAgentConfig
from repro.rl.sum_tree import SumTree
from tests.oracles.train_reference import ReferenceSumTree, ReferenceTrainAgent

STATE_DIM = 6
TICKS = 40


def _config(agents: int, dropout: float, prioritized: bool) -> BDQAgentConfig:
    """The ``TwigConfig.fast`` network (128-64 trunk, 32-wide heads) on a
    small buffer, training two minibatches of 64 per tick once it holds
    eight transitions."""
    return BDQAgentConfig(
        state_dim=STATE_DIM * agents,
        branch_sizes=[[18, 9]] * agents,
        batch_size=64,
        min_buffer_size=8,
        buffer_capacity=400,
        shared_hidden=(128, 64),
        branch_hidden=32,
        dropout=dropout,
        discount=0.9,
        gradient_steps=2,
        target_update_every=7,
        use_prioritized_replay=prioritized,
        per_beta_steps=60,
    )


def _assert_same_bytes(agent, reference, context):
    for name in ("online", "target"):
        ours = getattr(agent, name)._flat_param.value
        theirs = getattr(reference, name)._flat_param.value
        assert ours.tobytes() == theirs.tobytes(), f"{name} weights, {context}"
    ours, theirs = agent.optimizer, reference.optimizer
    assert ours._step_count == theirs._step_count, context
    for moments in ("_first_moment", "_second_moment"):
        a, b = getattr(ours, moments), getattr(theirs, moments)
        assert sorted(a) == sorted(b), context
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), f"{moments}, {context}"
    assert agent.striped._tree._tree.tobytes() == reference.striped._tree._tree.tobytes(), (
        f"sum tree, {context}"
    )
    assert agent.striped._max_priority == reference.striped._max_priority, context
    assert agent._rng.bit_generator.state == reference._rng.bit_generator.state, context
    assert agent.train_count == reference.train_count, context
    for counter in ("last_loss", "last_td_error"):
        ours, theirs = getattr(agent, counter), getattr(reference, counter)
        assert (ours is None) == (theirs is None), context
        if ours is not None:
            assert np.float64(ours).tobytes() == np.float64(theirs).tobytes(), (
                f"{counter}, {context}"
            )


@pytest.mark.parametrize("stripes", [1, 256])
@pytest.mark.parametrize("dropout", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("prioritized", [True, False], ids=["per", "uniform"])
@pytest.mark.parametrize("agents", [1, 2, 4])
def test_train_step_matches_frozen_step_byte_for_byte(agents, prioritized, dropout, stripes):
    config = _config(agents, dropout, prioritized)
    agent = FleetBDQAgent(config, np.random.default_rng(3), num_envs=stripes)
    reference = ReferenceTrainAgent(config, np.random.default_rng(3), num_envs=stripes)
    _assert_same_bytes(agent, reference, "at construction")
    feeder = np.random.default_rng(11)
    # A tick brings up to 64 environments' transitions (one for a single
    # stripe), spread over the stripes.
    rows = min(stripes, 64)
    sizes = np.array([n for branch in config.branch_sizes for n in branch])
    for tick in range(TICKS):
        envs = np.sort(feeder.choice(stripes, size=rows, replace=False))
        states = feeder.normal(size=(rows, config.state_dim))
        actions = feeder.integers(0, sizes, size=(rows, sizes.size))
        rewards = feeder.normal(size=(rows, agents))
        next_states = feeder.normal(size=(rows, config.state_dim))
        losses = [
            trained.observe_batch(envs, states, actions, rewards, next_states)
            for trained in (agent, reference)
        ]
        assert np.float64(losses[0] if losses[0] is not None else np.nan).tobytes() == (
            np.float64(losses[1] if losses[1] is not None else np.nan).tobytes()
        ), f"loss at tick {tick}"
        _assert_same_bytes(agent, reference, f"after tick {tick}")
    assert agent.train_count >= 2 * (TICKS - 8)


def _pair(capacity, leaves, priorities, distinct):
    """The same tree twice: the package's and the frozen one."""
    trees = SumTree(capacity), ReferenceSumTree(capacity)
    for tree in trees:
        if distinct:
            tree.update_distinct(leaves, priorities)
        else:
            tree.update_batch(leaves, priorities)
    return trees


#: Zero priorities leave empty subtrees; tiny and large ones mix scales.
PRIORITIES = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1e-280),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _trees(draw):
    capacity = draw(st.integers(1, 70))
    count = draw(st.integers(1, 3 * capacity))
    leaves = draw(st.lists(st.integers(0, capacity - 1), min_size=count, max_size=count))
    priorities = draw(st.lists(PRIORITIES, min_size=count, max_size=count))
    distinct = draw(st.booleans())
    if distinct:
        seen = {}
        for leaf, value in zip(leaves, priorities):
            seen[leaf] = value
        leaves, priorities = list(seen), list(seen.values())
    return capacity, np.array(leaves), np.array(priorities), distinct


def _assert_same_finds(ours, frozen, data):
    if frozen.total <= 0:
        return
    total = frozen.total
    masses = np.array(
        [0.0, total, -1.0, 2 * total, np.nextafter(total, 0.0), float("nan")]
        + data.draw(
            st.lists(
                st.floats(0.0, total, allow_nan=False, allow_infinity=False), max_size=40
            )
        )
        + [total * f for f in np.linspace(0.0, 1.0, 33)]
    )
    assert np.array_equal(ours.find_batch(masses), frozen.find_batch(masses))


@settings(max_examples=300, deadline=None)
@given(_trees(), st.data())
def test_sum_tree_batches_match_frozen_ones(tree_args, data):
    capacity, leaves, priorities, distinct = tree_args
    ours, frozen = _pair(capacity, leaves, priorities, distinct)
    assert ours._tree.tobytes() == frozen._tree.tobytes()
    if distinct:
        # Delta updates that zero leaves can leave an ancestor a rounding
        # residue over an empty subtree, even a negative one.
        changed = np.array(data.draw(st.lists(st.sampled_from(list(leaves)), unique=True)))
        values = np.array(
            data.draw(st.lists(PRIORITIES, min_size=changed.size, max_size=changed.size))
        )
        for tree in (ours, frozen):
            tree.update_distinct(changed.astype(np.int64), values)
    _assert_same_finds(ours, frozen, data)
    # A second, overlapping update_batch with repeats: the last priority
    # of a repeated leaf wins.
    again = np.array(
        data.draw(st.lists(st.integers(0, capacity - 1), min_size=1, max_size=2 * capacity))
    )
    values = np.array(
        data.draw(
            st.lists(
                st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
                min_size=again.size,
                max_size=again.size,
            )
        )
    )
    ours.update_batch(again, values)
    frozen.update_batch(again, values)
    assert ours._tree.tobytes() == frozen._tree.tobytes()
    _assert_same_finds(ours, frozen, data)
