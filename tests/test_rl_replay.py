"""Unit tests for uniform and prioritised replay buffers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer


def _transition(value: float):
    return {
        "state": np.full(3, value),
        "reward": np.array(value),
    }


def test_replay_add_and_len(rng):
    buffer = ReplayBuffer(10, rng)
    assert len(buffer) == 0
    buffer.add(_transition(1.0))
    assert len(buffer) == 1


def test_replay_wraps_at_capacity(rng):
    buffer = ReplayBuffer(3, rng)
    for value in range(5):
        buffer.add(_transition(float(value)))
    assert len(buffer) == 3
    batch = buffer.gather(np.array([0, 1, 2]))
    # slot 0 was overwritten by value 3, slot 1 by value 4
    assert set(batch["reward"].tolist()) == {3.0, 4.0, 2.0}


def test_replay_sample_shapes(rng):
    buffer = ReplayBuffer(10, rng)
    for value in range(6):
        buffer.add(_transition(float(value)))
    batch = buffer.sample(4)
    assert batch["state"].shape == (4, 3)
    assert batch["reward"].shape == (4,)
    assert batch["indices"].shape == (4,)


def test_replay_field_mismatch_rejected(rng):
    buffer = ReplayBuffer(10, rng)
    buffer.add(_transition(1.0))
    with pytest.raises(ShapeError):
        buffer.add({"state": np.ones(3)})
    with pytest.raises(ShapeError):
        buffer.add({"state": np.ones(4), "reward": np.array(1.0)})


def test_rejected_add_leaves_full_buffer_untouched(rng):
    # Regression: a field was written before the next field's shape was
    # checked, so a rejected transition tore a live slot.
    buffer = PrioritizedReplayBuffer(2, rng)
    for value in (1.0, 2.0):
        buffer.add({"state": np.full(3, value), "rewards": np.array([value])})
    buffer.update_priorities(np.array([0, 1]), np.array([0.5, 3.0]))
    storage = {key: store.copy() for key, store in buffer._storage.items()}
    tree = buffer._tree._tree.copy()
    size, next_index = len(buffer), buffer._next_index
    with pytest.raises(ShapeError):
        buffer.add({"state": np.full(3, 9.0), "rewards": np.ones(2)})
    assert set(buffer._storage) == set(storage)
    for key, store in storage.items():
        assert np.array_equal(buffer._storage[key], store), key
    assert np.array_equal(buffer._tree._tree, tree)
    assert (len(buffer), buffer._next_index) == (size, next_index)


def test_replay_sample_empty_raises(rng):
    with pytest.raises(ShapeError):
        ReplayBuffer(4, rng).sample(1)


def test_per_new_items_get_max_priority(rng):
    buffer = PrioritizedReplayBuffer(8, rng)
    buffer.add(_transition(0.0))
    buffer.update_priorities(np.array([0]), np.array([10.0]))
    buffer.add(_transition(1.0))
    # The new item should be as likely as the high-error one.
    assert buffer._tree[1] == pytest.approx(buffer._tree[0], rel=0.01)


def test_per_sampling_prefers_high_priority(rng):
    buffer = PrioritizedReplayBuffer(4, rng)
    for value in range(4):
        buffer.add(_transition(float(value)))
    # Slot 2 gets overwhelming priority.
    buffer.update_priorities(np.array([0, 1, 2, 3]), np.array([0.001, 0.001, 50.0, 0.001]))
    batch = buffer.sample(256, beta=1.0)
    counts = np.bincount(batch["indices"].astype(int), minlength=4)
    assert counts[2] > 0.8 * 256


def test_per_weights_normalised(rng):
    buffer = PrioritizedReplayBuffer(8, rng)
    for value in range(8):
        buffer.add(_transition(float(value)))
    buffer.update_priorities(np.arange(8), np.linspace(0.1, 2.0, 8))
    batch = buffer.sample(16, beta=0.5)
    assert batch["weights"].max() == pytest.approx(1.0)
    assert np.all(batch["weights"] > 0)


def test_per_beta_validation(rng):
    buffer = PrioritizedReplayBuffer(4, rng)
    buffer.add(_transition(0.0))
    with pytest.raises(ConfigurationError):
        buffer.sample(1, beta=1.5)


def test_per_alpha_validation(rng):
    with pytest.raises(ConfigurationError):
        PrioritizedReplayBuffer(4, rng, alpha=2.0)


def test_per_weights_match_true_sampling_probabilities(rng):
    """Regression: IS weights must come from the priorities the tree sampled
    with. The old code clamped them to ``eps ** alpha``, so a leaf whose
    actual priority sat below the clamp got a weight inconsistent with its
    true sampling probability."""
    buffer = PrioritizedReplayBuffer(8, rng, alpha=1.0, eps=1e-4)
    for value in range(8):
        buffer.add(_transition(float(value)))
    # Force every leaf's priority below eps ** alpha (bypassing the eps
    # floor update_priorities applies): under the old clamp all sampled
    # priorities collapsed to the same floor value, so the weights came out
    # uniform even though the true sampling probabilities span 100x.
    buffer._tree.update_batch(np.arange(8), np.linspace(1e-9, 1e-7, 8))
    batch = buffer.sample(512, beta=1.0)
    indices = batch["indices"].astype(int)
    probabilities = buffer._tree.priorities(indices) / buffer._tree.total
    # At beta = 1 the unnormalised weight is 1 / (N * p), so w * p must be
    # constant across the batch: E[w * indicator(i)] consistency.
    products = batch["weights"] * probabilities
    assert products.max() == pytest.approx(products.min(), rel=1e-9)


def test_per_expected_weighted_indicator_is_uniform(rng):
    """E_p[w(i) * 1{i = j}] = w_j p_j must be equal for every stored j, i.e.
    importance weighting exactly undoes the prioritised sampling bias."""
    buffer = PrioritizedReplayBuffer(4, rng, alpha=0.8)
    for value in range(4):
        buffer.add(_transition(float(value)))
    buffer.update_priorities(np.arange(4), np.array([0.01, 0.5, 1.0, 7.0]))
    batch = buffer.sample(2048, beta=1.0)
    indices = batch["indices"].astype(int)
    total = buffer._tree.total
    expectations = np.zeros(4)
    for j in range(4):
        mask = indices == j
        # Empirical E[w * indicator(j)] -- mean over the batch.
        expectations[j] = batch["weights"][mask].sum() / len(indices)
    # Each should estimate w_j * p_j, identical across j; Monte-Carlo
    # stratified sampling keeps the spread tight.
    assert expectations.max() < 1.35 * expectations.min()


def test_per_sample_smaller_buffer_than_batch(rng):
    buffer = PrioritizedReplayBuffer(16, rng)
    for value in range(3):
        buffer.add(_transition(float(value)))
    batch = buffer.sample(8, beta=0.7)
    assert batch["state"].shape == (8, 3)
    assert batch["weights"].shape == (8,)
    assert set(batch["indices"].astype(int)) <= {0, 1, 2}
    assert batch["weights"].max() == pytest.approx(1.0)


def test_per_update_priorities_batched_matches_scalar(rng):
    a = PrioritizedReplayBuffer(8, np.random.default_rng(0))
    b = PrioritizedReplayBuffer(8, np.random.default_rng(0))
    for value in range(8):
        a.add(_transition(float(value)))
        b.add(_transition(float(value)))
    errors = np.linspace(0.0, 3.0, 8)
    a.update_priorities(np.arange(8), errors)
    for index, error in zip(np.arange(8), errors):
        priority = float(abs(error)) + b.eps
        b._max_priority = max(b._max_priority, priority)
        b._tree.update(int(index), priority ** b.alpha)
    assert np.allclose(a._tree._tree, b._tree._tree)
    assert a._max_priority == b._max_priority


def test_per_batch_size_validation(rng):
    buffer = PrioritizedReplayBuffer(4, rng)
    buffer.add(_transition(0.0))
    with pytest.raises(ConfigurationError):
        buffer.sample(0)


def test_uniform_sample_smaller_buffer_than_batch(rng):
    buffer = ReplayBuffer(16, rng)
    for value in range(3):
        buffer.add(_transition(float(value)))
    batch = buffer.sample(10)
    assert batch["state"].shape == (10, 3)


def test_per_alpha_zero_is_uniform(rng):
    buffer = PrioritizedReplayBuffer(4, rng, alpha=0.0)
    for value in range(4):
        buffer.add(_transition(float(value)))
    buffer.update_priorities(np.arange(4), np.array([0.001, 0.001, 50.0, 0.001]))
    batch = buffer.sample(2000, beta=1.0)
    counts = np.bincount(batch["indices"].astype(int), minlength=4)
    assert counts.min() > 300  # roughly uniform
