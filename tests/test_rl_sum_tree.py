"""Unit and property tests for the prioritised-replay sum tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.rl.sum_tree import SumTree


def test_total_tracks_updates():
    tree = SumTree(4)
    tree.update(0, 1.0)
    tree.update(3, 2.0)
    assert tree.total == pytest.approx(3.0)
    tree.update(0, 0.5)
    assert tree.total == pytest.approx(2.5)


def test_find_returns_correct_leaf():
    tree = SumTree(4)
    for leaf, priority in enumerate([1.0, 2.0, 3.0, 4.0]):
        tree.update(leaf, priority)
    # cumulative: [1, 3, 6, 10]
    assert tree.find(0.5) == 0
    assert tree.find(2.5) == 1
    assert tree.find(5.0) == 2
    assert tree.find(9.9) == 3


def test_find_never_returns_zero_priority_leaf():
    tree = SumTree(8)
    tree.update(5, 3.0)
    for mass in np.linspace(0, 3.0, 17):
        assert tree.find(float(mass)) == 5


def test_find_on_empty_tree_raises():
    with pytest.raises(ConfigurationError):
        SumTree(4).find(0.5)


def test_update_validation():
    tree = SumTree(4)
    with pytest.raises(IndexError):
        tree.update(4, 1.0)
    with pytest.raises(ConfigurationError):
        tree.update(0, -1.0)
    with pytest.raises(ConfigurationError):
        tree.update(0, float("nan"))


def test_non_power_of_two_capacity():
    tree = SumTree(5)
    for leaf in range(5):
        tree.update(leaf, 1.0)
    assert tree.total == pytest.approx(5.0)
    found = {tree.find(m) for m in np.linspace(0.01, 4.99, 50)}
    assert found == set(range(5))


@settings(max_examples=50)
@given(
    priorities=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=64,
    )
)
def test_total_equals_sum_of_priorities(priorities):
    tree = SumTree(len(priorities))
    for leaf, priority in enumerate(priorities):
        tree.update(leaf, priority)
    assert tree.total == pytest.approx(sum(priorities), abs=1e-9)


# ---------------------------------------------------------------------- #
# edge cases the batched implementations must preserve
# ---------------------------------------------------------------------- #
def test_find_with_mass_equal_total_and_zero_padding():
    # Capacity 5 pads the leaf level to 8 with trailing zero leaves; a draw
    # of exactly the total mass must land on the last *positive* leaf, never
    # a padded one.
    tree = SumTree(5)
    for leaf in range(5):
        tree.update(leaf, 1.0 + leaf)
    assert tree.find(tree.total) == 4
    assert tree.find_batch(np.array([tree.total]))[0] == 4
    # Same with the last real leaf zeroed out.
    tree.update(4, 0.0)
    assert tree.find(tree.total) == 3
    assert tree.find_batch(np.array([tree.total]))[0] == 3


def test_find_batch_matches_scalar_find():
    rng = np.random.default_rng(5)
    for capacity in (1, 3, 8, 21):
        tree = SumTree(capacity)
        priorities = rng.random(capacity) * (rng.random(capacity) < 0.7)
        priorities[0] = max(priorities[0], 0.01)  # keep the tree non-empty
        tree.update_batch(np.arange(capacity), priorities)
        masses = np.concatenate([rng.random(64) * tree.total, [0.0, tree.total]])
        expected = np.array([tree.find(float(m)) for m in masses])
        assert np.array_equal(tree.find_batch(masses), expected)


def test_update_batch_matches_sequential_updates():
    rng = np.random.default_rng(6)
    sequential, batched = SumTree(13), SumTree(13)
    leaves = rng.integers(0, 13, size=40)
    priorities = rng.random(40) * 9
    for leaf, priority in zip(leaves, priorities):
        sequential.update(int(leaf), float(priority))
    batched.update_batch(leaves, priorities)
    # Duplicate leaves: last write wins in both, sums agree everywhere.
    assert np.allclose(sequential._tree, batched._tree)


def _scalar_updates(tree, leaves, priorities):
    for leaf, priority in zip(np.asarray(leaves).tolist(), np.asarray(priorities).tolist()):
        tree.update(leaf, priority)


@pytest.mark.parametrize("capacity", [1, 5, 13, 64, 100])
def test_update_distinct_bitwise_matches_scalar_updates(capacity):
    rng = np.random.default_rng(capacity)
    scalar, batched = SumTree(capacity), SumTree(capacity)
    for _ in range(4):
        # Overwrite leaves that already hold non-zero priorities (a
        # wrapped replay ring), in a shuffled order, over several rounds.
        leaves = rng.permutation(capacity)[: rng.integers(1, capacity + 1)]
        priorities = rng.random(leaves.size) * 10.0 ** rng.integers(-3, 4, size=leaves.size)
        _scalar_updates(scalar, leaves, priorities)
        batched.update_distinct(leaves, priorities)
        assert np.array_equal(batched._tree, scalar._tree)


def test_update_distinct_validation_leaves_tree_untouched():
    tree = SumTree(6)
    _scalar_updates(tree, [0, 2, 5], [1.0, 2.0, 3.0])
    before = tree._tree.copy()
    bad_calls = [
        (IndexError, [0, 6], [1.0, 1.0]),
        (ConfigurationError, [0, 1], [1.0, -1.0]),
        (ConfigurationError, [0, 1], [1.0, float("inf")]),
        (ConfigurationError, [0, 1], [1.0]),
        (ConfigurationError, [2, 4, 2], [1.0, 1.0, 1.0]),
    ]
    for error, leaves, priorities in bad_calls:
        with pytest.raises(error):
            tree.update_distinct(np.array(leaves), np.array(priorities))
        assert np.array_equal(tree._tree, before), (leaves, priorities)
    tree.update_distinct(np.array([], dtype=np.int64), np.array([]))  # no-op
    assert np.array_equal(tree._tree, before)


def test_update_batch_validation():
    tree = SumTree(4)
    with pytest.raises(IndexError):
        tree.update_batch(np.array([0, 4]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        tree.update_batch(np.array([0]), np.array([-1.0]))
    with pytest.raises(ConfigurationError):
        tree.update_batch(np.array([0]), np.array([float("nan")]))
    with pytest.raises(ConfigurationError):
        tree.update_batch(np.array([0, 1]), np.array([1.0]))
    tree.update_batch(np.array([], dtype=np.int64), np.array([]))  # no-op
    tree.update(0, 2.0)
    assert tree.total == pytest.approx(2.0)


def test_find_batch_on_empty_tree_raises():
    with pytest.raises(ConfigurationError):
        SumTree(4).find_batch(np.array([0.5]))


def test_capacity_one_batched_ops():
    tree = SumTree(1)
    tree.update_batch(np.array([0]), np.array([3.0]))
    assert tree.total == pytest.approx(3.0)
    assert tree.find_batch(np.array([0.0, 1.5, 3.0])).tolist() == [0, 0, 0]


@settings(max_examples=50)
@given(
    priorities=st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=64,
    ),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_find_respects_cumulative_intervals(priorities, fraction):
    tree = SumTree(len(priorities))
    for leaf, priority in enumerate(priorities):
        tree.update(leaf, priority)
    mass = fraction * tree.total
    leaf = tree.find(mass)
    cumulative = np.cumsum([0.0] + priorities)
    # The mass must fall inside (or on the boundary of) the returned leaf's
    # cumulative interval.
    assert cumulative[leaf] <= mass + 1e-6
    assert mass <= cumulative[leaf + 1] + 1e-6


# ---------------------------------------------------------------------- #
# zero priorities leave no residue
# ---------------------------------------------------------------------- #
def test_zeroed_leaves_are_never_found():
    """Zeroing leaves through ``update_distinct`` empties their ancestors
    exactly: a delta update left 2.8e-17 above two zeroed leaves, and
    both descents then returned leaf 1, of priority 0."""
    tree = SumTree(2)
    tree.update_distinct(np.array([0, 1]), np.array([0.1, 0.2]))
    tree.update_distinct(np.array([0, 1]), np.array([0.0, 0.0]))
    assert tree.total == 0.0
    with pytest.raises(ConfigurationError):
        tree.find(0.0)
    with pytest.raises(ConfigurationError):
        tree.find_batch(np.array([0.0]))
    # Beside a live leaf, the descents walk past the zeroed pair.
    tree = SumTree(4)
    tree.update_distinct(np.array([0, 1, 2]), np.array([0.1, 0.2, 0.3]))
    tree.update_distinct(np.array([0, 1]), np.array([0.0, 0.0]))
    assert tree._tree[2] == 0.0
    assert tree.find(0.0) == 2
    assert tree.find_batch(np.array([0.0, tree.total])).tolist() == [2, 2]


def test_zeroing_leaves_one_at_a_time_empties_the_root():
    """``[1.0, 2**-53]`` zeroed leaf by leaf used to leave the root at
    -1.1e-16."""
    tree = SumTree(2)
    tree.update_distinct(np.array([0, 1]), np.array([1.0, 2.0**-53]))
    for leaf in (0, 1):
        tree.update_distinct(np.array([leaf]), np.array([0.0]))
    assert tree.total == 0.0
    assert not np.signbit(tree.total)


@pytest.mark.parametrize("seed", range(6))
def test_update_distinct_with_zeros_matches_scalar_updates(seed):
    """Batches with zeros in them still match the ``update`` loop bit for
    bit, and every node over only zero leaves reads exactly 0.0."""
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 40))
    scalar, batched = SumTree(capacity), SumTree(capacity)
    for _ in range(12):
        leaves = rng.permutation(capacity)[: rng.integers(1, capacity + 1)]
        priorities = rng.random(leaves.size) * 10.0 ** rng.integers(-3, 4, size=leaves.size)
        priorities[rng.random(leaves.size) < 0.4] = 0.0
        _scalar_updates(scalar, leaves, priorities)
        batched.update_distinct(leaves, priorities)
        assert np.array_equal(batched._tree, scalar._tree)
        tree = batched._tree
        first = tree.size // 2
        empty = tree[first:] == 0.0
        while first > 1:
            empty = empty[0::2] & empty[1::2]
            first //= 2
            assert np.all(tree[first:2 * first][empty] == 0.0)
