"""Array-backed sum tree supporting O(log n) prefix-sum sampling.

This is the classic data structure underlying proportional prioritised
experience replay: leaves hold per-transition priorities, internal nodes
hold subtree sums, and sampling walks down from the root following a
uniform draw over the total mass.

Besides the scalar :meth:`SumTree.find` / :meth:`SumTree.update` pair, the
tree exposes batched counterparts (:meth:`SumTree.find_batch`,
:meth:`SumTree.update_batch`, :meth:`SumTree.update_distinct`) that
descend/propagate one whole tree level per numpy operation, so sampling
or inserting a batch costs O(log n) array ops instead of
O(batch * log n) Python steps.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import CheckpointError, ConfigurationError

# 0-d operands for the batched walks: numpy converts a Python scalar
# operand on every call, which costs more than the op on a minibatch.
_ZERO = np.zeros(())
_ONE = np.ones((), dtype=np.int64)


class SumTree:
    """A complete binary tree over ``capacity`` leaf priorities."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        # Pad to a power of two so the node = leaf_count + leaf mapping keeps
        # leaves in index order (required for cumulative-interval sampling).
        self._leaf_count = 1
        while self._leaf_count < self.capacity:
            self._leaf_count *= 2
        self._depth = self._leaf_count.bit_length() - 1
        self._tree = np.zeros(2 * self._leaf_count)

    @property
    def total(self) -> float:
        """Sum of all leaf priorities."""
        return float(self._tree[1])

    def __getitem__(self, leaf: int) -> float:
        self._check_leaf(leaf)
        return float(self._tree[self._leaf_count + leaf])

    def _check_leaf(self, leaf: int) -> None:
        if not 0 <= leaf < self.capacity:
            raise IndexError(f"leaf {leaf} out of range [0, {self.capacity})")

    def _check_leaves(self, leaves: np.ndarray) -> np.ndarray:
        leaves = np.asarray(leaves, dtype=np.int64).reshape(-1)
        if leaves.size and not (0 <= leaves.min() and leaves.max() < self.capacity):
            raise IndexError(
                f"leaves {leaves[(leaves < 0) | (leaves >= self.capacity)]} "
                f"out of range [0, {self.capacity})"
            )
        return leaves

    def priorities(self, leaves: np.ndarray) -> np.ndarray:
        """Vectorised read of many leaf priorities at once."""
        return self._tree[self._leaf_count + self._check_leaves(leaves)]

    def update(self, leaf: int, priority: float) -> None:
        """Set the priority of a leaf and propagate sums to the root.

        A positive priority adds its delta to every ancestor. A zero one
        recomputes each ancestor from its children instead: a delta can
        leave a rounding residue behind, and a subtree whose leaves are
        all zero must sum to exactly 0.0, or a descent would walk into it.
        """
        self._check_leaf(leaf)
        if priority < 0 or not np.isfinite(priority):
            raise ConfigurationError(f"priority must be finite and >= 0, got {priority}")
        tree = self._tree
        node = self._leaf_count + leaf
        if priority == 0.0:
            tree[node] = 0.0
            node //= 2
            while node >= 1:
                tree[node] = tree[2 * node] + tree[2 * node + 1]
                node //= 2
            return
        delta = priority - tree[node]
        while node >= 1:
            tree[node] += delta
            node //= 2

    def find(self, mass: float) -> int:
        """Return the leaf whose cumulative-priority interval contains ``mass``."""
        if self.total <= 0:
            raise ConfigurationError("cannot sample from an all-zero sum tree")
        mass = min(max(mass, 0.0), self.total)
        node = 1
        while node < self._leaf_count:
            left = 2 * node
            left_sum = self._tree[left]
            right_sum = self._tree[left + 1]
            if left_sum <= 0.0:
                node = left + 1
            elif right_sum <= 0.0 or mass <= left_sum:
                node = left
            else:
                mass -= left_sum
                node = left + 1
        return node - self._leaf_count

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot: capacity plus the *whole* node array.

        Internal sums are stored verbatim rather than recomputed from the
        leaves on load: scalar :meth:`update` delta-adjusts ancestor sums,
        so a recomputation could differ in the last ulp and break the
        bit-exact resume guarantee.
        """
        return {"capacity": self.capacity, "tree": self._tree.copy()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            capacity = int(state["capacity"])
            tree = np.asarray(state["tree"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed sum-tree state: {exc}") from exc
        if capacity != self.capacity:
            raise CheckpointError(
                f"sum-tree capacity mismatch: checkpoint {capacity}, tree {self.capacity}"
            )
        if tree.shape != self._tree.shape:
            raise CheckpointError(
                f"sum-tree node-array shape mismatch: {tree.shape} != {self._tree.shape}"
            )
        # Internal sums are not checked against their children (see
        # state_dict), but every descent reads them: they must be finite.
        if not np.all(np.isfinite(tree)):
            raise CheckpointError("sum-tree nodes must be finite")
        leaves = tree[self._leaf_count:]
        if leaves.min() < 0:
            raise CheckpointError(
                f"sum-tree priorities must be >= 0, got leaves "
                f"{np.flatnonzero(leaves < 0)} below zero"
            )
        if np.any(leaves[self.capacity:] > 0):
            raise CheckpointError(
                f"sum-tree priority on padding leaves past capacity {self.capacity}"
            )
        self._tree = tree.copy()

    # ------------------------------------------------------------------ #
    # batched operations
    # ------------------------------------------------------------------ #
    def _check_batch(
        self, leaves: np.ndarray, priorities: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validated flat ``(leaves, priorities)`` for a batched update."""
        leaves = self._check_leaves(leaves)
        priorities = np.asarray(priorities, dtype=np.float64).reshape(-1)
        if priorities.shape != leaves.shape:
            raise ConfigurationError(
                f"got {leaves.size} leaves but {priorities.size} priorities"
            )
        # min() and max() propagate NaN, which fails both compares.
        if priorities.size and not (priorities.min() >= 0 and priorities.max() < np.inf):
            raise ConfigurationError(
                "priorities must be finite and >= 0, got "
                f"{priorities[~(np.isfinite(priorities) & (priorities >= 0))]}"
            )
        return leaves, priorities

    def update_batch(self, leaves: np.ndarray, priorities: np.ndarray) -> None:
        """Set many leaf priorities and re-propagate sums level by level.

        Equivalent to a sequential loop of :meth:`update` calls: duplicate
        leaves keep the last priority in the batch. Internal sums are
        recomputed from their children rather than delta-adjusted, so
        duplicates cannot double-count.
        """
        leaves, priorities = self._check_batch(leaves, priorities)
        if priorities.size == 0:
            return
        tree = self._tree
        right = tree[1:]  # right[n] is tree[n + 1], the right sibling of left child n
        nodes = self._leaf_count + leaves
        tree[nodes] = priorities
        # No dedup needed while climbing: duplicate parents all recompute
        # the same sum from the same (already-final) children, so repeated
        # fancy-index writes are idempotent — and skipping the per-level
        # np.unique sort costs less than the redundant adds at minibatch
        # sizes. Leaves share one level, so exactly ``depth`` shifts reach
        # the root.
        parents = nodes >> 1
        for _ in range(self._depth):
            children = parents + parents
            sums = tree[children]
            sums += right[children]
            tree[parents] = sums
            np.right_shift(parents, _ONE, out=parents)

    def update_distinct(self, leaves: np.ndarray, priorities: np.ndarray) -> None:
        """Set the priorities of distinct leaves, bitwise like scalar updates.

        The tree array afterwards equals, bit for bit, a loop of
        :meth:`update` calls over the same leaves in the same order: each
        leaf's delta is added to every ancestor by ONE ``np.add.at`` over
        all levels' node indices, level-major, and ``np.add.at``
        accumulates repeated indices in index order, so every node sees
        the same float additions in the same order as the loop (a node
        lies on one level only). :meth:`update_batch` recomputes sums
        from the children instead and can differ in the last ulp.

        Leaves must be distinct (a repeated leaf's second delta would be
        taken against its stale value); everything is validated before
        the tree is touched. A batch with a zero priority in it runs the
        :meth:`update` loop itself, since a zero write recomputes its
        ancestors rather than adding a delta.
        """
        leaves, priorities = self._check_batch(leaves, priorities)
        if priorities.size == 0:
            return
        ordered = np.sort(leaves)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ConfigurationError(
                f"leaves must be distinct, got repeats of "
                f"{ordered[1:][ordered[1:] == ordered[:-1]]}"
            )
        if not priorities.all():
            for leaf, priority in zip(leaves.tolist(), priorities.tolist()):
                self.update(leaf, priority)
            return
        nodes = self._leaf_count + leaves
        deltas = priorities - self._tree[nodes]
        # depth + 1 levels: the leaves themselves, then every ancestor up
        # to and including the root (node 1); row L holds level L's nodes.
        levels = nodes >> np.arange(self._depth + 1)[:, None]
        np.add.at(self._tree, levels.ravel(), np.tile(deltas, self._depth + 1))

    def find_batch(self, masses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`find`: one leaf per entry of ``masses``.

        All lookups descend in lockstep, one tree level per iteration, so
        the cost is O(log capacity) numpy operations for the whole batch.
        """
        if self.total <= 0:
            raise ConfigurationError("cannot sample from an all-zero sum tree")
        # Clamped into [0, total] (np.clip's result, for far less call
        # overhead); a NaN mass stays NaN.
        masses = np.maximum(np.asarray(masses, dtype=np.float64).reshape(-1), _ZERO)
        np.minimum(masses, self.total, out=masses)
        tree = self._tree
        right = tree[1:]  # right[n] is tree[n + 1], the right sibling of left child n
        count = masses.size
        nodes = np.ones(count, dtype=np.int64)
        go_left = np.empty(count, dtype=bool)
        scratch = np.empty(count, dtype=bool)
        for _ in range(self._depth):
            nodes += nodes  # the left child
            left_sum = tree[nodes]
            right_sum = right[nodes]
            # Mirror the scalar descent: an empty left subtree forces right,
            # an empty right subtree (zero-padded tail) forces left, else
            # split on the left subtree's mass.
            np.less_equal(masses, left_sum, out=go_left)
            np.less_equal(right_sum, _ZERO, out=scratch)
            go_left |= scratch
            np.greater(left_sum, _ZERO, out=scratch)
            go_left &= scratch
            # Right past a non-empty left subtree: its mass is passed.
            scratch ^= go_left
            np.subtract(masses, left_sum, out=masses, where=scratch)
            np.logical_not(go_left, out=go_left)
            nodes += go_left  # the right child where not going left
        return nodes - self._leaf_count
