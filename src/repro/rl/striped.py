"""Striped prioritised replay: N per-environment stripes, ONE sum tree.

This is the replay buffer of every :class:`~repro.rl.agent.BDQAgent`. A
plain agent has one stripe, a ring of ``buffer_capacity`` transitions;
the vectorized engine (``repro.engine``) feeds one shared fleet agent
from N environments, one stripe each. Giving each environment its own
buffer would preserve per-env recency (each stripe is its own ring) but
make every train step pay N small ``sample``/``update_priorities`` calls
— at fleet scale the tiny tree walks cost more than the gradient math.

This buffer keeps the per-environment ring semantics while folding all
stripes into one :class:`~repro.rl.sum_tree.SumTree`: environment ``e``
owns the contiguous leaf range ``[e * stripe_capacity, (e + 1) *
stripe_capacity)`` and overwrites its own oldest transitions, but
inserts, sampling and priority updates are single batched tree
operations over the whole fleet. Sampling is globally proportional —
exactly the distribution one big PER buffer over the union of
transitions would use, so importance-sampling weights normalise over
the whole minibatch. :meth:`StripedPrioritizedReplayBuffer.sample_uniform`
is the uniform-replay ablation over the same rows.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.rl.sum_tree import SumTree


def one_stripe_state(state: Mapping[str, Any]) -> Dict[str, Any]:
    """A scalar replay-ring snapshot as a one-stripe
    :class:`StripedPrioritizedReplayBuffer` snapshot.

    Agents wrote such a ring (``capacity``, ``size``, ``next_index``,
    ``fields``, and for prioritized replay ``tree`` and ``max_priority``)
    before they replayed from stripes. The ring becomes stripe 0 with the
    same capacity, size, cursor and rows; the sum tree and max priority
    carry over verbatim, because one stripe's leaves are the ring's slots
    in the same order. A uniform ring has no priorities: its stripe gets
    an all-zero tree, which uniform sampling never reads.
    """
    try:
        capacity = int(state["capacity"])
        return {
            "num_envs": 1,
            "stripe_capacity": capacity,
            "sizes": np.array([int(state["size"])]),
            "cursors": np.array([int(state["next_index"])]),
            "fields": state["fields"],
            "tree": state["tree"] if "tree" in state else SumTree(capacity).state_dict(),
            "max_priority": state.get("max_priority", 1.0),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed replay state: {exc}") from exc


class StripedPrioritizedReplayBuffer:
    """Proportional PER over ``num_envs`` per-environment ring stripes.

    Fields are declared lazily from the first transition added; every
    later transition must carry the same fields with the same shapes.
    """

    def __init__(
        self,
        num_envs: int,
        stripe_capacity: int,
        rng: np.random.Generator,
        alpha: float = 0.6,
        eps: float = 1e-4,
    ):
        if num_envs <= 0:
            raise ConfigurationError(f"num_envs must be positive, got {num_envs}")
        if stripe_capacity <= 0:
            raise ConfigurationError(
                f"stripe_capacity must be positive, got {stripe_capacity}"
            )
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        self.num_envs = int(num_envs)
        self.stripe_capacity = int(stripe_capacity)
        self.capacity = self.num_envs * self.stripe_capacity
        self._rng = rng
        self.alpha = alpha
        self.eps = eps
        self._tree = SumTree(self.capacity)
        self._max_priority = 1.0
        self._storage: Optional[Dict[str, np.ndarray]] = None
        self._sizes = np.zeros(self.num_envs, dtype=np.int64)
        self._cursors = np.zeros(self.num_envs, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._sizes.sum())

    def stripe_len(self, env_index: int) -> int:
        """Number of stored transitions in one environment's stripe."""
        if not 0 <= env_index < self.num_envs:
            raise IndexError(f"env index {env_index} out of range [0, {self.num_envs})")
        return int(self._sizes[env_index])

    def add(self, env_index: int, transition: Mapping[str, np.ndarray]) -> int:
        """Store one transition in ``env_index``'s stripe; returns its slot.

        A one-row :meth:`add_batch`. The slot index is global (``stripe
        base + ring position``), so it can be handed straight back to
        :meth:`update_priorities`.
        """
        rows = {
            key: np.asarray(value, dtype=np.float64)[None] for key, value in transition.items()
        }
        return int(self.add_batch(np.array([env_index]), rows)[0])

    def add_batch(
        self, env_indices: np.ndarray, rows: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Store row ``i`` of every field in ``env_indices[i]``'s stripe.

        Each environment contributes at most one row per call, so the
        slots written are distinct and the insert is one fancy-index
        write per field, one cursor/size update and one
        :meth:`~repro.rl.sum_tree.SumTree.update_distinct`: storage and
        tree end bitwise equal to per-row :meth:`add` calls in
        ``env_indices`` order. Everything is validated before anything is
        written, so a rejected call leaves the buffer untouched; an empty
        call writes nothing and allocates nothing. Returns the global
        slots, row-aligned with ``env_indices``.
        """
        env_indices = np.asarray(env_indices, dtype=np.int64).reshape(-1)
        count = env_indices.size
        if count and not (0 <= env_indices.min() and env_indices.max() < self.num_envs):
            outside = env_indices[(env_indices < 0) | (env_indices >= self.num_envs)]
            raise ShapeError(f"env indices {outside} out of range [0, {self.num_envs})")
        if count and np.bincount(env_indices, minlength=self.num_envs).max() > 1:
            raise ShapeError(f"env indices {env_indices} repeat an environment")
        arrays = {key: np.asarray(value, dtype=np.float64) for key, value in rows.items()}
        if self._storage is not None and set(arrays) != set(self._storage):
            raise ShapeError(
                f"transition fields {sorted(arrays)} != buffer fields "
                f"{sorted(self._storage)}"
            )
        for key, array in arrays.items():
            row_shape = array.shape[1:] if self._storage is None else self._storage[key].shape[1:]
            if array.shape != (count,) + row_shape:
                raise ShapeError(
                    f"field {key!r} rows have shape {array.shape}, "
                    f"expected {(count,) + row_shape}"
                )
        if count == 0:
            return env_indices
        if self._storage is None:
            self._storage = {
                key: np.zeros((self.capacity,) + array.shape[1:])
                for key, array in arrays.items()
            }
        cursors = self._cursors[env_indices]
        slots = env_indices * self.stripe_capacity + cursors
        for key, array in arrays.items():
            self._storage[key][slots] = array
        self._cursors[env_indices] = (cursors + 1) % self.stripe_capacity
        self._sizes[env_indices] = np.minimum(
            self._sizes[env_indices] + 1, self.stripe_capacity
        )
        self._tree.update_distinct(
            slots, np.full(count, self._max_priority ** self.alpha)
        )
        return slots

    def sample(self, batch_size: int, beta: float = 1.0) -> Dict[str, np.ndarray]:
        """Sample proportionally across ALL stripes in one tree descent.

        Segment-stratified: the total mass is cut into ``batch_size``
        equal segments and one uniform draw picks a mass in each.
        Importance-sampling weights use the fleet-wide transition count
        and are max-normalised over the whole minibatch, so updates are
        only ever scaled down. Empty slots hold zero priority, so
        ``find_batch`` never returns one.
        """
        stored = len(self)
        if stored == 0:
            raise ConfigurationError("cannot sample from an empty replay buffer")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError(f"beta must be in [0, 1], got {beta}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        total = self._tree.total
        segment = total / batch_size
        masses = (np.arange(batch_size) + self._rng.random(batch_size)) * segment
        indices = self._tree.find_batch(masses)
        probabilities = self._tree.priorities(indices) / total
        weights = (stored * probabilities) ** (-beta)
        weights /= weights.max()
        assert self._storage is not None
        batch = {key: store[indices] for key, store in self._storage.items()}
        batch["indices"] = np.asarray(indices)
        batch["weights"] = weights
        return batch

    def sample_uniform(self, batch_size: int) -> Dict[str, np.ndarray]:
        """Sample uniformly, with replacement, over every stored transition.

        One ``integers`` draw over the stored transitions in stripe order,
        so a single stripe samples ``integers(0, size)`` slots of its ring.
        """
        total = len(self)
        if total == 0:
            raise ShapeError("cannot sample from an empty replay buffer")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        indices = self._occupied_slots()[self._rng.integers(0, total, size=batch_size)]
        assert self._storage is not None
        batch = {key: store[indices] for key, store in self._storage.items()}
        batch["indices"] = indices
        return batch

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """Set new priorities from absolute TD errors (one batched update)."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        priorities = np.abs(np.asarray(td_errors, dtype=np.float64).reshape(-1)) + self.eps
        if priorities.size:
            self._max_priority = max(self._max_priority, float(priorities.max()))
        self._tree.update_batch(indices, priorities ** self.alpha)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def _occupied_slots(self, sizes: Optional[np.ndarray] = None) -> np.ndarray:
        """Global slot indices of every stored transition, stripe order.

        Each stripe fills its region from the base, so the occupied slots
        are per-stripe prefixes — rows past ``sizes[e]`` were never
        written and stay all-zero by allocation. ``sizes`` defaults to
        the buffer's own.
        """
        sizes = self._sizes if sizes is None else sizes
        return np.concatenate(
            [
                e * self.stripe_capacity + np.arange(sizes[e], dtype=np.int64)
                for e in range(self.num_envs)
            ]
        )

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot: ring state per stripe, occupied rows, tree, max priority."""
        occupied = self._occupied_slots()
        fields = (
            {}
            if self._storage is None
            else {key: store[occupied].copy() for key, store in self._storage.items()}
        )
        return {
            "num_envs": self.num_envs,
            "stripe_capacity": self.stripe_capacity,
            "sizes": self._sizes.copy(),
            "cursors": self._cursors.copy(),
            "fields": fields,
            "tree": self._tree.state_dict(),
            "max_priority": self._max_priority,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            num_envs = int(state["num_envs"])
            stripe_capacity = int(state["stripe_capacity"])
            sizes = np.asarray(state["sizes"], dtype=np.int64).reshape(-1)
            cursors = np.asarray(state["cursors"], dtype=np.int64).reshape(-1)
            fields = {key: np.asarray(value) for key, value in dict(state["fields"]).items()}
            tree_state = state["tree"]
            max_priority = float(state["max_priority"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed striped-replay state: {exc}") from exc
        if num_envs != self.num_envs or stripe_capacity != self.stripe_capacity:
            raise CheckpointError(
                f"striped-replay geometry mismatch: checkpoint "
                f"{num_envs}x{stripe_capacity}, buffer "
                f"{self.num_envs}x{self.stripe_capacity}"
            )
        if sizes.shape != (self.num_envs,) or cursors.shape != (self.num_envs,):
            raise CheckpointError(
                f"expected {self.num_envs} per-stripe sizes/cursors, got "
                f"{sizes.shape[0]}/{cursors.shape[0]}"
            )
        if not (
            np.all((0 <= sizes) & (sizes <= stripe_capacity))
            and np.all((0 <= cursors) & (cursors < stripe_capacity))
        ):
            raise CheckpointError(
                f"inconsistent stripe ring state: sizes={sizes}, cursors={cursors}"
            )
        if not (np.isfinite(max_priority) and max_priority > 0):
            raise CheckpointError(
                f"max_priority must be finite and > 0, got {max_priority}"
            )
        total = int(sizes.sum())
        if total > 0 and not fields:
            raise CheckpointError(
                f"striped checkpoint claims {total} transitions but has no fields"
            )
        for key, value in fields.items():
            if value.shape[:1] != (total,):
                raise CheckpointError(
                    f"striped field {key!r} has "
                    f"{value.shape[0] if value.ndim else 0} rows, expected {total}"
                )
        staged_tree = SumTree(self.capacity)
        staged_tree.load_state_dict(tree_state)
        occupied = self._occupied_slots(sizes)
        # Sampling draws slots by mass: mass on a slot no stripe occupies
        # would be drawn as an all-zero transition.
        phantom = staged_tree.priorities(np.arange(self.capacity)) > 0
        phantom[occupied] = False
        if phantom.any():
            raise CheckpointError(
                f"sum-tree priority on slots {np.flatnonzero(phantom)} "
                "that no stripe occupies"
            )
        if total == 0 or not fields:
            storage = None
        else:
            storage = {
                key: np.zeros((self.capacity,) + value.shape[1:])
                for key, value in fields.items()
            }
            for key, value in fields.items():
                storage[key][occupied] = value
        self._storage = storage
        # Copies: the caller's tree must not advance with later inserts.
        self._sizes = sizes.copy() if storage is not None else np.zeros_like(sizes)
        self._cursors = cursors.copy() if storage is not None else np.zeros_like(cursors)
        self._tree = staged_tree
        self._max_priority = max_priority
