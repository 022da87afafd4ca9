"""Uniform experience replay.

Transitions are stored column-wise in preallocated ring buffers keyed by
field name, which keeps sampling a cheap fancy-index operation even at the
paper's buffer size of 10^6.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ShapeError


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    Fields are declared lazily from the first transition added; every later
    transition must carry the same fields with the same shapes.
    """

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._rng = rng
        self._storage: Optional[Dict[str, np.ndarray]] = None
        self._next_index = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _allocate(self, transition: Mapping[str, np.ndarray]) -> None:
        self._storage = {}
        for key, value in transition.items():
            array = np.asarray(value, dtype=np.float64)
            self._storage[key] = np.zeros((self.capacity,) + array.shape)

    def add(self, transition: Mapping[str, np.ndarray]) -> int:
        """Store one transition; returns the slot index it was written to.

        The field set and every shape are checked before any field is
        written, so a rejected transition leaves the buffer unchanged.
        """
        if self._storage is None:
            self._allocate(transition)
        assert self._storage is not None
        if set(transition) != set(self._storage):
            raise ShapeError(
                f"transition fields {sorted(transition)} != buffer fields {sorted(self._storage)}"
            )
        arrays = {key: np.asarray(value, dtype=np.float64) for key, value in transition.items()}
        for key, array in arrays.items():
            if array.shape != self._storage[key].shape[1:]:
                raise ShapeError(
                    f"field {key!r} shape {array.shape} != expected {self._storage[key].shape[1:]}"
                )
        index = self._next_index
        for key, array in arrays.items():
            self._storage[key][index] = array
        self._next_index = (self._next_index + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return index

    def sample(self, batch_size: int) -> Dict[str, np.ndarray]:
        """Sample ``batch_size`` transitions uniformly with replacement."""
        if self._size == 0:
            raise ShapeError("cannot sample from an empty replay buffer")
        indices = self._rng.integers(0, self._size, size=batch_size)
        return self.gather(indices)

    def gather(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        """Fetch transitions at explicit slot indices."""
        assert self._storage is not None
        batch = {key: store[indices] for key, store in self._storage.items()}
        batch["indices"] = np.asarray(indices)
        return batch

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of the buffer contents and ring position.

        Only the filled rows (``[:len(self)]``) are stored per field; rows
        past the size are all-zero by allocation, so re-zeroing them on
        load reproduces the storage exactly. The sampling RNG is shared
        with (and checkpointed by) the owning agent, not here.
        """
        fields = (
            {}
            if self._storage is None
            else {key: store[: self._size].copy() for key, store in self._storage.items()}
        )
        return {
            "capacity": self.capacity,
            "size": self._size,
            "next_index": self._next_index,
            "fields": fields,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            capacity = int(state["capacity"])
            size = int(state["size"])
            next_index = int(state["next_index"])
            fields = {key: np.asarray(value) for key, value in dict(state["fields"]).items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed replay-buffer state: {exc}") from exc
        if capacity != self.capacity:
            raise CheckpointError(
                f"replay capacity mismatch: checkpoint {capacity}, buffer {self.capacity}"
            )
        if not (0 <= size <= capacity and 0 <= next_index < capacity):
            raise CheckpointError(
                f"inconsistent replay ring state: size={size}, next_index={next_index}"
            )
        if size > 0 and not fields:
            raise CheckpointError(f"replay checkpoint claims {size} transitions but has no fields")
        for key, value in fields.items():
            if value.shape[:1] != (size,):
                raise CheckpointError(
                    f"replay field {key!r} has {value.shape[0] if value.ndim else 0} rows, "
                    f"expected {size}"
                )
        if size == 0 or not fields:
            storage = None
        else:
            storage = {
                key: np.zeros((self.capacity,) + value.shape[1:]) for key, value in fields.items()
            }
            for key, value in fields.items():
                storage[key][:size] = value
        self._storage = storage
        self._size = size if storage is not None else 0
        self._next_index = next_index if storage is not None else 0
