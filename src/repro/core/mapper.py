"""Twig's mapper module (Sections III-B3 and IV).

Three responsibilities:

1. Turn each service's ``Allocation`` request into concrete core pins and a
   DVFS index; unallocated cores implicitly drop to the lowest DVFS state
   when the engine installs the assignment.
2. Prioritise core order for cache locality: services are placed from
   opposite ends of the socket, preferring every-other core (the paper's
   example gives sv-1 cores 0, 2, 4 and sv-2 cores 10, 12, 14, 16).
3. Arbitrate conflicts: when requests exceed the socket, the overlapping
   cores are timeshared by the contending services and run at the highest
   DVFS state among their requests (the machine model enforces the
   max-DVFS rule for shared cores).

:meth:`Mapper.map_rows` places N servers at once from ``(N, S)`` core,
DVFS and way matrices and returns an :class:`AssignmentBatch`: ``(N, S,
C)`` pin rows, built with a few array passes per service and no
per-server Python. :meth:`Mapper.map` is its one-row case: one server's
requests in, a ``name -> CoreAssignment`` dict out. The placement is
pinned to a frozen copy of the original per-server mapper
(``tests/oracles/mapper_reference.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.actions import Allocation
from repro.errors import AllocationError, ShapeError
from repro.server.machine import CoreAssignment, check_assignments
from repro.server.spec import ServerSpec


class AssignmentBatch(Sequence):
    """N servers' placements as arrays; per-server dicts built on read.

    ``pins`` is ``(N, S, C)`` bool over the socket's cores ``core_ids``
    (column ``c`` is core ``core_ids[c]``), ``freq`` and ``ways`` are the
    ``(N, S)`` DVFS indices and arbitrated LLC ways of the services
    ``names``. The batch owns read-only copies of all five, so a batch
    kept across later ticks still reads its own tick.

    ``batch[e]`` builds server ``e``'s ``name -> CoreAssignment`` dict
    (a new one on every read), equal to :meth:`Mapper.map`'s for the same
    requests. The vector engine reads the arrays and never builds a
    dict; :meth:`from_dicts` turns per-server dicts into a batch.
    """

    def __init__(
        self,
        names: Sequence[str],
        core_ids: Sequence[int],
        pins: np.ndarray,
        freq: np.ndarray,
        ways: np.ndarray,
    ):
        self.names = tuple(names)
        self.core_ids = np.array(core_ids, dtype=np.int64)
        self.pins = np.array(pins, dtype=bool)
        self.freq = np.array(freq, dtype=np.int64)
        self.ways = np.array(ways, dtype=np.int64)
        shape = self.pins.shape[:2]
        if (
            self.pins.shape[1:] != (len(self.names), self.core_ids.size)
            or self.freq.shape != shape
            or self.ways.shape != shape
        ):
            raise ShapeError(
                f"assignment batch for {len(self.names)} services on "
                f"{self.core_ids.size} cores got pins {self.pins.shape}, "
                f"freq {self.freq.shape}, ways {self.ways.shape}"
            )
        for array in (self.core_ids, self.pins, self.freq, self.ways):
            array.setflags(write=False)

    @classmethod
    def from_dicts(
        cls,
        names: Sequence[str],
        assignments: Sequence[Mapping[str, CoreAssignment]],
        spec: ServerSpec,
        socket_index: int = 1,
    ) -> "AssignmentBatch":
        """Per-server ``name -> CoreAssignment`` dicts for the services
        ``names`` on socket ``socket_index``, as one batch.

        Each dict is checked and refused with an ``AllocationError``: other
        services, a core off the socket, then ``Machine.apply``'s checks
        (:func:`~repro.server.machine.check_assignments`: zero cores, a
        DVFS index off the ladder, a repeated core).
        """
        core_ids = spec.socket_core_ids(socket_index)
        column = {core: j for j, core in enumerate(core_ids)}
        shape = (len(assignments), len(names))
        pins = np.zeros(shape + (len(core_ids),), dtype=bool)
        freq = np.zeros(shape, dtype=np.int64)
        ways = np.zeros(shape, dtype=np.int64)
        for e, assignment in enumerate(assignments):
            if set(assignment) != set(names):
                raise AllocationError(
                    f"assignments for {sorted(assignment)} but services are "
                    f"{sorted(names)}"
                )
            for name, a in assignment.items():
                outside = [c for c in a.cores if c not in column]
                if outside:
                    raise AllocationError(
                        f"service {name!r} assigned cores {outside} outside server "
                        f"socket {socket_index}"
                    )
            check_assignments(spec, assignment)
            for i, name in enumerate(names):
                a = assignment[name]
                pins[e, i, [column[c] for c in a.cores]] = True
                freq[e, i], ways[e, i] = a.freq_index, a.llc_ways
        return cls(names, core_ids, pins, freq, ways)

    def __len__(self) -> int:
        return self.pins.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return {
            name: CoreAssignment(
                cores=tuple(self.core_ids[row].tolist()), freq_index=level, llc_ways=llc
            )
            for name, row, level, llc in zip(
                self.names, self.pins[index], self.freq[index].tolist(),
                self.ways[index].tolist(),
            )
        }


class Mapper:
    """Places services onto one socket's cores."""

    def __init__(self, spec: ServerSpec, socket_index: int = 1):
        self.spec = spec
        self.socket_index = socket_index
        self.socket_cores = spec.socket_core_ids(socket_index)
        n = len(self.socket_cores)
        # Each side's pick order as local core indices, for the batched
        # disjoint placement.
        self._orders = (
            np.array(self._preference(0, n), dtype=np.int64),
            np.array(self._preference(1, n), dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def map(self, requests: Mapping[str, Allocation]) -> Dict[str, CoreAssignment]:
        """Resolve one server's requests into concrete core assignments:
        :meth:`map_rows` of the one row they make."""
        rows = [
            [[getattr(r, field) for r in requests.values()]]
            for field in ("num_cores", "freq_index", "llc_ways")
        ]
        return self.map_rows(list(requests), *rows)[0]

    def map_rows(
        self,
        names: Sequence[str],
        cores: np.ndarray,
        freq: np.ndarray,
        ways: np.ndarray,
    ) -> AssignmentBatch:
        """Place N servers at once: row ``e`` of the ``(N, S)`` matrices
        is server ``e``'s requests, column ``i`` service ``names[i]``."""
        cores, freq, ways = (np.asarray(a, dtype=np.int64) for a in (cores, freq, ways))
        self._check_rows(names, cores, freq, ways)
        return AssignmentBatch(
            names, self.socket_cores, self._pin_rows(cores), freq, self._way_rows(ways)
        )

    def _check_rows(
        self,
        names: Sequence[str],
        cores: np.ndarray,
        freq: np.ndarray,
        ways: np.ndarray,
    ) -> None:
        """Refuse ``(N, S)`` request matrices that cannot be placed.

        The first row holding a bad request is refused as one server's
        requests: ``ConfigurationError`` from ``Allocation`` for the first
        service with fewer than one core, a negative DVFS index or
        negative ways, else ``AllocationError`` for the first with more
        cores than the socket or a DVFS index past the ladder.
        """
        if not names:
            raise AllocationError("mapper received no requests")
        if not cores.shape == freq.shape == ways.shape == (len(cores), len(names)):
            raise ShapeError(
                f"request matrices for {len(names)} services have shapes "
                f"{cores.shape}, {freq.shape}, {ways.shape}"
            )
        n, levels = len(self.socket_cores), len(self.spec.dvfs)
        bad = (cores < 1) | (cores > n) | (freq < 0) | (freq >= levels) | (ways < 0)
        if not bad.any():
            return
        e = int(np.flatnonzero(bad.any(axis=1))[0])
        row = list(zip(names, cores[e].tolist(), freq[e].tolist(), ways[e].tolist()))
        for _, count, level, llc in row:
            # Raises ConfigurationError for a field below its minimum.
            Allocation(num_cores=count, freq_index=level, llc_ways=llc)
        for name, count, level, _ in row:
            if count > n:
                raise AllocationError(
                    f"service {name!r} requested {count} cores, socket has {n}"
                )
            if level >= levels:
                raise AllocationError(
                    f"service {name!r} requested DVFS index {level}, ladder has {levels}"
                )

    def _pin_rows(self, cores: np.ndarray) -> np.ndarray:
        """``(N, S, C)`` pins, over the socket's cores, for ``(N, S)`` core
        counts already checked by :meth:`_check_rows`.

        A row that fits the socket takes the disjoint locality placement
        (one masked cumulative-sum pass per service over the free cores
        in its side's pick order); an oversubscribed row takes the
        overlap windows, as modular arithmetic over core indices.
        """
        n = len(self.socket_cores)
        over = cores.sum(axis=1) > n
        if not over.any():
            return self._disjoint_rows(cores)
        if over.all():
            return self._overlap_rows(cores)
        pins = np.empty(cores.shape + (n,), dtype=bool)
        pins[~over] = self._disjoint_rows(cores[~over])
        pins[over] = self._overlap_rows(cores[over])
        return pins

    def _way_rows(self, ways: np.ndarray) -> np.ndarray:
        """Scale conflicting CAT way requests to fit the socket's ways, in
        every row of an ``(N, S)`` matrix: each request is capped at the
        socket's ways, and a row whose requests still exceed them is
        scaled by ``ways / total``, floored, so the combined quota fits."""
        available = self.spec.socket.llc_ways
        requested = np.minimum(ways, available)
        total = requested.sum(axis=1)
        over = total > available
        if not over.any():
            return requested
        factor = available / np.maximum(total, 1)
        scaled = (requested * factor[:, None]).astype(np.int64)
        return np.where(over[:, None], scaled, requested)

    # ------------------------------------------------------------------ #
    # placement strategies (local core indices 0..n-1)
    # ------------------------------------------------------------------ #
    def _preference(self, side: int, n: int) -> List[int]:
        """Core pick order for a side: own-end evens first, then odds."""
        ascending = list(range(0, n, 2)) + list(range(1, n, 2))
        if side == 0:
            return ascending
        evens_desc = [i for i in range(n - 1, -1, -1) if i % 2 == 0]
        odds_desc = [i for i in range(n - 1, -1, -1) if i % 2 == 1]
        return evens_desc + odds_desc

    def _disjoint_rows(self, cores: np.ndarray) -> np.ndarray:
        """Locality-aware placement of rows that fit the socket: service
        ``i`` takes the first ``cores[:, i]`` still-free cores in its
        side's pick order."""
        rows, services = cores.shape
        pins = np.empty((rows, services, len(self.socket_cores)), dtype=bool)
        free = np.ones((rows, len(self.socket_cores)), dtype=bool)
        for i in range(services):
            order = self._orders[i % 2]
            available = free[:, order]
            take = available & (available.cumsum(axis=1) <= cores[:, i, None])
            pins[:, i, order] = take
            free[:, order] = available ^ take
        return pins

    def _overlap_rows(self, cores: np.ndarray) -> np.ndarray:
        """Arbitrated placement of oversubscribed rows: service ``i``
        holds the contiguous window of ``cores[:, i]`` cores starting
        where the previous one ended, modulo the socket; two services
        start from opposite ends. Windows that intersect are the
        timeshared cores (Section IV's arbitration example)."""
        n = len(self.socket_cores)
        local = np.arange(n)
        if cores.shape[1] == 2:
            start = np.zeros_like(cores)
            start[:, 1] = n - cores[:, 1]
        else:
            start = (cores.cumsum(axis=1) - cores) % n
        return (local - start[:, :, None]) % n < cores[:, :, None]

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def full_socket(self, services: Sequence[str], freq_index: int) -> Dict[str, CoreAssignment]:
        """Everyone pinned to the whole socket (the static baseline)."""
        cores = tuple(self.socket_cores)
        return {name: CoreAssignment(cores=cores, freq_index=freq_index) for name in services}
