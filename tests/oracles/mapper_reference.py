"""Frozen scalar placement (the pre-array ``Mapper.map``).

:class:`ReferenceMapper` is the original one-server mapper: the
locality-ordered disjoint placement walks each service's pick order over
a set of free cores, the oversubscribed placement lays out contiguous
windows from alternating ends, and CAT ways are scaled down with Python
integers, one dict per call. It is kept verbatim as the placement oracle
for ``Mapper.map_rows`` (``tests/test_core_mapper_rows.py``): every row of
a batch must pin the cores, DVFS indices and ways this mapper gives for
the same requests.

Do not use this class outside tests.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.actions import Allocation
from repro.errors import AllocationError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec


class ReferenceMapper:
    """Places services onto one socket's cores, one server at a time."""

    def __init__(self, spec: ServerSpec, socket_index: int = 1):
        self.spec = spec
        self.socket_index = socket_index
        self.socket_cores = spec.socket_core_ids(socket_index)

    def map(self, requests: Mapping[str, Allocation]) -> Dict[str, CoreAssignment]:
        """Resolve all requests into concrete core assignments."""
        if not requests:
            raise AllocationError("mapper received no requests")
        n = len(self.socket_cores)
        for name, request in requests.items():
            if request.num_cores > n:
                raise AllocationError(
                    f"service {name!r} requested {request.num_cores} cores, socket "
                    f"has {n}"
                )
            if request.freq_index >= len(self.spec.dvfs):
                raise AllocationError(
                    f"service {name!r} requested DVFS index {request.freq_index}, "
                    f"ladder has {len(self.spec.dvfs)}"
                )
        total = sum(r.num_cores for r in requests.values())
        if total <= n:
            local = self._place_disjoint(requests)
        else:
            local = self._place_with_overlap(requests)
        ways = self._arbitrate_ways(requests)
        return {
            name: CoreAssignment(
                cores=tuple(self.socket_cores[i] for i in sorted(ids)),
                freq_index=requests[name].freq_index,
                llc_ways=ways[name],
            )
            for name, ids in local.items()
        }

    def _arbitrate_ways(self, requests: Mapping[str, Allocation]) -> Dict[str, int]:
        """Scale conflicting CAT way requests to fit the socket's ways.

        Mirrors the core arbitration policy: when the sum of requested
        partitions exceeds the cache, every request is shrunk
        proportionally (floor), so the combined quota always fits.
        """
        available = self.spec.socket.llc_ways
        requested = {name: min(r.llc_ways, available) for name, r in requests.items()}
        total = sum(requested.values())
        if total <= available:
            return requested
        factor = available / total
        return {name: int(ways * factor) for name, ways in requested.items()}

    def _preference(self, side: int, n: int) -> List[int]:
        """Core pick order for a side: own-end evens first, then odds."""
        ascending = list(range(0, n, 2)) + list(range(1, n, 2))
        if side == 0:
            return ascending
        evens_desc = [i for i in range(n - 1, -1, -1) if i % 2 == 0]
        odds_desc = [i for i in range(n - 1, -1, -1) if i % 2 == 1]
        return evens_desc + odds_desc

    def _place_disjoint(
        self, requests: Mapping[str, Allocation]
    ) -> Dict[str, List[int]]:
        """Locality-aware placement when everything fits."""
        n = len(self.socket_cores)
        free = set(range(n))
        placement: Dict[str, List[int]] = {}
        for index, (name, request) in enumerate(requests.items()):
            order = self._preference(index % 2, n)
            picked: List[int] = []
            for core in order:
                if len(picked) == request.num_cores:
                    break
                if core in free:
                    picked.append(core)
                    free.discard(core)
            if len(picked) < request.num_cores:
                raise AllocationError(
                    f"internal error: could not place {request.num_cores} cores "
                    f"for {name!r}"
                )
            placement[name] = picked
        return placement

    def _place_with_overlap(
        self, requests: Mapping[str, Allocation]
    ) -> Dict[str, List[int]]:
        """Arbitrated placement when requests exceed the socket.

        Services are laid out as contiguous windows from alternating ends;
        windows that intersect are the timeshared cores (Section IV's
        arbitration example). For more than two services the windows tile
        the socket in proportion-preserving order, wrapping as needed.
        """
        n = len(self.socket_cores)
        names = list(requests)
        placement: Dict[str, List[int]] = {}
        if len(names) == 2:
            first, second = names
            a = requests[first].num_cores
            b = requests[second].num_cores
            placement[first] = list(range(0, a))
            placement[second] = list(range(n - b, n))
            return placement
        # General case: contiguous windows starting where the previous one
        # ended, wrapping modulo the socket size.
        offset = 0
        for name in names:
            count = requests[name].num_cores
            placement[name] = [(offset + i) % n for i in range(count)]
            offset = (offset + count) % n
        return placement
