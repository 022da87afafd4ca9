"""Mutable machine state: per-core frequency, hotplug, and service affinity.

This is the substrate equivalent of what Twig's mapper manipulates through
``sched_setaffinity`` and the ``acpi-cpufreq`` userspace governor: each core
has a DVFS index, may be offline (CPU hot-plugging), and carries the set of
services pinned to it. A core pinned to more than one service is
*timeshared* — each pinned service receives an equal fraction of its
capacity during the interval (the arbitration policy of Section IV sets a
single frequency for such cores).

The vector engine (:mod:`repro.engine.vector_env`) holds this state as
arrays and installs with :meth:`Machine.apply`'s rules; both it and
:class:`Machine` refuse assignments through :func:`check_assignments`.
:class:`Machine` itself is the per-core reference of those rules: the
package steps no server on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Set

from repro.errors import AllocationError
from repro.server.spec import ServerSpec


@dataclass
class CoreState:
    """State of a single physical core."""

    core_id: int
    socket: int
    freq_index: int = 0
    online: bool = True
    services: Set[str] = field(default_factory=set)

    @property
    def timeshared(self) -> bool:
        return len(self.services) > 1


@dataclass(frozen=True)
class CoreAssignment:
    """A service's placement: pinned cores, their DVFS index, and
    (optionally) an exclusive LLC way quota (Intel CAT). ``llc_ways = 0``
    means unpartitioned — the service competes for the whole cache."""

    cores: tuple
    freq_index: int
    llc_ways: int = 0


def check_assignments(spec: ServerSpec, assignments: Mapping[str, CoreAssignment]) -> None:
    """Refuse, with an ``AllocationError``, what no machine of ``spec`` can
    install: a service on no core, a DVFS index off the ladder, a core the
    machine does not have, a core repeated in one service's set."""
    levels, total = len(spec.dvfs), spec.total_cores
    for name, assignment in assignments.items():
        if not assignment.cores:
            raise AllocationError(f"service {name!r} assigned zero cores")
        if not 0 <= assignment.freq_index < levels:
            raise AllocationError(
                f"service {name!r} freq index {assignment.freq_index} out of "
                f"range [0, {levels})"
            )
        for core_id in assignment.cores:
            if not 0 <= core_id < total:
                raise AllocationError(
                    f"service {name!r} references core {core_id}, machine has {total}"
                )
        if len(set(assignment.cores)) != len(assignment.cores):
            raise AllocationError(f"service {name!r} repeats cores: {assignment.cores}")


class Machine:
    """The running node: tracks core state and per-service migrations."""

    def __init__(self, spec: ServerSpec):
        self.spec = spec
        self.cores: List[CoreState] = [
            CoreState(core_id=i, socket=i // spec.cores_per_socket)
            for i in range(spec.total_cores)
        ]
        self.migration_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def cores_of(self, service: str) -> List[CoreState]:
        return [core for core in self.cores if service in core.services]

    def frequency_of(self, service: str) -> float:
        """The (maximum) frequency across a service's cores, in GHz."""
        cores = self.cores_of(service)
        if not cores:
            raise AllocationError(f"service {service!r} has no cores assigned")
        return max(self.spec.dvfs[core.freq_index] for core in cores)

    def effective_capacity(self, service: str) -> float:
        """Core-equivalents available to a service (timeshared cores count
        as their fair fraction)."""
        return sum(
            (1.0 if core.online else 0.0) / max(len(core.services), 1)
            for core in self.cores_of(service)
        )

    def socket_cores(self, socket_index: int) -> List[CoreState]:
        ids = self.spec.socket_core_ids(socket_index)
        return [self.cores[i] for i in ids]

    def migrations(self, service: str) -> int:
        return self.migration_counts.get(service, 0)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def apply(self, assignments: Mapping[str, CoreAssignment]) -> None:
        """Atomically install a set of service→cores assignments.

        Cores not owned by any service drop to the lowest DVFS state (the
        mapper's power-conservation rule). Migration counts increase by the
        number of cores that enter or leave each service's set.
        """
        check_assignments(self.spec, assignments)
        previous: Dict[str, Set[int]] = {
            name: {core.core_id for core in self.cores_of(name)} for name in assignments
        }
        for core in self.cores:
            core.services = set()
            core.freq_index = 0
        for name, assignment in assignments.items():
            for core_id in assignment.cores:
                core = self.cores[core_id]
                core.services.add(name)
                # Arbitration (Section IV): a timeshared core runs at the
                # highest DVFS state requested for it.
                core.freq_index = max(core.freq_index, assignment.freq_index)
        for name, assignment in assignments.items():
            new_set = set(assignment.cores)
            old_set = previous.get(name, set())
            moved = len(new_set.symmetric_difference(old_set))
            if moved:
                self.migration_counts[name] = self.migration_counts.get(name, 0) + moved

    def set_hotplug(self, core_ids: Iterable[int], online: bool) -> None:
        for core_id in core_ids:
            self.cores[core_id].online = online
