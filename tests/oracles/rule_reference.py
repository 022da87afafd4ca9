"""Frozen scalar PARTIES and Heracles (the pre-array reference).

:class:`ScalarParties` and :class:`ScalarHeracles` are the original
one-server implementations of :class:`~repro.baselines.parties.PartiesFleet`
and :class:`~repro.baselines.heracles.HeraclesFleet`: per-service
``Allocation`` objects, a Python ``max``/``min`` over the service order,
one ``_pick_resource`` draw and one ``Mapper.map`` call per server per
tick. They are kept verbatim as the equivalence oracle for the array
fleets (``tests/test_baselines_rule_fleets.py``): N such managers fed the
same rows must return the same placements and leave each generator in
the same state.

Do not use these classes outside tests.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import Allocation
from repro.core.manager import TaskManager
from repro.core.mapper import Mapper
from repro.errors import ConfigurationError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.environment import StepResult

_RESOURCES = ("cores", "dvfs")


class ScalarParties(TaskManager):
    """PARTIES on one server, its state in per-service ``Allocation``s."""

    name = "parties"

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        rng: np.random.Generator,
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        poll_every: int = 2,
        upsize_threshold: float = 0.95,
        downsize_threshold: float = 0.70,
        qos_targets: Optional[Mapping[str, float]] = None,
    ):
        if not profiles:
            raise ConfigurationError("PartiesManager needs at least one service")
        if poll_every <= 0:
            raise ConfigurationError(f"poll_every must be positive, got {poll_every}")
        self.spec = spec or ServerSpec()
        self.profiles = {p.name: p for p in profiles}
        self.service_order = [p.name for p in profiles]
        self.qos_targets = {
            name: (qos_targets or {}).get(name, self.profiles[name].qos_target_ms)
            for name in self.service_order
        }
        self._rng = rng
        self.poll_every = poll_every
        self.upsize_threshold = upsize_threshold
        self.downsize_threshold = downsize_threshold
        self.mapper = Mapper(self.spec, socket_index=socket_index)

        top = len(self.spec.dvfs) - 1
        share = max(1, self.spec.cores_per_socket // max(len(profiles), 1))
        self.allocations: Dict[str, Allocation] = {
            name: Allocation(num_cores=share, freq_index=top) for name in self.service_order
        }
        self.step_count = 0
        # Remembers the last downsizing (service, resource, old allocation)
        # so a violation can be reverted and another resource tried.
        self._last_downsize: Optional[Tuple[str, str, Allocation]] = None
        self._avoid_resource: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # TaskManager interface
    # ------------------------------------------------------------------ #
    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return self.mapper.map(self.allocations)

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        self.step_count += 1
        if self.step_count % self.poll_every != 0:
            return self.mapper.map(self.allocations)

        ratios = {
            name: result.observations[name].p99_ms / self.qos_targets[name]
            for name in self.service_order
        }

        # Revert a downsizing that caused a violation, and blacklist the
        # resource for that service's next reclaim.
        if self._last_downsize is not None:
            name, resource, previous = self._last_downsize
            if ratios[name] > 1.0:
                self.allocations[name] = previous
                self._avoid_resource[name] = resource
                self._last_downsize = None
                return self.mapper.map(self.allocations)
            self._last_downsize = None

        closest = max(self.service_order, key=lambda n: ratios[n])
        if ratios[closest] >= self.upsize_threshold:
            self._upsize(closest)
        else:
            slackest = min(self.service_order, key=lambda n: ratios[n])
            if ratios[slackest] < self.downsize_threshold:
                self._downsize(slackest)
        return self.mapper.map(self.allocations)

    # ------------------------------------------------------------------ #
    # adjustments
    # ------------------------------------------------------------------ #
    def _pick_resource(self, service: str) -> str:
        avoid = self._avoid_resource.get(service)
        choices = [r for r in _RESOURCES if r != avoid] or list(_RESOURCES)
        return choices[int(self._rng.integers(0, len(choices)))]

    def _upsize(self, service: str) -> None:
        allocation = self.allocations[service]
        resource = self._pick_resource(service)
        if resource == "cores" and allocation.num_cores < self.spec.cores_per_socket:
            self.allocations[service] = Allocation(
                allocation.num_cores + 1, allocation.freq_index
            )
        elif allocation.freq_index < len(self.spec.dvfs) - 1:
            self.allocations[service] = Allocation(
                allocation.num_cores, allocation.freq_index + 1
            )
        elif allocation.num_cores < self.spec.cores_per_socket:
            self.allocations[service] = Allocation(
                allocation.num_cores + 1, allocation.freq_index
            )

    def _downsize(self, service: str) -> None:
        allocation = self.allocations[service]
        resource = self._pick_resource(service)
        new_allocation = allocation
        if resource == "cores" and allocation.num_cores > 1:
            new_allocation = Allocation(allocation.num_cores - 1, allocation.freq_index)
        elif allocation.freq_index > 0:
            resource = "dvfs"
            new_allocation = Allocation(allocation.num_cores, allocation.freq_index - 1)
        elif allocation.num_cores > 1:
            resource = "cores"
            new_allocation = Allocation(allocation.num_cores - 1, allocation.freq_index)
        if new_allocation is not allocation:
            self.allocations[service] = new_allocation
            self._last_downsize = (service, resource, allocation)


class ScalarHeracles(TaskManager):
    """Heracles on one server, its state in scalars."""

    name = "heracles"

    def __init__(
        self,
        profile: ServiceProfile,
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        qos_target_ms: Optional[float] = None,
        main_poll_every: int = 15,
        controller_poll_every: int = 2,
        lockout_steps: int = 300,           # "5 min" of 1 s intervals
        load_threshold: float = 0.85,
        latency_grow_threshold: float = 0.80,
        power_cap_fraction: float = 0.90,
    ):
        if main_poll_every <= 0 or controller_poll_every <= 0:
            raise ConfigurationError("poll periods must be positive")
        self.spec = spec or ServerSpec()
        self.profile = profile
        self.qos_target_ms = qos_target_ms if qos_target_ms is not None else profile.qos_target_ms
        self.main_poll_every = main_poll_every
        self.controller_poll_every = controller_poll_every
        self.lockout_steps = lockout_steps
        self.load_threshold = load_threshold
        self.latency_grow_threshold = latency_grow_threshold
        self.power_cap_fraction = power_cap_fraction
        self.mapper = Mapper(self.spec, socket_index=socket_index)

        self.cores = self.spec.cores_per_socket
        self.freq_index = len(self.spec.dvfs) - 1
        self.step_count = 0
        self._lockout_until = 0
        self._last_membw = 0.0

    # ------------------------------------------------------------------ #
    # TaskManager interface
    # ------------------------------------------------------------------ #
    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return self._assign()

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        observation = result.observations[self.profile.name]
        p99 = observation.p99_ms
        load_fraction = observation.interval.arrival_rate / self.profile.max_load_rps
        membw = observation.interval.membw_gbps
        self.step_count += 1

        if self.step_count % self.main_poll_every == 0:
            if p99 > self.qos_target_ms or load_fraction > self.load_threshold:
                # Disallow sharing: everything to the LC service for 5 min.
                self._lockout_until = self.step_count + self.lockout_steps
                self.cores = self.spec.cores_per_socket
                self.freq_index = len(self.spec.dvfs) - 1

        in_lockout = self.step_count < self._lockout_until
        if not in_lockout and self.step_count % self.controller_poll_every == 0:
            self._core_controller(p99, membw)
            self._power_controller(result.socket_power_w)

        self._last_membw = membw
        return self._assign()

    # ------------------------------------------------------------------ #
    # controllers
    # ------------------------------------------------------------------ #
    def _core_controller(self, p99_ms: float, membw_gbps: float) -> None:
        latency_high = p99_ms >= self.latency_grow_threshold * self.qos_target_ms
        # 5% hysteresis so ordinary arrival jitter does not read as growth.
        membw_grew = membw_gbps > self._last_membw * 1.05
        if latency_high or membw_grew:
            self.cores = min(self.cores + 1, self.spec.cores_per_socket)
        else:
            self.cores = max(self.cores - 1, 1)

    def _power_controller(self, socket_power_w: float) -> None:
        if socket_power_w >= self.power_cap_fraction * self.spec.tdp_w:
            self.freq_index = max(self.freq_index - 1, 0)
        else:
            # Heracles keeps the LC service's frequency as high as the power
            # budget allows.
            self.freq_index = min(self.freq_index + 1, len(self.spec.dvfs) - 1)

    def _assign(self) -> Dict[str, CoreAssignment]:
        allocation = Allocation(num_cores=self.cores, freq_index=self.freq_index)
        return self.mapper.map({self.profile.name: allocation})
