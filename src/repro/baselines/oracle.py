"""Oracle manager: offline-optimal allocation per load level.

Not part of the paper — an upper-bound reference this reproduction adds.
The oracle sweeps every (core count, DVFS) configuration offline against
the *analytic* service model, keeps the cheapest configuration whose
predicted p99 stays below a safety fraction of the QoS target at each load
level, and replays that lookup table at runtime. It cheats in two ways a
real manager cannot: it knows the service profile exactly, and it pays no
exploration cost. The gap between Twig and the oracle quantifies how much
the learning problem (not the substrate) leaves on the table.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import Allocation
from repro.core.manager import TaskManager
from repro.core.mapper import Mapper
from repro.errors import ConfigurationError
from repro.server.machine import CoreAssignment
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.services.queueing import erlang_c
from repro.sim.node import StepResult


class OracleManager(TaskManager):
    """Clairvoyant per-load-level optimal static allocation (solo service)."""

    name = "oracle"

    def __init__(
        self,
        profile: ServiceProfile,
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        load_buckets: int = 20,
        safety: float = 0.8,
        qos_target_ms: Optional[float] = None,
    ):
        if not 0.0 < safety <= 1.0:
            raise ConfigurationError(f"safety must be in (0, 1], got {safety}")
        if load_buckets < 1:
            raise ConfigurationError(f"load_buckets must be >= 1, got {load_buckets}")
        self.spec = spec or ServerSpec()
        self.profile = profile
        self.qos_target_ms = qos_target_ms if qos_target_ms is not None else profile.qos_target_ms
        self.safety = safety
        self.load_buckets = load_buckets
        self.mapper = Mapper(self.spec, socket_index=socket_index)
        self._power = PowerModel(self.spec)
        self.table: List[Allocation] = [
            self._best_for(((b + 1) / load_buckets) * profile.max_load_rps)
            for b in range(load_buckets)
        ]
        self._current = self.table[-1]

    # ------------------------------------------------------------------ #
    # offline sweep
    # ------------------------------------------------------------------ #
    def _predicted_p99_ms(self, arrival: float, cores: int, freq: float) -> float:
        profile = self.profile
        factor = profile.frequency_factor(freq, self.spec.dvfs.max_ghz)
        service_ms = profile.cpu_ms_per_req * factor
        floor_ms = profile.floor_q99_ms * factor
        eff = profile.effective_cores(cores)
        mu = 1000.0 / service_ms
        if arrival >= 0.995 * eff * mu:
            return math.inf
        p_wait = min(1.0, erlang_c(eff, arrival / mu) * (1.0 + profile.cv2) / 2.0)
        if p_wait <= 0.01:
            return floor_ms
        theta = eff * mu - arrival
        return floor_ms + 1000.0 * math.log(p_wait / 0.01) / theta

    def _predicted_power_w(self, arrival: float, cores: int, freq: float) -> float:
        profile = self.profile
        factor = profile.frequency_factor(freq, self.spec.dvfs.max_ghz)
        busy = min(arrival * profile.cpu_ms_per_req * factor / 1000.0, float(cores))
        active = busy + profile.active_idle_util * (cores - busy)
        return self._power.core_dynamic_w(freq, 1.0) * active

    def _best_for(self, arrival: float) -> Allocation:
        best: Tuple[float, Allocation] = (math.inf, Allocation(self.spec.cores_per_socket, len(self.spec.dvfs) - 1))
        for cores in range(1, self.spec.cores_per_socket + 1):
            for freq_index in range(len(self.spec.dvfs)):
                freq = self.spec.dvfs[freq_index]
                p99 = self._predicted_p99_ms(arrival, cores, freq)
                if p99 > self.safety * self.qos_target_ms:
                    continue
                power = self._predicted_power_w(arrival, cores, freq)
                if power < best[0]:
                    best = (power, Allocation(cores, freq_index))
        return best[1]

    # ------------------------------------------------------------------ #
    # TaskManager interface
    # ------------------------------------------------------------------ #
    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return self.mapper.map({self.profile.name: self._current})

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        arrival = result.observations[self.profile.name].interval.arrival_rate
        fraction = np.clip(arrival / self.profile.max_load_rps, 0.0, 1.0)
        bucket = min(int(fraction * self.load_buckets), self.load_buckets - 1)
        self._current = self.table[bucket]
        return self.mapper.map({self.profile.name: self._current})
