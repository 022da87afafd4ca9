"""Per-interval latency/throughput dynamics of one LC service.

Each control interval (1 s in the paper) the service receives an arrival
rate and an allocation (core-equivalents + frequency) plus the contention
resolved by :class:`repro.services.interference.InterferenceModel`, and
produces the measured tail latency, throughput, and the ground-truth
activity needed to synthesise PMCs and bill power.

The latency model is a hybrid of a latency floor and an M/M/c-style
waiting-time quantile:

``p99 = floor(f, contention) + q99 of the Erlang-C waiting time``

with explicit backlog carry-over, so that sustained overload produces the
unbounded, "exponential" latency growth the paper uses to find each
service's maximum load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.services.interference import SocketContention
from repro.services.profiles import ServiceProfile
from repro.services.queueing import erlang_c

#: Contention object meaning "no neighbours, no pressure".
NO_CONTENTION = SocketContention(
    inflation=1.0, miss_inflation=1.0, membw_utilization=0.0, llc_overcommit=0.0
)


@dataclass(frozen=True)
class IntervalResult:
    """Everything observed/true about one service over one interval."""

    service: str
    interval_s: float
    arrival_rate: float          # offered load, requests/s
    throughput_rps: float        # requests actually completed per second
    p99_ms: float                # measured tail latency (noisy)
    mean_ms: float               # mean latency estimate
    utilization: float           # busy fraction of allocated core capacity
    capacity_rps: float          # sustainable throughput of the allocation
    backlog: float               # queued requests carried into next interval
    cores: float                 # core-equivalents allocated
    frequency_ghz: float
    inflation: float             # contention-driven service-time factor
    miss_inflation: float
    membw_gbps: float            # DRAM traffic generated
    busy_core_seconds: float
    instructions: float
    qos_target_ms: float

    @property
    def qos_met(self) -> bool:
        return self.p99_ms <= self.qos_target_ms

    @property
    def tardiness(self) -> float:
        """Measured QoS / target (paper's QoS tardiness; >1 is a violation)."""
        return self.p99_ms / self.qos_target_ms


class LCService:
    """Stateful simulation of one latency-critical service."""

    #: Backlog is capped at this many seconds of capacity: Tailbench-style
    #: closed-loop clients time out and drop requests, so an overloaded
    #: second leaves at most a couple of seconds of queued work behind.
    MAX_BACKLOG_SECONDS = 2.0

    def __init__(
        self,
        profile: ServiceProfile,
        max_frequency_ghz: float,
        rng: np.random.Generator,
        latency_noise_std: float = 0.05,
        qos_target_ms: Optional[float] = None,
    ):
        if max_frequency_ghz <= 0:
            raise ConfigurationError("max_frequency_ghz must be positive")
        self.profile = profile
        self.max_frequency_ghz = max_frequency_ghz
        self.qos_target_ms = qos_target_ms if qos_target_ms is not None else profile.qos_target_ms
        self.latency_noise_std = latency_noise_std
        self._rng = rng
        self.backlog = 0.0

    def reset(self) -> None:
        self.backlog = 0.0

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def step(
        self,
        arrival_rate: float,
        cores: float,
        frequency_ghz: float,
        contention: SocketContention = NO_CONTENTION,
        interval_s: float = 1.0,
    ) -> IntervalResult:
        """Advance one control interval and return the observation."""
        if arrival_rate < 0:
            raise ConfigurationError(f"arrival_rate must be >= 0, got {arrival_rate}")
        if cores <= 0:
            raise ConfigurationError(f"cores must be positive, got {cores}")
        if interval_s <= 0:
            raise ConfigurationError(f"interval_s must be positive, got {interval_s}")
        profile = self.profile
        freq_factor = profile.frequency_factor(frequency_ghz, self.max_frequency_ghz)
        inflation = contention.inflation
        service_ms = profile.cpu_ms_per_req * freq_factor * inflation
        floor_ms = profile.floor_q99_ms * freq_factor * inflation
        eff_servers = profile.effective_cores(cores)
        mu_per_server = 1000.0 / service_ms                # requests/s per server
        capacity = eff_servers * mu_per_server

        demand = arrival_rate + self.backlog / interval_s
        if demand < 0.995 * capacity:
            throughput = demand
            new_backlog = 0.0
            wait_ms = self._stable_wait_q99_ms(demand, mu_per_server, eff_servers)
            p99 = floor_ms + wait_ms
        else:
            throughput = capacity
            new_backlog = self.backlog + (arrival_rate - capacity) * interval_s
            new_backlog = float(
                np.clip(new_backlog, 0.0, self.MAX_BACKLOG_SECONDS * capacity)
            )
            # Every queued request waits roughly backlog/capacity seconds; a
            # system saturated with little backlog still has (at least) the
            # stationary waiting time at the edge of stability, which keeps
            # the latency curve continuous across the stable/overload
            # boundary.
            queueing_ms = 1000.0 * (new_backlog / capacity) if capacity > 0 else 0.0
            edge_wait_ms = self._stable_wait_q99_ms(
                0.995 * capacity, mu_per_server, eff_servers
            )
            p99 = floor_ms + service_ms + max(queueing_ms, edge_wait_ms)

        p99 *= self._latency_noise()
        mean_ms = floor_ms / 3.0 + (p99 - floor_ms) / 4.6 + service_ms / max(eff_servers, 1.0)
        self.backlog = new_backlog

        busy = min(demand, capacity) * service_ms / 1000.0 * interval_s  # core-seconds
        utilization = float(np.clip(busy / (cores * interval_s), 0.0, 1.0))
        instructions = throughput * interval_s * profile.instr_per_req_m * 1e6
        membw = throughput * profile.membw_per_req_mb / 1024.0

        return IntervalResult(
            service=profile.name,
            interval_s=interval_s,
            arrival_rate=arrival_rate,
            throughput_rps=throughput,
            p99_ms=p99,
            mean_ms=mean_ms,
            utilization=utilization,
            capacity_rps=capacity,
            backlog=new_backlog,
            cores=cores,
            frequency_ghz=frequency_ghz,
            inflation=inflation,
            miss_inflation=contention.miss_inflation,
            membw_gbps=membw,
            busy_core_seconds=busy,
            instructions=instructions,
            qos_target_ms=self.qos_target_ms,
        )

    def _stable_wait_q99_ms(
        self, arrival_rate: float, mu_per_server: float, servers: float
    ) -> float:
        """q99 of the waiting time in the stable regime, in milliseconds."""
        if arrival_rate <= 0:
            return 0.0
        offered = arrival_rate / mu_per_server
        p_wait = erlang_c(servers, offered)
        p_wait = min(1.0, p_wait * (1.0 + self.profile.cv2) / 2.0)
        if p_wait <= 0.01:
            return 0.0
        theta = servers * mu_per_server - arrival_rate  # drain rate, /s
        if theta <= 0:
            return math.inf
        return 1000.0 * math.log(p_wait / 0.01) / theta

    def _latency_noise(self) -> float:
        if self.latency_noise_std <= 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self.latency_noise_std)))
