"""Shared-resource contention between colocated services.

Two channels, matching the paper's discussion of why colocation hurts LC
services (Sections I, V-B2):

- **Memory bandwidth**: total DRAM traffic on a socket approaching the
  achievable bandwidth inflates everyone's memory-stall time. Each service
  suffers in proportion to its ``membw_sensitivity`` (Masstree: highly
  sensitive while generating little traffic itself; Moses: generates a
  lot).
- **LLC capacity**: when the working sets of the colocated services exceed
  the shared LLC, each service keeps only a proportional share and its miss
  rate rises, again inflating service time (``llc_sensitivity``).

The output per service is a multiplicative service-time ``inflation``
(>= 1) plus a ``miss_inflation`` factor used by the PMC synthesiser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import ConfigurationError
from repro.services.profiles import ServiceProfile


@dataclass(frozen=True)
class ServiceDemand:
    """One service's resource demand on a socket during an interval."""

    profile: ServiceProfile
    throughput_rps: float  # requests actually being processed per second
    llc_quota_mb: float = 0.0  # exclusive CAT partition (0 = unpartitioned)

    def membw_gbps(self) -> float:
        return self.throughput_rps * self.profile.membw_per_req_mb / 1024.0

    def llc_demand_mb(self, load_fraction: float = 1.0) -> float:
        # Footprint shrinks somewhat at low load but never below 30%.
        return self.profile.llc_working_set_mb * max(0.3, min(load_fraction, 1.0))


@dataclass(frozen=True)
class SocketContention:
    """Resolved contention for one service on one socket."""

    inflation: float        # multiplicative service-time factor, >= 1
    miss_inflation: float   # multiplicative LLC-miss factor, >= 1
    membw_utilization: float  # socket bandwidth utilisation in [0, 1+]
    llc_overcommit: float   # total working set / LLC size


class InterferenceModel:
    """Computes per-service contention from all demands on a socket."""

    def __init__(
        self,
        membw_capacity_gbps: float,
        llc_capacity_mb: float,
        bandwidth_knee: float = 0.55,
        bandwidth_strength: float = 0.9,
        llc_strength: float = 0.6,
    ):
        if membw_capacity_gbps <= 0 or llc_capacity_mb <= 0:
            raise ConfigurationError("capacities must be positive")
        self.membw_capacity_gbps = membw_capacity_gbps
        self.llc_capacity_mb = llc_capacity_mb
        self.bandwidth_knee = bandwidth_knee
        self.bandwidth_strength = bandwidth_strength
        self.llc_strength = llc_strength

    def _bandwidth_pressure(self, utilization: float) -> float:
        """Smooth, convex pressure curve: ~0 below the knee, steep past it.

        Real DRAM latency-vs-load curves are flat until ~half of achievable
        bandwidth and then rise sharply; a cubic above the knee captures
        that without a discontinuity.
        """
        if utilization <= self.bandwidth_knee:
            return 0.0
        over = (utilization - self.bandwidth_knee) / max(1.0 - self.bandwidth_knee, 1e-9)
        return over ** 3

    def resolve(
        self, demands: Mapping[str, ServiceDemand]
    ) -> Dict[str, SocketContention]:
        """Contention factors for every service sharing the socket."""
        total_bw = sum(d.membw_gbps() for d in demands.values())
        bw_util = total_bw / self.membw_capacity_gbps
        pressure = self._bandwidth_pressure(bw_util)

        # CAT partitions carve exclusive capacity out of the LLC; only the
        # unpartitioned services contend for what remains.
        quota_total = sum(min(d.llc_quota_mb, self.llc_capacity_mb) for d in demands.values())
        quota_total = min(quota_total, self.llc_capacity_mb)
        shared_capacity = max(self.llc_capacity_mb - quota_total, 1e-9)
        shared_ws = sum(
            d.llc_demand_mb() for d in demands.values() if d.llc_quota_mb <= 0
        )
        overcommit = (
            (quota_total + shared_ws) / self.llc_capacity_mb
            if demands
            else 0.0
        )

        result: Dict[str, SocketContention] = {}
        for name, demand in demands.items():
            profile = demand.profile
            bw_term = profile.membw_sensitivity * self.bandwidth_strength * pressure
            ws = demand.llc_demand_mb()
            if demand.llc_quota_mb > 0:
                # Isolated: misses depend only on the service's own quota.
                evicted = max(0.0, 1.0 - demand.llc_quota_mb / ws) if ws > 0 else 0.0
            elif shared_ws > shared_capacity and ws > 0:
                share = shared_capacity * ws / shared_ws
                # Fraction of the working set evicted by neighbours.
                evicted = max(0.0, 1.0 - share / ws)
            else:
                evicted = 0.0
            miss_inflation = 1.0 + evicted
            llc_term = profile.llc_sensitivity * self.llc_strength * evicted
            result[name] = SocketContention(
                inflation=1.0 + bw_term + llc_term,
                miss_inflation=miss_inflation,
                membw_utilization=bw_util,
                llc_overcommit=overcommit,
            )
        return result

    def resolve_single(
        self, profile: ServiceProfile, throughput_rps: float
    ) -> SocketContention:
        """Convenience for a service running alone on a socket."""
        demand = ServiceDemand(profile=profile, throughput_rps=throughput_rps)
        return self.resolve({profile.name: demand})[profile.name]
