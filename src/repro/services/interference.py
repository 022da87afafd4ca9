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
(>= 1) plus a ``miss_inflation`` factor used by the PMC synthesiser. The
vector engine (:mod:`repro.engine.vector_env`) resolves both for every
node at once; :class:`InterferenceModel` holds the channels' constants
and the bandwidth-pressure curve.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class InterferenceModel:
    """A socket's contention channels: capacities, strengths and the
    bandwidth-pressure curve."""

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

    def bandwidth_pressure_batch(self, utilization: np.ndarray) -> np.ndarray:
        """:meth:`_bandwidth_pressure` of every element of a 1-D array,
        bit for bit.

        Elements at or below the knee are 0.0 by one array compare; only
        the rest (NaN included) take the scalar formula, since numpy's
        cube and Python's ``**`` round differently on some inputs.
        """
        pressure = np.zeros(len(utilization))
        over = np.flatnonzero(~(utilization <= self.bandwidth_knee))
        if over.size:
            pressure[over] = [
                self._bandwidth_pressure(u) for u in utilization[over].tolist()
            ]
        return pressure
