"""Physical power model and RAPL-like socket sensor.

Per-socket power is composed of an idle floor, a static per-online-core
term, a dynamic ``C * V(f)^2 * f * utilisation`` term per core, and an
uncore term proportional to memory-bandwidth utilisation. This is the
*ground truth* the simulation bills energy against; it is distinct from
Twig's *first-order per-service estimate* (Equation 2 of the paper,
implemented in :mod:`repro.core.power_model`), which is used only inside
the reward function.

The RAPL sensor adds Gaussian measurement noise and integrates energy, the
way the paper polls the RAPL MSR at the control interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.server.spec import ServerSpec


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-socket power decomposition, in watts."""

    idle_w: float
    static_w: float
    dynamic_w: float
    uncore_w: float

    @property
    def total_w(self) -> float:
        return self.idle_w + self.static_w + self.dynamic_w + self.uncore_w


class PowerModel:
    """Computes ground-truth socket power from core activity."""

    def __init__(self, spec: ServerSpec):
        self.spec = spec

    def core_dynamic_w(self, frequency_ghz: float, utilization: float) -> float:
        """Dynamic power of one core at a frequency and utilisation."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization must be in [0, 1], got {utilization}")
        voltage = self.spec.voltage(frequency_ghz)
        return self.spec.dynamic_coeff * voltage * voltage * frequency_ghz * utilization

    def socket_power(
        self,
        core_activity: Sequence[Tuple[float, float]],
        membw_utilization: float = 0.0,
        online_cores: Optional[int] = None,
    ) -> PowerBreakdown:
        """Power of one socket.

        Parameters
        ----------
        core_activity:
            ``(frequency_ghz, utilization)`` per *active* core.
        membw_utilization:
            Fraction of the socket's memory bandwidth in use.
        online_cores:
            Number of hotplugged-on cores (defaults to all cores of the
            socket); offline cores contribute no static power.
        """
        if online_cores is None:
            online_cores = self.spec.cores_per_socket
        membw_utilization = float(np.clip(membw_utilization, 0.0, 1.0))
        dynamic = sum(self.core_dynamic_w(freq, util) for freq, util in core_activity)
        # Idle cores still clock-gate but leak; their frequency matters less,
        # so static power is per-online-core and frequency independent.
        static = self.spec.core_static_w * online_cores
        uncore = self.spec.uncore_bw_w * membw_utilization
        return PowerBreakdown(
            idle_w=self.spec.idle_power_w,
            static_w=static,
            dynamic_w=dynamic,
            uncore_w=uncore,
        )

    def max_power_w(self) -> float:
        """Socket power with all cores fully busy at max DVFS, no memory.

        This mirrors the paper's "stress microbenchmark that has no memory
        accesses" used to normalise the power reward (Section III-B2).
        """
        activity = [(self.spec.dvfs.max_ghz, 1.0)] * self.spec.cores_per_socket
        return self.socket_power(activity, membw_utilization=0.0).total_w

    def idle_power_w(self) -> float:
        """Socket power with every core online but idle at min DVFS."""
        activity = [(self.spec.dvfs.min_ghz, 0.0)] * self.spec.cores_per_socket
        return self.socket_power(activity, membw_utilization=0.0).total_w


class RaplSensor:
    """Noisy socket-level power readout with energy integration.

    Real RAPL counters expose energy at socket granularity only (the paper
    stresses per-core readings are unavailable); this sensor reproduces
    that: one reading per socket per poll, with multiplicative Gaussian
    noise, accumulated into joules.
    """

    def __init__(self, rng: np.random.Generator, noise_std: float = 0.01):
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self._rng = rng
        self.noise_std = noise_std
        self.energy_j = 0.0
        self.last_reading_w: Optional[Mapping[int, float]] = None

    def poll(self, true_power_w: Mapping[int, float], interval_s: float) -> Mapping[int, float]:
        """Record one interval; returns the noisy per-socket power readings."""
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s}")
        readings = {}
        for socket, power in true_power_w.items():
            noise = 1.0 + self._rng.normal(0.0, self.noise_std)
            readings[socket] = max(power * noise, 0.0)
        self.energy_j += sum(readings.values()) * interval_s
        self.last_reading_w = readings
        return readings
