"""Physical power model and RAPL-like socket sensor.

Per-socket power is composed of an idle floor, a static per-online-core
term, a dynamic ``C * V(f)^2 * f * utilisation`` term per core, and an
uncore term proportional to memory-bandwidth utilisation. This is the
*ground truth* the simulation bills energy against; it is distinct from
Twig's *first-order per-service estimate* (Equation 2 of the paper,
implemented in :mod:`repro.core.power_model`), which is used only inside
the reward function.

The vector engine (:mod:`repro.engine.vector_env`) evaluates this model
per node and adds the RAPL reading's Gaussian measurement noise,
integrating energy the way the paper polls the RAPL MSR at the control
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
        membw_utilization = float(min(max(membw_utilization, 0.0), 1.0))
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
