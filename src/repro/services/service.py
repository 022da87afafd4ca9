"""What one LC service did over one control interval.

Each control interval (1 s in the paper) a service receives an arrival
rate and an allocation (core-equivalents + frequency) plus the contention
of its co-runners, and produces the measured tail latency, throughput,
and the ground-truth activity needed to synthesise PMCs and bill power.
:class:`IntervalResult` holds all of it. The vector engine
(:mod:`repro.engine.vector_env`) computes it for every node and service.

The latency model is a hybrid of a latency floor and an M/M/c-style
waiting-time quantile:

``p99 = floor(f, contention) + q99 of the Erlang-C waiting time``

with explicit backlog carry-over (capped at two seconds of capacity:
closed-loop clients time out and drop requests), so that sustained
overload produces the unbounded, "exponential" latency growth the paper
uses to find each service's maximum load.
"""

from __future__ import annotations

from dataclasses import dataclass


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
