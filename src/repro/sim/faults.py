"""Deterministic fault injection for the colocation simulator.

Production task managers live with broken telemetry: PMC multiplexing
drops samples, monitoring daemons emit NaNs, services crash and restart,
and tail latency spikes for reasons no allocation explains. This module
injects those failure modes into a simulated server's observations (any
node of :class:`repro.engine.vector_env.VectorEnvironment`, the paper
loop's one-node ``ColocationEnvironment`` included) so Twig's
graceful-degradation path (hold the last allocation, break the transition
chain, emit ``fault``/``degraded`` trace events) can be exercised and
tested.

Faults are applied to the *observations* after the interval has been
simulated: the underlying service/telemetry/RAPL RNG draws are identical
with and without injection, so a faulted run is comparable
interval-for-interval to a clean one. The injector keeps its own RNG
stream (checkpointed with the environment) for the one stochastic kind
(``pmc_nan`` picks which counters go bad).

Fault kinds
-----------
``pmc_dropout``
    Every PMC reading for the service is NaN (the perf multiplexer
    returned nothing). ``magnitude`` is ignored.
``pmc_nan``
    ``round(magnitude)`` randomly chosen counters (at least one) read NaN.
``latency_spike``
    Measured p99/mean latency are multiplied by ``magnitude`` (> 1 for a
    spike). PMCs are untouched — the manager sees a plausible but
    latency-inconsistent interval, exactly like an antagonist burst.
``service_crash``
    The service is down for the interval: zero throughput and utilisation,
    NaN latency, NaN PMCs; its request backlog is dropped (clients time
    out and the restarted service starts with an empty queue).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.checkpoint import rng_state, set_rng_state
from repro.errors import ConfigurationError

FAULT_KINDS = ("pmc_dropout", "pmc_nan", "latency_spike", "service_crash")


@dataclass(frozen=True)
class Fault:
    """One injected fault: a kind, a target service, and an active window.

    The fault is active for intervals ``start <= t < start + duration``
    (``t`` is the environment's post-step time, so the first simulated
    interval is ``t = 1``).
    """

    kind: str
    service: str
    start: int
    duration: int = 1
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if self.start < 0:
            raise ConfigurationError(f"fault start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ConfigurationError(f"fault duration must be >= 1, got {self.duration}")
        if not (math.isfinite(self.magnitude) and self.magnitude > 0):
            raise ConfigurationError(
                f"fault magnitude must be finite and > 0, got {self.magnitude}"
            )

    def active_at(self, t: int) -> bool:
        return self.start <= t < self.start + self.duration


class FaultInjector:
    """Applies a schedule of :class:`Fault` objects to step observations."""

    def __init__(self, faults: Sequence[Fault], rng: Optional[np.random.Generator] = None):
        self.faults: List[Fault] = list(faults)
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ConfigurationError(f"expected a Fault, got {type(fault).__name__}")
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def active_at(self, t: int) -> List[Fault]:
        return [fault for fault in self.faults if fault.active_at(t)]

    def apply(
        self,
        t: int,
        observations: Mapping[str, Any],
        services: Mapping[str, Any],
    ) -> Tuple[Dict[str, Any], List[Fault]]:
        """Apply active faults; returns (new observations, applied faults).

        ``observations`` maps service name to
        :class:`repro.sim.node.ServiceObservation`; entries for
        unaffected services are passed through untouched. Faults naming
        services not present this interval are skipped (e.g. after a
        ``swap_service``). ``service_crash`` zeroes the observed backlog,
        which the vector engine copies back into its state (it passes no
        ``services``), and the ``backlog`` of ``services[name]`` where one
        is given, so the restarted service resumes with an empty queue.
        """
        active = [fault for fault in self.active_at(t) if fault.service in observations]
        if not active:
            return dict(observations), []
        mutated = dict(observations)
        for fault in active:
            observation = mutated[fault.service]
            interval = observation.interval
            pmcs = dict(observation.pmcs)
            if fault.kind == "pmc_dropout":
                pmcs = {counter: float("nan") for counter in pmcs}
            elif fault.kind == "pmc_nan":
                count = min(len(pmcs), max(1, int(round(fault.magnitude))))
                names = sorted(pmcs)
                chosen = self._rng.choice(len(names), size=count, replace=False)
                for index in chosen:
                    pmcs[names[int(index)]] = float("nan")
            elif fault.kind == "latency_spike":
                interval = dataclasses.replace(
                    interval,
                    p99_ms=interval.p99_ms * fault.magnitude,
                    mean_ms=interval.mean_ms * fault.magnitude,
                )
            elif fault.kind == "service_crash":
                interval = dataclasses.replace(
                    interval,
                    throughput_rps=0.0,
                    p99_ms=float("nan"),
                    mean_ms=float("nan"),
                    utilization=0.0,
                    backlog=0.0,
                )
                pmcs = {counter: float("nan") for counter in pmcs}
                service = services.get(fault.service)
                if service is not None:
                    service.backlog = 0.0
            mutated[fault.service] = dataclasses.replace(
                observation, interval=interval, pmcs=pmcs
            )
        return mutated, active

    def state_dict(self) -> Dict[str, Any]:
        """Injector RNG stream (the fault schedule itself is configuration)."""
        return {"rng": rng_state(self._rng)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        set_rng_state(self._rng, dict(state["rng"]))
