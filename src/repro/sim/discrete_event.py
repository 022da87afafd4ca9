"""Per-request discrete-event simulator used to validate the interval model.

The production environment advances in 1 s control intervals using
closed-form M/M/c-style queueing (fast enough for the paper's 10 000+ step
learning runs). This module provides the ground-truth counterpart: an
event-driven simulation of a multi-server FCFS queue with generally
distributed service times, Poisson arrivals, and optional intra-request
latency floors — the same modelling assumptions, executed request by
request.

It exists to *validate* the analytic substrate (tests compare its measured
p99 against :func:`repro.services.queueing.response_time_quantile` and
against the interval model's p99 at the same operating point), and to let users study
distributional effects the interval model compresses (e.g. full latency
histograms).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.services.profiles import ServiceProfile


@dataclass(frozen=True)
class CompletedRequest:
    """One request's life cycle."""

    arrival_s: float
    start_s: float
    finish_s: float

    @property
    def waiting_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def sojourn_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass
class QueueStats:
    """Summary statistics of a finished simulation."""

    completed: int
    dropped: int
    mean_sojourn_s: float
    p50_sojourn_ms: float
    p95_sojourn_ms: float
    p99_sojourn_ms: float
    mean_waiting_s: float
    utilization: float
    max_queue_len: int


def exponential_service(mean_s: float) -> Callable[[np.random.Generator], float]:
    """Exponential service-time sampler (cv^2 = 1)."""
    if mean_s <= 0:
        raise ConfigurationError(f"mean_s must be positive, got {mean_s}")
    return lambda rng: rng.exponential(mean_s)


def lognormal_service(mean_s: float, cv2: float) -> Callable[[np.random.Generator], float]:
    """Lognormal sampler with the given mean and squared coefficient of
    variation (how the service profiles express variability)."""
    if mean_s <= 0 or cv2 <= 0:
        raise ConfigurationError("mean_s and cv2 must be positive")
    sigma2 = math.log(1.0 + cv2)
    mu = math.log(mean_s) - sigma2 / 2.0
    return lambda rng: float(rng.lognormal(mu, math.sqrt(sigma2)))


def deterministic_service(mean_s: float) -> Callable[[np.random.Generator], float]:
    if mean_s <= 0:
        raise ConfigurationError(f"mean_s must be positive, got {mean_s}")
    return lambda rng: mean_s


class MultiServerQueue:
    """Event-driven G/G/c FCFS queue simulation.

    Parameters
    ----------
    servers:
        Number of parallel servers (cores).
    service_sampler:
        Callable drawing one service time in seconds.
    arrival_rate:
        Poisson arrival rate, requests per second.
    queue_limit:
        Drop arrivals beyond this queue length (0 = unbounded), modelling
        client timeouts.
    """

    _ARRIVAL = 0
    _DEPARTURE = 1

    def __init__(
        self,
        servers: int,
        service_sampler: Callable[[np.random.Generator], float],
        arrival_rate: float,
        rng: np.random.Generator,
        queue_limit: int = 0,
    ):
        if servers <= 0:
            raise ConfigurationError(f"servers must be positive, got {servers}")
        if arrival_rate <= 0:
            raise ConfigurationError(f"arrival_rate must be positive, got {arrival_rate}")
        if queue_limit < 0:
            raise ConfigurationError(f"queue_limit must be >= 0, got {queue_limit}")
        self.servers = servers
        self.service_sampler = service_sampler
        self.arrival_rate = arrival_rate
        self.queue_limit = queue_limit
        self._rng = rng

    def run(
        self,
        duration_s: float,
        warmup_s: float = 0.0,
    ) -> QueueStats:
        """Simulate for ``duration_s`` seconds; statistics exclude warmup."""
        _, stats = self.run_collect_waits(duration_s, warmup_s)
        return stats

    def run_collect_waits(
        self,
        duration_s: float,
        warmup_s: float = 0.0,
    ):
        """Like :meth:`run`, but also returns per-request waits in ms."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration_s must be positive, got {duration_s}")
        if warmup_s < 0 or warmup_s >= duration_s:
            raise ConfigurationError("need 0 <= warmup_s < duration_s")
        rng = self._rng
        counter = itertools.count()  # tie-breaker for identical event times
        events: List = []  # (time, seq, kind, payload)
        heapq.heappush(
            events, (rng.exponential(1.0 / self.arrival_rate), next(counter), self._ARRIVAL, None)
        )
        busy = 0
        queue: List[float] = []  # arrival times of waiting requests
        completed: List[CompletedRequest] = []
        dropped = 0
        busy_time = 0.0
        last_time = 0.0
        max_queue = 0

        while events:
            time, _, kind, payload = heapq.heappop(events)
            if time > duration_s:
                break
            busy_time += busy * (time - last_time)
            last_time = time
            if kind == self._ARRIVAL:
                heapq.heappush(
                    events,
                    (
                        time + rng.exponential(1.0 / self.arrival_rate),
                        next(counter),
                        self._ARRIVAL,
                        None,
                    ),
                )
                if busy < self.servers:
                    busy += 1
                    finish = time + self.service_sampler(rng)
                    heapq.heappush(
                        events, (finish, next(counter), self._DEPARTURE, (time, time))
                    )
                elif self.queue_limit and len(queue) >= self.queue_limit:
                    dropped += 1
                else:
                    queue.append(time)
                    max_queue = max(max_queue, len(queue))
            else:
                arrival, start = payload
                if arrival >= warmup_s:
                    completed.append(
                        CompletedRequest(arrival_s=arrival, start_s=start, finish_s=time)
                    )
                if queue:
                    next_arrival = queue.pop(0)
                    finish = time + self.service_sampler(rng)
                    heapq.heappush(
                        events,
                        (finish, next(counter), self._DEPARTURE, (next_arrival, time)),
                    )
                else:
                    busy -= 1

        if not completed:
            raise ConfigurationError(
                "simulation completed zero requests after warmup; run longer"
            )
        sojourns = np.array([r.sojourn_s for r in completed])
        waits = np.array([r.waiting_s for r in completed])
        stats = QueueStats(
            completed=len(completed),
            dropped=dropped,
            mean_sojourn_s=float(sojourns.mean()),
            p50_sojourn_ms=float(np.percentile(sojourns, 50) * 1000.0),
            p95_sojourn_ms=float(np.percentile(sojourns, 95) * 1000.0),
            p99_sojourn_ms=float(np.percentile(sojourns, 99) * 1000.0),
            mean_waiting_s=float(waits.mean()),
            utilization=float(busy_time / (self.servers * last_time)) if last_time else 0.0,
            max_queue_len=max_queue,
        )
        return list(waits * 1000.0), stats


@dataclass
class ServicePointStats:
    """DES measurement of one service operating point.

    ``p99_latency_ms`` composes the queueing wait with the service's
    response-floor distribution, matching the semantics of the interval
    model (a request's *CPU occupancy* sets capacity, while its observable
    latency floor is much smaller because requests are internally
    parallel/pipelined).
    """

    queue: QueueStats
    p50_latency_ms: float
    p99_latency_ms: float


def simulate_service_point(
    profile: ServiceProfile,
    arrival_rate: float,
    cores: int,
    frequency_ghz: float,
    max_frequency_ghz: float,
    rng: np.random.Generator,
    duration_s: float = 200.0,
    warmup_s: float = 20.0,
    inflation: float = 1.0,
) -> ServicePointStats:
    """Discrete-event counterpart of one operating point of the interval
    model (:mod:`repro.services.service`).

    The queue is served with the profile's per-request *CPU* time (which
    sets capacity and waiting, exactly like the analytic model's Erlang-C
    term); each completed request's observable latency is its waiting time
    plus a draw from the response-floor distribution (lognormal, calibrated
    so its 99th percentile equals ``floor_q99_ms`` at this frequency and
    contention level).
    """
    freq_factor = profile.frequency_factor(frequency_ghz, max_frequency_ghz)
    service_ms = profile.cpu_ms_per_req * freq_factor * inflation
    floor_q99_ms = profile.floor_q99_ms * freq_factor * inflation
    effective = profile.effective_cores(cores)
    # The analytic model treats the system as `effective` servers each with
    # the raw per-core rate; emulate the Amdahl loss by slowing each of the
    # `cores` physical servers proportionally.
    per_server_mean_s = (service_ms / 1000.0) * (cores / effective)
    queue = MultiServerQueue(
        servers=cores,
        service_sampler=lognormal_service(per_server_mean_s, profile.cv2),
        arrival_rate=arrival_rate,
        rng=rng,
        queue_limit=int(10 * arrival_rate) or 1000,
    )
    waits_ms, stats = queue.run_collect_waits(duration_s=duration_s, warmup_s=warmup_s)
    # Response-floor distribution: lognormal whose q99 is floor_q99_ms.
    sigma = 0.6
    median = floor_q99_ms / math.exp(2.326 * sigma)
    floors_ms = np.exp(rng.normal(math.log(median), sigma, size=len(waits_ms)))
    latency_ms = np.asarray(waits_ms) + floors_ms
    return ServicePointStats(
        queue=stats,
        p50_latency_ms=float(np.percentile(latency_ms, 50)),
        p99_latency_ms=float(np.percentile(latency_ms, 99)),
    )
