"""PARTIES (Chen et al., ASPLOS 2019), re-implemented per Section V-A.

PARTIES adjusts one resource at a time, for one service at a time, every
2 s:

- It identifies the service *closest to* its tail-latency target; if that
  service's latency is at or above 95 % of its target, PARTIES grows one of
  its resources (core count or DVFS — Intel CAT and memory capacity are
  part of the original system but, as in the paper's testbed, unused).
- Otherwise it *reclaims* a resource from the service with the largest
  slack, one resource at a time, making sure QoS is not violated: if the
  previous downsizing caused a violation, the adjustment is reverted and a
  different resource is tried next time.

The behaviours the paper attributes to PARTIES — serialised upsizing,
ping-ponging mapping decisions, and no anticipation of violations — follow
from these rules.

:class:`PartiesFleet` runs it on N servers in lock-step, as ``(N, S)``
arrays and one draw from each adjusting server's own generator, and
places them all into one :class:`~repro.core.mapper.AssignmentBatch`;
:class:`PartiesManager` is its one-server case, for the paper loop.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.manager import TaskManager
from repro.core.mapper import AssignmentBatch, Mapper
from repro.errors import ConfigurationError, ShapeError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.environment import StepResult

#: Resource indices (-1: none).
CORES, DVFS = 0, 1


def first_extremes(ratios: np.ndarray):
    """Per row of ``ratios``, the column Python's ``max`` and ``min`` over
    the columns in order return: the first extreme, passing over a NaN,
    unless the NaN comes first, which both keep (and which then fails
    every threshold)."""
    nan = np.isnan(ratios)
    closest = np.where(nan, -np.inf, ratios).argmax(axis=1)
    slackest = np.where(nan, np.inf, ratios).argmin(axis=1)
    closest[nan[:, 0]] = slackest[nan[:, 0]] = 0
    return closest, slackest


class PartiesFleet:
    """PARTIES on N servers, server ``e`` drawing from ``rngs[e]``."""

    name = "parties"

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        rngs: Sequence[np.random.Generator],
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        poll_every: int = 2,
        upsize_threshold: float = 0.95,
        downsize_threshold: float = 0.70,
        qos_targets: Optional[Mapping[str, float]] = None,
    ):
        if not profiles:
            raise ConfigurationError("PARTIES needs at least one service")
        if poll_every <= 0:
            raise ConfigurationError(f"poll_every must be positive, got {poll_every}")
        self.spec = spec or ServerSpec()
        self.service_order = [p.name for p in profiles]
        self.qos_targets = {
            p.name: (qos_targets or {}).get(p.name, p.qos_target_ms) for p in profiles
        }
        self._qos = np.array(list(self.qos_targets.values()), dtype=np.float64)
        self._rngs = list(rngs)
        self.num_envs = len(self._rngs)
        self.poll_every = poll_every
        self.upsize_threshold = upsize_threshold
        self.downsize_threshold = downsize_threshold
        self.mapper = Mapper(self.spec, socket_index=socket_index)

        shape = (self.num_envs, len(profiles))
        share = max(1, self.spec.cores_per_socket // len(profiles))
        #: Each server's allocation: core counts and DVFS indices, ``(N, S)``.
        self.cores = np.full(shape, share, dtype=np.int64)
        self.freq = np.full(shape, len(self.spec.dvfs) - 1, dtype=np.int64)
        self.step_count = 0
        # Each server's last downsizing: the service, the resource and the
        # allocation before it, so a violation can revert it and another
        # resource is tried; and the resource each service avoids.
        self._down_service = np.full(self.num_envs, -1, dtype=np.int64)
        self._down_resource = np.zeros(self.num_envs, dtype=np.int64)
        self._down_cores = np.zeros(self.num_envs, dtype=np.int64)
        self._down_freq = np.zeros(self.num_envs, dtype=np.int64)
        self._avoid = np.full(shape, -1, dtype=np.int64)
        self._batch: Optional[AssignmentBatch] = None

    def initial_assignments(self) -> AssignmentBatch:
        return self._placement()

    def update_batch(self, results: Sequence[StepResult]) -> AssignmentBatch:
        """Poll every ``poll_every`` ticks; return every server's placement.

        A :class:`~repro.engine.vector_env.StepBatch` is read through its
        ``p99`` matrix, any other result sequence through each result's
        observations, and only on a polling tick.
        """
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        self.step_count += 1
        if self.step_count % self.poll_every == 0:
            self._poll(self._p99(results) / self._qos)
            self._batch = None
        return self._placement()

    def _p99(self, results: Sequence[StepResult]) -> np.ndarray:
        # The engine refuses a batch whose columns are not its services in
        # its order, so a StepBatch's columns are this fleet's.
        arrays = getattr(results, "arrays", None)
        if arrays is not None:
            return arrays["p99"]
        return np.array([
            [result.observations[name].p99_ms for name in self.service_order]
            for result in results
        ], dtype=np.float64)

    def _poll(self, ratios: np.ndarray) -> None:
        """One PARTIES poll on every server's ``(N, S)`` latency ratios."""
        rows = np.arange(self.num_envs)
        # Revert a downsizing that caused a violation and have the service
        # avoid that resource from now on; any other downsizing is kept.
        pending = np.flatnonzero(self._down_service >= 0)
        revert = pending[ratios[pending, self._down_service[pending]] > 1.0]
        service = self._down_service[revert]
        self.cores[revert, service] = self._down_cores[revert]
        self.freq[revert, service] = self._down_freq[revert]
        self._avoid[revert, service] = self._down_resource[revert]
        self._down_service[:] = -1

        closest, slackest = first_extremes(ratios)
        up = ratios[rows, closest] >= self.upsize_threshold
        down = ~up & (ratios[rows, slackest] < self.downsize_threshold)
        up[revert] = down[revert] = False  # a revert is that server's whole poll
        adjust = np.flatnonzero(up | down)
        if not adjust.size:
            return
        up = up[adjust]
        service = np.where(up, closest[adjust], slackest[adjust])
        # Each adjusting server draws its resource from its own generator,
        # in server order, from the resources its service does not avoid.
        avoid = self._avoid[adjust, service]
        picks = [
            self._rngs[e].integers(0, n)
            for e, n in zip(adjust.tolist(), np.where(avoid < 0, 2, 1).tolist())
        ]
        resource = np.where(avoid < 0, picks, 1 - avoid)
        cores, freq = self.cores[adjust, service], self.freq[adjust, service]
        most, top = self.spec.cores_per_socket, len(self.spec.dvfs) - 1
        # Upsizing falls back to DVFS, then cores; downsizing to DVFS,
        # then cores, recording the resource it took.
        grow_cores = (cores < most) & ((resource == CORES) | (freq >= top))
        grow_freq = ~grow_cores & (freq < top)
        shrink_cores = (cores > 1) & ((resource == CORES) | (freq == 0))
        shrink_freq = ~shrink_cores & (freq > 0)
        self.cores[adjust, service] = cores + (up & grow_cores) - (~up & shrink_cores)
        self.freq[adjust, service] = freq + (up & grow_freq) - (~up & shrink_freq)
        downsized = ~up & (shrink_cores | shrink_freq)
        servers = adjust[downsized]
        self._down_service[servers] = service[downsized]
        self._down_resource[servers] = np.where(shrink_cores[downsized], CORES, DVFS)
        self._down_cores[servers] = cores[downsized]
        self._down_freq[servers] = freq[downsized]

    def _placement(self) -> AssignmentBatch:
        """Every server's allocation placed, kept until the next poll."""
        if self._batch is None:
            self._batch = self.mapper.map_rows(
                self.service_order, self.cores, self.freq, np.zeros_like(self.cores)
            )
        return self._batch


class PartiesManager(PartiesFleet, TaskManager):
    """One-resource-at-a-time feedback controller for colocated services:
    the one-server :class:`PartiesFleet`."""

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
        super().__init__(
            profiles, [rng], spec, socket_index, poll_every, upsize_threshold,
            downsize_threshold, qos_targets,
        )

    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return super().initial_assignments()[0]

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        return self.update_batch((result,))[0]
