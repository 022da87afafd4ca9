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
arrays and one draw from each adjusting server's own generator, reads a
polling tick's latencies through
:func:`~repro.sim.node.result_arrays`, and places them all into
one :class:`~repro.core.mapper.AssignmentBatch`; its controller state
(generators included) is written and read by
:meth:`PartiesFleet.controller_state` and
:meth:`PartiesFleet.load_controller_state`. :class:`PartiesManager` is its
one-server case, for the paper loop.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import check_rng_state, checked_array, rng_state, set_rng_state
from repro.core.manager import TaskManager
from repro.core.mapper import AssignmentBatch, Mapper
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.node import StepResult, result_arrays

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

        The results are read (:func:`~repro.sim.node.result_arrays`)
        only on a polling tick, for their ``p99`` matrix. The engine
        refuses a batch whose columns are not its services in its order,
        so a StepBatch's columns are this fleet's.
        """
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        self.step_count += 1
        if self.step_count % self.poll_every == 0:
            p99 = result_arrays(results, self.service_order)["p99"]
            self._poll(p99 / self._qos)
            self._batch = None
        return self._placement()

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

    def controller_state(self) -> Dict[str, Any]:
        """Every server's controller mid-run: the allocation, the last
        downsizing and the resources avoided, the tick count and each
        server's generator."""
        return {
            "cores": self.cores.copy(),
            "freq": self.freq.copy(),
            "step_count": self.step_count,
            "down_service": self._down_service.copy(),
            "down_resource": self._down_resource.copy(),
            "down_cores": self._down_cores.copy(),
            "down_freq": self._down_freq.copy(),
            "avoid": self._avoid.copy(),
            "rngs": {f"{e:04d}": rng_state(rng) for e, rng in enumerate(self._rngs)},
        }

    def load_controller_state(self, tree: Mapping[str, Any]) -> None:
        """Continue from :meth:`controller_state`; a tree of the wrong
        shape, with a value out of range or a bad generator state is
        refused with ``CheckpointError`` before anything is written."""
        E, S = self.cores.shape
        most, top = self.spec.cores_per_socket, len(self.spec.dvfs) - 1
        try:
            rngs = dict(tree["rngs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed PARTIES state: {exc}") from exc
        keys = [f"{e:04d}" for e in range(E)]
        if sorted(rngs) != keys:
            raise CheckpointError(f"PARTIES state holds generators {sorted(rngs)}, expected {keys}")
        for rng, key in zip(self._rngs, keys):
            check_rng_state(rng, rngs[key])
        staged = {
            "cores": checked_array(tree, "cores", (E, S), low=1, high=most),
            "freq": checked_array(tree, "freq", (E, S), low=0, high=top),
            "step_count": int(checked_array(tree, "step_count", (), low=0)),
            "_down_service": checked_array(tree, "down_service", (E,), low=-1, high=S - 1),
            "_down_resource": checked_array(tree, "down_resource", (E,), low=CORES, high=DVFS),
            "_down_cores": checked_array(tree, "down_cores", (E,), low=0, high=most),
            "_down_freq": checked_array(tree, "down_freq", (E,), low=0, high=top),
            "_avoid": checked_array(tree, "avoid", (E, S), low=-1, high=DVFS),
        }
        for rng, key in zip(self._rngs, keys):
            set_rng_state(rng, rngs[key])
        for name, value in staged.items():
            setattr(self, name, value)
        self._batch = None

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
