"""Heracles (Lo et al., ISCA 2015), re-implemented per Section V-A.

Heracles is a multi-level feedback controller for a single LC service:

- The **main controller** polls every 15 s; if the LC service violated its
  tail-latency target or its load exceeds 85 % of maximum, it allocates
  *all* resources to the LC service for 5 minutes.
- The **core & memory controller** polls every 2 s; if tail latency is at
  or above 80 % of the target, or measured memory bandwidth has grown, the
  LC service gains a core, otherwise it loses one.
- The **power controller** polls every 2 s; it lowers the DVFS setting
  when socket power reaches 90 % of TDP (and restores it otherwise).

Intel CAT is part of the original system but, like the paper, we do not
model it. The behaviours the paper attributes to Heracles — over-allocation
of cores despite QoS slack, long full-allocation lockouts, DVFS pinned
high until the power cap — follow directly from these rules.

:class:`HeraclesFleet` runs them on ``num_envs`` servers in lock-step,
as ``(N,)`` arrays, reads each tick through
:func:`~repro.sim.node.result_arrays`, and places them all into
one :class:`~repro.core.mapper.AssignmentBatch`; its controller state
(lockouts included) is written and read by
:meth:`HeraclesFleet.controller_state` and
:meth:`HeraclesFleet.load_controller_state`. :class:`HeraclesManager` is
its one-server case, for the paper loop.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import checked_array
from repro.core.manager import TaskManager
from repro.core.mapper import AssignmentBatch, Mapper
from repro.errors import ConfigurationError, ShapeError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.node import StepResult, result_arrays


class HeraclesFleet:
    """Three-level feedback controller for one LC service on each of
    ``num_envs`` servers."""

    name = "heracles"

    def __init__(
        self,
        profile: ServiceProfile,
        num_envs: int,
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        qos_target_ms: Optional[float] = None,
        main_poll_every: int = 15,
        controller_poll_every: int = 2,
        lockout_steps: int = 300,           # "5 min" of 1 s intervals
        load_threshold: float = 0.85,
        latency_grow_threshold: float = 0.80,
        power_cap_fraction: float = 0.90,
    ):
        if main_poll_every <= 0 or controller_poll_every <= 0:
            raise ConfigurationError("poll periods must be positive")
        self.spec = spec or ServerSpec()
        self.profile = profile
        self.qos_target_ms = qos_target_ms if qos_target_ms is not None else profile.qos_target_ms
        self.main_poll_every = main_poll_every
        self.controller_poll_every = controller_poll_every
        self.lockout_steps = lockout_steps
        self.load_threshold = load_threshold
        self.latency_grow_threshold = latency_grow_threshold
        self.power_cap_fraction = power_cap_fraction
        self.mapper = Mapper(self.spec, socket_index=socket_index)
        self.num_envs = num_envs

        self.cores = np.full(num_envs, self.spec.cores_per_socket, dtype=np.int64)
        self.freq_index = np.full(num_envs, len(self.spec.dvfs) - 1, dtype=np.int64)
        self.step_count = 0
        self._lockout_until = np.zeros(num_envs, dtype=np.int64)
        self._last_membw = np.zeros(num_envs)
        self._batch: Optional[AssignmentBatch] = None

    def initial_assignments(self) -> AssignmentBatch:
        return self._placement()

    def update_batch(self, results: Sequence[StepResult]) -> AssignmentBatch:
        """One tick of every controller; every server's placement."""
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        arrays = result_arrays(results, [self.profile.name])
        p99, arrivals, membw = (arrays[key][:, 0] for key in ("p99", "arrivals", "membw_gbps"))
        power = arrays["power_w"]
        self.step_count += 1
        step, most, top = self.step_count, self.spec.cores_per_socket, len(self.spec.dvfs) - 1

        if step % self.main_poll_every == 0:
            # Disallow sharing: everything to the LC service for 5 min.
            lock = (p99 > self.qos_target_ms) | (
                arrivals / self.profile.max_load_rps > self.load_threshold
            )
            self._lockout_until[lock] = step + self.lockout_steps
            self.cores[lock] = most
            self.freq_index[lock] = top
            self._batch = None

        if step % self.controller_poll_every == 0:
            free = step >= self._lockout_until
            # Core & memory controller: 5% hysteresis so ordinary arrival
            # jitter does not read as bandwidth growth.
            grow = (p99 >= self.latency_grow_threshold * self.qos_target_ms) | (
                membw > self._last_membw * 1.05
            )
            cores = np.where(grow, np.minimum(self.cores + 1, most), np.maximum(self.cores - 1, 1))
            # Power controller: Heracles keeps the LC service's frequency as
            # high as the power budget allows.
            hot = power >= self.power_cap_fraction * self.spec.tdp_w
            freq = np.where(hot, np.maximum(self.freq_index - 1, 0),
                            np.minimum(self.freq_index + 1, top))
            self.cores = np.where(free, cores, self.cores)
            self.freq_index = np.where(free, freq, self.freq_index)
            self._batch = None

        self._last_membw = membw
        return self._placement()

    def controller_state(self) -> Dict[str, Any]:
        """Every server's controllers mid-run: the allocation, the tick
        count, when each lockout ends and the last memory bandwidth."""
        return {
            "cores": self.cores.copy(),
            "freq_index": self.freq_index.copy(),
            "step_count": self.step_count,
            "lockout_until": self._lockout_until.copy(),
            "last_membw": np.array(self._last_membw, dtype=np.float64),
        }

    def load_controller_state(self, tree: Mapping[str, Any]) -> None:
        """Continue from :meth:`controller_state`; a tree of the wrong
        shape or with a value out of range is refused with
        ``CheckpointError`` before anything is written."""
        E, most, top = self.num_envs, self.spec.cores_per_socket, len(self.spec.dvfs) - 1
        staged = {
            "cores": checked_array(tree, "cores", (E,), low=1, high=most),
            "freq_index": checked_array(tree, "freq_index", (E,), low=0, high=top),
            "step_count": int(checked_array(tree, "step_count", (), low=0)),
            "_lockout_until": checked_array(tree, "lockout_until", (E,), low=0),
            "_last_membw": checked_array(tree, "last_membw", (E,), np.float64, low=0.0),
        }
        for name, value in staged.items():
            setattr(self, name, value)
        self._batch = None

    def _placement(self) -> AssignmentBatch:
        """Every server's allocation placed, kept until a controller polls."""
        if self._batch is None:
            cores = self.cores[:, None]
            self._batch = self.mapper.map_rows(
                [self.profile.name], cores, self.freq_index[:, None], np.zeros_like(cores)
            )
        return self._batch


class HeraclesManager(HeraclesFleet, TaskManager):
    """Three-level feedback controller for one LC service: the one-server
    :class:`HeraclesFleet`."""

    def __init__(
        self,
        profile: ServiceProfile,
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        qos_target_ms: Optional[float] = None,
        main_poll_every: int = 15,
        controller_poll_every: int = 2,
        lockout_steps: int = 300,
        load_threshold: float = 0.85,
        latency_grow_threshold: float = 0.80,
        power_cap_fraction: float = 0.90,
    ):
        super().__init__(
            profile, 1, spec, socket_index, qos_target_ms, main_poll_every,
            controller_poll_every, lockout_steps, load_threshold,
            latency_grow_threshold, power_cap_fraction,
        )

    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return super().initial_assignments()[0]

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        return self.update_batch((result,))[0]
