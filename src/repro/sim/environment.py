"""The colocation environment that task managers drive.

One :class:`ColocationEnvironment` hosts N latency-critical services on one
socket of the simulated server (the paper pins servers to one socket and
clients to the other). Each call to :meth:`ColocationEnvironment.step`
installs the managers' core/DVFS assignments, advances one control
interval, and returns per-service observations (tail latency, raw PMCs)
plus the socket power reading — exactly the information Twig and the
baseline controllers consume on real hardware.

It is the vector engine (:class:`~repro.engine.vector_env.VectorEnvironment`)
with one node: the same physics, RNG draws, step events and checkpoint
layout as every fleet node, on the caller's profiles, load generators and
RNG. Its config, results and node-state layout live in
:mod:`repro.sim.node`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.mapper import AssignmentBatch
from repro.engine.vector_env import VectorEnvironment
from repro.errors import ConfigurationError
from repro.obs.sink import NULL_SINK, TraceSink
from repro.server.machine import CoreAssignment
from repro.services.loadgen import LoadGenerator
from repro.services.profiles import ServiceProfile
from repro.sim.faults import FaultInjector
from repro.sim.node import EnvironmentConfig, ServiceObservation, StepResult

__all__ = ["ColocationEnvironment", "EnvironmentConfig", "ServiceObservation", "StepResult"]


class ColocationEnvironment(VectorEnvironment):
    """N LC services sharing one socket of the simulated server: a
    one-node :class:`~repro.engine.vector_env.VectorEnvironment` with a
    per-server interface. ``load_generators`` is read by name every
    step, ``faults`` holds the server's one injector (or None) and
    :meth:`state_dict` is the server's node tree. Its trace events carry
    no node index."""

    index_tag = None

    def __init__(
        self,
        config: EnvironmentConfig,
        profiles: Sequence[ServiceProfile],
        load_generators: Mapping[str, LoadGenerator],
        rng: np.random.Generator,
        qos_targets: Optional[Mapping[str, float]] = None,
        trace: Optional[TraceSink] = None,
        faults: Optional[FaultInjector] = None,
    ):
        if not profiles:
            raise ConfigurationError("environment needs at least one service")
        self._setup(profiles, [rng], [dict(load_generators)], config, qos_targets)
        missing = set(self.names) - set(load_generators)
        if missing:
            raise ConfigurationError(f"missing load generators for: {sorted(missing)}")
        self.trace = trace or NULL_SINK
        self.faults = faults

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The server's fault injector, or None; assign one to attach it.
        Faults change what the manager sees after the interval is
        simulated, so the RNG streams are the same with and without."""
        return self._faults[0]

    @faults.setter
    def faults(self, injector: Optional[FaultInjector]) -> None:
        self._faults[0] = injector

    @property
    def load_generators(self) -> Dict[str, LoadGenerator]:
        """Each service's load generator by name; an entry replaced here
        drives the next step."""
        return self._loads[0]

    @property
    def socket_core_ids(self) -> List[int]:
        return list(self._core_ids)

    @property
    def energy_j(self) -> float:
        return float(self._energy[0])

    def step(self, assignments: Mapping[str, CoreAssignment]) -> StepResult:
        """Install the services' assignments and advance one control
        interval; refused with the ``AllocationError`` of
        :meth:`AssignmentBatch.from_dicts`, before anything changes."""
        batch = AssignmentBatch.from_dicts(
            self.names, [assignments], self.spec, self.config.socket_index
        )
        return super().step(batch)[0]

    def swap_service(
        self,
        old_name: str,
        new_profile: ServiceProfile,
        load_generator: LoadGenerator,
        qos_target_ms: Optional[float] = None,
    ) -> None:
        """Replace a running service with a new one (Figures 8 and 9)."""
        super().swap_service(old_name, new_profile, [load_generator], qos_target_ms)

    def state_dict(self) -> Dict[str, Any]:
        """The server's tree, in the :class:`~repro.sim.node.NodeState`
        layout a ``run`` checkpoint holds."""
        return super().state_dict()["envs"]["0000"]

    def _load_state(self, tree: Mapping[str, Any]) -> None:
        """Restore from a :meth:`state_dict` tree; ``load_state_dict``
        makes it all or nothing."""
        super()._load_state({"num_envs": 1, "envs": {"0000": tree}})
