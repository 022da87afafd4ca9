"""The Twig runtime (Figure 3) on one server: Twig-S and Twig-C.

One ``Twig`` instance manages K colocated LC services with a single
multi-agent BDQ (Twig-S is the K = 1 special case, Twig-C the K >= 2
case). Each control interval it:

1. gathers per-service PMCs through the system monitor (eta-smoothed,
   max-normalised),
2. computes the Equation-1 reward per service from measured tail latency
   and the Equation-2 per-service power estimate,
3. feeds the (state, action, reward, next-state) transition to the deep
   Q-learning agent,
4. selects the next per-service (core count, DVFS) actions, and
5. resolves them to concrete core pins through the mapper.

All of that is :class:`~repro.core.fleet.FleetTwig`, the runtime the
fleet, cluster and hierarchical runs use; ``Twig`` is its one-environment
case and adds only the single-server interface: one result in, one
assignment dict out, service swaps for transfer learning, and loading the
checkpoints the earlier per-service-dict implementation wrote.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import checkpoint_kind, load_state
from repro.core.config import TwigConfig
from repro.core.fleet import FleetTwig
from repro.core.manager import TaskManager
from repro.core.power_model import ServicePowerModel
from repro.errors import ConfigurationError
from repro.obs.sink import TraceSink
from repro.obs.timing import TimingRegistry
from repro.rl.agent import BDQAgent
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.node import StepResult


class Twig(FleetTwig, TaskManager):
    """QoS-aware, energy-minimising task manager for K LC services."""

    #: Checkpoint kind tag for full manager state (see :mod:`repro.ckpt`).
    CKPT_KIND: ClassVar[str] = "twig"

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        config: TwigConfig,
        rng: np.random.Generator,
        spec: Optional[ServerSpec] = None,
        power_models: Optional[Mapping[str, ServicePowerModel]] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        super().__init__(
            profiles, config, rng, num_envs=1, spec=spec, power_models=power_models,
            qos_targets=qos_targets, trace=trace, timings=timings,
        )
        self.name = "twig-s" if len(profiles) == 1 else "twig-c"

    # ------------------------------------------------------------------ #
    # TaskManager interface
    # ------------------------------------------------------------------ #
    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        """Start like the paper's experiments: all cores at max DVFS."""
        return super().initial_assignments()[0]

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        return self.update_batch((result,))[0]

    @property
    def last_rewards(self) -> Dict[str, float]:
        """Each service's Equation-1 reward at the last healthy interval."""
        if not self._has_reward[0]:
            return {}
        return dict(zip(self.service_order, self._reward_totals[0].tolist()))

    def _tag(self, e: int) -> Dict[str, int]:
        # One server: its events carry no environment index.
        return {}

    # ------------------------------------------------------------------ #
    # lifecycle operations
    # ------------------------------------------------------------------ #
    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output, or a per-service-dict tree.

        The per-service-dict implementation wrote the control state at
        the top level next to one ``monitor`` tree; that is environment 0
        of the legacy per-env layout :class:`FleetTwig` reads.
        """
        if "monitor" in tree:
            tree = {
                "services": tree.get("services"),
                "num_envs": 1,
                "agent": tree.get("agent"),
                "monitors": {"0000": tree["monitor"]},
                "envs": {"0000": tree},
            }
        super().load_state_dict(tree)

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`.

        Also accepts bare agent checkpoints and legacy weight-only
        ``.npz`` files (both restore the agent only; the legacy path warns
        that training state is unrecoverable). The architecture (services,
        branch sizes, hidden widths) must match.
        """
        kind = checkpoint_kind(path)
        if kind is None or kind == BDQAgent.CKPT_KIND:
            self.agent.load(path)
            return
        self.load_state_dict(load_state(path, kind=self.CKPT_KIND))

    def transfer_to(
        self,
        old_name: str,
        new_profile: ServiceProfile,
        qos_target_ms: Optional[float] = None,
        power_model: Optional[ServicePowerModel] = None,
    ) -> None:
        """Swap a managed service and transfer-learn (Figures 8/9).

        The shared representation is kept; every head's output layer is
        re-randomised, the monitor history for the slot is cleared, and
        the slot's allocation falls back to the starting one.
        """
        if old_name not in self.profiles:
            raise ConfigurationError(f"unknown service {old_name!r}")
        index = self.service_order.index(old_name)
        del self.profiles[old_name]
        del self.qos_targets[old_name]
        self.power_models.pop(old_name, None)
        self.service_order[index] = new_profile.name
        self.profiles[new_profile.name] = new_profile
        self.qos_targets[new_profile.name] = (
            qos_target_ms if qos_target_ms is not None else new_profile.qos_target_ms
        )
        if power_model is not None:
            self.power_models[new_profile.name] = power_model
        self._build_service_rows()
        k = len(self.service_order)
        self.monitor_bank.reset(np.arange(self.num_envs) * k + index)
        self.agent.transfer(self._rng)
        self._has_prev[:] = False
        self._alloc_cores[:, index] = self.action_space.max_cores
        self._alloc_freq[:, index] = len(self.spec.dvfs) - 1
        self._alloc_ways[:, index] = 0
