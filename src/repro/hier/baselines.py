"""Rule-based fleets: Static/Heracles/PARTIES behind the fleet interface.

The hierarchical experiment compares the allocator + Twig-leaf stack
against the paper's rule-based managers at fleet scale. PARTIES and
Heracles are scalar (one node each), so :class:`RuleFleet` wraps N
independent instances behind the same lock-step manager interface
:func:`~repro.engine.rollout.run_fleet` drives — each node's manager
sees only its own :class:`~repro.sim.environment.StepResult`, exactly as
N real nodes running N independent controllers would. The static
baseline never reads an observation and never changes its placement, so
a static fleet is that one placement as an N-row
:class:`~repro.core.mapper.AssignmentBatch`: it reads no result, and the
engine installs it once and then finds every row unchanged.

Rule managers carry no learned state worth checkpointing mid-run (their
controllers are cheap to re-run), so :meth:`RuleFleet.state_dict` is
identity-only; resuming a rule fleet restarts its controllers from their
deterministic initial state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.heracles import HeraclesManager
from repro.baselines.parties import PartiesManager
from repro.baselines.static import StaticManager
from repro.core.mapper import AssignmentBatch
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.obs.sink import NULL_SINK, TraceSink
from repro.obs.timing import TimingRegistry
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile
from repro.sim.environment import StepResult

#: Rule-based baselines the hierarchical experiment accepts.
RULE_BASELINES = ("static", "heracles", "parties")


class RuleFleet:
    """N independent scalar rule managers, or one fixed placement for N
    nodes, behind the fleet interface."""

    CKPT_KIND = "rule_fleet"

    def __init__(
        self,
        name: str,
        managers: Sequence[Any] = (),
        fixed: Optional[AssignmentBatch] = None,
    ):
        if (fixed is None) == (not managers):
            raise ConfigurationError(
                "RuleFleet needs either at least one manager or a fixed placement"
            )
        self.name = name
        self.managers = list(managers)
        #: The placement of a fleet that never changes it (static), else None.
        self.fixed = fixed
        self.num_envs = len(fixed) if fixed is not None else len(self.managers)
        self.index_tag = "env"
        self.trace: TraceSink = NULL_SINK

    def initial_assignments(
        self,
    ) -> Union[AssignmentBatch, List[Dict[str, CoreAssignment]]]:
        if self.fixed is not None:
            return self.fixed
        return [m.initial_assignments() for m in self.managers]

    def update_batch(
        self, results: Sequence[StepResult]
    ) -> Union[AssignmentBatch, List[Dict[str, CoreAssignment]]]:
        """The next placements: the fixed batch itself, whose results are
        never read, or each manager's update on its own node's result."""
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        if self.fixed is not None:
            return self.fixed
        return [m.update(r) for m, r in zip(self.managers, results)]

    def attach_obs(
        self, trace: Optional[TraceSink], timings: Optional[TimingRegistry]
    ) -> None:
        if trace is not None:
            self.trace = trace

    def exploit(self) -> None:
        """Rule managers have no exploration to freeze."""

    def state_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "num_envs": self.num_envs}

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        try:
            name = str(tree["name"])
            num_envs = int(tree["num_envs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed rule-fleet checkpoint: {exc}") from exc
        if name != self.name or num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint is for {name!r} x {num_envs}, this fleet is "
                f"{self.name!r} x {self.num_envs}"
            )


def make_rule_fleet(
    name: str,
    services: Sequence[str],
    num_envs: int,
    seed: int,
    spec: Optional[ServerSpec] = None,
) -> RuleFleet:
    """Build an N-node fleet of one rule-based baseline.

    Heracles is the paper's single-service controller; asking for it with
    a colocation is a configuration error rather than a silent partial
    assignment. A static fleet's batch names ``services`` in the order
    given, which the engine requires to be its own order.
    """
    if name not in RULE_BASELINES:
        raise ConfigurationError(
            f"unknown rule baseline {name!r}; known: {sorted(RULE_BASELINES)}"
        )
    if num_envs < 1:
        raise ConfigurationError(f"num_envs must be >= 1, got {num_envs}")
    services = list(services)
    if not services:
        raise ConfigurationError("need at least one service")
    if name == "static":
        return RuleFleet(name, fixed=_static_placement(services, num_envs, spec))
    if name == "heracles":
        if len(services) != 1:
            raise ConfigurationError(
                "heracles manages exactly one LC service per node; got "
                f"{services}"
            )
        managers = [
            HeraclesManager(get_profile(services[0]), spec=spec)
            for _ in range(num_envs)
        ]
    else:
        profiles = [get_profile(s) for s in services]
        managers = [
            PartiesManager(profiles, np.random.default_rng(seed + 1 + e), spec=spec)
            for e in range(num_envs)
        ]
    return RuleFleet(name, managers)


def _static_placement(
    services: Sequence[str], num_envs: int, spec: Optional[ServerSpec]
) -> AssignmentBatch:
    """:class:`StaticManager`'s placement, built once, as ``num_envs``
    equal rows."""
    manager = StaticManager(services, spec=spec)
    placement = manager.initial_assignments()
    cores = manager.mapper.socket_cores
    shape = (num_envs, len(services))
    return AssignmentBatch(
        services,
        cores,
        np.broadcast_to(
            [[core in placement[s].cores for core in cores] for s in services],
            shape + (len(cores),),
        ),
        np.broadcast_to([placement[s].freq_index for s in services], shape),
        np.broadcast_to([placement[s].llc_ways for s in services], shape),
    )
