"""Rule-based fleets: Static/Heracles/PARTIES behind the fleet interface.

The hierarchical experiment compares the allocator + Twig-leaf stack
against the paper's rule-based managers at fleet scale. PARTIES and
Heracles are array fleets (:class:`~repro.baselines.parties.PartiesFleet`,
:class:`~repro.baselines.heracles.HeraclesFleet`) whose one-node case is
the paper-loop manager: each node's controller reads only its own row of
the interval's matrices and PARTIES draws from its own generator, exactly
as N real nodes running N independent controllers would, and a tick
returns every node's placement as one
:class:`~repro.core.mapper.AssignmentBatch`. The static baseline never
reads an observation and never changes its placement, so a static fleet
is that one placement as an N-row batch: it reads no result, and the
engine installs it once and then finds every row unchanged.

PARTIES and Heracles read a tick's results through
:func:`~repro.sim.environment.result_arrays`. :meth:`RuleFleet.state_dict`
holds the fleet's identity and, for PARTIES and Heracles, every node's
controller state (allocations, tick count, PARTIES's pending downsizings
and generators, Heracles's lockouts and last memory bandwidth), so a
resumed fleet continues its controllers where the checkpoint left them.
The paper-loop ``PartiesManager`` and ``HeraclesManager`` stay without
``state_dict``: the runner's ambient checkpointing does not checkpoint
paper-loop baselines.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.baselines.heracles import HeraclesFleet
from repro.baselines.parties import PartiesFleet
from repro.baselines.static import StaticManager
from repro.core.mapper import AssignmentBatch
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.obs.sink import TraceSink
from repro.obs.timing import TimingRegistry
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile
from repro.sim.environment import StepResult

#: Rule-based baselines the hierarchical experiment accepts.
RULE_BASELINES = ("static", "heracles", "parties")


class RuleFleet:
    """One rule-based controller fleet, or one fixed placement for N
    nodes, behind the fleet interface."""

    CKPT_KIND = "rule_fleet"

    def __init__(
        self,
        name: str,
        controller: Optional[Union[PartiesFleet, HeraclesFleet]] = None,
        fixed: Optional[AssignmentBatch] = None,
    ):
        if (fixed is None) == (controller is None):
            raise ConfigurationError(
                "RuleFleet needs either a controller or a fixed placement"
            )
        self.name = name
        #: The PARTIES or Heracles fleet that places every node, else None.
        self.controller = controller
        #: The placement of a fleet that never changes it (static), else None.
        self.fixed = fixed
        self.num_envs = len(fixed) if fixed is not None else controller.num_envs

    def initial_assignments(self) -> AssignmentBatch:
        if self.fixed is not None:
            return self.fixed
        return self.controller.initial_assignments()

    def update_batch(self, results: Sequence[StepResult]) -> AssignmentBatch:
        """The next placements: the fixed batch itself, whose results are
        never read, or the controller's tick on every node's results."""
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        if self.fixed is not None:
            return self.fixed
        return self.controller.update_batch(results)

    def attach_obs(
        self, trace: Optional[TraceSink], timings: Optional[TimingRegistry]
    ) -> None:
        """Rule managers emit no events and time no sections."""

    def exploit(self) -> None:
        """Rule managers have no exploration to freeze."""

    def state_dict(self) -> Dict[str, Any]:
        """The fleet's identity and, for PARTIES and Heracles, every
        node's controller state; a static fleet has no state."""
        tree: Dict[str, Any] = {"name": self.name, "num_envs": self.num_envs}
        if self.controller is not None:
            tree["controller"] = self.controller.controller_state()
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Continue from :meth:`state_dict`: the controllers pick up where
        the checkpoint left them (stage-then-commit). A PARTIES or
        Heracles tree without controller state is refused."""
        try:
            name = str(tree["name"])
            num_envs = int(tree["num_envs"])
            controller = None if self.controller is None else dict(tree["controller"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed rule-fleet checkpoint: {exc}") from exc
        if name != self.name or num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint is for {name!r} x {num_envs}, this fleet is "
                f"{self.name!r} x {self.num_envs}"
            )
        if controller is not None:
            self.controller.load_controller_state(controller)


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
    assignment. Every fleet's batch names ``services`` in the order
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
        controller = HeraclesFleet(get_profile(services[0]), num_envs, spec=spec)
    else:
        controller = PartiesFleet(
            [get_profile(s) for s in services],
            [np.random.default_rng(seed + 1 + e) for e in range(num_envs)],
            spec=spec,
        )
    return RuleFleet(name, controller)


def _static_placement(
    services: Sequence[str], num_envs: int, spec: Optional[ServerSpec]
) -> AssignmentBatch:
    """:class:`StaticManager`'s placement, built once, as ``num_envs``
    equal rows."""
    manager = StaticManager(services, spec=spec)
    row = AssignmentBatch.from_dicts(
        services, [manager.initial_assignments()], manager.spec, manager.mapper.socket_index
    )
    return AssignmentBatch(services, row.core_ids, *(
        np.broadcast_to(a, (num_envs,) + a.shape[1:]) for a in (row.pins, row.freq, row.ways)
    ))
