"""Hierarchical fleet control: a budget allocator over per-node leaves.

Two-level control stack for cluster runs (ROADMAP: "Hierarchical
multi-agent control"):

- :class:`~repro.hier.allocator.BudgetAllocator` — a small top-level BDQ
  agent observing *fleet aggregates* (utilization, QoS slack, power) and
  choosing a per-node power-budget level plus a slack tilt every
  ``period`` control ticks;
- :class:`~repro.hier.manager.HierFleetTwig` — a
  :class:`~repro.core.fleet.FleetTwig` whose leaf BDQ agents manage
  cores + DVFS *within* their node's budget via reward shaping and
  deterministic action masking;
- :mod:`~repro.hier.baselines` — Static/Heracles/PARTIES rule fleets
  behind the same lock-step manager interface;
- :mod:`~repro.hier.provision` — leaf-policy transfer onto freshly
  provisioned fleets from PR-5 checkpoints
  (:meth:`~repro.rl.agent.BDQAgent.transfer`).

See ``docs/fleet.md`` ("Hierarchical control") and
``docs/architecture.md`` for budget semantics and event schema.
"""

from repro.hier.allocator import BudgetAllocator, BudgetConfig
from repro.hier.baselines import RULE_BASELINES, RuleFleet, make_rule_fleet
from repro.hier.manager import HierFleetTwig
from repro.hier.provision import provision_fleet

__all__ = [
    "BudgetAllocator",
    "BudgetConfig",
    "HierFleetTwig",
    "RuleFleet",
    "RULE_BASELINES",
    "make_rule_fleet",
    "provision_fleet",
]
