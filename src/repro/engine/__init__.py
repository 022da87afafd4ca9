"""Batched in-process rollout engine.

Runs N experiments/environments in lock-step inside one process:

- :mod:`repro.engine.vector_env` — :class:`VectorEnvironment` steps every
  environment's queueing, interference, telemetry, and power math as
  array-shaped NumPy over an (env, service) grid;
- :mod:`repro.engine.fleet` — re-exports the control runtime from
  :mod:`repro.core.fleet`: :class:`FleetBDQAgent` routes all envs'
  observations through one fused HeadBank forward and trains at most once
  per tick from a striped prioritized replay buffer; :class:`FleetTwig`
  is the matching N-environment task manager;
- :mod:`repro.engine.rollout` — :func:`run_fleet`, the lock-step rollout
  loop with per-env deterministic seeding, per-env traces, and
  checkpoint/resume.

The scalar path (:class:`repro.sim.environment.ColocationEnvironment` +
the per-experiment loop in :mod:`repro.experiments.runner`) is retained as
the equivalence oracle.

The cluster layer (:mod:`repro.cluster`) builds on these same pieces to
simulate a load-balanced multi-node datacenter: its
:class:`~repro.cluster.environment.ClusterEnvironment` subclasses
:class:`VectorEnvironment` (one "environment" per node) and is driven by
the same :func:`run_fleet` loop — see ``docs/fleet.md``.
"""

from repro.core.fleet import FleetBDQAgent, FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import (
    ENV_SEED_STRIDE,
    VectorEnvironment,
    make_sibling_environment,
)

__all__ = [
    "ENV_SEED_STRIDE",
    "FleetBDQAgent",
    "FleetTwig",
    "VectorEnvironment",
    "make_sibling_environment",
    "run_fleet",
]
