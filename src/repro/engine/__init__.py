"""Batched in-process rollout engine.

Runs N experiments/environments in lock-step inside one process:

- :mod:`repro.engine.vector_env` — :class:`VectorEnvironment` owns every
  node's state as arrays (built from the profiles and the seed recipe,
  with no environment object per node) and steps every node's queueing,
  interference, telemetry, and power math as array-shaped NumPy over an
  (env, service) grid;
- :mod:`repro.engine.fleet` — re-exports the control runtime from
  :mod:`repro.core.fleet`: :class:`FleetBDQAgent` routes all envs'
  observations through one fused HeadBank forward and trains at most once
  per tick from a striped prioritized replay buffer; :class:`FleetTwig`
  is the matching N-environment task manager;
- :mod:`repro.engine.rollout` — :func:`run_fleet`, the fleet entry
  point of the one run loop (:func:`repro.experiments.runner.run_loop`,
  which also drives ``run_manager``): its :class:`FleetRun` records the
  per-env traces by column, one array row per series a tick, and reads
  and writes the ``vector_run`` checkpoint; the loop owns obs wiring,
  resume, run events, tick timings and the checkpoint cadence.

:class:`repro.sim.environment.ColocationEnvironment`, the N = 1 paper
loop, is :class:`VectorEnvironment` with one node, so every server the
package simulates steps through the same physics; the frozen scalar
server in ``tests/oracles/colocation_reference.py`` is the equivalence
oracle that physics is tested against.

The cluster layer (:mod:`repro.cluster`) builds on these same pieces to
simulate a load-balanced multi-node datacenter: its
:class:`~repro.cluster.environment.ClusterEnvironment` subclasses
:class:`VectorEnvironment` (one "environment" per node) and is driven by
the same :func:`run_fleet` loop — see ``docs/fleet.md``.
"""

from repro.core.fleet import FleetBDQAgent, FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import ENV_SEED_STRIDE, VectorEnvironment

__all__ = [
    "ENV_SEED_STRIDE",
    "FleetBDQAgent",
    "FleetTwig",
    "VectorEnvironment",
    "run_fleet",
]
