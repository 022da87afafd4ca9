"""repro — a reproduction of Twig (HPCA 2020).

Twig is a deep-RL task manager that assigns cores and DVFS states to
colocated latency-critical cloud services, minimising energy subject to
p99 tail-latency targets, using only hardware performance counters as
input. This package implements the full system *and* the server substrate
it needs (queueing-based service models, interference, power, PMC
telemetry), plus the baselines it is evaluated against and one experiment
module per paper table/figure.

Quick links
-----------
- :class:`repro.core.Twig` / :class:`repro.core.TwigConfig` — the manager.
- :class:`repro.sim.environment.ColocationEnvironment` — the simulated
  server: the vector engine (:mod:`repro.engine.vector_env`) with one
  node.
- :func:`repro.experiments.run_manager` — the control loop.
- :func:`repro.experiments.run_experiment` — regenerate a paper artifact.
- ``python -m repro list`` — all reproducible artifacts.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
