"""One simulated server and the environment task managers drive.

- :mod:`repro.sim.node` — one server as the vector engine steps it: its
  config (:class:`EnvironmentConfig`), what an interval returns
  (:class:`StepResult`), the capacity kernel, its checkpoint layout and
  its step events.
- :mod:`repro.sim.environment` — :class:`~repro.sim.environment.
  ColocationEnvironment`, the single ``step(assignments)`` loop that task
  managers (Twig and the baselines) drive: the vector engine with one
  node. It imports the engine, so this package does not import it.
- :mod:`repro.sim.telemetry` — how a service's ground-truth interval
  activity maps to the 11 noisy Table-I counter readings, and
  :func:`~repro.sim.telemetry.ipc`.
- :mod:`repro.sim.faults` — deterministic fault injection (PMC
  dropout/NaN, latency spikes, service crash-and-restart) applied to
  step observations without perturbing the simulation's RNG streams.
"""

from repro.sim.faults import FAULT_KINDS, Fault, FaultInjector
from repro.sim.node import EnvironmentConfig, ServiceObservation, StepResult

__all__ = [
    "EnvironmentConfig",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "ServiceObservation",
    "StepResult",
]
