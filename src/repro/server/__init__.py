"""Simulated server hardware substrate.

The paper evaluates Twig on a dual-socket Intel Xeon E5-2695v4 node
(36 cores, per-core DVFS 1.2-2.0 GHz in 0.1 GHz steps, RAPL power
readings). This subpackage models the pieces Twig interacts with:

- :mod:`repro.server.spec` — the static machine description (sockets,
  cores, DVFS ladder, LLC size, memory bandwidth, power coefficients).
- :mod:`repro.server.machine` — mutable core state: per-core frequency,
  hotplug, service affinity, timeshared cores, and migration accounting.
- :mod:`repro.server.power` — the physical power model (idle + CV^2 f
  dynamic + uncore/bandwidth term).
"""

from repro.server.machine import CoreAssignment, CoreState, Machine
from repro.server.power import PowerBreakdown, PowerModel
from repro.server.spec import DvfsLadder, ServerSpec, SocketSpec

__all__ = [
    "CoreAssignment",
    "CoreState",
    "DvfsLadder",
    "Machine",
    "PowerBreakdown",
    "PowerModel",
    "ServerSpec",
    "SocketSpec",
]
