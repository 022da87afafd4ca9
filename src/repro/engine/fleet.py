"""The fleet runtime's engine-side import path.

:class:`~repro.core.fleet.FleetTwig` and
:class:`~repro.core.fleet.FleetBDQAgent` live in :mod:`repro.core.fleet`,
next to :class:`~repro.core.twig.Twig`, which is their one-server case.
They are re-exported here for code that imports them with the engine
(the benchmark tracer patches them through this module).
"""

from repro.core.fleet import FleetBDQAgent, FleetTwig

__all__ = ["FleetBDQAgent", "FleetTwig"]
