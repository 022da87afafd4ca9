"""The static baseline of Section V-A.

Every service is pinned to all cores of the server socket, all cores run
at the maximum DVFS state, and nothing ever changes. This is the
configuration all energy numbers are normalised against.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.manager import TaskManager
from repro.core.mapper import Mapper
from repro.errors import ConfigurationError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.sim.node import StepResult


class StaticManager(TaskManager):
    """All cores, max frequency, forever."""

    name = "static"

    def __init__(
        self,
        service_names: Sequence[str],
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
    ):
        if not service_names:
            raise ConfigurationError("StaticManager needs at least one service")
        self.spec = spec or ServerSpec()
        self.service_names = list(service_names)
        self.mapper = Mapper(self.spec, socket_index=socket_index)
        self._assignments = self.mapper.full_socket(
            self.service_names, freq_index=len(self.spec.dvfs) - 1
        )

    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return dict(self._assignments)

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        return dict(self._assignments)
