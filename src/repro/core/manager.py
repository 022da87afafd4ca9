"""The task-manager interface shared by Twig and the baselines.

A task manager is driven by the experiment runner in lock-step with the
environment:

    assignments = manager.initial_assignments()
    loop:
        result = env.step(assignments)
        assignments = manager.update(result)

``update`` receives everything a user-space controller can observe on real
hardware (per-service latency + PMCs and socket power) and returns the
core/DVFS assignment for the next interval.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

from repro.server.machine import CoreAssignment
from repro.sim.node import StepResult


class TaskManager(ABC):
    """Base class for all task managers (Twig, Hipster, Heracles, ...)."""

    #: Human-readable name used in experiment reports.
    name: str = "manager"

    @abstractmethod
    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        """Assignments installed before the first interval."""

    @abstractmethod
    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        """Observe the last interval and decide the next assignments."""
