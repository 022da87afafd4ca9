"""Reinforcement-learning infrastructure for Twig.

Contains the pieces the paper's learning agent is assembled from:

- :mod:`repro.rl.schedules` — linear / piecewise annealing (ε, PER β).
- :mod:`repro.rl.sum_tree` / :mod:`repro.rl.striped` — the one replay
  buffer: prioritised experience replay (Schaul et al. 2015) with
  proportional or uniform sampling over one ring stripe per environment
  feeding the agent, all in one sum tree.
- :mod:`repro.rl.bdq` — the (multi-agent) branching dueling Q-network.
- :mod:`repro.rl.agent` — the deep Q-learning agent (Algorithm 1).
"""

from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.rl.bdq import BDQNetwork
from repro.rl.schedules import LinearSchedule, PiecewiseSchedule
from repro.rl.sum_tree import SumTree

__all__ = [
    "BDQAgent",
    "BDQAgentConfig",
    "BDQNetwork",
    "LinearSchedule",
    "PiecewiseSchedule",
    "SumTree",
    "Transition",
]
