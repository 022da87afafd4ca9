"""Hipster (Nishtala et al., HPCA 2017), re-implemented per Section V-A.

Hipster is a hybrid manager for a *single* LC service:

- The mapping configurations (core count x DVFS) are ordered offline by
  increasing power (the heuristic table of Octopus-Man).
- During the learning phase a state machine walks this table: when the
  measured tail latency gets too close to the target it moves to a more
  powerful configuration, when there is a lot of slack it moves to a
  cheaper one, recording rewards for each (load bucket, configuration)
  pair in a Q-table.
- After the learning phase it acts epsilon-greedily on the tabular
  Q-function, with the load (RPS) quantised into buckets as the state.

Parameters follow the paper's setup for the comparison: learning rate 0.6,
discount 0.9, bucket size 4 % of maximum load, and an exhaustively swept
learning-phase length (configurable; the paper used 7 500-10 000 s).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import Allocation
from repro.core.manager import TaskManager
from repro.core.mapper import Mapper
from repro.core.reward import RewardParams, compute_reward
from repro.errors import ConfigurationError
from repro.server.machine import CoreAssignment
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.node import StepResult


class HipsterManager(TaskManager):
    """Heuristic + tabular-Q hybrid for one LC service."""

    name = "hipster"

    def __init__(
        self,
        profile: ServiceProfile,
        rng: np.random.Generator,
        spec: Optional[ServerSpec] = None,
        socket_index: int = 1,
        learning_rate: float = 0.6,
        discount: float = 0.9,
        bucket_pct: float = 4.0,
        learning_phase_steps: int = 7_500,
        epsilon: float = 0.05,
        qos_target_ms: Optional[float] = None,
        up_threshold: float = 0.85,
        down_threshold: float = 0.60,
    ):
        if bucket_pct <= 0 or bucket_pct > 100:
            raise ConfigurationError(f"bucket_pct must be in (0, 100], got {bucket_pct}")
        if learning_phase_steps < 0:
            raise ConfigurationError("learning_phase_steps must be >= 0")
        self.spec = spec or ServerSpec()
        self.profile = profile
        self.qos_target_ms = qos_target_ms if qos_target_ms is not None else profile.qos_target_ms
        self._rng = rng
        self.learning_rate = learning_rate
        self.discount = discount
        self.bucket_pct = bucket_pct
        self.n_buckets = int(np.ceil(100.0 / bucket_pct))
        self.learning_phase_steps = learning_phase_steps
        self.epsilon = epsilon
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.mapper = Mapper(self.spec, socket_index=socket_index)
        self.max_power_w = PowerModel(self.spec).max_power_w()

        self.configs = self._power_ordered_configs()
        # Q-table: (load bucket, configuration index) -> value. This is the
        # table whose size explodes with more action dimensions (the memory
        # complexity comparison of Section V-B1).
        self.q_table = np.zeros((self.n_buckets, len(self.configs)))
        self.visit_counts = np.zeros((self.n_buckets, len(self.configs)), dtype=np.int64)

        self.step_count = 0
        self._current_index = len(self.configs) - 1  # start at the most powerful
        self._prev: Optional[Tuple[int, int]] = None  # (bucket, config index)

    # ------------------------------------------------------------------ #
    # offline heuristic table
    # ------------------------------------------------------------------ #
    def _power_ordered_configs(self) -> List[Allocation]:
        """All (cores, DVFS) configurations ordered by increasing power."""
        model = PowerModel(self.spec)
        scored = []
        for cores in range(1, self.spec.cores_per_socket + 1):
            for freq_index in range(len(self.spec.dvfs)):
                freq = self.spec.dvfs[freq_index]
                power = cores * model.core_dynamic_w(freq, 1.0)
                scored.append((power, cores, freq_index))
        scored.sort()
        return [Allocation(num_cores=c, freq_index=f) for _, c, f in scored]

    # ------------------------------------------------------------------ #
    # TaskManager interface
    # ------------------------------------------------------------------ #
    def initial_assignments(self) -> Dict[str, CoreAssignment]:
        return self._assign(self._current_index)

    def update(self, result: StepResult) -> Dict[str, CoreAssignment]:
        observation = result.observations[self.profile.name]
        bucket = self._bucket(observation.interval.arrival_rate)
        reward = self._reward(observation.p99_ms, self._current_index)

        if self._prev is not None:
            prev_bucket, prev_config = self._prev
            best_next = float(np.max(self.q_table[bucket]))
            td_target = reward + self.discount * best_next
            self.q_table[prev_bucket, prev_config] += self.learning_rate * (
                td_target - self.q_table[prev_bucket, prev_config]
            )
            self.visit_counts[prev_bucket, prev_config] += 1

        if self.step_count < self.learning_phase_steps:
            next_index = self._heuristic_move(observation.p99_ms)
        elif observation.p99_ms > self.qos_target_ms:
            # Hybrid safety net: on a violation during exploitation, fall
            # back to the heuristic recovery walk instead of trusting a
            # possibly under-visited Q entry.
            next_index = self._heuristic_move(observation.p99_ms)
        else:
            next_index = self._greedy_move(bucket)

        self._prev = (bucket, next_index)
        self._current_index = next_index
        self.step_count += 1
        return self._assign(next_index)

    # ------------------------------------------------------------------ #
    # policy pieces
    # ------------------------------------------------------------------ #
    def _bucket(self, arrival_rate: float) -> int:
        pct = 100.0 * arrival_rate / self.profile.max_load_rps
        bucket = int(pct // self.bucket_pct)
        return int(np.clip(bucket, 0, self.n_buckets - 1))

    def _reward(self, p99_ms: float, config_index: int) -> float:
        config = self.configs[config_index]
        model = PowerModel(self.spec)
        estimated = max(
            config.num_cores
            * model.core_dynamic_w(self.spec.dvfs[config.freq_index], 1.0),
            0.5,
        )
        return compute_reward(
            measured_qos_ms=p99_ms,
            qos_target_ms=self.qos_target_ms,
            max_power_w=self.max_power_w,
            estimated_power_w=estimated,
            params=RewardParams(),
        )

    def _heuristic_move(self, p99_ms: float) -> int:
        """State-machine walk along the power-ordered table."""
        ratio = p99_ms / self.qos_target_ms
        index = self._current_index
        if ratio > 1.0:
            # Violation: jump up aggressively.
            step = max(1, len(self.configs) // 10)
            return min(index + step, len(self.configs) - 1)
        if ratio > self.up_threshold:
            return min(index + 1, len(self.configs) - 1)
        if ratio < self.down_threshold:
            return max(index - 1, 0)
        return index

    def _greedy_move(self, bucket: int) -> int:
        if self._rng.random() < self.epsilon:
            # Exploration stays local on the power-ordered table: a uniform
            # jump across all configurations would regularly land on a
            # hopeless allocation, which the real Hipster's table walk
            # never does.
            step = int(self._rng.integers(1, 4)) * (1 if self._rng.random() < 0.5 else -1)
            return int(np.clip(self._current_index + step, 0, len(self.configs) - 1))
        visited = self.visit_counts[bucket] > 0
        if not visited.any():
            # Unvisited bucket: fall back to the current configuration.
            return self._current_index
        # Unvisited entries sit at the optimistic initial value 0, which
        # would otherwise always beat visited entries with negative Q.
        row = np.where(visited, self.q_table[bucket], -np.inf)
        return int(np.argmax(row))

    def _assign(self, config_index: int) -> Dict[str, CoreAssignment]:
        return self.mapper.map({self.profile.name: self.configs[config_index]})

    # ------------------------------------------------------------------ #
    # memory accounting (Section V-B1)
    # ------------------------------------------------------------------ #
    def q_table_bytes(self) -> int:
        return int(self.q_table.nbytes)

    @staticmethod
    def table_entries(buckets: int, dimensions: int, actions_per_dimension: int) -> int:
        """Q-table entry count for a hypothetical server.

        The paper (Section II-B) states the table holds ``b x D^N`` entries
        and evaluates it as 25 x 3^30 for D = 3 dimensions of N = 30
        actions; we reproduce that formula verbatim (note the conventional
        combinatorial count would be ``b x N^D``).
        """
        return buckets * dimensions ** actions_per_dimension
