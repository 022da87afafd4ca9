"""Frozen dict-state fleet control plane (the pre-array reference).

:class:`DictFleetTwig` is the original per-env implementation of
:class:`~repro.engine.fleet.FleetTwig`: one :class:`SystemMonitor` per
environment, per-env ``_last_allocations`` / ``_last_estimated_power`` /
``last_rewards`` dicts, per-row ``action_space.decode`` / ``encode``
calls, and one ``mapper.map`` per environment per tick. It is kept
verbatim as the equivalence oracle for the array control plane: the
production :class:`FleetTwig` must produce bit-identical trajectories,
RNG streams, and agent state from the same inputs
(``tests/test_engine_fleet_array.py``), exactly the way
``repro.rl.bdq_reference`` pins the vectorized BDQ network.

It also still writes the legacy ``monitors``/``envs`` per-env-dict
checkpoint subtrees, which the array manager's ``load_state_dict`` must
keep accepting — the reference doubles as the generator for those
legacy-format fixtures.

Do not use this class outside tests: it is O(num_envs) Python per tick.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.checkpoint import load_state, save_state
from repro.core.actions import ActionSpace, Allocation
from repro.core.config import TwigConfig
from repro.core.mapper import Mapper
from repro.core.power_model import ServicePowerModel
from repro.core.reward import RewardBreakdown, reward_components
from repro.engine.fleet import FleetBDQAgent
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.obs.events import make_event
from repro.obs.sink import NULL_SINK, TraceSink
from repro.obs.timing import TimingRegistry
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import SystemMonitor
from repro.rl.agent import BDQAgentConfig, Transition
from repro.server.machine import CoreAssignment
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.environment import StepResult


class DictFleetTwig:
    """N lock-step Twig control loops, dict-state per environment."""

    def __init__(
        self,
        profiles: Sequence[ServiceProfile],
        config: TwigConfig,
        rng: np.random.Generator,
        num_envs: int,
        spec: Optional[ServerSpec] = None,
        power_models: Optional[Mapping[str, ServicePowerModel]] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        if not profiles:
            raise ConfigurationError("FleetTwig needs at least one service profile")
        if num_envs < 1:
            raise ConfigurationError(f"num_envs must be >= 1, got {num_envs}")
        self.spec = spec or ServerSpec()
        self.config = config
        self._rng = rng
        self.num_envs = num_envs
        self.profiles: Dict[str, ServiceProfile] = {p.name: p for p in profiles}
        self.service_order: List[str] = [p.name for p in profiles]
        self.name = "twig-fleet"
        self.index_tag = "env"

        self.qos_targets = {
            name: (qos_targets or {}).get(name, self.profiles[name].qos_target_ms)
            for name in self.service_order
        }
        self.power_models = dict(power_models or {})
        self.max_power_w = PowerModel(self.spec).max_power_w()

        max_cores = config.max_cores or self.spec.cores_per_socket
        self.action_space = ActionSpace(
            self.spec, max_cores=max_cores, manage_llc=config.manage_llc
        )
        self.mapper = Mapper(self.spec, socket_index=config.socket_index)

        catalogue = CounterCatalogue(self.spec)
        self.monitors = [
            SystemMonitor(catalogue.max_values(), eta=config.eta) for _ in range(num_envs)
        ]

        k = len(self.service_order)
        agent_config = BDQAgentConfig(
            state_dim=self.monitors[0].state_dim * k,
            branch_sizes=[self.action_space.branch_sizes for _ in range(k)],
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            discount=config.discount,
            target_update_every=config.target_update_every,
            epsilon_mid_steps=config.epsilon_mid_steps,
            epsilon_final_steps=config.epsilon_final_steps,
            buffer_capacity=config.buffer_capacity,
            use_prioritized_replay=config.use_prioritized_replay,
            per_alpha=config.per_alpha,
            per_beta_start=config.per_beta_start,
            per_beta_steps=config.epsilon_final_steps,
            min_buffer_size=config.min_buffer_size,
            shared_hidden=config.shared_hidden,
            branch_hidden=config.branch_hidden,
            dropout=config.dropout,
            train_every=config.train_every,
            gradient_steps=config.gradient_steps,
        )
        self.trace = trace or NULL_SINK
        self.agent = FleetBDQAgent(
            agent_config, rng, num_envs, trace=self.trace, timings=timings
        )

        self._prev_states: List[Optional[np.ndarray]] = [None] * num_envs
        self._prev_actions: List[Optional[List[List[int]]]] = [None] * num_envs
        self._last_allocations: List[Dict[str, Allocation]] = [{} for _ in range(num_envs)]
        self._last_estimated_power: List[Dict[str, float]] = [{} for _ in range(num_envs)]
        self.last_rewards: List[Dict[str, float]] = [{} for _ in range(num_envs)]

    # ------------------------------------------------------------------ #
    # lock-step manager interface
    # ------------------------------------------------------------------ #
    def _initial_allocations(self) -> Dict[str, Allocation]:
        top = len(self.spec.dvfs) - 1
        return {
            name: Allocation(num_cores=self.action_space.max_cores, freq_index=top)
            for name in self.service_order
        }

    def initial_assignments(self) -> List[Dict[str, CoreAssignment]]:
        assignments = []
        for e in range(self.num_envs):
            allocations = self._initial_allocations()
            self._last_allocations[e] = allocations
            assignments.append(self.mapper.map(allocations))
        return assignments

    def update_batch(self, results: Sequence[StepResult]) -> List[Dict[str, CoreAssignment]]:
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        assignments: List[Optional[Dict[str, CoreAssignment]]] = [None] * self.num_envs
        transitions: List[Tuple[int, Transition]] = []
        acting: List[int] = []
        states: List[np.ndarray] = []
        breakdowns_by_env: Dict[int, Dict[str, RewardBreakdown]] = {}
        for e, result in enumerate(results):
            state = self._build_state(e, result)
            degraded = self._degraded_services(e, result)
            if degraded:
                if self.trace.enabled:
                    self.trace.emit(
                        make_event(
                            "degraded",
                            result.time,
                            services=sorted(degraded),
                            held_allocation=True,
                            **{self.index_tag: e},
                        )
                    )
                self._prev_states[e] = None
                self._prev_actions[e] = None
                if not self._last_allocations[e]:
                    self._last_allocations[e] = self._initial_allocations()
                assignments[e] = self.mapper.map(self._last_allocations[e])
                continue
            breakdowns = self._shape_rewards(e, self._compute_rewards(e, result))
            breakdowns_by_env[e] = breakdowns
            rewards = {name: b.total for name, b in breakdowns.items()}
            if self._prev_states[e] is not None and self._prev_actions[e] is not None:
                transitions.append(
                    (
                        e,
                        Transition(
                            state=self._prev_states[e],
                            actions=self._prev_actions[e],
                            rewards=np.array([rewards[n] for n in self.service_order]),
                            next_state=state,
                        ),
                    )
                )
            acting.append(e)
            states.append(state)
            self.last_rewards[e] = rewards
        self.agent.observe_batch(*self._transition_rows(transitions))
        if acting:
            action_rows = self.agent.act_batch(np.stack(states))
            for row, e in enumerate(acting):
                actions = self._action_lists(action_rows[row])
                allocations = {
                    name: self.action_space.decode(actions[k])
                    for k, name in enumerate(self.service_order)
                }
                constrained = self._constrain_allocations(e, allocations, results[e])
                if constrained is not allocations:
                    allocations = constrained
                    actions = [
                        self.action_space.encode(allocations[name])
                        for name in self.service_order
                    ]
                if self.trace.enabled:
                    self._emit_decisions(e, results[e], breakdowns_by_env[e], allocations)
                self._prev_states[e] = states[row]
                self._prev_actions[e] = actions
                self._last_allocations[e] = allocations
                assignments[e] = self.mapper.map(allocations)
        return [a for a in assignments if a is not None]

    def attach_obs(self, trace: Optional[TraceSink], timings: Optional[TimingRegistry]) -> None:
        if trace is not None:
            self.trace = trace
            self.agent.trace = trace
        if timings is not None:
            self.agent.timings = timings

    def exploit(self) -> None:
        self.agent.exploring_frozen = True

    # ------------------------------------------------------------------ #
    # internals (per-env Twig.update building blocks)
    # ------------------------------------------------------------------ #
    def _transition_rows(self, transitions: List[Tuple[int, Transition]]):
        """The agent's row-aligned ``observe_batch`` arrays for the pairs."""
        n = len(transitions)
        config = self.agent.config
        return (
            np.array([e for e, _ in transitions], dtype=np.int64),
            np.array([t.state for _, t in transitions]).reshape(n, config.state_dim),
            np.array(
                [[a for branch in t.actions for a in branch] for _, t in transitions],
                dtype=np.int64,
            ).reshape(n, self.agent.online.total_branches),
            np.array([t.rewards for _, t in transitions]).reshape(n, self.agent.num_agents),
            np.array([t.next_state for _, t in transitions]).reshape(n, config.state_dim),
        )

    def _action_lists(self, row: np.ndarray) -> List[List[int]]:
        """Split one flat ``act_batch`` row into per-service branch lists."""
        flat = row.tolist()
        width = self.action_space.n_branches
        return [flat[k * width : (k + 1) * width] for k in range(len(self.service_order))]

    def _build_state(self, env_index: int, result: StepResult) -> np.ndarray:
        monitor = self.monitors[env_index]
        parts = []
        for name in self.service_order:
            observation = result.observations[name]
            parts.append(monitor.observe(name, observation.pmcs))
        return np.concatenate(parts)

    def _degraded_services(self, env_index: int, result: StepResult) -> List[str]:
        monitor = self.monitors[env_index]
        degraded = {name for name in self.service_order if name in monitor.degraded}
        for name in self.service_order:
            if not np.isfinite(result.observations[name].p99_ms):
                degraded.add(name)
        return sorted(degraded)

    def _compute_rewards(
        self, env_index: int, result: StepResult
    ) -> Dict[str, RewardBreakdown]:
        rewards: Dict[str, RewardBreakdown] = {}
        for name in self.service_order:
            observation = result.observations[name]
            estimated = self._estimate_power(
                env_index, name, observation.interval.arrival_rate
            )
            self._last_estimated_power[env_index][name] = estimated
            rewards[name] = reward_components(
                measured_qos_ms=observation.p99_ms,
                qos_target_ms=self.qos_targets[name],
                max_power_w=self.max_power_w,
                estimated_power_w=estimated,
                params=self.config.reward,
            )
        return rewards

    def _estimate_power(self, env_index: int, name: str, arrival_rate: float) -> float:
        allocation = self._last_allocations[env_index].get(
            name,
            Allocation(self.action_space.max_cores, len(self.spec.dvfs) - 1),
        )
        return self._allocation_power(name, allocation, arrival_rate)

    def _allocation_power(
        self, name: str, allocation: Allocation, arrival_rate: float
    ) -> float:
        freq = self.spec.dvfs[allocation.freq_index]
        model = self.power_models.get(name)
        if model is not None and model.fitted:
            load_pct = 100.0 * arrival_rate / self.profiles[name].max_load_rps
            return model.predict(load_pct, allocation.num_cores, freq)
        physical = PowerModel(self.spec)
        profile = self.profiles[name]
        capacity = profile.capacity_rps(allocation.num_cores, freq, self.spec.dvfs.max_ghz)
        utilization = float(np.clip(arrival_rate / max(capacity, 1e-9), 0.0, 1.0))
        effective = utilization + profile.active_idle_util * (1.0 - utilization)
        per_core = physical.core_dynamic_w(freq, effective)
        return max(per_core * allocation.num_cores, 0.5)

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _shape_rewards(
        self, env_index: int, breakdowns: Dict[str, RewardBreakdown]
    ) -> Dict[str, RewardBreakdown]:
        return breakdowns

    def _constrain_allocations(
        self,
        env_index: int,
        allocations: Dict[str, Allocation],
        result: StepResult,
    ) -> Dict[str, Allocation]:
        return allocations

    def _emit_decisions(
        self,
        env_index: int,
        result: StepResult,
        breakdowns: Mapping[str, RewardBreakdown],
        allocations: Mapping[str, Allocation],
    ) -> None:
        epsilon = self.agent.epsilon()
        tag = {self.index_tag: env_index}
        for name in self.service_order:
            breakdown = breakdowns[name]
            observation = result.observations[name]
            self.trace.emit(
                make_event(
                    "reward",
                    result.time,
                    service=name,
                    reward=breakdown.total,
                    qos_rew=breakdown.qos_rew,
                    power_rew=breakdown.power_rew,
                    violation=breakdown.violation,
                    measured_qos_ms=observation.p99_ms,
                    estimated_power_w=self._last_estimated_power[env_index].get(name, 0.0),
                    **tag,
                )
            )
            allocation = allocations[name]
            self.trace.emit(
                make_event(
                    "action",
                    result.time,
                    service=name,
                    cores=allocation.num_cores,
                    freq_index=allocation.freq_index,
                    frequency_ghz=self.spec.dvfs[allocation.freq_index],
                    llc_ways=allocation.llc_ways,
                    epsilon=epsilon,
                    **tag,
                )
            )

    # ------------------------------------------------------------------ #
    # checkpointing (legacy per-env-dict format)
    # ------------------------------------------------------------------ #
    CKPT_KIND: ClassVar[str] = "twig_fleet"

    def state_dict(self) -> Dict[str, Any]:
        tree: Dict[str, Any] = {
            "services": list(self.service_order),
            "num_envs": self.num_envs,
            "agent": self.agent.state_dict(),
            "monitors": {
                f"{e:04d}": monitor.state_dict() for e, monitor in enumerate(self.monitors)
            },
            "envs": {},
        }
        for e in range(self.num_envs):
            env_tree: Dict[str, Any] = {
                "prev_actions": (
                    None
                    if self._prev_actions[e] is None
                    else [[int(a) for a in branch] for branch in self._prev_actions[e]]
                ),
                "last_allocations": {
                    name: {
                        "num_cores": allocation.num_cores,
                        "freq_index": allocation.freq_index,
                        "llc_ways": allocation.llc_ways,
                    }
                    for name, allocation in self._last_allocations[e].items()
                },
                "last_estimated_power": {
                    name: float(value)
                    for name, value in self._last_estimated_power[e].items()
                },
                "last_rewards": {
                    name: float(value) for name, value in self.last_rewards[e].items()
                },
            }
            if self._prev_states[e] is not None:
                env_tree["prev_state"] = np.asarray(
                    self._prev_states[e], dtype=np.float64
                ).copy()
            tree["envs"][f"{e:04d}"] = env_tree
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        try:
            services = [str(name) for name in list(tree["services"])]
            num_envs = int(tree["num_envs"])
            agent_tree = dict(tree["agent"])
            monitors_tree = dict(tree["monitors"])
            envs_tree = dict(tree["envs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet checkpoint: {exc}") from exc
        if services != self.service_order:
            raise CheckpointError(
                f"checkpoint manages services {services}, this fleet manages "
                f"{self.service_order}"
            )
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint has {num_envs} environments, this fleet has {self.num_envs}"
            )
        expected = {f"{e:04d}" for e in range(self.num_envs)}
        if set(monitors_tree) != expected or set(envs_tree) != expected:
            raise CheckpointError("fleet checkpoint env keys do not match num_envs")

        staged: List[Dict[str, Any]] = []
        for e in range(self.num_envs):
            env_tree = dict(envs_tree[f"{e:04d}"])
            try:
                prev_actions = env_tree["prev_actions"]
                if prev_actions is not None:
                    prev_actions = [[int(a) for a in branch] for branch in prev_actions]
                allocations = {
                    str(name): Allocation(
                        num_cores=int(fields["num_cores"]),
                        freq_index=int(fields["freq_index"]),
                        llc_ways=int(fields.get("llc_ways", 0)),
                    )
                    for name, fields in dict(env_tree["last_allocations"]).items()
                }
                estimated_power = {
                    str(k): float(v)
                    for k, v in dict(env_tree["last_estimated_power"]).items()
                }
                last_rewards = {
                    str(k): float(v) for k, v in dict(env_tree["last_rewards"]).items()
                }
            except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
                raise CheckpointError(f"malformed fleet env {e} state: {exc}") from exc
            prev_state = env_tree.get("prev_state")
            if prev_state is not None:
                prev_state = np.asarray(prev_state, dtype=np.float64).reshape(-1)
                if prev_state.shape[0] != self.agent.config.state_dim:
                    raise CheckpointError(
                        f"fleet env {e} prev_state dim {prev_state.shape[0]} != "
                        f"state dim {self.agent.config.state_dim}"
                    )
            staged.append(
                {
                    "prev_state": prev_state,
                    "prev_actions": prev_actions,
                    "allocations": allocations,
                    "estimated_power": estimated_power,
                    "last_rewards": last_rewards,
                }
            )
        self.agent.load_state_dict(agent_tree)
        for e in range(self.num_envs):
            self.monitors[e].load_state_dict(dict(monitors_tree[f"{e:04d}"]))
        for e, env_state in enumerate(staged):
            self._prev_states[e] = env_state["prev_state"]
            self._prev_actions[e] = env_state["prev_actions"]
            self._last_allocations[e] = env_state["allocations"]
            self._last_estimated_power[e] = env_state["estimated_power"]
            self.last_rewards[e] = env_state["last_rewards"]

    def save(self, path) -> None:
        save_state(path, self.CKPT_KIND, self.state_dict())

    def load(self, path) -> None:
        self.load_state_dict(load_state(path, kind=self.CKPT_KIND))
