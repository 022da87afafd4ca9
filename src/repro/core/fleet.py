"""The Twig control runtime (Figure 3) for N lock-step environments.

One runtime serves every controller in the repo: the paper loop's
:class:`~repro.core.twig.Twig` is a :class:`FleetTwig` with one
environment, and the fleet, cluster and hierarchical runs use the same
class with N. Per tick it amortises the work over the environments:

- :class:`FleetBDQAgent` selects actions for every environment with ONE
  fused :meth:`~repro.rl.bdq.BDQNetwork.greedy_actions_batch` GEMM and
  runs at most ONE train round per tick, sampling its minibatch from a
  striped replay buffer (per-environment ring stripes inside one
  prioritized sum tree, so sampling and priority updates stay single
  tree ops);
- :class:`FleetTwig` holds the per-environment monitors/control state
  around that shared agent and exposes the lock-step ``update_batch``
  interface the rollout loop drives.

The agent's ``step_count`` advances once per tick that stores at least
one transition, whatever N is: the epsilon/beta schedules anneal per
control interval as in the paper loop, which does not call the agent on
its first interval or on a degraded one, while the replay buffer fills
N times faster. A tick on which no environment stores a transition (the
first, or one where every environment is degraded) leaves the schedules
and the train/target cadence where they were.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import load_state, save_state
from repro.core.actions import ActionSpace
from repro.core.config import TwigConfig
from repro.core.mapper import AssignmentBatch, Mapper
from repro.core.power_model import ServicePowerModel
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.obs.events import make_event
from repro.obs.sink import NULL_SINK, TraceSink
from repro.obs.timing import TimingRegistry
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import MonitorBank
from repro.rl.agent import BDQAgent, BDQAgentConfig
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from repro.services.profiles import ServiceProfile
from repro.sim.environment import StepResult, result_arrays


class FleetBDQAgent(BDQAgent):
    """A :class:`BDQAgent` that learns one policy from N environments.

    The base agent already replays from a
    :class:`~repro.rl.striped.StripedPrioritizedReplayBuffer`; this one
    gives it a ring stripe per environment (stripe capacity
    ``buffer_capacity // num_envs``, floored at one batch) inside the
    single sum tree. Eviction stays per-environment (each stripe
    overwrites its own oldest transitions), while sampling is globally
    proportional to priority across the fleet, at the cost of ONE
    ``find_batch``/``update_batch`` per train step instead of N. What
    else differs is the acting and storing:

    - **Batched acting.** :meth:`act_batch` runs one fused forward for
      all environments and returns the ``(M, total_branches)`` int64
      action matrix, with the per-branch epsilon noise applied to it in
      place, env-major, by the base agent's own
      :meth:`~BDQAgent._explore` — the RNG draw sequence for M stacked
      states is identical to M consecutive scalar :meth:`~BDQAgent.act`
      calls.
    - **One tick, one insert, one train round.** :meth:`observe_batch`
      takes the tick's transitions as row-aligned arrays, at most one
      row per environment, and stores them with ONE
      :meth:`~repro.rl.striped.StripedPrioritizedReplayBuffer.add_batch`
      (tree bitwise equal to per-row inserts); a call that stores at
      least one row advances ``step_count`` (and thus the epsilon/beta
      schedules and the train/target cadence) by ONE, a call that
      stores none leaves them alone.
    """

    def __init__(
        self,
        config: BDQAgentConfig,
        rng: np.random.Generator,
        num_envs: int,
        trace: Optional[TraceSink] = None,
        timings: Optional[TimingRegistry] = None,
    ):
        if num_envs < 1:
            raise ConfigurationError(f"num_envs must be >= 1, got {num_envs}")
        self.num_envs = num_envs
        super().__init__(config, rng, trace=trace, timings=timings)

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def act_batch(self, states: np.ndarray, greedy: bool = False) -> np.ndarray:
        """Choose actions for M stacked states through one fused forward.

        ``states`` is ``(M, state_dim)``; returns the ``(M,
        total_branches)`` int64 action matrix, each row agent-major like
        the flattened :meth:`~BDQAgent.act` result. The noise is
        :meth:`~BDQAgent._explore` over all M rows at once, which draws
        row after row: with the same RNG state, row ``i`` equals the
        flattened ``act(states[i])`` after acting on rows ``0..i-1``.
        """
        if self.timings is not None:
            with self.timings.measure("agent.act"):
                return self._act_batch(states, greedy)
        return self._act_batch(states, greedy)

    def _act_batch(self, states: np.ndarray, greedy: bool) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.config.state_dim:
            raise ShapeError(
                f"states have dim {states.shape[1]}, expected {self.config.state_dim}"
            )
        actions = self.online.greedy_actions_batch(states)      # (M, B)
        if not greedy:
            # Env-major noise through act's own _explore, so batched
            # and per-state acting are stream-compatible by construction.
            self._explore(actions.reshape(-1), self.epsilon())
        return actions

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def observe_batch(
        self,
        env_indices: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
    ) -> Optional[float]:
        """Store one tick's transitions and maybe train once.

        Row ``i`` of ``states`` ``(M, state_dim)``, ``actions`` ``(M,
        total_branches)``, ``rewards`` ``(M, num_agents)`` and
        ``next_states`` is environment ``env_indices[i]``'s transition;
        absent environments (degraded telemetry, broken transition chain)
        simply have no row, and each environment has at most one. The
        rows go into the striped buffer as one
        :meth:`~repro.rl.striped.StripedPrioritizedReplayBuffer.add_batch`.
        A call with rows advances ``step_count`` by one and runs at most
        one training round, however many environments contributed; a
        call without rows stores nothing, advances nothing and returns
        ``None``.
        """
        env_indices = np.asarray(env_indices, dtype=np.int64).reshape(-1)
        count = env_indices.size
        fields = {
            "state": states,
            "actions": actions,
            "rewards": rewards,
            "next_state": next_states,
        }
        widths = {
            "state": self.config.state_dim,
            "actions": self.online.total_branches,
            "rewards": self.num_agents,
            "next_state": self.config.state_dim,
        }
        for key, value in fields.items():
            if np.shape(value) != (count, widths[key]):
                raise ShapeError(
                    f"{key} rows have shape {np.shape(value)}, expected {(count, widths[key])}"
                )
        fields["done"] = np.zeros(count)
        self.striped.add_batch(env_indices, fields)
        if count == 0:
            return None
        return self._advance()


class FleetTwig:
    """N lock-step Twig control loops sharing one :class:`FleetBDQAgent`.

    Each environment runs the paper's control loop — monitor smoothing,
    degraded-telemetry holds, Equation-1 rewards, Equation-2 power
    estimates, one agent decision per service, mapper placement — and
    :class:`repro.core.twig.Twig` is this class with ``num_envs=1``.
    The per-environment control state is held as ``(num_envs,
    num_services)`` arrays instead of per-env Python objects: one
    :class:`~repro.pmc.monitor.MonitorBank` replaces N
    :class:`SystemMonitor` objects, allocation/power/reward dicts become
    integer and float matrices, and action decode/encode is index
    arithmetic. The agent handoff is row-aligned arrays too: a tick's
    transitions are read straight from the previous state/action
    matrices, this tick's reward matrix and states, and the chosen
    actions come back as one ``(envs, total_branches)`` matrix that is
    reshaped in place. Placement is array-shaped as well:
    :meth:`~repro.core.mapper.Mapper.map_rows` places the allocation
    matrices, and the tick returns its
    :class:`~repro.core.mapper.AssignmentBatch` of pin, DVFS and way
    rows, which the vector engine installs without building a dict.
    ``update_batch`` therefore does O(1) array passes per tick; the only
    remaining per-env Python work is trace emission and the agent's
    per-branch exploration draws.

    Trajectories, RNG streams, and agent state are bit-identical to the
    frozen dict-state reference
    (``DictFleetTwig`` in ``tests/oracles/fleet_reference.py``); the
    equivalence is pinned by ``tests/test_engine_fleet_array.py``. The
    paper loop (``num_envs=1``) is pinned by run-trace hashes in
    ``tests/test_golden_run_traces.py``.

    A subclass changes a tick through two array hooks, which take
    row-aligned matrices, edit them in place and must be deterministic:
    :meth:`_shape_reward_rows` adjusts the reward matrix before the
    agent learns from it, and :meth:`_repair_action_rows` repairs the
    decoded actions before they are placed and learned from.
    :class:`repro.hier.manager.HierFleetTwig` plumbs its budgets through
    both; ``tests/test_engine_fleet_array.py`` pins its hooks against
    per-env dict forms on the dict-state reference.
    """

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
        #: Envelope field used to tag emitted events with the environment
        #: index ("env" for plain fleet runs, "node" for cluster runs).
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
        self._counter_max_values = catalogue.max_values()
        k = len(self.service_order)
        # One bank row per (environment, service): eta-smoothing histories
        # must not mix samples across rows, and the bank keeps them in
        # env-major, service-minor order.
        self.monitor_bank = MonitorBank(
            self._counter_max_values, num_envs * k, eta=config.eta
        )

        agent_config = BDQAgentConfig(
            state_dim=self.monitor_bank.state_dim * k,
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

        # ---- array-state control plane ------------------------------- #
        top = len(self.spec.dvfs) - 1
        n_branches = self.action_space.n_branches
        self._prev_state_mat = np.zeros((num_envs, agent_config.state_dim))
        self._has_prev = np.zeros(num_envs, dtype=bool)
        self._prev_action_mat = np.zeros((num_envs, k, n_branches), dtype=np.int64)
        # Allocation rows default to the allocation a service starts from
        # (all cores at top DVFS), so "no allocation recorded yet" needs no
        # separate representation in the power path.
        self._alloc_cores = np.full((num_envs, k), self.action_space.max_cores, dtype=np.int64)
        self._alloc_freq = np.full((num_envs, k), top, dtype=np.int64)
        self._alloc_ways = np.zeros((num_envs, k), dtype=np.int64)
        self._has_alloc = np.zeros(num_envs, dtype=bool)
        self._est_power = np.zeros((num_envs, k))
        self._has_est = np.zeros(num_envs, dtype=bool)
        self._reward_totals = np.zeros((num_envs, k))
        self._has_reward = np.zeros(num_envs, dtype=bool)
        self._dvfs_values = np.array(
            [self.spec.dvfs[i] for i in range(len(self.spec.dvfs))]
        )
        self._fmax = self.spec.dvfs.max_ghz
        self._build_service_rows()

    def _build_service_rows(self) -> None:
        """Precompute the per-service Equation-2/QoS rows (broadcast over
        envs)."""
        profs = [self.profiles[name] for name in self.service_order]
        self._sf_row = np.array([p.serial_fraction for p in profs])
        self._cpu_ms_row = np.array([p.cpu_ms_per_req for p in profs])
        self._alpha_row = np.array([p.freq_sensitivity for p in profs])
        self._one_minus_alpha_row = 1.0 - self._alpha_row
        self._aiu_row = np.array([p.active_idle_util for p in profs])
        self._qos_row = np.array([self.qos_targets[n] for n in self.service_order])
        self._model_cols = [
            (i, name)
            for i, name in enumerate(self.service_order)
            if self.power_models.get(name) is not None
        ]

    # ------------------------------------------------------------------ #
    # lock-step manager interface
    # ------------------------------------------------------------------ #
    def initial_assignments(self) -> AssignmentBatch:
        """Per-env starting assignments: all cores at max DVFS."""
        top = len(self.spec.dvfs) - 1
        self._alloc_cores[:] = self.action_space.max_cores
        self._alloc_freq[:] = top
        self._alloc_ways[:] = 0
        self._has_alloc[:] = True
        return self._assignment_batch()

    def update_batch(self, results: Sequence[StepResult]) -> AssignmentBatch:
        """One lock-step control tick over every environment's result.

        Semantically identical to N scalar ``Twig.update`` calls plus a
        shared agent tick, but executed as array passes: one
        ``MonitorBank.observe_rows`` for all (env, service) rows, one
        vectorized Equation-2/Equation-1 evaluation, one fused agent
        forward, and one decode-by-arithmetic over the action matrix.
        The raw matrices come from
        :func:`~repro.sim.environment.result_arrays`: a
        :class:`~repro.engine.vector_env.StepBatch`'s own, or read from a
        plain result sequence. Returns every env's next
        placement as one :class:`~repro.core.mapper.AssignmentBatch`
        (a degraded env holds its allocation).
        """
        if len(results) != self.num_envs:
            raise ShapeError(f"expected {self.num_envs} results, got {len(results)}")
        E = self.num_envs
        k = len(self.service_order)
        arrays = result_arrays(results, self.service_order)
        counters = arrays["counters"]
        p99 = arrays["p99"]
        arrival = arrays["arrivals"]
        times = arrays["time"]

        states = self.monitor_bank.observe_rows(counters.reshape(E * k, -1))
        states = states.reshape(E, k * self.monitor_bank.state_dim)
        degraded_rows = self.monitor_bank.degraded.reshape(E, k) | ~np.isfinite(p99)
        env_degraded = degraded_rows.any(axis=1)
        healthy_idx = np.nonzero(~env_degraded)[0]

        # Equation-2 / Equation-1 for every row; only healthy envs commit.
        est = self._power_for(self._alloc_cores, self._alloc_freq, arrival)
        qos_rew = p99 / self._qos_row
        ok = qos_rew <= 1.0
        ratio = self.max_power_w / est
        power_rew = np.where(ok, ratio, 0.0)
        totals = np.where(ok, qos_rew + self.config.reward.theta * ratio, 0.0)
        violation = ~ok
        punish = violation & ~env_degraded[:, None]
        if punish.any():
            # The power stays Python's ``**``, as in reward_components:
            # numpy's ``power`` can differ from it in the last bit (SIMD
            # builds), and an overflow must still raise OverflowError.
            # ``np.maximum(-p, cap)`` is ``max(-p, cap)`` for any non-NaN
            # ``p``, and a non-finite p99 marks its env degraded.
            phi = self.config.reward.phi
            penalty = np.array([q ** phi for q in qos_rew[punish].tolist()])
            totals[punish] = np.maximum(-penalty, self.config.reward.cap)
        self._est_power[healthy_idx] = est[healthy_idx]
        self._has_est[healthy_idx] = True
        totals = self._shape_reward_rows(healthy_idx, totals, qos_rew, power_rew, violation)
        self._reward_totals[healthy_idx] = totals[healthy_idx]
        self._has_reward[healthy_idx] = True

        if env_degraded.any():
            if self.trace.enabled:
                for e in np.nonzero(env_degraded)[0].tolist():
                    self.trace.emit(
                        make_event(
                            "degraded",
                            int(times[e]),
                            services=sorted(
                                name
                                for i, name in enumerate(self.service_order)
                                if degraded_rows[e, i]
                            ),
                            held_allocation=True,
                            **self._tag(e),
                        )
                    )
            self._has_prev[env_degraded] = False
            self._has_alloc[env_degraded] = True

        learning = np.nonzero(~env_degraded & self._has_prev)[0]
        self.agent.observe_batch(
            learning,
            self._prev_state_mat[learning],
            self._prev_action_mat.reshape(E, -1)[learning],
            totals[learning],
            states[learning],
        )

        if healthy_idx.size:
            acts = self.agent.act_batch(states[healthy_idx])
            acts = acts.reshape(healthy_idx.size, k, -1)  # (A, k, n_branches)
            acts = self._repair_action_rows(healthy_idx, acts, arrival)
            cores = acts[:, :, 0] + 1
            freqs = acts[:, :, 1]
            ways = (
                acts[:, :, 2]
                if self.action_space.manage_llc
                else np.zeros_like(cores)
            )
            self._prev_state_mat[healthy_idx] = states[healthy_idx]
            self._has_prev[healthy_idx] = True
            self._prev_action_mat[healthy_idx] = acts
            self._alloc_cores[healthy_idx] = cores
            self._alloc_freq[healthy_idx] = freqs
            self._alloc_ways[healthy_idx] = ways
            self._has_alloc[healthy_idx] = True
            if self.trace.enabled:
                rows = zip(cores.tolist(), freqs.tolist(), ways.tolist())
                for e, (cores_e, freqs_e, ways_e) in zip(healthy_idx.tolist(), rows):
                    self._emit_decision_rows(
                        e, int(times[e]), totals, qos_rew, power_rew, violation,
                        p99, cores_e, freqs_e, ways_e,
                    )
        return self._assignment_batch()

    def attach_obs(self, trace: Optional[TraceSink], timings: Optional[TimingRegistry]) -> None:
        """Wire a trace sink / timing registry in after construction."""
        if trace is not None:
            self.trace = trace
            self.agent.trace = trace
        if timings is not None:
            self.agent.timings = timings

    def exploit(self) -> None:
        """Switch to pure exploitation (recommended once trained)."""
        self.agent.exploring_frozen = True

    # ------------------------------------------------------------------ #
    # array internals
    # ------------------------------------------------------------------ #
    def _power_for(
        self, cores: np.ndarray, freq_index: np.ndarray, arrival: np.ndarray
    ) -> np.ndarray:
        """Vectorized Equation-2 over ``(rows, services)`` allocations.

        Every operation mirrors the per-allocation estimate of the
        dict-state reference
        (``DictFleetTwig._allocation_power`` in ``tests/oracles/fleet_reference.py``)
        element-wise, with the same expressions in the same association
        order, so each entry is bit-identical to it.
        """
        fcores = cores.astype(np.float64)
        freq = self._dvfs_values[freq_index]
        eff_cores = fcores / (1.0 + self._sf_row * (fcores - 1.0))
        factor = self._alpha_row * (self._fmax / freq) + self._one_minus_alpha_row
        capacity = eff_cores * 1000.0 / (self._cpu_ms_row * factor)
        utilization = np.clip(arrival / np.maximum(capacity, 1e-9), 0.0, 1.0)
        effective = utilization + self._aiu_row * (1.0 - utilization)
        voltage = self.spec.voltage_base_v + self.spec.voltage_slope * freq
        per_core = self.spec.dynamic_coeff * voltage * voltage * freq * effective
        est = np.maximum(per_core * fcores, 0.5)
        for i, name in self._model_cols:
            model = self.power_models[name]
            if not model.fitted:
                continue
            # ServicePowerModel.predict's expression over the column,
            # ``omega ** 2`` taken as a Python scalar as predict takes it.
            load_pct = 100.0 * arrival[:, i] / self.profiles[name].max_load_rps
            value = (
                model.kappa * load_pct + model.sigma * cores[:, i] + model.omega ** 2 * freq[:, i]
            )
            est[:, i] = np.maximum(value, 0.5)
        return est

    def _node_power_rows(self, power: np.ndarray) -> np.ndarray:
        """Per-row summed service power, accumulated left-to-right.

        Matches a Python ``sum(...)`` over ``service_order``, as the
        dict-state reference adds one env's services (NumPy's axis
        reductions may pairwise-associate; Python's ``sum`` never does).
        """
        total = power[:, 0].copy()
        for i in range(1, power.shape[1]):
            total = total + power[:, i]
        return total

    def _assignment_batch(self) -> AssignmentBatch:
        """Every env's placement of its current allocation row.

        The rows are checked as :meth:`Mapper.map` checks a request, so a
        repair hook's bad row raises what it always raised.
        """
        return self.mapper.map_rows(
            self.service_order, self._alloc_cores, self._alloc_freq, self._alloc_ways
        )

    def _tag(self, e: int) -> Dict[str, int]:
        """The envelope field naming environment ``e`` on its events."""
        return {self.index_tag: e}

    def _emit_decision_rows(
        self,
        e: int,
        t: int,
        totals: np.ndarray,
        qos_rew: np.ndarray,
        power_rew: np.ndarray,
        violation: np.ndarray,
        p99: np.ndarray,
        cores: List[int],
        freqs: List[int],
        ways: List[int],
    ) -> None:
        epsilon = self.agent.epsilon()
        tag = self._tag(e)
        for i, name in enumerate(self.service_order):
            self.trace.emit(
                make_event(
                    "reward",
                    t,
                    service=name,
                    reward=float(totals[e, i]),
                    qos_rew=float(qos_rew[e, i]),
                    power_rew=float(power_rew[e, i]),
                    violation=bool(violation[e, i]),
                    measured_qos_ms=float(p99[e, i]),
                    estimated_power_w=float(self._est_power[e, i]),
                    **tag,
                )
            )
            self.trace.emit(
                make_event(
                    "action",
                    t,
                    service=name,
                    cores=cores[i],
                    freq_index=freqs[i],
                    frequency_ghz=self.spec.dvfs[freqs[i]],
                    llc_ways=ways[i],
                    epsilon=epsilon,
                    **tag,
                )
            )

    # ------------------------------------------------------------------ #
    # subclass hooks (hierarchical control plumbs budgets through these)
    # ------------------------------------------------------------------ #
    def _shape_reward_rows(
        self,
        env_rows: np.ndarray,
        totals: np.ndarray,
        qos_rew: np.ndarray,
        power_rew: np.ndarray,
        violation: np.ndarray,
    ) -> np.ndarray:
        """Hook: adjust this tick's reward matrix before learning.

        ``totals`` and its Equation-1 parts ``qos_rew``, ``power_rew``
        and ``violation`` are ``(envs, services)`` matrices; only the
        rows in ``env_rows`` (the healthy envs) are learned from. Edit
        ``totals`` in place and return it. The base fleet applies
        Equation-1 unmodified.
        """
        return totals

    def _repair_action_rows(
        self, env_rows: np.ndarray, actions: np.ndarray, arrival: np.ndarray
    ) -> np.ndarray:
        """Hook: repair decoded actions before they are placed.

        ``actions`` is the ``(len(env_rows), services, branches)`` action
        matrix of the acting envs, row ``r`` for env ``env_rows[r]``;
        ``arrival`` is every env's ``(envs, services)`` arrival rates.
        Edit ``actions`` in place and return it: the repaired actions
        are what the agent learns from. Must be deterministic (no RNG
        draws), so acting stays on the agent's RNG stream. The base
        fleet keeps the agent's actions.
        """
        return actions

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    #: Checkpoint kind tag for full fleet-manager state (see repro.ckpt).
    CKPT_KIND: ClassVar[str] = "twig_fleet"

    def state_dict(self) -> Dict[str, Any]:
        """Complete fleet-manager state for crash-safe resume.

        Control state is serialised as arrays under the ``monitor_bank``
        and ``fleet`` subtrees (one O(1) array dump instead of N per-env
        dict trees). :meth:`load_state_dict` accepts both this format
        and the legacy per-env ``monitors``/``envs`` layout.
        """
        return {
            "services": list(self.service_order),
            "num_envs": self.num_envs,
            "agent": self.agent.state_dict(),
            "monitor_bank": self.monitor_bank.state_dict(),
            "fleet": {
                "prev_states": self._prev_state_mat.copy(),
                "has_prev": self._has_prev.copy(),
                "prev_actions": self._prev_action_mat.copy(),
                "alloc_cores": self._alloc_cores.copy(),
                "alloc_freq": self._alloc_freq.copy(),
                "alloc_ways": self._alloc_ways.copy(),
                "has_alloc": self._has_alloc.copy(),
                "est_power": self._est_power.copy(),
                "has_est": self._has_est.copy(),
                "reward_totals": self._reward_totals.copy(),
                "has_reward": self._has_reward.copy(),
            },
        }

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore state from :meth:`state_dict` (stage-then-commit).

        Accepts both the array format written by this class and the
        legacy per-env-dict format (``monitors``/``envs`` subtrees)
        written before the array control plane / by
        ``DictFleetTwig`` (``tests/oracles/fleet_reference.py``). A legacy
        tree is converted to the array format first, so one validation
        covers both; nothing is mutated until all of it passed.
        """
        try:
            services = [str(name) for name in list(tree["services"])]
            num_envs = int(tree["num_envs"])
            agent_tree = dict(tree["agent"])
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
        if not ("fleet" in tree and "monitor_bank" in tree):
            if not ("monitors" in tree and "envs" in tree):
                raise CheckpointError(
                    "fleet checkpoint has neither array state (monitor_bank/fleet) "
                    "nor legacy per-env state (monitors/envs)"
                )
            tree = self._array_tree_from_legacy(tree)
        self._load_array_tree(tree, agent_tree)

    def _load_array_tree(self, tree: Dict[str, Any], agent_tree: Dict[str, Any]) -> None:
        E = self.num_envs
        k = len(self.service_order)
        n_branches = self.action_space.n_branches
        try:
            bank_tree = dict(tree["monitor_bank"])
            fleet = dict(tree["fleet"])
            prev_states = np.asarray(fleet["prev_states"], dtype=np.float64)
            has_prev = np.asarray(fleet["has_prev"], dtype=bool).reshape(-1)
            prev_actions = np.asarray(fleet["prev_actions"], dtype=np.int64)
            alloc_cores = np.asarray(fleet["alloc_cores"], dtype=np.int64)
            alloc_freq = np.asarray(fleet["alloc_freq"], dtype=np.int64)
            alloc_ways = np.asarray(fleet["alloc_ways"], dtype=np.int64)
            has_alloc = np.asarray(fleet["has_alloc"], dtype=bool).reshape(-1)
            est_power = np.asarray(fleet["est_power"], dtype=np.float64)
            has_est = np.asarray(fleet["has_est"], dtype=bool).reshape(-1)
            reward_totals = np.asarray(fleet["reward_totals"], dtype=np.float64)
            has_reward = np.asarray(fleet["has_reward"], dtype=bool).reshape(-1)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet array state: {exc}") from exc
        shapes = {
            "prev_states": (prev_states, (E, self.agent.config.state_dim)),
            "prev_actions": (prev_actions, (E, k, n_branches)),
            "alloc_cores": (alloc_cores, (E, k)),
            "alloc_freq": (alloc_freq, (E, k)),
            "alloc_ways": (alloc_ways, (E, k)),
            "est_power": (est_power, (E, k)),
            "reward_totals": (reward_totals, (E, k)),
        }
        for field, (value, expected) in shapes.items():
            if value.shape != expected:
                raise CheckpointError(
                    f"fleet {field} has shape {value.shape}, expected {expected}"
                )
        for flag in (has_prev, has_alloc, has_est, has_reward):
            if flag.shape[0] != E:
                raise CheckpointError("fleet flag arrays do not match num_envs")
        # A pending action outside its branch would load and then crash
        # the first train step that samples the transition it completes.
        branch_sizes = np.asarray(self.action_space.branch_sizes)
        if prev_actions.min() < 0 or (prev_actions >= branch_sizes).any():
            raise CheckpointError(
                f"fleet prev_actions out of range for branch sizes {branch_sizes.tolist()}"
            )
        if alloc_cores.min() < 1 or alloc_cores.max() > self.spec.cores_per_socket:
            raise CheckpointError("fleet alloc_cores out of range")
        if alloc_freq.min() < 0 or alloc_freq.max() >= len(self.spec.dvfs):
            raise CheckpointError("fleet alloc_freq out of range")
        if alloc_ways.min() < 0:
            raise CheckpointError("fleet alloc_ways out of range")
        bank = MonitorBank(self._counter_max_values, E * k, eta=self.config.eta)
        bank.load_state_dict(bank_tree)
        # The agent load goes last of the checks: it is stage-then-commit
        # itself, so once it returns nothing below can fail.
        self.agent.load_state_dict(agent_tree)
        self.monitor_bank = bank
        self._prev_state_mat = prev_states.copy()
        self._has_prev = has_prev.copy()
        self._prev_action_mat = prev_actions.copy()
        self._alloc_cores = alloc_cores.copy()
        self._alloc_freq = alloc_freq.copy()
        self._alloc_ways = alloc_ways.copy()
        self._has_alloc = has_alloc.copy()
        self._est_power = est_power.copy()
        self._has_est = has_est.copy()
        self._reward_totals = reward_totals.copy()
        self._has_reward = has_reward.copy()

    def _array_tree_from_legacy(self, tree: Dict[str, Any]) -> Dict[str, Any]:
        """The array-format ``monitor_bank``/``fleet`` subtrees of a legacy
        per-env-dict checkpoint (read only; validated by the array load)."""
        E = self.num_envs
        k = len(self.service_order)
        shape = (k, self.action_space.n_branches)
        state_dim = self.agent.config.state_dim
        try:
            monitors_tree = dict(tree["monitors"])
            envs_tree = dict(tree["envs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet checkpoint: {exc}") from exc
        expected = {f"{e:04d}" for e in range(E)}
        if set(monitors_tree) != expected or set(envs_tree) != expected:
            raise CheckpointError("fleet checkpoint env keys do not match num_envs")
        bank = MonitorBank(self._counter_max_values, E * k, eta=self.config.eta)
        # Services a legacy env never recorded keep the defaults its dict
        # accessors fell back to: the starting allocation (all cores, top
        # DVFS) and 0.0.
        fleet: Dict[str, np.ndarray] = {
            "prev_states": np.zeros((E, state_dim)),
            "has_prev": np.zeros(E, dtype=bool),
            "prev_actions": np.zeros((E,) + shape, dtype=np.int64),
            "alloc_cores": np.full((E, k), self.action_space.max_cores, dtype=np.int64),
            "alloc_freq": np.full((E, k), len(self.spec.dvfs) - 1, dtype=np.int64),
            "alloc_ways": np.zeros((E, k), dtype=np.int64),
            "has_alloc": np.zeros(E, dtype=bool),
            "est_power": np.zeros((E, k)),
            "has_est": np.zeros(E, dtype=bool),
            "reward_totals": np.zeros((E, k)),
            "has_reward": np.zeros(E, dtype=bool),
        }
        for e in range(E):
            bank.load_monitor_rows(
                e * k, dict(monitors_tree[f"{e:04d}"]), self.service_order
            )
            try:
                env_tree = dict(envs_tree[f"{e:04d}"])
                prev_actions = env_tree["prev_actions"]
                if prev_actions is not None:
                    prev_actions = np.asarray(
                        [[int(a) for a in branch] for branch in prev_actions],
                        dtype=np.int64,
                    )
                prev_state = env_tree.get("prev_state")
                if prev_state is not None:
                    prev_state = np.asarray(prev_state, dtype=np.float64).reshape(-1)
                allocations = dict(env_tree["last_allocations"])
                for i, name in enumerate(self.service_order):
                    fields = allocations.get(name)
                    if fields is not None:
                        fleet["alloc_cores"][e, i] = int(fields["num_cores"])
                        fleet["alloc_freq"][e, i] = int(fields["freq_index"])
                        fleet["alloc_ways"][e, i] = int(fields.get("llc_ways", 0))
                fleet["has_alloc"][e] = bool(allocations)
                for key, field, flag in (
                    ("last_estimated_power", "est_power", "has_est"),
                    ("last_rewards", "reward_totals", "has_reward"),
                ):
                    values = dict(env_tree[key])
                    for i, name in enumerate(self.service_order):
                        if name in values:
                            fleet[field][e, i] = float(values[name])
                    fleet[flag][e] = bool(values)
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"malformed fleet env {e} state: {exc}") from exc
            if prev_actions is not None and prev_actions.shape != shape:
                raise CheckpointError(
                    f"fleet env {e} prev_actions has shape {prev_actions.shape}, "
                    f"expected {shape}"
                )
            if prev_state is not None and prev_state.shape[0] != state_dim:
                raise CheckpointError(
                    f"fleet env {e} prev_state dim {prev_state.shape[0]} != "
                    f"state dim {state_dim}"
                )
            if prev_actions is not None and prev_state is not None:
                fleet["prev_actions"][e] = prev_actions
                fleet["prev_states"][e] = prev_state
                fleet["has_prev"][e] = True
        return {"monitor_bank": bank.state_dict(), "fleet": fleet}

    def save(self, path) -> None:
        """Atomically checkpoint the full fleet state (see repro.ckpt)."""
        save_state(path, self.CKPT_KIND, self.state_dict())

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`."""
        self.load_state_dict(load_state(path, kind=self.CKPT_KIND))
