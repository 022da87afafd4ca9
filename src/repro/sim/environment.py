"""The colocation environment that task managers drive.

One :class:`ColocationEnvironment` hosts N latency-critical services on one
socket of the simulated server (the paper pins servers to one socket and
clients to the other). Each call to :meth:`ColocationEnvironment.step`
installs the managers' core/DVFS assignments, advances one control
interval, and returns per-service observations (tail latency, raw PMCs)
plus the socket power reading — exactly the information Twig and the
baseline controllers consume on real hardware. The vector engine
(:mod:`repro.engine.vector_env`) shares its step events
(:func:`emit_step_events`) and its checkpoint layout (:class:`NodeState`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import check_rng_state, rng_state, set_rng_state
from repro.errors import AllocationError, CheckpointError, ConfigurationError, ShapeError
from repro.obs.events import make_event
from repro.obs.sink import NULL_SINK, TraceSink
from repro.pmc.counters import COUNTER_NAMES
from repro.server.machine import CoreAssignment, Machine
from repro.server.power import PowerModel, RaplSensor
from repro.server.spec import ServerSpec
from repro.services.interference import InterferenceModel, ServiceDemand
from repro.services.loadgen import LoadGenerator
from repro.services.profiles import ServiceProfile
from repro.services.service import IntervalResult, LCService
from repro.sim.faults import FaultInjector
from repro.sim.telemetry import TelemetrySynthesizer


def effective_capacity_matrix(
    membership: np.ndarray, online: np.ndarray, per_core_demand: np.ndarray
) -> np.ndarray:
    """Demand-aware timeshared core-equivalents, fully vectorized.

    ``membership`` is a boolean ``(..., S, C)`` pin matrix (service s uses
    core c), ``online`` a boolean ``(..., C)`` core-online mask, and
    ``per_core_demand`` the ``(..., S)`` per-core busy demand of each
    service. Per shared core, service i's usable share is
    ``clip(1 - sum of co-runners' demand, 1/k, 1)`` where k is the number
    of services pinned to the core; offline or unpinned cores contribute
    nothing. Returns the ``(..., S)`` core-equivalents, floored at 1e-6.

    Both :class:`ColocationEnvironment` and the vector engine route their
    capacity math through this one function, so the scalar and batched
    paths stay bitwise-aligned.
    """
    membership = np.asarray(membership, dtype=bool)
    online = np.asarray(online, dtype=bool)
    demand = np.asarray(per_core_demand, dtype=np.float64)
    k = membership.sum(axis=-2)                                   # (..., C)
    demand_total = (membership * demand[..., :, None]).sum(axis=-2)
    others = demand_total[..., None, :] - demand[..., :, None]    # (..., S, C)
    share = np.clip(1.0 - others, 1.0 / np.maximum(k, 1)[..., None, :], 1.0)
    usable = np.where(membership & online[..., None, :], share, 0.0)
    return np.maximum(usable.sum(axis=-1), 1e-6)


@dataclass(frozen=True)
class EnvironmentConfig:
    """Environment-wide knobs; defaults mirror the paper's setup."""

    spec: ServerSpec = field(default_factory=ServerSpec)
    socket_index: int = 1          # servers live on socket one, clients on zero
    interval_s: float = 1.0        # Twig's control/monitoring interval
    latency_noise_std: float = 0.05
    telemetry_noise_std: float = 0.015
    rapl_noise_std: float = 0.01
    hotplug_unused: bool = False   # disable unallocated cores (power profiling)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError(f"interval_s must be positive: {self.interval_s}")
        if not 0 <= self.socket_index < self.spec.sockets:
            raise ConfigurationError(f"socket_index out of range: {self.socket_index}")
        for name in ("telemetry_noise_std", "rapl_noise_std"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ServiceObservation:
    """What a task manager can see about one service after an interval."""

    interval: IntervalResult
    pmcs: Dict[str, float]

    @property
    def p99_ms(self) -> float:
        return self.interval.p99_ms

    @property
    def qos_met(self) -> bool:
        return self.interval.qos_met

    @property
    def tardiness(self) -> float:
        return self.interval.tardiness


@dataclass(frozen=True)
class StepResult:
    """Everything produced by one environment step."""

    time: int
    observations: Dict[str, ServiceObservation]
    socket_power_w: float          # noisy RAPL reading for the server socket
    true_power_w: float
    membw_utilization: float
    energy_j: float                # cumulative server-socket energy


#: One observation's raw counters, in ``COUNTER_NAMES`` order.
_read_counters = operator.itemgetter(*COUNTER_NAMES)


def result_arrays(
    results: Sequence[StepResult], services: Sequence[str]
) -> Mapping[str, np.ndarray]:
    """The matrices a fleet controller reads from one tick's results.

    A :class:`~repro.engine.vector_env.StepBatch` already carries them:
    its ``arrays`` are returned as they are. Any other result sequence
    (the paper loop's or a node agent's one result) is read into the same
    keys, one row per result and one column per name in ``services``:
    ``time`` ``(E,)``, ``p99``, ``arrivals`` and ``membw_gbps`` ``(E,
    S)``, ``power_w`` ``(E,)`` (the RAPL reading) and ``counters`` ``(E,
    S, C)`` in :data:`~repro.pmc.counters.COUNTER_NAMES` order. A reading
    without one of those counters raises ``ShapeError``.
    """
    arrays = getattr(results, "arrays", None)
    if arrays is not None:
        return arrays
    rows = []
    for result in results:
        for name in services:
            observation = result.observations[name]
            interval = observation.interval
            try:
                counters = _read_counters(observation.pmcs)
            except KeyError:
                missing = [c for c in COUNTER_NAMES if c not in observation.pmcs]
                raise ShapeError(f"readings missing counters: {missing}") from None
            rows.append(
                (observation.p99_ms, interval.arrival_rate, interval.membw_gbps) + counters
            )
    # One (E, S, 3 + C) table, one conversion; the keys are views of it.
    table = np.array(rows, dtype=np.float64).reshape(len(results), len(services), -1)
    return {
        "time": np.array([result.time for result in results], dtype=np.int64),
        "p99": table[..., 0],
        "arrivals": table[..., 1],
        "membw_gbps": table[..., 2],
        "power_w": np.array([result.socket_power_w for result in results], dtype=np.float64),
        "counters": table[..., 3:],
    }


def emit_step_events(
    sink: TraceSink,
    streaks: Dict[str, int],
    result: StepResult,
    applied: Sequence[Any],
    **tag: int,
) -> None:
    """Emit a ``fault`` event per applied fault, any ``qos_violation``
    events, then the ``interval`` event of one stepped server, counting
    its consecutive violations in ``streaks``. ``tag`` is the index
    envelope (``env=e`` or ``node=e``) the vector engine adds."""
    for fault in applied:
        sink.emit(
            make_event(
                "fault",
                result.time,
                service=fault.service,
                kind=fault.kind,
                magnitude=float(fault.magnitude),
                start=fault.start,
                duration=fault.duration,
                **tag,
            )
        )
    per_service = {}
    for name, obs in result.observations.items():
        per_service[name] = {
            "p99_ms": obs.p99_ms,
            "qos_target_ms": obs.interval.qos_target_ms,
            "qos_met": obs.qos_met,
            "arrival_rps": obs.interval.arrival_rate,
            "cores": obs.interval.cores,
            "frequency_ghz": obs.interval.frequency_ghz,
        }
        if obs.qos_met:
            streaks[name] = 0
        else:
            streak = streaks.get(name, 0) + 1
            streaks[name] = streak
            sink.emit(
                make_event(
                    "qos_violation",
                    result.time,
                    service=name,
                    p99_ms=obs.p99_ms,
                    qos_target_ms=obs.interval.qos_target_ms,
                    tardiness=obs.tardiness,
                    consecutive=streak,
                    **tag,
                )
            )
    sink.emit(
        make_event(
            "interval",
            result.time,
            services=per_service,
            power_w=result.socket_power_w,
            true_power_w=result.true_power_w,
            membw_utilization=result.membw_utilization,
            energy_j=result.energy_j,
            **tag,
        )
    )


class NodeState(NamedTuple):
    """One server's mutable state as plain values: what its checkpoint
    tree holds, in the layout :func:`node_state_tree` writes and
    :func:`parse_node_state` reads. ``freq_index``, ``online`` and
    ``pinned`` (sorted service names) run over every machine core;
    ``last_reading_w`` maps socket to watts, None before the first poll."""

    time: int
    violation_streaks: Dict[str, int]
    rng: Dict[str, Any]
    freq_index: np.ndarray
    online: np.ndarray
    pinned: List[List[str]]
    migration_counts: Dict[str, int]
    energy_j: float
    last_reading_w: Optional[Dict[int, float]]
    backlogs: Dict[str, float]
    loadgen_rng: Dict[str, Dict[str, Any]]
    faults: Optional[Dict[str, Any]] = None


def node_state_tree(state: NodeState) -> Dict[str, Any]:
    """One server's checkpoint tree, in its fixed leaf order."""
    last = state.last_reading_w
    if last is not None:
        # Socket indices become JSON object keys, which must be str.
        last = {str(socket): float(w) for socket, w in last.items()}
    tree: Dict[str, Any] = {
        "time": state.time,
        "violation_streaks": {name: int(n) for name, n in state.violation_streaks.items()},
        "rng": state.rng,
        "machine": {
            "freq_index": state.freq_index, "online": state.online,
            "services": state.pinned, "migration_counts": state.migration_counts,
        },
        "rapl": {"energy_j": state.energy_j, "last_reading_w": last},
        "services": {name: {"backlog": float(b)} for name, b in state.backlogs.items()},
        "loadgen_rng": state.loadgen_rng,
    }
    if state.faults is not None:
        tree["faults"] = state.faults
    return tree


def parse_node_state(
    tree: Mapping[str, Any],
    services: Sequence[str],
    load_generators: Sequence[str],
    num_cores: int,
    num_levels: int,
    has_faults: bool,
) -> NodeState:
    """Check a :func:`node_state_tree` tree against the server it is for
    and read it back; a malformed tree raises ``CheckpointError``. RNG
    states are checked when they are set."""
    try:
        time = int(tree["time"])
        streaks = {str(k): int(v) for k, v in dict(tree["violation_streaks"]).items()}
        rng_tree = dict(tree["rng"])
        machine = dict(tree["machine"])
        rapl = dict(tree["rapl"])
        service_trees = {str(k): dict(v) for k, v in dict(tree["services"]).items()}
        loadgen_trees = {str(k): dict(v) for k, v in dict(tree["loadgen_rng"]).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed environment checkpoint: {exc}") from exc
    if time < 0:
        raise CheckpointError(f"environment time must be >= 0, got {time}")
    if set(service_trees) != set(services):
        raise CheckpointError(
            f"checkpoint has services {sorted(service_trees)}, "
            f"environment has {sorted(services)}"
        )
    if set(loadgen_trees) != set(load_generators):
        raise CheckpointError(
            f"checkpoint has load generators {sorted(loadgen_trees)}, "
            f"environment has {sorted(load_generators)}"
        )
    faults_tree = tree.get("faults")
    if faults_tree is not None and not has_faults:
        raise CheckpointError(
            "checkpoint carries fault-injector state but this environment "
            "has no injector attached"
        )
    try:
        freq_index = np.asarray(machine["freq_index"], dtype=np.int64)
        online = np.asarray(machine["online"], dtype=bool)
        pinned = [sorted(set(map(str, names))) for names in list(machine["services"])]
        migrations = {str(k): int(v) for k, v in dict(machine["migration_counts"]).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed machine state: {exc}") from exc
    if not (len(freq_index) == len(online) == len(pinned) == num_cores):
        raise CheckpointError(
            f"machine checkpoint describes {len(freq_index)} cores, machine has {num_cores}"
        )
    if freq_index.size and not (0 <= freq_index.min() and freq_index.max() < num_levels):
        raise CheckpointError("machine checkpoint has out-of-range DVFS indices")
    try:
        energy = float(rapl["energy_j"])
        raw = rapl["last_reading_w"]
        last = None if raw is None else {int(s): float(w) for s, w in dict(raw).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed RAPL state: {exc}") from exc
    if not (math.isfinite(energy) and energy >= 0):
        raise CheckpointError(f"energy_j must be finite and >= 0, got {energy}")
    backlogs = {}
    for name, service_tree in service_trees.items():
        try:
            backlog = float(service_tree["backlog"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed service state: {exc}") from exc
        if not (math.isfinite(backlog) and backlog >= 0):
            raise CheckpointError(f"backlog must be finite and >= 0, got {backlog}")
        backlogs[name] = backlog
    return NodeState(
        time, streaks, rng_tree, freq_index, online, pinned, migrations, energy,
        last, backlogs, loadgen_trees, faults_tree,
    )


class ColocationEnvironment:
    """N LC services sharing one socket of the simulated server."""

    def __init__(
        self,
        config: EnvironmentConfig,
        profiles: Sequence[ServiceProfile],
        load_generators: Mapping[str, LoadGenerator],
        rng: np.random.Generator,
        qos_targets: Optional[Mapping[str, float]] = None,
        trace: Optional[TraceSink] = None,
        faults: Optional[FaultInjector] = None,
    ):
        if not profiles:
            raise ConfigurationError("environment needs at least one service")
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate service names: {names}")
        missing = set(names) - set(load_generators)
        if missing:
            raise ConfigurationError(f"missing load generators for: {sorted(missing)}")
        self.config = config
        self.spec = config.spec
        self._rng = rng
        self.machine = Machine(config.spec)
        self.power_model = PowerModel(config.spec)
        self.rapl = RaplSensor(rng, noise_std=config.rapl_noise_std)
        self.interference = InterferenceModel(
            membw_capacity_gbps=config.spec.socket.membw_gbps,
            llc_capacity_mb=config.spec.socket.llc_mb,
        )
        self.telemetry = TelemetrySynthesizer(rng, noise_std=config.telemetry_noise_std)
        qos_targets = qos_targets or {}
        self.services: Dict[str, LCService] = {
            p.name: LCService(
                p,
                max_frequency_ghz=config.spec.dvfs.max_ghz,
                rng=rng,
                latency_noise_std=config.latency_noise_std,
                qos_target_ms=qos_targets.get(p.name),
            )
            for p in profiles
        }
        self.load_generators = dict(load_generators)
        self.time = 0
        # Trace sink: NULL_SINK unless a run injects one, so the disabled
        # path costs one attribute lookup and branch per step.
        self.trace = trace or NULL_SINK
        self._violation_streaks: Dict[str, int] = {}
        # Optional fault injection (see repro.sim.faults). Observations are
        # mutated after the interval is simulated, so the env's RNG streams
        # are identical with and without an injector.
        self.faults = faults

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def service_names(self) -> List[str]:
        return list(self.services)

    @property
    def socket_core_ids(self) -> List[int]:
        return self.spec.socket_core_ids(self.config.socket_index)

    @property
    def energy_j(self) -> float:
        return self.rapl.energy_j

    def qos_target_of(self, name: str) -> float:
        return self.services[name].qos_target_ms

    def attach_obs(self, trace: TraceSink, timings: Any) -> None:
        """Emit trace events into ``trace``. The step reports no timing
        sections of its own, so ``timings`` is unused."""
        self.trace = trace

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self, assignments: Mapping[str, CoreAssignment]) -> StepResult:
        """Install assignments and advance one control interval."""
        if set(assignments) != set(self.services):
            raise AllocationError(
                f"assignments for {sorted(assignments)} but services are "
                f"{sorted(self.services)}"
            )
        self._check_socket(assignments)
        self.machine.apply(assignments)

        interval = self.config.interval_s
        arrivals = {
            name: self.load_generators[name].rate(self.time) for name in self.services
        }
        capacities = self._effective_capacities(arrivals)
        # First pass: expected throughput at zero contention, to build the
        # socket demand vector (one-step relaxation of the fixed point).
        demands: Dict[str, ServiceDemand] = {}
        for name, service in self.services.items():
            freq = self.machine.frequency_of(name)
            capacity = service.profile.capacity_rps(
                capacities[name], freq, self.spec.dvfs.max_ghz
            )
            expected = min(arrivals[name] + service.backlog / interval, capacity)
            demands[name] = ServiceDemand(
                profile=service.profile,
                throughput_rps=expected,
                llc_quota_mb=assignments[name].llc_ways * self.spec.socket.mb_per_way,
            )
        contention = self.interference.resolve(demands)

        observations: Dict[str, ServiceObservation] = {}
        for name, service in self.services.items():
            cores = capacities[name]
            freq = self.machine.frequency_of(name)
            result = service.step(
                arrival_rate=arrivals[name],
                cores=cores,
                frequency_ghz=freq,
                contention=contention[name],
                interval_s=interval,
            )
            pmcs = self.telemetry.synthesize(service.profile, result)
            observations[name] = ServiceObservation(interval=result, pmcs=pmcs)

        membw_util = (
            next(iter(contention.values())).membw_utilization if contention else 0.0
        )
        true_power = self._socket_power(observations, membw_util)
        readings = self.rapl.poll(
            {self.config.socket_index: true_power}, interval_s=interval
        )
        self.time += 1
        applied = []
        if self.faults is not None:
            # Injected after power/RAPL: sensor faults corrupt what the
            # manager *sees*, not what the machine drew (a crashed service's
            # cores still spin until the manager reclaims them).
            observations, applied = self.faults.apply(
                self.time, observations, self.services
            )
        step_result = StepResult(
            time=self.time,
            observations=observations,
            socket_power_w=readings[self.config.socket_index],
            true_power_w=true_power,
            membw_utilization=membw_util,
            energy_j=self.rapl.energy_j,
        )
        if self.trace.enabled:
            emit_step_events(self.trace, self._violation_streaks, step_result, applied)
        return step_result

    def _effective_capacities(self, arrivals: Mapping[str, float]) -> Dict[str, float]:
        """Core-equivalents per service with demand-aware timesharing.

        A core pinned to k services is scheduled like CFS: each service is
        *guaranteed* 1/k of it but may consume up to whatever its
        co-runners leave idle. Per shared core, service i's usable share is
        ``max(1/k, 1 - sum of the other services' per-core demand)``.
        """
        interval = self.config.interval_s
        names = list(self.services)
        core_ids = self.socket_core_ids
        column = {core_id: j for j, core_id in enumerate(core_ids)}
        demand = np.empty(len(names), dtype=np.float64)
        membership = np.zeros((len(names), len(core_ids)), dtype=bool)
        online = np.zeros(len(core_ids), dtype=bool)
        for j, core_id in enumerate(core_ids):
            online[j] = self.machine.cores[core_id].online
        for i, name in enumerate(names):
            service = self.services[name]
            cores = self.machine.cores_of(name)
            freq = self.machine.frequency_of(name)
            service_ms = service.profile.cpu_ms_per_req * service.profile.frequency_factor(
                freq, self.spec.dvfs.max_ghz
            )
            offered = arrivals[name] + service.backlog / interval
            busy_cores = offered * service_ms / 1000.0
            demand[i] = min(busy_cores / max(len(cores), 1), 1.5)
            for core in cores:
                membership[i, column[core.core_id]] = True
        capacities = effective_capacity_matrix(membership, online, demand)
        return {name: float(capacities[i]) for i, name in enumerate(names)}

    def _check_socket(self, assignments: Mapping[str, CoreAssignment]) -> None:
        valid = set(self.socket_core_ids)
        for name, assignment in assignments.items():
            outside = [c for c in assignment.cores if c not in valid]
            if outside:
                raise AllocationError(
                    f"service {name!r} assigned cores {outside} outside server "
                    f"socket {self.config.socket_index}"
                )

    def _socket_power(
        self, observations: Mapping[str, ServiceObservation], membw_util: float
    ) -> float:
        """Ground-truth server-socket power for the interval."""
        core_util: Dict[int, float] = {}
        core_freq: Dict[int, float] = {}
        for name, obs in observations.items():
            profile = self.services[name].profile
            # Allocated cores are never fully idle: LC services busy-poll,
            # so an assigned core draws dynamic power even between requests
            # (this is why reclaiming cores saves energy on real servers).
            busy = obs.interval.utilization
            effective = busy + profile.active_idle_util * (1.0 - busy)
            for core in self.machine.cores_of(name):
                # Threads of every pinned service contend for the core; the
                # scheduler interleaves them, so activity adds up (capped at
                # 1 below) — a core shared by two spinning services is hot.
                core_util[core.core_id] = core_util.get(core.core_id, 0.0) + effective
                core_freq[core.core_id] = self.spec.dvfs[core.freq_index]
        activity = []
        online = 0
        for core_id in self.socket_core_ids:
            core = self.machine.cores[core_id]
            allocated = core_id in core_util
            if self.config.hotplug_unused and not allocated:
                continue
            online += 1
            if allocated:
                activity.append(
                    (core_freq[core_id], float(np.clip(core_util[core_id], 0.0, 1.0)))
                )
            else:
                activity.append((self.spec.dvfs[core.freq_index], 0.0))
        breakdown = self.power_model.socket_power(
            activity, membw_utilization=membw_util, online_cores=online
        )
        return breakdown.total_w

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Every mutable piece of simulator state, for bit-exact resume."""
        cores = self.machine.cores
        return node_state_tree(NodeState(
            time=self.time,
            violation_streaks=self._violation_streaks,
            rng=rng_state(self._rng),
            freq_index=np.array([core.freq_index for core in cores], dtype=np.int64),
            online=np.array([core.online for core in cores], dtype=bool),
            pinned=[sorted(core.services) for core in cores],
            migration_counts=dict(self.machine.migration_counts),
            energy_j=self.rapl.energy_j,
            last_reading_w=self.rapl.last_reading_w,
            backlogs={name: service.backlog for name, service in self.services.items()},
            loadgen_rng={
                name: rng_state(generator._rng)
                for name, generator in self.load_generators.items()
            },
            faults=None if self.faults is None else self.faults.state_dict(),
        ))

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict`. All or nothing: the
        tree is parsed and every RNG state checked before anything is
        written, so a refused tree leaves the environment as it was."""
        state = parse_node_state(
            tree, list(self.services), list(self.load_generators),
            len(self.machine.cores), len(self.spec.dvfs), self.faults is not None,
        )
        rngs = [(self._rng, state.rng)] + [
            (self.load_generators[name]._rng, generator_tree)
            for name, generator_tree in state.loadgen_rng.items()
        ]
        if state.faults is not None:
            rngs.append((self.faults._rng, dict(state.faults).get("rng")))
        for generator, generator_tree in rngs:
            check_rng_state(generator, generator_tree)
        for core, level, is_online, names in zip(
            self.machine.cores, state.freq_index.tolist(), state.online.tolist(),
            state.pinned,
        ):
            core.freq_index, core.online, core.services = level, is_online, set(names)
        self.machine.migration_counts = state.migration_counts
        self.rapl.energy_j = state.energy_j
        self.rapl.last_reading_w = state.last_reading_w
        for name, backlog in state.backlogs.items():
            self.services[name].backlog = backlog
        for generator, generator_tree in rngs:
            set_rng_state(generator, generator_tree)
        self.time = state.time
        self._violation_streaks = state.violation_streaks

    # ------------------------------------------------------------------ #
    # service swap (transfer-learning experiments)
    # ------------------------------------------------------------------ #
    def swap_service(
        self,
        old_name: str,
        new_profile: ServiceProfile,
        load_generator: LoadGenerator,
        qos_target_ms: Optional[float] = None,
    ) -> None:
        """Replace a running service with a new one (Figures 8 and 9)."""
        if old_name not in self.services:
            raise ConfigurationError(f"unknown service {old_name!r}")
        if new_profile.name in self.services and new_profile.name != old_name:
            raise ConfigurationError(f"service {new_profile.name!r} already present")
        del self.services[old_name]
        del self.load_generators[old_name]
        self.services[new_profile.name] = LCService(
            new_profile,
            max_frequency_ghz=self.spec.dvfs.max_ghz,
            rng=self._rng,
            latency_noise_std=self.config.latency_noise_std,
            qos_target_ms=qos_target_ms,
        )
        self.load_generators[new_profile.name] = load_generator
