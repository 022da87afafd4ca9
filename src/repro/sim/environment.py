"""The colocation environment that task managers drive.

One :class:`ColocationEnvironment` hosts N latency-critical services on one
socket of the simulated server (the paper pins servers to one socket and
clients to the other). Each call to :meth:`ColocationEnvironment.step`
installs the managers' core/DVFS assignments, advances one control
interval, and returns per-service observations (tail latency, raw PMCs)
plus the socket power reading — exactly the information Twig and the
baseline controllers consume on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import rng_state, set_rng_state
from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.obs.events import make_event
from repro.obs.sink import NULL_SINK, TraceSink
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
        self.last_result: Optional[StepResult] = None
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

    def max_power_w(self) -> float:
        """Stress-microbenchmark socket power (reward normalisation)."""
        return self.power_model.max_power_w()

    def profile_of(self, name: str) -> ServiceProfile:
        return self.services[name].profile

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
        self.last_result = StepResult(
            time=self.time,
            observations=observations,
            socket_power_w=readings[self.config.socket_index],
            true_power_w=true_power,
            membw_utilization=membw_util,
            energy_j=self.rapl.energy_j,
        )
        if self.trace.enabled:
            self._emit_step_events(self.last_result, applied)
        return self.last_result

    def _emit_step_events(
        self, result: StepResult, applied: Sequence[Any], **tag: int
    ) -> None:
        """Emit a ``fault`` event per applied fault, any ``qos_violation``
        events, then the ``interval`` event.

        ``tag`` is the index envelope (``env=e`` or ``node=e``) a vector
        engine adds for the wrapped environment it steps; a standalone
        environment emits untagged events.
        """
        for fault in applied:
            self.trace.emit(
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
                self._violation_streaks[name] = 0
            else:
                streak = self._violation_streaks.get(name, 0) + 1
                self._violation_streaks[name] = streak
                self.trace.emit(
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
        self.trace.emit(
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
        """Every mutable piece of simulator state, for bit-exact resume.

        Covers the clock, violation streaks, machine core state, service
        backlogs, the RAPL energy accumulator, the environment RNG stream
        (shared by services/telemetry/RAPL), each load generator's private
        RNG stream, and the fault injector's RNG when one is attached.
        Configuration (profiles, spec, generators' schedules) is not
        stored: a resume reconstructs the environment from the same config
        and then restores this state into it.
        """
        tree: Dict[str, Any] = {
            "time": self.time,
            "violation_streaks": {
                name: int(streak) for name, streak in self._violation_streaks.items()
            },
            "rng": rng_state(self._rng),
            "machine": self.machine.state_dict(),
            "rapl": self.rapl.state_dict(),
            "services": {
                name: service.state_dict() for name, service in self.services.items()
            },
            "loadgen_rng": {
                name: rng_state(generator._rng)
                for name, generator in self.load_generators.items()
            },
        }
        if self.faults is not None:
            tree["faults"] = self.faults.state_dict()
        return tree

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore a snapshot from :meth:`state_dict` (stage-then-commit)."""
        try:
            time = int(tree["time"])
            streaks = {str(k): int(v) for k, v in dict(tree["violation_streaks"]).items()}
            rng_tree = dict(tree["rng"])
            machine_tree = dict(tree["machine"])
            rapl_tree = dict(tree["rapl"])
            service_trees = {str(k): dict(v) for k, v in dict(tree["services"]).items()}
            loadgen_trees = {str(k): dict(v) for k, v in dict(tree["loadgen_rng"]).items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed environment checkpoint: {exc}") from exc
        if time < 0:
            raise CheckpointError(f"environment time must be >= 0, got {time}")
        if set(service_trees) != set(self.services):
            raise CheckpointError(
                f"checkpoint has services {sorted(service_trees)}, "
                f"environment has {sorted(self.services)}"
            )
        if set(loadgen_trees) != set(self.load_generators):
            raise CheckpointError(
                f"checkpoint has load generators {sorted(loadgen_trees)}, "
                f"environment has {sorted(self.load_generators)}"
            )
        faults_tree = tree.get("faults")
        if faults_tree is not None and self.faults is None:
            raise CheckpointError(
                "checkpoint carries fault-injector state but this environment "
                "has no injector attached"
            )
        # Sub-component loads validate before mutating; order them so the
        # most-validated (machine) commits first.
        self.machine.load_state_dict(machine_tree)
        self.rapl.load_state_dict(rapl_tree)
        for name, service_tree in service_trees.items():
            self.services[name].load_state_dict(service_tree)
        set_rng_state(self._rng, rng_tree)
        for name, generator_tree in loadgen_trees.items():
            set_rng_state(self.load_generators[name]._rng, generator_tree)
        if faults_tree is not None and self.faults is not None:
            self.faults.load_state_dict(dict(faults_tree))
        self.time = time
        self._violation_streaks = streaks
        self.last_result = None

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
