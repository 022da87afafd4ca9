"""Frozen scalar server (the pre-engine paper-loop ``ColocationEnvironment``).

:class:`ScalarEnvironment` is the original one-server environment: a
:class:`~repro.server.machine.Machine` that ``apply`` installs each
tick's dicts into, one :class:`LCService` per service with its own
queueing step, :meth:`ScalarInterference.resolve` for the shared memory
bandwidth and LLC, a :class:`TelemetrySynthesizer` per-counter loop and a
:class:`RaplSensor`. It sums socket power in the engine's order (one
vector over the socket's cores, reduced by numpy). Only these classes run
this physics; the package steps every server, the paper loop's
included, through :class:`~repro.engine.vector_env.VectorEnvironment`.
Stepped in lock-step with the engine on the same seeds and assignments,
it must give the same results, events and state trees byte for byte
(``tests/test_engine_vector.py``, ``tests/test_engine_lazy_results.py``).

:func:`scalar_environment` and :func:`scalar_cluster_node` build it on the
recipes of :func:`repro.experiments.common.make_environment` and
:func:`repro.cluster.environment.make_cluster_node`.

Do not use these classes outside tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import check_rng_state, rng_state, set_rng_state
from repro.cluster.traffic import ScheduledLoad
from repro.errors import AllocationError, ConfigurationError
from repro.obs.sink import NULL_SINK, TraceSink
from repro.pmc.counters import COUNTER_NAMES
from repro.server.machine import CoreAssignment, Machine
from repro.server.power import PowerModel
from repro.server.spec import ServerSpec
from repro.services.interference import InterferenceModel
from repro.services.loadgen import ConstantLoad, LoadGenerator
from repro.services.profiles import ServiceProfile, get_profile
from repro.services.queueing import erlang_c
from repro.services.service import IntervalResult
from repro.sim.faults import FaultInjector
from repro.sim.node import (
    EnvironmentConfig,
    NodeState,
    ServiceObservation,
    StepResult,
    effective_capacity_matrix,
    emit_step_events,
    node_state_tree,
    parse_node_state,
    pin_terms,
)


# ---------------------------------------------------------------------- #
# interference
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServiceDemand:
    """One service's resource demand on a socket during an interval."""

    profile: ServiceProfile
    throughput_rps: float  # requests actually being processed per second
    llc_quota_mb: float = 0.0  # exclusive CAT partition (0 = unpartitioned)

    def membw_gbps(self) -> float:
        return self.throughput_rps * self.profile.membw_per_req_mb / 1024.0

    def llc_demand_mb(self, load_fraction: float = 1.0) -> float:
        # Footprint shrinks somewhat at low load but never below 30%.
        return self.profile.llc_working_set_mb * max(0.3, min(load_fraction, 1.0))


@dataclass(frozen=True)
class SocketContention:
    """Resolved contention for one service on one socket."""

    inflation: float        # multiplicative service-time factor, >= 1
    miss_inflation: float   # multiplicative LLC-miss factor, >= 1
    membw_utilization: float  # socket bandwidth utilisation in [0, 1+]
    llc_overcommit: float   # total working set / LLC size


#: Contention object meaning "no neighbours, no pressure".
NO_CONTENTION = SocketContention(
    inflation=1.0, miss_inflation=1.0, membw_utilization=0.0, llc_overcommit=0.0
)


class ScalarInterference(InterferenceModel):
    """The interference model with its per-service ``resolve``."""

    def resolve(
        self, demands: Mapping[str, ServiceDemand]
    ) -> Dict[str, SocketContention]:
        """Contention factors for every service sharing the socket."""
        total_bw = sum(d.membw_gbps() for d in demands.values())
        bw_util = total_bw / self.membw_capacity_gbps
        pressure = self._bandwidth_pressure(bw_util)

        # CAT partitions carve exclusive capacity out of the LLC; only the
        # unpartitioned services contend for what remains.
        quota_total = sum(min(d.llc_quota_mb, self.llc_capacity_mb) for d in demands.values())
        quota_total = min(quota_total, self.llc_capacity_mb)
        shared_capacity = max(self.llc_capacity_mb - quota_total, 1e-9)
        shared_ws = sum(
            d.llc_demand_mb() for d in demands.values() if d.llc_quota_mb <= 0
        )
        overcommit = (
            (quota_total + shared_ws) / self.llc_capacity_mb
            if demands
            else 0.0
        )

        result: Dict[str, SocketContention] = {}
        for name, demand in demands.items():
            profile = demand.profile
            bw_term = profile.membw_sensitivity * self.bandwidth_strength * pressure
            ws = demand.llc_demand_mb()
            if demand.llc_quota_mb > 0:
                # Isolated: misses depend only on the service's own quota.
                evicted = max(0.0, 1.0 - demand.llc_quota_mb / ws) if ws > 0 else 0.0
            elif shared_ws > shared_capacity and ws > 0:
                share = shared_capacity * ws / shared_ws
                # Fraction of the working set evicted by neighbours.
                evicted = max(0.0, 1.0 - share / ws)
            else:
                evicted = 0.0
            miss_inflation = 1.0 + evicted
            llc_term = profile.llc_sensitivity * self.llc_strength * evicted
            result[name] = SocketContention(
                inflation=1.0 + bw_term + llc_term,
                miss_inflation=miss_inflation,
                membw_utilization=bw_util,
                llc_overcommit=overcommit,
            )
        return result

    def resolve_single(
        self, profile: ServiceProfile, throughput_rps: float
    ) -> SocketContention:
        """Convenience for a service running alone on a socket."""
        demand = ServiceDemand(profile=profile, throughput_rps=throughput_rps)
        return self.resolve({profile.name: demand})[profile.name]


# ---------------------------------------------------------------------- #
# one service
# ---------------------------------------------------------------------- #
class LCService:
    """Stateful simulation of one latency-critical service."""

    #: Backlog is capped at this many seconds of capacity: Tailbench-style
    #: closed-loop clients time out and drop requests, so an overloaded
    #: second leaves at most a couple of seconds of queued work behind.
    MAX_BACKLOG_SECONDS = 2.0

    def __init__(
        self,
        profile: ServiceProfile,
        max_frequency_ghz: float,
        rng: np.random.Generator,
        latency_noise_std: float = 0.05,
        qos_target_ms: Optional[float] = None,
    ):
        if max_frequency_ghz <= 0:
            raise ConfigurationError("max_frequency_ghz must be positive")
        self.profile = profile
        self.max_frequency_ghz = max_frequency_ghz
        self.qos_target_ms = qos_target_ms if qos_target_ms is not None else profile.qos_target_ms
        self.latency_noise_std = latency_noise_std
        self._rng = rng
        self.backlog = 0.0

    def reset(self) -> None:
        self.backlog = 0.0

    def step(
        self,
        arrival_rate: float,
        cores: float,
        frequency_ghz: float,
        contention: SocketContention = NO_CONTENTION,
        interval_s: float = 1.0,
    ) -> IntervalResult:
        """Advance one control interval and return the observation."""
        if arrival_rate < 0:
            raise ConfigurationError(f"arrival_rate must be >= 0, got {arrival_rate}")
        if cores <= 0:
            raise ConfigurationError(f"cores must be positive, got {cores}")
        if interval_s <= 0:
            raise ConfigurationError(f"interval_s must be positive, got {interval_s}")
        profile = self.profile
        freq_factor = profile.frequency_factor(frequency_ghz, self.max_frequency_ghz)
        inflation = contention.inflation
        service_ms = profile.cpu_ms_per_req * freq_factor * inflation
        floor_ms = profile.floor_q99_ms * freq_factor * inflation
        eff_servers = profile.effective_cores(cores)
        mu_per_server = 1000.0 / service_ms                # requests/s per server
        capacity = eff_servers * mu_per_server

        demand = arrival_rate + self.backlog / interval_s
        if demand < 0.995 * capacity:
            throughput = demand
            new_backlog = 0.0
            wait_ms = self._stable_wait_q99_ms(demand, mu_per_server, eff_servers)
            p99 = floor_ms + wait_ms
        else:
            throughput = capacity
            new_backlog = self.backlog + (arrival_rate - capacity) * interval_s
            new_backlog = float(
                min(max(new_backlog, 0.0), self.MAX_BACKLOG_SECONDS * capacity)
            )
            # Every queued request waits roughly backlog/capacity seconds; a
            # system saturated with little backlog still has (at least) the
            # stationary waiting time at the edge of stability, which keeps
            # the latency curve continuous across the stable/overload
            # boundary.
            queueing_ms = 1000.0 * (new_backlog / capacity) if capacity > 0 else 0.0
            edge_wait_ms = self._stable_wait_q99_ms(
                0.995 * capacity, mu_per_server, eff_servers
            )
            p99 = floor_ms + service_ms + max(queueing_ms, edge_wait_ms)

        p99 *= self._latency_noise()
        mean_ms = floor_ms / 3.0 + (p99 - floor_ms) / 4.6 + service_ms / max(eff_servers, 1.0)
        self.backlog = new_backlog

        busy = min(demand, capacity) * service_ms / 1000.0 * interval_s  # core-seconds
        utilization = float(min(max(busy / (cores * interval_s), 0.0), 1.0))
        instructions = throughput * interval_s * profile.instr_per_req_m * 1e6
        membw = throughput * profile.membw_per_req_mb / 1024.0

        return IntervalResult(
            service=profile.name,
            interval_s=interval_s,
            arrival_rate=arrival_rate,
            throughput_rps=throughput,
            p99_ms=p99,
            mean_ms=mean_ms,
            utilization=utilization,
            capacity_rps=capacity,
            backlog=new_backlog,
            cores=cores,
            frequency_ghz=frequency_ghz,
            inflation=inflation,
            miss_inflation=contention.miss_inflation,
            membw_gbps=membw,
            busy_core_seconds=busy,
            instructions=instructions,
            qos_target_ms=self.qos_target_ms,
        )

    def _stable_wait_q99_ms(
        self, arrival_rate: float, mu_per_server: float, servers: float
    ) -> float:
        """q99 of the waiting time in the stable regime, in milliseconds."""
        if arrival_rate <= 0:
            return 0.0
        offered = arrival_rate / mu_per_server
        p_wait = erlang_c(servers, offered)
        p_wait = min(1.0, p_wait * (1.0 + self.profile.cv2) / 2.0)
        if p_wait <= 0.01:
            return 0.0
        theta = servers * mu_per_server - arrival_rate  # drain rate, /s
        if theta <= 0:
            return math.inf
        return 1000.0 * math.log(p_wait / 0.01) / theta

    def _latency_noise(self) -> float:
        if self.latency_noise_std <= 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self.latency_noise_std)))


# ---------------------------------------------------------------------- #
# telemetry and RAPL
# ---------------------------------------------------------------------- #
class TelemetrySynthesizer:
    """Produces raw per-service counter readings for each interval."""

    def __init__(self, rng: np.random.Generator, noise_std: float = 0.015):
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self._rng = rng
        self.noise_std = noise_std

    def _noisy(self, value: float) -> float:
        if self.noise_std <= 0:
            return max(value, 0.0)
        return max(value * (1.0 + self._rng.normal(0.0, self.noise_std)), 0.0)

    #: Characteristics of the spin/poll loops LC services run on their
    #: allocated-but-idle cores: they retire instructions at a high rate
    #: (tight loops), are branch dense, and barely miss anywhere.
    SPIN_IPC = 0.8
    SPIN_BRANCH_FRACTION = 0.30
    SPIN_BRANCH_MISS_RATE = 0.001

    def synthesize(self, profile: ServiceProfile, result: IntervalResult) -> Dict[str, float]:
        """The 11 Table-I counters for one service over one interval.

        Beyond request processing, allocated-but-idle cores busy-poll, so
        the cycle counters (and, diluted, the instruction counters) encode
        the *allocation* as well as the load — on real hardware a pinned,
        spinning worker keeps its core unhalted. This is what lets a
        PMC-driven agent observe the effect of its own core-count actions.
        """
        instructions = result.instructions
        spin_core_seconds = max(
            profile.active_idle_util
            * (result.cores * result.interval_s - result.busy_core_seconds),
            0.0,
        )
        active_core_seconds = result.busy_core_seconds + spin_core_seconds
        core_cycles = active_core_seconds * result.frequency_ghz * 1e9
        # The reference (TSC-rate) clock ticks at the base frequency
        # regardless of the DVFS setting; use the ladder max as base.
        ref_cycles = active_core_seconds * 2.0e9
        spin_cycles = spin_core_seconds * result.frequency_ghz * 1e9
        spin_instr = spin_cycles * self.SPIN_IPC
        spin_branches = spin_instr * self.SPIN_BRANCH_FRACTION

        kilo_instr = instructions / 1000.0
        branch_instr = instructions * profile.branch_per_instr + spin_branches
        branch_misses = (
            instructions * profile.branch_per_instr * profile.branch_miss_rate
            + spin_branches * self.SPIN_BRANCH_MISS_RATE
        )
        llc_misses = kilo_instr * profile.llc_mpki * result.miss_inflation
        l1d = kilo_instr * profile.l1d_mpki
        l1i = kilo_instr * profile.l1i_mpki
        total_instr = instructions + spin_instr
        raw = {
            "UNHALTED_CORE_CYCLES": core_cycles,
            "INSTRUCTION_RETIRED": total_instr,
            "PERF_COUNT_HW_CPU_CYCLES": core_cycles,
            "UNHALTED_REFERENCE_CYCLES": ref_cycles,
            "UOPS_RETIRED": total_instr * profile.uops_per_instr,
            "BRANCH_INSTRUCTIONS_RETIRED": branch_instr,
            "MISPREDICTED_BRANCH_RETIRED": branch_misses,
            "PERF_COUNT_HW_BRANCH_MISSES": branch_misses,
            "LLC_MISSES": llc_misses,
            "PERF_COUNT_HW_CACHE_L1D": l1d,
            "PERF_COUNT_HW_CACHE_L1I": l1i,
        }
        assert set(raw) == set(COUNTER_NAMES)
        return {name: self._noisy(value) for name, value in raw.items()}


class RaplSensor:
    """Noisy socket-level power readout with energy integration: one
    reading per socket per poll, with multiplicative Gaussian noise,
    accumulated into joules."""

    def __init__(self, rng: np.random.Generator, noise_std: float = 0.01):
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self._rng = rng
        self.noise_std = noise_std
        self.energy_j = 0.0
        self.last_reading_w: Optional[Mapping[int, float]] = None

    def poll(self, true_power_w: Mapping[int, float], interval_s: float) -> Mapping[int, float]:
        """Record one interval; returns the noisy per-socket power readings."""
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval_s}")
        readings = {}
        for socket, power in true_power_w.items():
            noise = 1.0 + self._rng.normal(0.0, self.noise_std)
            readings[socket] = max(power * noise, 0.0)
        self.energy_j += sum(readings.values()) * interval_s
        self.last_reading_w = readings
        return readings


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #
class ScalarEnvironment:
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
        self.interference = ScalarInterference(
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
        self.trace = trace or NULL_SINK
        self._violation_streaks: Dict[str, int] = {}
        self.faults = faults

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
        self.trace = trace

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
            # manager *sees*, not what the machine drew.
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
        """Core-equivalents per service with demand-aware timesharing."""
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
        capacities = effective_capacity_matrix(pin_terms(membership, online), demand)
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
        """Ground-truth server-socket power for the interval, per-core
        dynamic power summed in the engine's order."""
        core_util: Dict[int, float] = {}
        core_freq: Dict[int, float] = {}
        for name, obs in observations.items():
            profile = self.services[name].profile
            busy = obs.interval.utilization
            effective = busy + profile.active_idle_util * (1.0 - busy)
            for core in self.machine.cores_of(name):
                core_util[core.core_id] = core_util.get(core.core_id, 0.0) + effective
                core_freq[core.core_id] = self.spec.dvfs[core.freq_index]
        dynamic = np.zeros(len(self.socket_core_ids))
        for j, core_id in enumerate(self.socket_core_ids):
            if core_id in core_util:
                dynamic[j] = self.power_model.core_dynamic_w(
                    core_freq[core_id], min(max(core_util[core_id], 0.0), 1.0)
                )
        online = len(core_util) if self.config.hotplug_unused else len(dynamic)
        return float(
            self.spec.idle_power_w
            + self.spec.core_static_w * online
            + dynamic.sum()
            + self.spec.uncore_bw_w * min(max(membw_util, 0.0), 1.0)
        )

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
        """Restore a snapshot from :meth:`state_dict`, all or nothing."""
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


def scalar_environment(
    services: Sequence[str],
    load_fractions: Sequence[float],
    seed: int,
    spec: Optional[ServerSpec] = None,
) -> ScalarEnvironment:
    """``make_environment``'s recipe: server RNG at ``seed``, a
    ``ConstantLoad`` per service with its stream at ``seed + 101 + i``."""
    generators = {
        name: ConstantLoad(get_profile(name).max_load_rps, fraction,
                           rng=np.random.default_rng(seed + 101 + i))
        for i, (name, fraction) in enumerate(zip(services, load_fractions))
    }
    return ScalarEnvironment(
        EnvironmentConfig(spec=spec or ServerSpec()),
        [get_profile(name) for name in services],
        generators,
        np.random.default_rng(seed),
    )


def scalar_cluster_node(services: Sequence[str], seed: int) -> ScalarEnvironment:
    """``make_cluster_node``'s recipe: server RNG at ``seed``, a
    ``ScheduledLoad`` per service whose rate is set from outside."""
    profiles = [get_profile(name) for name in services]
    return ScalarEnvironment(
        EnvironmentConfig(),
        profiles,
        {p.name: ScheduledLoad(p.max_load_rps) for p in profiles},
        np.random.default_rng(seed),
    )
