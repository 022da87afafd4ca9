"""Batched lock-step simulation of N one-socket servers.

:class:`VectorEnvironment` holds N homogeneous nodes, each the server of
a :class:`~repro.sim.environment.ColocationEnvironment`, and advances all
of them through one control interval per :meth:`step` call with
array-shaped math: per-(node x service) arrival/backlog/queueing state,
the batched Erlang-C kernel (:func:`repro.services.queueing.erlang_c_batch`),
vectorized interference resolution, telemetry synthesis, and the
ground-truth power model, all as ``(E, S)`` / ``(E, C)`` NumPy
operations. It builds its nodes from the service profiles and the seed
recipe and is their only owner: no environment, machine, service or
sensor object is built per node.

Draw-for-draw RNG fidelity
--------------------------
Each node has the RNG streams of the scalar recipe
(:func:`repro.experiments.common.make_environment`): a server stream at
``seed + e * ENV_SEED_STRIDE`` and, for a batch built from load
fractions, one :class:`~repro.services.loadgen.ConstantLoad` per service
with its own stream at ``base + 101 + i`` (a cluster node has no load
stream; the balancer sets its rates). The vector step consumes them in exactly the
order the scalar ``ColocationEnvironment.step`` would:

- each load generator's *private* RNG draws its jitter normal first
  (one per service, in service order);
- the node's *shared* RNG then draws, per service in service order, one
  latency normal (iff ``latency_noise_std > 0``) followed by eleven
  telemetry normals (iff ``telemetry_noise_std > 0``), and finally one
  RAPL normal (always).

The shared draws are taken as a single ``standard_normal`` block per
node, drawn in place into that node's row of one ``(E, total)`` matrix
(``out=row``: no temporary, no copy), and scattered;
``Generator.normal(0, s)`` equals ``s * standard_normal()`` bitwise, and
array draws continue the same stream as repeated scalar draws, so a
node's RNG state after a vector step is identical to the state after a
scalar step.

``ColocationEnvironment`` stepped on its own is the equivalence oracle:
stepping the same seeds through it reproduces the vector trajectories,
events and checkpoint trees (see ``tests/test_engine_vector.py``).

Engine-owned state
------------------
Everything a step changes is held as arrays: machine state (core pins,
per-core DVFS indices, online flags, migration counters) as ``(E, S, C)``
/ ``(E, C)`` / ``(E, S)`` over the server socket's cores, service
backlogs as ``(E, S)``, and clocks and RAPL energy and last reading as
``(E,)`` (a :class:`~repro.cluster.environment.ClusterEnvironment` adds
the balancer's ``(E, S)`` rate matrix). Each node's fault injector sits
in :attr:`VectorEnvironment.faults`, and its violation streaks, counted
on traced steps, in a dict. A node's checkpoint tree has the scalar
environment's layout (:class:`~repro.sim.environment.NodeState`). A step
replaces the state arrays it hands to its :class:`StepBatch` and never
writes into them afterwards. Assignments arrive as one
:class:`~repro.core.mapper.AssignmentBatch`, whose changed rows are
installed in one pass without ``Machine.apply`` but with its
arbitration: a core runs at the highest DVFS index pinned to it, an
unpinned core drops to 0, a service's migration counter grows by
``popcount(old XOR new)``.

Every numeric formula on the hot path is evaluated once over the whole
batch; the Erlang-C probabilities come from one unmasked Erlang-B table
(:func:`~repro.services.queueing.erlang_c_batch`), and the bandwidth
pressure is one array compare that calls the scalar formula only past
the knee. What still runs once per node is the in-place RNG draw (each
node's stream is its own, in order) and, for a node with a fault
injector (every node when the trace sink is enabled), the check for an
active fault.

:meth:`VectorEnvironment.step` returns a :class:`StepBatch`: the
interval's arrays now, result objects only when read.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ckpt.checkpoint import rng_state, set_rng_state
from repro.core.mapper import AssignmentBatch
from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.obs.sink import NULL_SINK, TraceSink
from repro.pmc.counters import COUNTER_NAMES
from repro.services.interference import InterferenceModel
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.services.queueing import erlang_c_batch
from repro.services.service import IntervalResult
from repro.sim.environment import (
    EnvironmentConfig,
    NodeState,
    ServiceObservation,
    StepResult,
    effective_capacity_matrix,
    emit_step_events,
    node_state_tree,
    parse_node_state,
)
from repro.sim.faults import FaultInjector

#: Seed stride between sibling environments created by
#: :meth:`VectorEnvironment.from_services`; large and prime so the
#: derived per-generator seeds of different environments never collide.
ENV_SEED_STRIDE = 100003

#: The batch array behind each ``IntervalResult`` field.
_FIELD_ARRAYS = {
    "arrival_rate": "arrivals",
    "throughput_rps": "throughput",
    "p99_ms": "p99",
    "mean_ms": "mean_ms",
    "utilization": "utilization",
    "capacity_rps": "capacity",
    "backlog": "backlog",
    "cores": "cores",
    "frequency_ghz": "frequency_ghz",
    "inflation": "inflation",
    "miss_inflation": "miss_inflation",
    "membw_gbps": "membw_gbps",
    "busy_core_seconds": "busy_core_seconds",
    "instructions": "instructions",
}
#: Those arrays in ``IntervalResult`` field order: its fields are
#: ``service``, ``interval_s``, these, then ``qos_target_ms``.
_INTERVAL_ARRAYS = tuple(
    _FIELD_ARRAYS[f.name] for f in dataclasses.fields(IntervalResult)[2:-1]
)


@functools.lru_cache(maxsize=1)
def _never_drawn() -> Dict[str, Any]:
    """A never-drawn ``default_rng(0)`` state, what a node without load
    streams writes as each generator's stream; built on first use."""
    return np.random.default_rng(0).bit_generator.state


def _build_observations(
    names: Sequence[str],
    interval_s: float,
    arrays: Mapping[str, np.ndarray],
    e: int,
) -> Dict[str, ServiceObservation]:
    """Env ``e``'s per-service observation objects from a batch's arrays."""
    columns = [arrays[key][e].tolist() for key in _INTERVAL_ARRAYS]
    observations: Dict[str, ServiceObservation] = {}
    for name, row, counters, qos_target in zip(
        names, zip(*columns), arrays["counters"][e].tolist(),
        arrays["qos_target"].tolist(),
    ):
        observations[name] = ServiceObservation(
            interval=IntervalResult(name, interval_s, *row, qos_target),
            pmcs=dict(zip(COUNTER_NAMES, counters)),
        )
    return observations


class _LazyObservations(Mapping):
    """Read-only ``name -> ServiceObservation`` map of one env's interval.

    The objects are built from the batch's arrays on the first read of a
    value and kept; iterating names, ``len`` and ``in`` build nothing.
    It holds the arrays, never the batch.
    """

    __slots__ = ("_names", "_interval_s", "_arrays", "_index", "_built")

    def __init__(
        self,
        names: Sequence[str],
        interval_s: float,
        arrays: Mapping[str, np.ndarray],
        index: int,
    ):
        self._names = names
        self._interval_s = interval_s
        self._arrays = arrays
        self._index = index
        self._built: Optional[Dict[str, ServiceObservation]] = None

    def _objects(self) -> Dict[str, ServiceObservation]:
        if self._built is None:
            self._built = _build_observations(
                self._names, self._interval_s, self._arrays, self._index
            )
        return self._built

    def __getitem__(self, name: str) -> ServiceObservation:
        return self._objects()[name]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __repr__(self) -> str:
        return repr(self._objects())


class StepBatch(Sequence):
    """One fused step's results: arrays now, ``StepResult`` objects on read.

    :meth:`VectorEnvironment.step` computes the whole interval as
    ``(E, S)`` / ``(E,)`` arrays and hands them out in :attr:`arrays`.
    The batch owns them and they are read-only: a batch kept across later
    steps still reads its own interval. Array-aware consumers (the rollout
    loop, :class:`~repro.core.fleet.FleetTwig`, the cluster balancer
    feedback) read the arrays and never build a result object.

    ``batch[e]`` builds env ``e``'s :class:`StepResult` on first read
    and keeps it. Its five scalar fields (``time``, ``socket_power_w``,
    ``true_power_w``, ``membw_utilization``, ``energy_j``) are filled
    then; its ``observations`` is a read-only mapping whose per-service
    :class:`ServiceObservation`/:class:`IntervalResult`/pmcs objects are
    built from the arrays only when a value is first read, field for
    field equal to the scalar path's. A result holds the arrays, never
    the batch.

    Envs with an active fault or an enabled trace sink get their results
    built eagerly inside ``step`` (faults consume RNG and replace
    observations, whose every field is copied back into the arrays;
    trace events read them) and installed with :meth:`set_result`.
    """

    def __init__(
        self,
        names: Sequence[str],
        interval_s: float,
        arrays: Dict[str, np.ndarray],
    ):
        self.names = list(names)
        self.interval_s = interval_s
        for array in arrays.values():
            array.setflags(write=False)
        #: The interval's matrices, read-only; see ``VectorEnvironment.step``.
        self.arrays = arrays
        self._results: List[Optional[StepResult]] = [None] * len(arrays["time"])

    def __len__(self) -> int:
        return len(self._results)

    def __getitem__(self, index: int) -> StepResult:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        result = self._results[index]
        if result is None:
            result = self._materialize(index)
            self._results[index] = result
        return result

    def set_result(self, index: int, result: StepResult) -> None:
        """Install an eagerly built (possibly faulted) result."""
        self._results[index] = result

    def build_observations(self, e: int) -> Dict[str, ServiceObservation]:
        """Per-service observation objects for env ``e``, built now."""
        return _build_observations(self.names, self.interval_s, self.arrays, e)

    def _materialize(self, e: int) -> StepResult:
        a = self.arrays
        return StepResult(
            time=int(a["time"][e]),
            observations=_LazyObservations(self.names, self.interval_s, a, e),
            socket_power_w=float(a["power_w"][e]),
            true_power_w=float(a["true_power_w"][e]),
            membw_utilization=float(a["membw_utilization"][e]),
            energy_j=float(a["energy_j"][e]),
        )


class VectorEnvironment:
    """N homogeneous one-socket servers stepped in lock-step; see the
    module docstring for the state the engine owns.

    Subclass hooks: :meth:`_gather_arrivals` supplies the ``(E, S)``
    arrival-rate matrix for the interval (default: the nodes' load
    generators), and :meth:`_post_step` observes the interval's arrays
    after the batch has been stepped (default: no-op). ``index_tag``
    names the envelope field used to tag emitted trace events with the
    node index (``"env"`` here;
    :class:`repro.cluster.environment.ClusterEnvironment` retags as
    ``"node"``).
    """

    #: Envelope field used when tagging per-environment trace events.
    index_tag = "env"

    def __init__(
        self,
        services: Sequence[str],
        load_fractions: Optional[Mapping[str, float]],
        num_envs: int,
        seed: int,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
    ):
        """Build ``num_envs`` nodes (see :meth:`from_services`); a subclass
        that supplies its own arrival rates passes ``load_fractions=None``
        and its nodes get no load streams."""
        if num_envs <= 0:
            raise ConfigurationError(f"num_envs must be positive, got {num_envs}")
        if not services:
            raise ConfigurationError("need at least one service")
        profiles = [get_profile(name) for name in services]
        self.names: List[str] = [p.name for p in profiles]
        if len(set(self.names)) != len(self.names):
            raise ConfigurationError(f"duplicate service names: {self.names}")
        self.num_envs = num_envs
        self.config = config or EnvironmentConfig()
        self.spec = self.config.spec

        as_array = lambda attr: np.array(  # noqa: E731 - tiny stacking helper
            [getattr(p, attr) for p in profiles], dtype=np.float64
        )
        self._cpu_ms = as_array("cpu_ms_per_req")
        self._serial_fraction = as_array("serial_fraction")
        self._floor_ms = as_array("floor_q99_ms")
        self._cv2 = as_array("cv2")
        self._alpha = as_array("freq_sensitivity")
        self._membw_per_req = as_array("membw_per_req_mb")
        self._working_set = as_array("llc_working_set_mb")
        self._membw_sens = as_array("membw_sensitivity")
        self._llc_sens = as_array("llc_sensitivity")
        self._instr_per_req = as_array("instr_per_req_m")
        self._llc_mpki = as_array("llc_mpki")
        self._l1d_mpki = as_array("l1d_mpki")
        self._l1i_mpki = as_array("l1i_mpki")
        self._bpi = as_array("branch_per_instr")
        self._bmr = as_array("branch_miss_rate")
        self._uops = as_array("uops_per_instr")
        self._aiu = as_array("active_idle_util")
        targets = {k: v for k, v in (qos_targets or {}).items() if v is not None}
        self._qos_targets = {p.name: targets.get(p.name, p.qos_target_ms) for p in profiles}
        self._qos_target = np.array(list(self._qos_targets.values()), dtype=np.float64)
        self._qos_target.setflags(write=False)  # handed to every StepBatch
        self._ladder = np.array(self.spec.dvfs.frequencies_ghz, dtype=np.float64)
        self._interference = InterferenceModel(
            membw_capacity_gbps=self.spec.socket.membw_gbps,
            llc_capacity_mb=self.spec.socket.llc_mb,
        )
        self._core_ids = self.spec.socket_core_ids(self.config.socket_index)
        on_socket = set(self._core_ids)
        self._off_socket = [c for c in range(self.spec.total_cores) if c not in on_socket]

        # Per-node streams and state that is not an array.
        bases = [seed + e * ENV_SEED_STRIDE for e in range(num_envs)]
        self._rngs = [np.random.default_rng(base) for base in bases]
        self._loads: Optional[List[ConstantLoad]] = None
        if load_fractions is not None:
            # Node, then service, order: the order they are drawn in.
            self._loads = [
                ConstantLoad(
                    p.max_load_rps, load_fractions.get(p.name, 0.5),
                    rng=np.random.default_rng(base + 101 + i),
                )
                for base in bases
                for i, p in enumerate(profiles)
            ]
        #: Each node's fault injector, or None; assign an entry to attach one.
        self.faults: List[Optional[FaultInjector]] = [None] * num_envs
        self._streaks: List[Dict[str, int]] = [{} for _ in range(num_envs)]
        #: The trace sink every node emits into; set by :meth:`attach_obs`.
        self.trace: TraceSink = NULL_SINK
        #: Optional :class:`~repro.obs.timing.TimingRegistry` wired in by
        #: the rollout loop; subclasses report timing sub-sections here.
        self.timings = None

        # Machine state as (node x service x socket core) arrays, for a
        # fresh socket: every core online, idle at DVFS index 0.
        E, S, C = num_envs, len(self.names), len(self._core_ids)
        self._m_membership = np.zeros((E, S, C), dtype=bool)
        self._m_online = np.ones((E, C), dtype=bool)
        self._m_freq_index = np.zeros((E, C), dtype=np.int64)
        self._m_n_cores = np.zeros((E, S))
        self._m_freq = np.zeros((E, S))
        self._m_llc_quota = np.zeros((E, S))
        self._migrations = np.zeros((E, S), dtype=np.int64)
        # The installed rows a batch is compared with: each service's DVFS
        # index and LLC ways, next to its pins in ``_m_membership``. No
        # batch carries level -1, so the first step installs every node.
        self._m_level = np.full((E, S), -1, dtype=np.int64)
        self._m_ways = np.zeros((E, S), dtype=np.int64)
        # Replaced by a step, never written in place: a step hands these
        # to its batch, which may still be read.
        self._backlog = np.zeros((E, S))
        self._clock = np.zeros(E, dtype=np.int64)
        self._energy = np.zeros(E)
        # The last RAPL reading per node; NaN before the first poll.
        self._reading = np.full(E, np.nan)

    def _install_assignments(self, batch: AssignmentBatch) -> None:
        """Check the batch, then write its changed rows in one pass, as
        ``Machine.apply`` would. Nothing is written unless the whole batch
        passes: one for other services (or in another column order),
        another socket or node count, a service on no core or a DVFS
        index off the ladder is refused, with the scalar path's message
        where it has one."""
        if not isinstance(batch, AssignmentBatch):
            raise AllocationError(
                f"the engine installs an AssignmentBatch, got {type(batch).__name__}; "
                "AssignmentBatch.from_dicts converts per-node dicts"
            )
        if len(batch) != self.num_envs:
            raise ConfigurationError(
                f"got assignments for {len(batch)} environments, "
                f"batch has {self.num_envs}"
            )
        if list(batch.names) != self.names:
            raise AllocationError(
                f"assignments for services {list(batch.names)} but the engine "
                f"runs {self.names}, in that order"
            )
        if batch.core_ids.tolist() != self._core_ids:
            raise AllocationError(
                f"assignments pin cores {batch.core_ids.tolist()}, server socket "
                f"{self.config.socket_index} has cores {self._core_ids}"
            )
        empty = ~batch.pins.any(axis=2)
        if empty.any():
            i = int(np.argwhere(empty)[0, 1])
            raise AllocationError(f"service {self.names[i]!r} assigned zero cores")
        off_ladder = (batch.freq < 0) | (batch.freq >= len(self._ladder))
        if off_ladder.any():
            e, i = np.argwhere(off_ladder)[0].tolist()
            raise AllocationError(
                f"service {self.names[i]!r} freq index {batch.freq[e, i]} out of "
                f"range [0, {len(self._ladder)})"
            )
        changed = self._changed_rows(batch)
        if not changed.size:
            return
        pins, level, ways = batch.pins[changed], batch.freq[changed], batch.ways[changed]
        self._migrations[changed] += (pins != self._m_membership[changed]).sum(axis=2)
        self._m_membership[changed] = pins
        self._m_level[changed] = level
        self._m_ways[changed] = ways
        core_level = np.where(pins, level[:, :, None], 0).max(axis=1)
        self._m_freq_index[changed] = core_level
        self._m_n_cores[changed] = pins.sum(axis=2)
        core_ghz = self._ladder[core_level][:, None, :]
        self._m_freq[changed] = np.where(pins, core_ghz, -np.inf).max(axis=2)
        self._m_llc_quota[changed] = ways * self.spec.socket.mb_per_way

    def _changed_rows(self, batch: AssignmentBatch) -> np.ndarray:
        """The nodes whose row of ``batch`` differs from the installed one,
        in one array pass."""
        return np.flatnonzero(
            (batch.pins != self._m_membership).any(axis=(1, 2))
            | (batch.freq != self._m_level).any(axis=1)
            | (batch.ways != self._m_ways).any(axis=1)
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_services(
        cls,
        services: Sequence[str],
        load_fractions: Mapping[str, float],
        num_envs: int,
        seed: int,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Mapping[str, float]] = None,
    ) -> "VectorEnvironment":
        """Build N sibling nodes with deterministic per-node seeding: node
        ``e`` follows :func:`repro.experiments.common.make_environment` at
        base seed ``seed + e * ENV_SEED_STRIDE``, so node 0 is seed-for-seed
        a scalar run at ``seed``."""
        return cls(services, load_fractions, num_envs, seed, config, qos_targets)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def service_names(self) -> List[str]:
        """Colocated service names, identical across all sibling envs."""
        return list(self.names)

    @property
    def time(self) -> int:
        """Current control-interval index (all envs step in lock-step)."""
        return int(self._clock[0])

    def qos_target_of(self, name: str) -> float:
        """p99 QoS target (ms) for ``name``, the same on every node."""
        return self._qos_targets[name]

    def attach_obs(self, trace, timings) -> None:
        """Emit every node's trace events into ``trace``, and keep
        ``timings`` for the sections a subclass reports."""
        self.trace = trace
        self.timings = timings

    def migration_counts(self) -> List[Dict[str, int]]:
        """Per-node service migration counters (for final run traces): a
        service that never migrated has no entry, as ``Machine.apply``
        counts them."""
        return [
            {name: count for name, count in zip(self.names, row) if count}
            for row in self._migrations.tolist()
        ]

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self, assignments: AssignmentBatch) -> StepBatch:
        """Install every node's assignment and advance every node one
        interval."""
        self._install_assignments(assignments)
        return self._advance()

    def _advance(self) -> StepBatch:
        """Advance every env one interval on the installed assignments."""
        E, S, C = self.num_envs, len(self.names), len(self._core_ids)
        interval = self.config.interval_s
        membership = self._m_membership
        online = self._m_online
        freq_index = self._m_freq_index
        n_cores = self._m_n_cores
        freq = self._m_freq
        llc_quota = self._m_llc_quota

        arrivals = self._gather_arrivals()
        backlog = self._backlog

        # --- effective capacities (demand-aware timesharing) ------------ #
        freq_factor = self._alpha * (self.spec.dvfs.max_ghz / freq) + (1.0 - self._alpha)
        service_ms_base = self._cpu_ms * freq_factor
        offered = arrivals + backlog / interval
        per_core_demand = np.minimum(
            offered * service_ms_base / 1000.0 / np.maximum(n_cores, 1.0), 1.5
        )
        capacities = effective_capacity_matrix(membership, online, per_core_demand)

        # --- interference ----------------------------------------------- #
        eff_servers = capacities / (1.0 + self._serial_fraction * (capacities - 1.0))
        capacity_uncontended = eff_servers * 1000.0 / service_ms_base
        expected = np.minimum(offered, capacity_uncontended)
        interference = self._interference
        membw_expected = expected * self._membw_per_req / 1024.0
        bw_util = membw_expected.sum(axis=1) / interference.membw_capacity_gbps
        pressure = interference.bandwidth_pressure_batch(bw_util)
        llc_cap = interference.llc_capacity_mb
        quota_total = np.minimum(
            np.minimum(llc_quota, llc_cap).sum(axis=1), llc_cap
        )
        shared_capacity = np.maximum(llc_cap - quota_total, 1e-9)
        working_set = self._working_set * 1.0  # llc_demand_mb at full load
        shared_ws = np.where(llc_quota <= 0, working_set, 0.0).sum(axis=1)
        has_quota = llc_quota > 0
        ws_positive = working_set > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            evicted_isolated = np.maximum(0.0, 1.0 - llc_quota / working_set)
            share = shared_capacity[:, None] * working_set / shared_ws[:, None]
            evicted_shared = np.maximum(0.0, 1.0 - share / working_set)
        evicted = np.where(
            has_quota,
            np.where(ws_positive, evicted_isolated, 0.0),
            np.where(
                (shared_ws > shared_capacity)[:, None] & ws_positive,
                evicted_shared,
                0.0,
            ),
        )
        miss_inflation = 1.0 + evicted
        bw_term = self._membw_sens * interference.bandwidth_strength * pressure[:, None]
        llc_term = self._llc_sens * interference.llc_strength * evicted
        inflation = 1.0 + bw_term + llc_term

        # --- service dynamics (both regimes, then select) ---------------- #
        service_ms = service_ms_base * inflation
        floor_ms = self._floor_ms * freq_factor * inflation
        mu = 1000.0 / service_ms
        capacity = eff_servers * mu
        stable = offered < 0.995 * capacity

        wait_stable = self._wait_q99_ms(offered, mu, eff_servers)
        overload_backlog = np.clip(
            backlog + (arrivals - capacity) * interval, 0.0, 2.0 * capacity
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            queueing_ms = np.where(
                capacity > 0, 1000.0 * (overload_backlog / capacity), 0.0
            )
        edge_wait = self._wait_q99_ms(0.995 * capacity, mu, eff_servers)
        p99 = np.where(
            stable,
            floor_ms + wait_stable,
            floor_ms + service_ms + np.maximum(queueing_ms, edge_wait),
        )
        new_backlog = np.where(stable, 0.0, overload_backlog)
        throughput = np.where(stable, offered, capacity)

        # --- shared-RNG noise block -------------------------------------- #
        lat_draws = 1 if self.config.latency_noise_std > 0 else 0
        tel_draws = len(COUNTER_NAMES) if self.config.telemetry_noise_std > 0 else 0
        block = lat_draws + tel_draws
        total_draws = S * block + 1
        z = np.empty((E, total_draws))
        for rng, row in zip(self._rngs, z):
            rng.standard_normal(out=row)
        per_service = z[:, : S * block].reshape(E, S, block)
        if lat_draws:
            p99 = p99 * np.exp(self.config.latency_noise_std * per_service[:, :, 0])

        mean_ms = (
            floor_ms / 3.0
            + (p99 - floor_ms) / 4.6
            + service_ms / np.maximum(eff_servers, 1.0)
        )
        busy = np.minimum(offered, capacity) * service_ms / 1000.0 * interval
        utilization = np.clip(busy / (capacities * interval), 0.0, 1.0)
        instructions = throughput * interval * self._instr_per_req * 1e6
        membw_out = throughput * self._membw_per_req / 1024.0

        # --- telemetry ---------------------------------------------------- #
        spin_seconds = np.maximum(
            self._aiu * (capacities * interval - busy), 0.0
        )
        active_seconds = busy + spin_seconds
        core_cycles = active_seconds * freq * 1e9
        ref_cycles = active_seconds * 2.0e9
        spin_cycles = spin_seconds * freq * 1e9
        spin_instr = spin_cycles * 0.8
        spin_branches = spin_instr * 0.30
        kilo_instr = instructions / 1000.0
        branch_instr = instructions * self._bpi + spin_branches
        branch_misses = instructions * self._bpi * self._bmr + spin_branches * 0.001
        total_instr = instructions + spin_instr
        counters = np.stack(
            [
                core_cycles,
                total_instr,
                core_cycles,
                ref_cycles,
                total_instr * self._uops,
                branch_instr,
                branch_misses,
                branch_misses,
                kilo_instr * self._llc_mpki * miss_inflation,
                kilo_instr * self._l1d_mpki,
                kilo_instr * self._l1i_mpki,
            ],
            axis=-1,
        )  # (E, S, 11) in COUNTER_NAMES order, the order the scalar
        # TelemetrySynthesizer builds, and so noises, them.
        if tel_draws:
            tel_z = per_service[:, :, lat_draws:]
            counters = counters * (1.0 + self.config.telemetry_noise_std * tel_z)
        counters = np.maximum(counters, 0.0)

        # --- ground-truth power and RAPL ---------------------------------- #
        effective_util = utilization + self._aiu * (1.0 - utilization)
        core_util = np.clip(
            (membership * effective_util[:, :, None]).sum(axis=1), 0.0, 1.0
        )
        allocated = membership.any(axis=1)
        core_freq = self._ladder[freq_index]
        voltage = self.spec.voltage_base_v + self.spec.voltage_slope * core_freq
        dynamic_per_core = np.where(
            allocated,
            self.spec.dynamic_coeff * voltage * voltage * core_freq * core_util,
            0.0,
        )
        if self.config.hotplug_unused:
            online_count = allocated.sum(axis=1)
        else:
            online_count = np.full(E, C)
        true_power = (
            self.spec.idle_power_w
            + self.spec.core_static_w * online_count
            + dynamic_per_core.sum(axis=1)
            + self.spec.uncore_bw_w * np.clip(bw_util, 0.0, 1.0)
        )
        rapl_noise = 1.0 + self.config.rapl_noise_std * z[:, -1]
        readings = np.maximum(true_power * rapl_noise, 0.0)

        # --- engine state ------------------------------------------------ #
        # Replaced, never written in place: the batch below hands these
        # arrays out read-only. No result object is built here (see
        # StepBatch) except for the faulted and traced nodes below.
        energy = self._energy + readings * interval
        clock = self._clock + 1
        self._backlog, self._energy, self._clock = new_backlog, energy, clock
        self._reading = readings

        arrays = {
            "arrivals": arrivals,
            "throughput": throughput,
            "p99": p99,
            "mean_ms": mean_ms,
            "utilization": utilization,
            "capacity": capacity,
            "backlog": new_backlog,
            "cores": capacities,
            "frequency_ghz": freq.copy(),
            "inflation": inflation,
            "miss_inflation": miss_inflation,
            "membw_gbps": membw_out,
            "busy_core_seconds": busy,
            "instructions": instructions,
            "counters": counters,
            "qos_target": self._qos_target,
            "power_w": readings,
            "true_power_w": true_power,
            "membw_utilization": bw_util,
            "energy_j": energy,
            "time": clock,
        }
        eager: Dict[int, StepResult] = {}
        traced = self.trace.enabled
        visit = (
            range(E) if traced
            else [e for e, injector in enumerate(self.faults) if injector is not None]
        )
        for e in visit:
            injector, time = self.faults[e], int(clock[e])
            pending = injector is not None and injector.active_at(time)
            if not pending and not traced:
                continue
            observations = _build_observations(self.names, interval, arrays, e)
            applied = []
            if pending:
                # Same ordering as the scalar path: injected after
                # power/RAPL, so sensor faults corrupt what the manager
                # *sees*, not what the machine drew. The node's injector
                # RNG is consumed here, draw-for-draw with the oracle. No
                # service objects are passed: a crash's cleared backlog
                # reaches the engine's backlog array below.
                observations, applied = injector.apply(time, observations, {})
                # Copy the faulted interval into the fused arrays, so
                # downstream feedback (_post_step, cluster NodeLoads, the
                # array control plane's monitor bank) and ``batch.arrays``
                # read what ``batch[e]`` reads.
                for i, name in enumerate(self.names):
                    obs = observations[name]
                    for field, key in _FIELD_ARRAYS.items():
                        arrays[key][e, i] = getattr(obs.interval, field)
                    counters[e, i] = [obs.pmcs[counter] for counter in COUNTER_NAMES]
            step_result = StepResult(
                time=time,
                observations=observations,
                socket_power_w=float(readings[e]),
                true_power_w=float(true_power[e]),
                membw_utilization=float(bw_util[e]),
                energy_j=float(energy[e]),
            )
            eager[e] = step_result
            if traced:
                emit_step_events(
                    self.trace, self._streaks[e], step_result, applied,
                    **{self.index_tag: e},
                )
        batch = StepBatch(self.names, interval, arrays)
        for e, step_result in eager.items():
            batch.set_result(e, step_result)
        self._post_step(batch, arrays)
        return batch

    def _gather_arrivals(self) -> np.ndarray:
        """Arrival rates ``(E, S)`` for the interval about to be simulated.

        The default consumes each load generator's private RNG stream
        exactly as the scalar path does (one jitter normal per generator,
        in node, then service, order). Subclasses override it to inject
        externally computed rates, e.g. the cluster load balancer's.
        """
        S = len(self.names)
        times = np.repeat(self._clock, S).tolist()
        rates = [load.rate(time) for load, time in zip(self._loads, times)]
        return np.array(rates, dtype=np.float64).reshape(self.num_envs, S)

    def _post_step(self, results: StepBatch, arrays: Dict[str, np.ndarray]) -> None:
        """Hook called once per :meth:`step` with the finished batch.

        ``arrays`` is ``results.arrays``: the interval's read-only
        ``(E, S)`` / ``(E,)`` matrices (arrivals, throughput, p99,
        utilization, backlog, power_w, true_power_w, membw_utilization)
        so subclasses can build feedback and aggregates without
        re-deriving them or building result objects. The base class does
        nothing.
        """

    def _wait_q99_ms(
        self, arrival: np.ndarray, mu: np.ndarray, servers: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``LCService._stable_wait_q99_ms``."""
        offered = arrival / mu
        p_wait = erlang_c_batch(servers, np.maximum(offered, 0.0))
        p_wait = np.minimum(1.0, p_wait * (1.0 + self._cv2) / 2.0)
        theta = servers * mu - arrival
        with np.errstate(divide="ignore", invalid="ignore"):
            wait = 1000.0 * np.log(p_wait / 0.01) / theta
        wait = np.where(theta <= 0, np.inf, wait)
        wait = np.where(p_wait <= 0.01, 0.0, wait)
        return np.where(arrival <= 0, 0.0, wait)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Per-node trees in the :class:`~repro.sim.environment.NodeState`
        layout, keyed by zero-padded node index. Cores off the server
        socket, which no step pins, are written idle; a node without load
        streams writes each generator's stream as :func:`_never_drawn`."""
        E, S, total = self.num_envs, len(self.names), self.spec.total_cores
        socket = self.config.socket_index
        freq_index = np.zeros((E, total), dtype=np.int64)
        freq_index[:, self._core_ids] = self._m_freq_index
        online = np.ones((E, total), dtype=bool)
        online[:, self._core_ids] = self._m_online
        # Each socket core's pinned services, in sorted-name order.
        order = sorted(range(S), key=self.names.__getitem__)
        ordered = [self.names[i] for i in order]
        pins = self._m_membership[:, order, :].transpose(0, 2, 1).tolist()
        trees = {}
        for e, (time, migrations, energy, reading, backlogs) in enumerate(zip(
            self._clock.tolist(), self._migrations.tolist(), self._energy.tolist(),
            self._reading.tolist(), self._backlog.tolist(),
        )):
            pinned: List[List[str]] = [[] for _ in range(total)]
            for cid, row in zip(self._core_ids, pins[e]):
                pinned[cid] = [name for name, on in zip(ordered, row) if on]
            if self._loads is None:
                loadgen = {name: copy.deepcopy(_never_drawn()) for name in self.names}
            else:
                loadgen = {
                    name: rng_state(load._rng)
                    for name, load in zip(self.names, self._loads[e * S:(e + 1) * S])
                }
            injector = self.faults[e]
            trees[f"{e:04d}"] = node_state_tree(NodeState(
                time=time,
                violation_streaks=self._streaks[e],
                rng=rng_state(self._rngs[e]),
                freq_index=freq_index[e],
                online=online[e],
                pinned=pinned,
                migration_counts={
                    name: count for name, count in zip(self.names, migrations) if count
                },
                energy_j=energy,
                last_reading_w=None if math.isnan(reading) else {socket: reading},
                backlogs=dict(zip(self.names, backlogs)),
                loadgen_rng=loadgen,
                faults=None if injector is None else injector.state_dict(),
            ))
        return {"num_envs": E, "envs": trees}

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore every node from a ``state_dict`` tree.

        All or nothing: a tree that fails to load anywhere raises
        ``CheckpointError`` once the state from before the call has been
        restored, so ``state_dict()`` reads as if no load was tried.
        """
        snapshot = self.state_dict()
        try:
            self._load_state(tree)
        except Exception as exc:
            self._load_state(snapshot)
            if isinstance(exc, CheckpointError):
                raise
            raise CheckpointError(f"malformed vector environment checkpoint: {exc}") from exc

    def _load_state(self, tree: Mapping[str, Any]) -> None:
        """Restore from ``tree``; every node is checked before any is
        written, but a bad RNG state raises as it is set."""
        num_envs = int(tree["num_envs"])
        env_trees = dict(tree["envs"])
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint describes {num_envs} environments, batch has {self.num_envs}"
            )
        expected = {f"{e:04d}" for e in range(self.num_envs)}
        if set(env_trees) != expected:
            raise CheckpointError(
                f"vector checkpoint env keys {sorted(env_trees)} do not match "
                f"batch size {self.num_envs}"
            )
        states = [self._node_state(e, env_trees[f"{e:04d}"]) for e in range(self.num_envs)]
        S = len(self.names)
        for e, state in enumerate(states):
            set_rng_state(self._rngs[e], state.rng)
            if self._loads is not None:
                for name, load in zip(self.names, self._loads[e * S:(e + 1) * S]):
                    set_rng_state(load._rng, state.loadgen_rng[name])
            if state.faults is not None:
                self.faults[e].load_state_dict(dict(state.faults))
        cores = self._core_ids
        self._m_membership[:] = [
            [[name in state.pinned[c] for c in cores] for name in self.names]
            for state in states
        ]
        self._m_online[:] = [state.online[cores] for state in states]
        self._m_freq_index[:] = [state.freq_index[cores] for state in states]
        self._migrations[:] = [
            [state.migration_counts.get(name, 0) for name in self.names] for state in states
        ]
        # Trees hold no per-service DVFS or way rows: the next step
        # installs every node in full.
        self._m_level[:] = -1
        socket = self.config.socket_index
        self._backlog = np.array(
            [[state.backlogs[name] for name in self.names] for state in states]
        )
        self._clock = np.array([state.time for state in states], dtype=np.int64)
        self._energy = np.array([state.energy_j for state in states])
        self._reading = np.array([
            np.nan if state.last_reading_w is None else state.last_reading_w[socket]
            for state in states
        ])
        self._streaks = [state.violation_streaks for state in states]

    def _node_state(self, e: int, tree: Mapping[str, Any]) -> NodeState:
        """Node ``e``'s tree, checked and read. The engine has no state for
        a core off the server socket, a service it does not run or a drawn
        stream of a node without load streams, so it refuses a tree that
        gives any (a reading of another RAPL socket fails as a KeyError)."""
        state = parse_node_state(
            tree, self.names, self.names, self.spec.total_cores, len(self._ladder),
            self.faults[e] is not None,
        )
        off = self._off_socket
        if (
            state.freq_index[off].any() or not state.online[off].all()
            or any(state.pinned[c] for c in off)
            or not set(state.migration_counts).union(*state.pinned) <= set(self.names)
            or (self._loads is None
                and any(rng != _never_drawn() for rng in state.loadgen_rng.values()))
        ):
            raise CheckpointError(
                f"node {e} checkpoint pins, clocks up or takes offline a core off "
                f"server socket {self.config.socket_index}, names services other "
                f"than {self.names}, or draws from a load stream the node lacks"
            )
        return state
