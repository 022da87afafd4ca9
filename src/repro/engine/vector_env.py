"""Batched lock-step simulation of N colocation environments.

:class:`VectorEnvironment` wraps N homogeneous
:class:`~repro.sim.environment.ColocationEnvironment` instances and
advances all of them through one control interval per :meth:`step` call
with array-shaped math: per-(env x service) arrival/backlog/queueing
state, the batched Erlang-C kernel
(:func:`repro.services.queueing.erlang_c_batch`), vectorized interference
resolution, telemetry synthesis, and the ground-truth power model, all as
``(E, S)`` / ``(E, C)`` NumPy operations.

Draw-for-draw RNG fidelity
--------------------------
The wrapped environments remain the source of truth for service
backlogs, RAPL energy and RNG streams, and the vector step consumes
their RNG streams in exactly the order the scalar
``ColocationEnvironment.step`` would:

- each load generator's *private* RNG draws its jitter normal first
  (one per service, in service order);
- the environment's *shared* RNG then draws, per service in service
  order, one latency normal (iff ``latency_noise_std > 0``) followed by
  eleven telemetry normals (iff ``telemetry_noise_std > 0``), and
  finally one RAPL normal (always).

The shared draws are taken as a single ``standard_normal`` block per
environment, drawn in place into that environment's row of one
``(E, total)`` matrix (``out=row``: no temporary, no copy), and
scattered; ``Generator.normal(0, s)`` equals ``s * standard_normal()``
bitwise, and array draws continue the same stream as repeated scalar
draws, so a wrapped environment's RNG state after a vector step is
identical to the state after a scalar step.

The scalar per-environment path is retained untouched as the
equivalence oracle: stepping the same seeds through
``ColocationEnvironment.step`` reproduces the vector trajectories (see
``tests/test_engine_vector.py``).

Machine state (core pins, per-core DVFS indices, migration counters)
is owned by the engine as ``(E, S, C)`` / ``(E, C)`` / ``(E, S)``
arrays. Assignments are installed without ``Machine.apply``, as pin,
DVFS and way rows: an :class:`~repro.core.mapper.AssignmentBatch` hands
them over as arrays, and its changed rows are picked by one array
compare with the installed rows (so a static fleet's batch, equal
every tick, writes no row after the first); per-env dicts (the PARTIES
and Heracles fleets, a resumed run, tests) are converted into the same
rows by :class:`AssignmentRows`,
each distinct core set validated once and cached as a boolean row, and
an env whose dict equals the one it last installed is skipped. Every
changed environment is then written in one indexing pass with
``Machine.apply``'s arbitration (a core runs at the highest DVFS index
pinned to it, an unpinned core drops to 0, a service's migration counter
grows by ``popcount(old XOR new)``). The wrapped ``Machine`` objects are
read on construction and ``load_state_dict`` and written back only where
they are read (:meth:`VectorEnvironment.sync_machines`, called by
``state_dict`` and ``migration_counts``).

Every numeric formula on the hot path is evaluated once over the whole
batch; the Erlang-C probabilities come from one unmasked Erlang-B table
(:func:`~repro.services.queueing.erlang_c_batch`). What still touches
the wrapped environments' Python objects is one flat pass each over
their services and load generators (backlogs in and out, balancer rates
in) and, per environment, one in-place RNG draw and the RAPL/clock
update.

Results: built only when read
-----------------------------
:meth:`VectorEnvironment.step` returns a :class:`StepBatch`. What is
eager:

- the interval's ``(E, S)`` / ``(E,)`` matrices in ``batch.arrays``,
  which the batch owns and which are read-only, so a batch kept across
  later steps still reads its own interval;
- the result of every env with an active fault or an enabled trace
  sink, built inside ``step`` (the fault injector consumes RNG and
  replaces observations; the trace events read them).

What is built on read: ``batch[e]`` builds env ``e``'s ``StepResult``
with its five scalar fields on first access; its ``observations``
mapping builds the per-service ``ServiceObservation``,
``IntervalResult`` and pmcs objects from the arrays on the first read
of a value, equal field for field to the scalar path's. A result
refers to the arrays, never back to its batch.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapper import AssignmentBatch
from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.server.machine import CoreAssignment
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.services.queueing import erlang_c_batch
from repro.services.service import IntervalResult
from repro.sim.environment import (
    ColocationEnvironment,
    EnvironmentConfig,
    ServiceObservation,
    StepResult,
    effective_capacity_matrix,
)

#: Seed stride between sibling environments created by
#: :meth:`VectorEnvironment.from_services`; large and prime so the
#: derived per-generator seeds of different environments never collide.
ENV_SEED_STRIDE = 100003

#: Validated core sets the dict conversion keeps as pin rows before it
#: starts over; a 256-node learning fleet used about 340 in 150 ticks.
_ROW_CACHE_LIMIT = 4096

#: Raw counter names in the exact order ``TelemetrySynthesizer.synthesize``
#: builds (and therefore noises) them.
_COUNTER_ORDER = (
    "UNHALTED_CORE_CYCLES",
    "INSTRUCTION_RETIRED",
    "PERF_COUNT_HW_CPU_CYCLES",
    "UNHALTED_REFERENCE_CYCLES",
    "UOPS_RETIRED",
    "BRANCH_INSTRUCTIONS_RETIRED",
    "MISPREDICTED_BRANCH_RETIRED",
    "PERF_COUNT_HW_BRANCH_MISSES",
    "LLC_MISSES",
    "PERF_COUNT_HW_CACHE_L1D",
    "PERF_COUNT_HW_CACHE_L1I",
)


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
            pmcs=dict(zip(_COUNTER_ORDER, counters)),
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
    observations; trace events read them) and installed with
    :meth:`set_result`.
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


class AssignmentRows:
    """Checks assignment input and turns it into pin, DVFS and way rows.

    The engine installs from ``(E, S, C)`` pin rows over the socket's
    cores ``core_ids`` and ``(E, S)`` DVFS and way rows of the services
    ``names``; :meth:`changes` hands it the rows of the envs whose
    assignment changed. An :class:`~repro.core.mapper.AssignmentBatch`
    already is rows, compared with the current ones in one array pass.
    Per-env ``name -> CoreAssignment`` dicts are converted: each distinct
    core set is validated once and kept as a boolean row, and an env
    whose dict equals the one it last converted is skipped until
    :meth:`forget` (its rows changed some other way). Bad input raises
    the ``AllocationError`` the scalar path raises for it, before
    anything is recorded.
    """

    def __init__(
        self, names: Sequence[str], core_ids: Sequence[int], socket_index: int,
        num_levels: int, num_envs: int,
    ):
        self.names = list(names)
        self.core_ids = list(core_ids)
        self.socket_index = socket_index
        self.num_levels = num_levels
        self._column = {cid: j for j, cid in enumerate(self.core_ids)}
        self._applied: List[Optional[Dict[str, CoreAssignment]]] = [None] * num_envs
        # Validated core sets: core-id tuple -> index of its pin row in
        # the boolean (rows, C) table ``_rows``.
        self._row_ids: Dict[tuple, int] = {}
        self._rows = np.zeros((16, len(self.core_ids)), dtype=bool)

    def forget(self) -> None:
        """Convert every env's next dict, equal to its last one or not."""
        self._applied = [None] * len(self._applied)

    def changes(
        self,
        assignments: Sequence[Mapping[str, CoreAssignment]],
        pins: np.ndarray,
        level: np.ndarray,
        ways: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The envs whose assignment changed, with their new pin, DVFS and
        way rows; ``pins``, ``level`` and ``ways`` are the current rows."""
        if not isinstance(assignments, AssignmentBatch):
            return self._convert(assignments)
        self._check_batch(assignments)
        changed = np.flatnonzero(
            (assignments.pins != pins).any(axis=(1, 2))
            | (assignments.freq != level).any(axis=1)
            | (assignments.ways != ways).any(axis=1)
        )
        if changed.size:
            # The changed rows no longer hold the dicts last converted.
            self.forget()
        return (
            changed, assignments.pins[changed], assignments.freq[changed],
            assignments.ways[changed],
        )

    def _check_batch(self, batch: AssignmentBatch) -> None:
        """Refuse a batch for other services (or in another column order)
        or another socket, a service pinned to no core, or a DVFS index
        off the ladder."""
        if list(batch.names) != self.names:
            raise AllocationError(
                f"assignments for services {list(batch.names)} but the engine "
                f"runs {self.names}, in that order"
            )
        if batch.core_ids.tolist() != self.core_ids:
            raise AllocationError(
                f"assignments pin cores {batch.core_ids.tolist()}, server socket "
                f"{self.socket_index} has cores {self.core_ids}"
            )
        empty = ~batch.pins.any(axis=2)
        if empty.any():
            i = int(np.argwhere(empty)[0, 1])
            raise AllocationError(f"service {self.names[i]!r} assigned zero cores")
        self._check_levels(batch.freq)

    def _convert(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The envs whose dict changed, with their pin, DVFS and way rows."""
        names = self.names
        S = len(names)
        if len(self._row_ids) > _ROW_CACHE_LIMIT:
            self._row_ids.clear()
        row_ids = self._row_ids
        changed: List[int] = []
        snapshots: List[Dict[str, CoreAssignment]] = []
        rows: List[int] = []
        levels: List[int] = []
        ways: List[int] = []
        for e, assignment in enumerate(assignments):
            if assignment == self._applied[e]:
                continue
            try:
                values = [assignment[name] for name in names]
            except KeyError:
                values = None
            if values is None or len(assignment) != S:
                raise AllocationError(
                    f"assignments for {sorted(assignment)} but services are "
                    f"{sorted(names)}"
                )
            for name, a in zip(names, values):
                try:
                    rows.append(row_ids[a.cores])
                except (KeyError, TypeError):  # unseen or unhashable core set
                    rows.append(self._core_row(name, a.cores))
                levels.append(a.freq_index)
                ways.append(a.llc_ways)
            changed.append(e)
            snapshots.append(dict(assignment))
        K = len(changed)
        level = np.array(levels, dtype=np.int64).reshape(K, S)
        self._check_levels(level)
        for e, snapshot in zip(changed, snapshots):
            self._applied[e] = snapshot
        return (
            np.array(changed, dtype=np.int64),
            self._rows[rows].reshape(K, S, len(self.core_ids)),
            level,
            np.array(ways, dtype=np.int64).reshape(K, S),
        )

    def _check_levels(self, level: np.ndarray) -> None:
        out_of_range = (level < 0) | (level >= self.num_levels)
        if out_of_range.any():
            k, i = np.argwhere(out_of_range)[0].tolist()
            raise AllocationError(
                f"service {self.names[i]!r} freq index {level[k, i]} out of "
                f"range [0, {self.num_levels})"
            )

    def _core_row(self, name: str, cores) -> int:
        """Index of ``cores``' pin row, validating a core set not seen yet.

        Raises the ``AllocationError`` the scalar path raises for the same
        set: a core outside the server socket, zero cores, a repeated core.
        """
        key = tuple(cores)
        row = self._row_ids.get(key)
        if row is not None:
            return row
        outside = [c for c in key if c not in self._column]
        if outside:
            raise AllocationError(
                f"service {name!r} assigned cores {outside} outside server "
                f"socket {self.socket_index}"
            )
        if not key:
            raise AllocationError(f"service {name!r} assigned zero cores")
        if len(set(key)) != len(key):
            raise AllocationError(f"service {name!r} repeats cores: {cores}")
        row = len(self._row_ids)
        if row == len(self._rows):
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
        self._rows[row] = False
        self._rows[row, [self._column[c] for c in key]] = True
        self._row_ids[key] = row
        return row


class VectorEnvironment:
    """N homogeneous colocation environments stepped in lock-step.

    Subclass hooks: :meth:`_gather_arrivals` supplies the ``(E, S)``
    arrival-rate matrix for the interval (default: each wrapped
    environment's own load generators), and :meth:`_post_step` observes
    the interval's internal arrays after the batch has been stepped
    (default: no-op). ``index_tag`` names the envelope field used to tag
    emitted trace events with the environment index (``"env"`` here;
    :class:`repro.cluster.environment.ClusterEnvironment` retags as
    ``"node"``).
    """

    #: Envelope field used when tagging per-environment trace events.
    index_tag = "env"

    def __init__(self, envs: Sequence[ColocationEnvironment]):
        if not envs:
            raise ConfigurationError("VectorEnvironment needs at least one environment")
        self.envs: List[ColocationEnvironment] = list(envs)
        self.num_envs = len(self.envs)
        base = self.envs[0]
        self.names: List[str] = list(base.services)
        self.config = base.config
        self.spec = base.spec
        self._validate_homogeneous()

        profiles = [base.services[name].profile for name in self.names]
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
        self._qos_target = np.array(
            [base.services[name].qos_target_ms for name in self.names], dtype=np.float64
        )
        self._qos_target.setflags(write=False)  # handed to every StepBatch
        self._ladder = np.array(
            self.spec.dvfs.frequencies_ghz, dtype=np.float64
        )
        self._core_ids = base.socket_core_ids
        # Every env's services and load generators in row-major
        # (env, service) order, so per-(env, service) state moves to and
        # from the (E, S) matrices in one flat pass.
        self._services = [env.services[name] for env in self.envs for name in self.names]
        self._generators = [
            env.load_generators[name] for env in self.envs for name in self.names
        ]

        #: Optional :class:`~repro.obs.timing.TimingRegistry` wired in by
        #: the rollout loop; subclasses report timing sub-sections here.
        self.timings = None
        # Machine state, owned here as (env x service x socket core)
        # arrays: the wrapped Machine objects are read on construction and
        # load, and written back only where they are read (sync_machines).
        E, S, C = self.num_envs, len(self.names), len(self._core_ids)
        self._m_membership = np.zeros((E, S, C), dtype=bool)
        self._m_online = np.zeros((E, C), dtype=bool)
        self._m_freq_index = np.zeros((E, C), dtype=np.int64)
        self._m_n_cores = np.zeros((E, S))
        self._m_freq = np.zeros((E, S))
        self._m_llc_quota = np.zeros((E, S))
        self._migrations = np.zeros((E, S), dtype=np.int64)
        # The installed rows a batch is compared with: each service's DVFS
        # index and LLC ways, next to its pins in ``_m_membership``.
        self._m_level = np.zeros((E, S), dtype=np.int64)
        self._m_ways = np.zeros((E, S), dtype=np.int64)
        # Per env, whether its Machine lags the arrays.
        self._machine_stale = np.zeros(E, dtype=bool)
        self._inputs = AssignmentRows(
            self.names, self._core_ids, self.config.socket_index, len(self._ladder), E
        )
        self._gather_machines()

    def _gather_machines(self) -> None:
        """Read pins, online flags and migration counters from every
        wrapped Machine; the next step then installs every env in full,
        which rewrites the DVFS, core-count, frequency and LLC rows."""
        online, pins, migrations = [], [], []
        for env in self.envs:
            machine = env.machine
            cores = [machine.cores[cid] for cid in self._core_ids]
            online.append([core.online for core in cores])
            pins.append([[name in core.services for core in cores] for name in self.names])
            migrations.append([machine.migration_counts.get(name, 0) for name in self.names])
        self._m_online[:] = online
        self._m_membership[:] = pins
        self._migrations[:] = migrations
        # A Machine holds no per-service DVFS or way rows: mark them with
        # a level no batch carries, so the next install writes every env.
        self._m_level[:] = -1
        self._inputs.forget()
        self._machine_stale[:] = False

    def sync_machines(self) -> None:
        """Write the engine's machine state back into the wrapped envs.

        ``venv.envs[e].machine`` is current only after this call;
        :meth:`state_dict` and :meth:`migration_counts` make it first.
        """
        for e in np.flatnonzero(self._machine_stale).tolist():
            machine = self.envs[e].machine
            pins = self._m_membership[e].T.tolist()
            levels = self._m_freq_index[e].tolist()
            for cid, pinned, level in zip(self._core_ids, pins, levels):
                core = machine.cores[cid]
                core.services = {name for name, on in zip(self.names, pinned) if on}
                core.freq_index = level
            counts = machine.migration_counts
            for name, count in zip(self.names, self._migrations[e].tolist()):
                if count or name in counts:
                    counts[name] = count
        self._machine_stale[:] = False

    def _install_assignments(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> None:
        """Validate every changed assignment, then write them in one pass.

        A batch's changed rows are those whose pins, DVFS indices or ways
        differ from the installed ones; a dict equal to the one its env
        last installed is skipped. The changed envs are written together,
        as ``Machine.apply`` would: a core runs at the highest DVFS index
        pinned to it, an unpinned core drops to 0, and each service's
        migration counter grows by the cores entering or leaving its set.
        Nothing is written unless every env validates.
        """
        changed, pins, level, ways = self._inputs.changes(
            assignments, self._m_membership, self._m_level, self._m_ways
        )
        if not changed.size:
            return
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
        self._machine_stale[changed] = True

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
        """Build N sibling environments with deterministic per-env seeding.

        Environment ``e`` uses base seed ``seed + e * ENV_SEED_STRIDE``
        and then follows the same recipe as
        :func:`repro.experiments.common.make_environment` (env RNG at the
        base seed, load generator ``i`` at ``base + 101 + i``), so
        environment 0 of a vector run is seed-for-seed identical to a
        scalar run at ``seed``.
        """
        if num_envs <= 0:
            raise ConfigurationError(f"num_envs must be positive, got {num_envs}")
        envs = [
            make_sibling_environment(
                services, load_fractions, seed + e * ENV_SEED_STRIDE, config, qos_targets
            )
            for e in range(num_envs)
        ]
        return cls(envs)

    def _validate_homogeneous(self) -> None:
        base = self.envs[0]
        for e, env in enumerate(self.envs):
            if list(env.services) != self.names:
                raise ConfigurationError(
                    f"environment {e} hosts services {list(env.services)}, "
                    f"environment 0 hosts {self.names}"
                )
            if env.config != base.config:
                raise ConfigurationError(
                    f"environment {e} config differs from environment 0; "
                    "vector batches must be homogeneous"
                )
            for name in self.names:
                if env.services[name].profile != base.services[name].profile:
                    raise ConfigurationError(
                        f"environment {e} profile for {name!r} differs from environment 0"
                    )
                if env.services[name].qos_target_ms != base.services[name].qos_target_ms:
                    raise ConfigurationError(
                        f"environment {e} QoS target for {name!r} differs from environment 0"
                    )

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
        return self.envs[0].time

    def max_power_w(self) -> float:
        """Socket power cap shared by every sibling environment."""
        return self.envs[0].max_power_w()

    def qos_target_of(self, name: str) -> float:
        """p99 QoS target (ms) for ``name`` — validated equal across envs."""
        return self.envs[0].qos_target_of(name)

    def profile_of(self, name: str):
        """The :class:`ServiceProfile` for ``name`` (same in every env)."""
        return self.envs[0].profile_of(name)

    @property
    def trace(self):
        """The trace sink the wrapped environments emit into."""
        return self.envs[0].trace

    def attach_obs(self, trace, timings) -> None:
        """Point every wrapped environment at ``trace``, and keep
        ``timings`` for the sections a subclass reports."""
        for env in self.envs:
            env.trace = trace
        self.timings = timings

    def migration_counts(self) -> List[Dict[str, int]]:
        """Per-env service migration counters (for final run traces)."""
        self.sync_machines()
        return [dict(env.machine.migration_counts) for env in self.envs]

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> StepBatch:
        """Install per-env assignments and advance every env one interval."""
        if len(assignments) != self.num_envs:
            raise ConfigurationError(
                f"got assignments for {len(assignments)} environments, "
                f"batch has {self.num_envs}"
            )
        E, S, C = self.num_envs, len(self.names), len(self._core_ids)
        interval = self.config.interval_s

        # Control plane: validate and install every changed placement in
        # one array pass (unchanged assignments are skipped).
        self._install_assignments(assignments)
        membership = self._m_membership
        online = self._m_online
        freq_index = self._m_freq_index
        n_cores = self._m_n_cores
        freq = self._m_freq
        llc_quota = self._m_llc_quota

        arrivals = self._gather_arrivals()
        backlog = np.fromiter(
            map(attrgetter("backlog"), self._services), dtype=np.float64, count=E * S
        ).reshape(E, S)

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
        interference = self.envs[0].interference
        membw_expected = expected * self._membw_per_req / 1024.0
        bw_util = membw_expected.sum(axis=1) / interference.membw_capacity_gbps
        pressure = np.array(
            list(map(interference._bandwidth_pressure, bw_util.tolist()))
        )
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
        tel_draws = len(_COUNTER_ORDER) if self.config.telemetry_noise_std > 0 else 0
        block = lat_draws + tel_draws
        total_draws = S * block + 1
        z = np.empty((E, total_draws))
        for env, row in zip(self.envs, z):
            env._rng.standard_normal(out=row)
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
        )  # (E, S, 11)
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

        # --- scatter state back into the wrapped environments -------------- #
        # Backlogs go back in one pass over the flat (env, service) list,
        # RAPL energy and clocks per env. No result object is built here
        # (see StepBatch) except for the faulted and traced envs below.
        for service, value in zip(self._services, new_backlog.ravel().tolist()):
            service.backlog = value
        socket = self.config.socket_index
        times: List[int] = []
        energy: List[float] = []
        for env, reading in zip(self.envs, readings.tolist()):
            rapl = env.rapl
            rapl.energy_j += reading * interval
            rapl.last_reading_w = {socket: reading}
            env.time += 1
            times.append(env.time)
            energy.append(rapl.energy_j)

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
            "energy_j": np.array(energy),
            "time": np.array(times, dtype=np.int64),
        }
        eager: Dict[int, StepResult] = {}
        for e, env in enumerate(self.envs):
            pending = (
                env.faults is not None and env.faults.active_at(env.time)
            )
            if not pending and not env.trace.enabled:
                continue
            observations = _build_observations(self.names, interval, arrays, e)
            applied = []
            if pending:
                # Same ordering as the scalar path: injected after
                # power/RAPL, so sensor faults corrupt what the manager
                # *sees*, not what the machine drew. The per-env injector
                # RNG is consumed here, draw-for-draw with the oracle.
                observations, applied = env.faults.apply(
                    env.time, observations, env.services
                )
                # Refresh the fused arrays so downstream feedback
                # (_post_step, cluster NodeLoads, the array control
                # plane's monitor bank) sees the faulted view.
                for i, name in enumerate(self.names):
                    obs = observations[name]
                    throughput[e, i] = obs.interval.throughput_rps
                    p99[e, i] = obs.p99_ms
                    utilization[e, i] = obs.interval.utilization
                    new_backlog[e, i] = obs.interval.backlog
                    for c, counter in enumerate(_COUNTER_ORDER):
                        counters[e, i, c] = obs.pmcs[counter]
            step_result = StepResult(
                time=env.time,
                observations=observations,
                socket_power_w=float(readings[e]),
                true_power_w=float(true_power[e]),
                membw_utilization=float(bw_util[e]),
                energy_j=env.rapl.energy_j,
            )
            eager[e] = step_result
            if env.trace.enabled:
                env._emit_step_events(step_result, applied, **{self.index_tag: e})
        batch = StepBatch(self.names, interval, arrays)
        for e, step_result in eager.items():
            batch.set_result(e, step_result)
        self._post_step(batch, arrays)
        return batch

    def _gather_arrivals(self) -> np.ndarray:
        """Arrival rates ``(E, S)`` for the interval about to be simulated.

        The default consumes each load generator's private RNG stream
        exactly as the scalar path does (one jitter normal per generator,
        in service order). Subclasses may override to inject externally
        computed rates — e.g. the cluster load balancer — as long as the
        replacement preserves each environment's RNG-draw ordering.
        """
        arrivals = np.empty((self.num_envs, len(self.names)))
        for e, env in enumerate(self.envs):
            for i, name in enumerate(self.names):
                arrivals[e, i] = env.load_generators[name].rate(env.time)
        return arrivals

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
        """Per-env state trees, keyed by zero-padded env index, with every
        wrapped env's machine synced first."""
        self.sync_machines()
        return {
            "num_envs": self.num_envs,
            "envs": {f"{e:04d}": env.state_dict() for e, env in enumerate(self.envs)},
        }

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore every sibling environment from a ``state_dict`` tree.

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
        """Restore from ``tree``; a bad tree can raise after a partial write."""
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
        for e, env in enumerate(self.envs):
            env.load_state_dict(dict(env_trees[f"{e:04d}"]))
        self._gather_machines()


def make_sibling_environment(
    services: Sequence[str],
    load_fractions: Mapping[str, float],
    seed: int,
    config: Optional[EnvironmentConfig] = None,
    qos_targets: Optional[Mapping[str, float]] = None,
) -> ColocationEnvironment:
    """One scalar environment following the standard experiment recipe.

    Mirrors :func:`repro.experiments.common.make_environment`: the env RNG
    sits at ``seed`` and load generator ``i`` at ``seed + 101 + i``, so
    the same seed produces the same trajectory whether the environment is
    stepped standalone (the oracle) or inside a vector batch.
    """
    if not services:
        raise ConfigurationError("need at least one service")
    profiles = [get_profile(name) for name in services]
    generators = {}
    for i, profile in enumerate(profiles):
        fraction = load_fractions.get(profile.name, 0.5)
        generators[profile.name] = ConstantLoad(
            profile.max_load_rps,
            fraction,
            rng=np.random.default_rng(seed + 101 + i),
        )
    return ColocationEnvironment(
        config or EnvironmentConfig(),
        profiles,
        generators,
        np.random.default_rng(seed),
        qos_targets=qos_targets,
    )
