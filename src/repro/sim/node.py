"""One simulated server as the vector engine steps it: its config, what
an interval returns, the capacity kernel, its checkpoint layout and its
step events.

:class:`~repro.engine.vector_env.VectorEnvironment` steps N such servers
as arrays, and :class:`~repro.sim.environment.ColocationEnvironment`, the
paper loop's server, is its one-node case. Both hand out
:class:`StepResult` objects, write each server's state as a
:class:`NodeState` tree and emit :func:`emit_step_events`; task managers
read a tick through :func:`result_arrays`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.obs.events import make_event
from repro.obs.sink import TraceSink
from repro.pmc.counters import COUNTER_NAMES
from repro.server.spec import ServerSpec
from repro.services.service import IntervalResult

class PinTerms(NamedTuple):
    """What :func:`effective_capacity_matrix` reads of a placement.

    They change only when pins or online flags do, so the vector engine
    keeps them per node and rebuilds a node's rows at install.
    """

    #: ``(..., S, C)`` float64: 1.0 where service s is pinned to core c.
    pins: np.ndarray
    #: ``(..., C)``: each core's share floor ``1/max(k, 1)``, k its pinned services.
    floor: np.ndarray
    #: ``(..., S, C)`` bool: core c gives service s nothing (unpinned or offline).
    idle: np.ndarray


def pin_terms(membership: np.ndarray, online: np.ndarray) -> PinTerms:
    """The :class:`PinTerms` of a boolean ``(..., S, C)`` pin matrix and a
    boolean ``(..., C)`` core-online mask."""
    membership = np.asarray(membership, dtype=bool)
    online = np.asarray(online, dtype=bool)
    return PinTerms(
        pins=membership.astype(np.float64),
        floor=1.0 / np.maximum(membership.sum(axis=-2), 1),
        idle=~(membership & online[..., None, :]),
    )


def service_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-2)`` over a ``(..., S, C)`` array, bit for bit.

    numpy reduces that axis by adding the service rows one after another
    onto 0.0; these are the same adds, without the strided reduction's
    overhead.
    """
    total = np.add(0.0, terms[..., 0, :])
    for s in range(1, terms.shape[-2]):
        total += terms[..., s, :]
    return total


def effective_capacity_matrix(terms: PinTerms, per_core_demand: np.ndarray) -> np.ndarray:
    """Demand-aware timeshared core-equivalents, fully vectorized.

    ``terms`` describe a ``(..., S, C)`` placement (:func:`pin_terms`)
    and ``per_core_demand`` is the ``(..., S)`` per-core busy demand of
    each service. Per shared core, service i's usable share is
    ``clip(1 - sum of co-runners' demand, 1/k, 1)`` where k is the number
    of services pinned to the core; offline or unpinned cores contribute
    nothing. Returns the ``(..., S)`` core-equivalents, floored at 1e-6.

    The vector engine calls it once per tick over every node. Only the
    demand changes from tick to tick; the engine keeps each node's
    ``terms`` from its install. The clip is ``minimum(maximum(x, floor),
    1)``, the order ``np.clip`` takes with an array bound.
    """
    demand = np.asarray(per_core_demand, dtype=np.float64)[..., :, None]
    share = service_sum(terms.pins * demand)[..., None, :] - demand   # others' demand
    np.subtract(1.0, share, out=share)
    np.maximum(share, terms.floor[..., None, :], out=share)
    np.minimum(share, 1.0, out=share)
    np.copyto(share, 0.0, where=terms.idle)
    return np.maximum(share.sum(axis=-1), 1e-6)


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
