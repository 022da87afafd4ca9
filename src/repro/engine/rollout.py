"""Lock-step rollout loop for the vectorized engine.

Drives a :class:`~repro.core.fleet.FleetTwig` against a
:class:`~repro.engine.vector_env.VectorEnvironment` through the same loop
core that drives one manager against one scalar environment
(:func:`repro.experiments.runner.run_loop`):

    assignments = manager.initial_assignments()          # one AssignmentBatch
    loop:
        results = venv.step(assignments)                 # one fused step
        assignments = manager.update_batch(results)      # one fused tick

Only :class:`FleetRun` is its own: it records every environment's
series by column, one ``(steps, E, S)`` or ``(steps, E)`` array per
series with one row a tick from the batch's matrices, and hands each
environment a :class:`RunTrace` whose series are views of those columns;
run events carry the environment index (the ``env`` or ``node`` envelope
field); and its rolling checkpoint is one ``vector_run`` container
holding the fleet manager, all N environments, the pending assignments
(one ``name -> assignment`` tree per environment, converted back into
one :class:`~repro.core.mapper.AssignmentBatch` and checked when a
resume stages it), and the traces as seven stacked arrays, so a vector
run resumes mid-flight bit-identically.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.fleet import FleetTwig
from repro.core.mapper import AssignmentBatch
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.runner import (
    RUN_SERIES,
    SERVICE_SERIES,
    RunTrace,
    ServiceTrace,
    _deserialize_assignments,
    _deserialize_trace,
    _serialize_assignments,
    run_loop,
)
from repro.obs.context import ObsContext

#: Checkpoint kind written by :func:`run_fleet` (additive: a new kind tag,
#: not a container-format change).
VECTOR_RUN_CKPT_KIND = "vector_run"

#: Batch matrices recorded per (env, service), in the order of the
#: :class:`RunTrace` series they fill (``SERVICE_SERIES``); the per-env
#: matrices carry the names of theirs (``RUN_SERIES``).
_SERVICE_COLUMNS = ("p99", "arrivals", "cores", "frequency_ghz")


def _column(shape) -> np.ndarray:
    """A float64 array in its own anonymous memory mapping.

    Dropping it unmaps its pages at once. A malloc'd block of this size
    can sit inside the heap (glibc raises its mmap threshold as a run
    frees large arrays), where it stays resident after it is freed:
    measured as 1.2 MB more peak RSS on a 256-node, 40-tick learning
    fleet (Linux, glibc, 2-CPU box).
    """
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count, 1) * 8)
    return np.frombuffer(buffer, dtype=np.float64, count=count).reshape(shape)


def _header(trace: RunTrace) -> RunTrace:
    """``trace`` without its series: manager, services and their QoS
    targets, and interval."""
    services = {
        name: ServiceTrace(qos_target_ms=s.qos_target_ms)
        for name, s in trace.services.items()
    }
    return RunTrace(trace.manager_name, services, interval_s=trace.interval_s)


class FleetRun:
    """:func:`run_fleet`'s side of :func:`~repro.experiments.runner.run_loop`:
    ``update_batch`` once a tick, every environment's :class:`RunTrace`
    recorded by column, and the ``vector_run`` checkpoint tree.

    A tick writes each series' ``(E, S)`` or ``(E,)`` matrix into row
    ``t`` of one ``(steps, E, S)`` or ``(steps, E)`` array. Nothing is
    copied out of them: :meth:`finish` hands each environment views of
    its slices, and a checkpoint tree stores each column's recorded rows
    as one ``(E, S, t)`` or ``(E, t)`` array.
    """

    kind = VECTOR_RUN_CKPT_KIND

    def __init__(self, manager: FleetTwig, venv: VectorEnvironment, steps: int) -> None:
        if manager.num_envs != venv.num_envs:
            raise ConfigurationError(
                f"manager controls {manager.num_envs} environments, "
                f"vector batch has {venv.num_envs}"
            )
        self.update = manager.update_batch
        E = venv.num_envs
        self.keys = [f"{e:04d}" for e in range(E)]
        self.tags = [{venv.index_tag: e} for e in range(E)]
        self._names = venv.service_names
        self._socket = venv.spec, venv.config.socket_index
        # Every environment's trace without its series: services, QoS
        # targets and interval.
        self._header = RunTrace.for_env(manager.name, venv)
        shape = (max(steps, 0), E, len(self._names))  # run_loop refuses steps <= 0
        self._columns = {key: _column(shape) for key in _SERVICE_COLUMNS}
        self._columns.update((key, _column(shape[:2])) for key in RUN_SERIES)
        self._t = 0

    def record(self, results) -> None:
        # Recorded from the batch's matrices, so no StepResult is built;
        # the values equal the result objects' fields.
        arrays, t = results.arrays, self._t
        for key, column in self._columns.items():
            column[t] = arrays[key]
        self._t = t + 1

    def _stacked(self):
        """Each series' recorded rows, ``(E, S, t)`` or ``(E, t)`` views."""
        t, columns = self._t, self._columns
        stacked = {series: columns[key][:t].transpose(1, 2, 0)
                   for key, series in zip(_SERVICE_COLUMNS, SERVICE_SERIES)}
        stacked.update((key, columns[key][:t].T) for key in RUN_SERIES)
        return stacked

    def tree(self, manager, venv, loop, assignments) -> Dict[str, Any]:
        loop["num_envs"] = len(self.keys)
        loop["assignments"] = {
            key: _serialize_assignments(a) for key, a in zip(self.keys, assignments)
        }
        header = self._header
        traces = {
            "header": {
                "service_order": list(header.services),
                "qos_target_ms": [s.qos_target_ms for s in header.services.values()],
                "interval_s": header.interval_s,
            },
            **self._stacked(),
        }
        return {"manager": manager.state_dict(), "envs": venv.state_dict(), "loop": loop,
                "traces": traces}

    def stage(self, tree, loop, manager_name: str):
        num_envs = int(loop["num_envs"])
        next_t = int(loop["next_t"])
        assignments_tree = dict(loop["assignments"])
        traces_tree = dict(tree["traces"])
        if num_envs != len(self.keys):
            raise CheckpointError(
                f"checkpoint has {num_envs} environments, batch has {len(self.keys)}"
            )
        if set(assignments_tree) != set(self.keys):
            raise CheckpointError("vector-run checkpoint env keys do not match num_envs")
        assignments = AssignmentBatch.from_dicts(
            self._names,
            [_deserialize_assignments(dict(assignments_tree[k])) for k in self.keys],
            *self._socket,
        )
        if "header" in traces_tree:
            header, stacked = self._stage_stacked(traces_tree, next_t, manager_name)
        else:
            header, stacked = self._stage_per_node(traces_tree, next_t, manager_name)
        columns = self._columns
        for key, series in zip(_SERVICE_COLUMNS, SERVICE_SERIES):
            columns[key][:next_t] = stacked[series].transpose(2, 0, 1)
        for key in RUN_SERIES:
            columns[key][:next_t] = stacked[key].T
        self._header = header
        self._t = next_t
        return assignments, dict(tree["manager"]), dict(tree["envs"])

    def _stage_stacked(self, traces: Dict[str, Any], next_t: int, manager_name: str):
        """The header and the seven ``(E, S, t)``/``(E, t)`` arrays of a
        stacked ``traces`` subtree, checked against the run."""
        header = dict(traces["header"])
        order = [str(name) for name in header["service_order"]]
        if order != self._names:
            raise CheckpointError(
                f"vector-run traces record services {order}, the batch runs {self._names}"
            )
        targets = [float(q) for q in header["qos_target_ms"]]
        if len(targets) != len(order):
            raise CheckpointError(
                f"vector-run traces hold {len(targets)} QoS targets for {len(order)} services"
            )
        E, S = len(self.keys), len(order)
        stacked = {}
        for series in SERVICE_SERIES + RUN_SERIES:
            values = np.asarray(traces[series], dtype=np.float64)
            shape = (E, S, next_t) if series in SERVICE_SERIES else (E, next_t)
            if values.shape != shape:
                raise CheckpointError(
                    f"vector-run traces {series} have shape {values.shape}, "
                    f"{E} nodes x {S} services resuming at tick {next_t} need {shape}"
                )
            stacked[series] = values
        services = {name: ServiceTrace(qos_target_ms=q) for name, q in zip(order, targets)}
        return RunTrace(manager_name, services, interval_s=float(header["interval_s"])), stacked

    def _stage_per_node(self, traces: Dict[str, Any], next_t: int, manager_name: str):
        """The header and stacked arrays of a ``traces`` subtree with one
        trace per node (checkpoint versions 1 and 2)."""
        if set(traces) != set(self.keys):
            raise CheckpointError("vector-run checkpoint env keys do not match num_envs")
        per_node = [_deserialize_trace(dict(traces[k]), manager_name) for k in self.keys]
        for env_key, trace in zip(self.keys, per_node):
            if list(trace.services) != self._names:
                raise CheckpointError(
                    f"vector-run trace {env_key} records services {list(trace.services)}, "
                    f"the batch runs {self._names}"
                )
            lengths = {len(getattr(s, series)) for s in trace.services.values()
                       for series in SERVICE_SERIES}
            lengths |= {len(getattr(trace, key)) for key in RUN_SERIES}
            if lengths != {next_t}:
                raise CheckpointError(
                    f"vector-run trace {env_key} has series of {sorted(lengths)} ticks, "
                    f"the run resumes at tick {next_t}"
                )
        header = _header(per_node[0])
        for env_key, trace in zip(self.keys, per_node):
            if _header(trace) != header:
                raise CheckpointError(
                    f"vector-run trace {env_key} has other QoS targets or interval "
                    f"than trace {self.keys[0]}"
                )
        stacked = {
            series: np.array([[getattr(s, series) for s in trace.services.values()]
                              for trace in per_node])
            for series in SERVICE_SERIES
        }
        stacked.update((key, np.array([getattr(trace, key) for trace in per_node]))
                       for key in RUN_SERIES)
        return header, stacked

    def finish(self, venv: VectorEnvironment) -> List[RunTrace]:
        header, stacked = self._header, self._stacked()
        traces = []
        for e, counts in enumerate(venv.migration_counts()):
            services = {
                name: ServiceTrace(qos_target_ms=s.qos_target_ms,
                                   **{key: stacked[key][e, i] for key in SERVICE_SERIES})
                for i, (name, s) in enumerate(header.services.items())
            }
            traces.append(RunTrace(
                header.manager_name, services, migrations=counts,
                interval_s=header.interval_s, **{key: stacked[key][e] for key in RUN_SERIES},
            ))
        return traces


def run_fleet(
    manager: FleetTwig,
    venv: VectorEnvironment,
    steps: int,
    obs: Optional[ObsContext] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> List[RunTrace]:
    """Drive ``manager`` over all of ``venv`` for ``steps`` intervals.

    Returns one :class:`RunTrace` per environment (index order). The
    trace sink, timing registry, checkpoint cadence and resume are those
    of :func:`repro.experiments.runner.run_manager`, from the same loop:
    an explicit ``obs`` wins, otherwise the ambient context applies, and
    each tick is timed as ``env.step``, ``loop.record`` (one array row
    per recorded series) and ``manager.update``.
    """
    return run_loop(
        manager, venv, steps, FleetRun(manager, venv, steps), None, obs,
        checkpoint_every, checkpoint_dir, resume_from,
    )
