"""Lock-step rollout loop for the vectorized engine.

Drives a :class:`~repro.core.fleet.FleetTwig` against a
:class:`~repro.engine.vector_env.VectorEnvironment` through the same loop
core that drives one manager against one scalar environment
(:func:`repro.experiments.runner.run_loop`):

    assignments = manager.initial_assignments()          # per env
    loop:
        results = venv.step(assignments)                 # one fused step
        assignments = manager.update_batch(results)      # one fused tick

Only :class:`FleetRun` is its own: per environment it records the same
:class:`RunTrace` the scalar loop records, one whole column per series a
tick from the batch's matrices, and builds the per-environment lists
once, at the end; run events carry the environment index (the ``env``
or ``node`` envelope field); and its rolling checkpoint is one
``vector_run`` container holding the fleet manager, all N environments,
the pending assignments, and all N traces, so a vector run resumes
mid-flight bit-identically.
"""

from __future__ import annotations

import dataclasses
import mmap
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.fleet import FleetTwig
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.runner import (
    RunTrace,
    ServiceTrace,
    _deserialize_assignments,
    _deserialize_trace,
    _serialize_assignments,
    _serialize_trace,
    run_loop,
)
from repro.obs.context import ObsContext

#: Checkpoint kind written by :func:`run_fleet` (additive: a new kind tag,
#: not a container-format change).
VECTOR_RUN_CKPT_KIND = "vector_run"

#: Batch matrices recorded per (env, service) and per env, each with the
#: :class:`RunTrace` series it fills.
_SERVICE_SERIES = (("p99", "p99_ms"), ("arrivals", "arrival_rps"),
                   ("cores", "cores"), ("frequency_ghz", "frequency_ghz"))
_ENV_SERIES = ("power_w", "true_power_w", "membw_utilization")


def _column(shape) -> np.ndarray:
    """A float64 array in its own anonymous memory mapping.

    Dropping it unmaps its pages at once. A malloc'd block of this size
    can sit inside the heap (glibc raises its mmap threshold as a run
    frees large arrays), where it stays resident after it is freed, beside
    the trace lists :meth:`FleetRun.finish` builds from it: measured as
    1.2 MB more peak RSS on a 256-node, 40-tick learning fleet (Linux,
    glibc, 2-CPU box).
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
    ``t`` of one ``(steps, E, S)`` or ``(steps, E)`` array. The traces'
    lists are built from those arrays once, by :meth:`finish`; a
    checkpoint tree copies each environment's series out of them.
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
        # Each trace without its series; finish() fills them in.
        self.traces = [RunTrace.for_env(manager.name, venv) for _ in self.keys]
        shape = (max(steps, 0), E, len(self._names))  # run_loop refuses steps <= 0
        self._columns = {key: _column(shape) for key, _ in _SERVICE_SERIES}
        self._columns.update((key, _column(shape[:2])) for key in _ENV_SERIES)
        self._t = 0

    def record(self, results) -> None:
        # Recorded from the batch's matrices, so no StepResult is built;
        # the values equal the result objects' fields.
        arrays, t = results.arrays, self._t
        for key, column in self._columns.items():
            column[t] = arrays[key]
        self._t = t + 1

    def _trace_so_far(self, e: int) -> RunTrace:
        """Env ``e``'s trace up to now, each series a copy of its column."""
        t, header = self._t, self.traces[e]
        columns = self._columns
        services = {
            name: ServiceTrace(
                qos_target_ms=s.qos_target_ms,
                **{series: columns[key][:t, e, i].copy() for key, series in _SERVICE_SERIES},
            )
            for i, (name, s) in enumerate(header.services.items())
        }
        return dataclasses.replace(
            header, services=services,
            **{key: columns[key][:t, e].copy() for key in _ENV_SERIES},
        )

    def tree(self, manager, venv, loop, assignments) -> Dict[str, Any]:
        loop["num_envs"] = len(self.keys)
        loop["assignments"] = {
            key: _serialize_assignments(a) for key, a in zip(self.keys, assignments)
        }
        traces = {key: _serialize_trace(self._trace_so_far(e)) for e, key in enumerate(self.keys)}
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
        if set(assignments_tree) != set(self.keys) or set(traces_tree) != set(self.keys):
            raise CheckpointError("vector-run checkpoint env keys do not match num_envs")
        assignments = [_deserialize_assignments(dict(assignments_tree[k])) for k in self.keys]
        traces = [_deserialize_trace(dict(traces_tree[k]), manager_name) for k in self.keys]
        for env_key, trace in zip(self.keys, traces):
            if list(trace.services) != self._names:
                raise CheckpointError(
                    f"vector-run trace {env_key} records services {list(trace.services)}, "
                    f"the batch runs {self._names}"
                )
            lengths = {len(getattr(s, series)) for s in trace.services.values()
                       for _, series in _SERVICE_SERIES}
            lengths |= {len(getattr(trace, key)) for key in _ENV_SERIES}
            if lengths != {next_t}:
                raise CheckpointError(
                    f"vector-run trace {env_key} has series of {sorted(lengths)} ticks, "
                    f"the run resumes at tick {next_t}"
                )
        columns = self._columns
        for e, trace in enumerate(traces):
            for i, s in enumerate(trace.services.values()):
                for key, series in _SERVICE_SERIES:
                    columns[key][:next_t, e, i] = getattr(s, series)
            for key in _ENV_SERIES:
                columns[key][:next_t, e] = getattr(trace, key)
        self.traces = [_header(trace) for trace in traces]
        self._t = next_t
        return assignments, dict(tree["manager"]), dict(tree["envs"])

    def finish(self, venv: VectorEnvironment) -> List[RunTrace]:
        # Each column is released as soon as its lists are built, so the
        # lists never sit beside every column at once.
        t = self._t
        for key, series in _SERVICE_SERIES:
            rows = self._columns.pop(key)[:t].transpose(1, 2, 0).tolist()
            for trace, row in zip(self.traces, rows):
                for s, values in zip(trace.services.values(), row):
                    setattr(s, series, values)
        for key in _ENV_SERIES:
            rows = self._columns.pop(key)[:t].T.tolist()
            for trace, values in zip(self.traces, rows):
                setattr(trace, key, values)
        for trace, counts in zip(self.traces, venv.migration_counts()):
            trace.migrations = counts
        return self.traces


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
