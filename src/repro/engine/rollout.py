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
:class:`RunTrace` the scalar loop records, by column from the batch's
matrices; run events carry the environment index (the ``env`` or
``node`` envelope field); and its rolling checkpoint is one
``vector_run`` container holding the fleet manager, all N environments,
the pending assignments, and all N traces, so a vector run resumes
mid-flight bit-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.fleet import FleetTwig
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.runner import (
    RunTrace,
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
#: :class:`RunTrace` series it appends to.
_SERVICE_SERIES = (("p99", "p99_ms"), ("arrivals", "arrival_rps"),
                   ("cores", "cores"), ("frequency_ghz", "frequency_ghz"))
_ENV_SERIES = ("power_w", "true_power_w", "membw_utilization")


class FleetRun:
    """:func:`run_fleet`'s side of :func:`~repro.experiments.runner.run_loop`:
    ``update_batch`` once a tick, every environment's :class:`RunTrace`
    recorded by column, and the ``vector_run`` checkpoint tree."""

    kind = VECTOR_RUN_CKPT_KIND

    def __init__(self, manager: FleetTwig, venv: VectorEnvironment) -> None:
        if manager.num_envs != venv.num_envs:
            raise ConfigurationError(
                f"manager controls {manager.num_envs} environments, "
                f"vector batch has {venv.num_envs}"
            )
        self.update = manager.update_batch
        self.keys = [f"{e:04d}" for e in range(venv.num_envs)]
        self.tags = [{venv.index_tag: e} for e in range(venv.num_envs)]
        self._names = venv.service_names
        self._bind([RunTrace.for_env(manager.name, venv) for _ in self.keys])

    def _bind(self, traces: List[RunTrace]) -> None:
        self.traces = traces
        # Every recorded list in row-major (env, service) order, so a
        # tick's (E, S) matrices append in one flat pass per series.
        self._columns = [
            (key, [getattr(t.services[name], series) for t in traces for name in self._names])
            for key, series in _SERVICE_SERIES
        ] + [(key, [getattr(t, key) for t in traces]) for key in _ENV_SERIES]

    def record(self, results) -> None:
        # Recorded from the batch's matrices, so no StepResult is built;
        # the values equal the result objects' fields.
        arrays = results.arrays
        for key, lists in self._columns:
            for values, value in zip(lists, arrays[key].ravel().tolist()):
                values.append(value)

    def tree(self, manager, venv, loop, assignments) -> Dict[str, Any]:
        loop["num_envs"] = len(self.keys)
        loop["assignments"] = {
            key: _serialize_assignments(a) for key, a in zip(self.keys, assignments)
        }
        return {"manager": manager.state_dict(), "envs": venv.state_dict(), "loop": loop,
                "traces": {key: _serialize_trace(t) for key, t in zip(self.keys, self.traces)}}

    def stage(self, tree, loop, manager_name: str):
        num_envs = int(loop["num_envs"])
        assignments_tree = dict(loop["assignments"])
        traces_tree = dict(tree["traces"])
        if num_envs != len(self.keys):
            raise CheckpointError(
                f"checkpoint has {num_envs} environments, batch has {len(self.keys)}"
            )
        if set(assignments_tree) != set(self.keys) or set(traces_tree) != set(self.keys):
            raise CheckpointError("vector-run checkpoint env keys do not match num_envs")
        assignments = [_deserialize_assignments(dict(assignments_tree[k])) for k in self.keys]
        self._bind([_deserialize_trace(dict(traces_tree[k]), manager_name) for k in self.keys])
        return assignments, dict(tree["manager"]), dict(tree["envs"])

    def finish(self, venv: VectorEnvironment) -> List[RunTrace]:
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
    each tick is timed as ``env.step``, ``loop.record`` (the
    per-environment ``RunTrace`` appends) and ``manager.update``.
    """
    return run_loop(
        manager, venv, steps, FleetRun(manager, venv), None, obs,
        checkpoint_every, checkpoint_dir, resume_from,
    )
