"""Lock-step rollout loop for the vectorized engine.

Drives a :class:`~repro.core.fleet.FleetTwig` against a
:class:`~repro.engine.vector_env.VectorEnvironment` exactly the way
:func:`repro.experiments.runner.run_manager` drives one manager against
one scalar environment:

    assignments = manager.initial_assignments()          # per env
    loop:
        results = venv.step(assignments)                 # one fused step
        assignments = manager.update_batch(results)      # one fused tick

Per environment it records the same :class:`RunTrace` the scalar loop
records, tags every trace event with the environment index (the ``env``
envelope field), and writes the same kind of rolling full-state
checkpoint — one ``repro.ckpt`` container holding the fleet manager, all
N environments, the pending assignments, and all N traces — so a vector
run resumes mid-flight bit-identically.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.ckpt.checkpoint import load_state, save_state
from repro.core.fleet import FleetTwig
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.runner import (
    RUN_CKPT_NAME,
    RunTrace,
    ServiceTrace,
    _deserialize_assignments,
    _deserialize_trace,
    _serialize_assignments,
    _serialize_trace,
)
from repro.obs.context import ObsContext, current
from repro.obs.events import make_event

#: Checkpoint kind written by :func:`run_fleet` (additive: a new kind tag,
#: not a container-format change).
VECTOR_RUN_CKPT_KIND = "vector_run"


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
    trace sink, timing registry, and checkpoint cadence resolve exactly
    like :func:`repro.experiments.runner.run_manager`: an explicit
    ``obs`` wins, otherwise the ambient context applies. With a timing
    registry, each tick is timed as ``env.step``, ``loop.record`` (the
    per-environment ``RunTrace`` appends) and ``manager.update``.
    """
    if steps <= 0:
        raise ConfigurationError(f"steps must be positive, got {steps}")
    if manager.num_envs != venv.num_envs:
        raise ConfigurationError(
            f"manager controls {manager.num_envs} environments, "
            f"vector batch has {venv.num_envs}"
        )
    obs = obs if obs is not None else current()
    timings = None
    if obs is not None:
        venv.set_trace_sink(obs.sink)
        venv.timings = obs.timings
        timings = obs.timings
        manager.attach_obs(obs.sink, timings)
        if checkpoint_every is None:
            checkpoint_every = obs.checkpoint_every
        if checkpoint_dir is None:
            checkpoint_dir = obs.checkpoint_dir
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ConfigurationError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    if checkpoint_every is not None and checkpoint_dir is None:
        raise ConfigurationError("checkpoint_every requires checkpoint_dir")
    ckpt_path = (
        Path(checkpoint_dir) / RUN_CKPT_NAME if checkpoint_dir is not None else None
    )
    sink = venv.trace_sink
    first_t = 0
    if resume_from is not None:
        resume_path = Path(resume_from)
        if resume_path.is_dir():
            resume_path = resume_path / RUN_CKPT_NAME
        tree = load_state(resume_path, kind=VECTOR_RUN_CKPT_KIND)
        try:
            loop = dict(tree["loop"])
            next_t = int(loop["next_t"])
            stored_steps = int(loop["steps"])
            stored_manager = str(loop["manager_name"])
            num_envs = int(loop["num_envs"])
            assignments_tree = dict(loop["assignments"])
            traces_tree = dict(tree["traces"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed vector-run checkpoint: {exc}") from exc
        if stored_manager != manager.name:
            raise CheckpointError(
                f"checkpoint was taken from manager {stored_manager!r}, "
                f"resuming with {manager.name!r}"
            )
        if stored_steps != steps:
            raise CheckpointError(
                f"checkpoint was taken from a {stored_steps}-step run, "
                f"this run asks for {steps}"
            )
        if num_envs != venv.num_envs:
            raise CheckpointError(
                f"checkpoint has {num_envs} environments, batch has {venv.num_envs}"
            )
        if not 0 < next_t <= steps:
            raise CheckpointError(f"checkpoint next_t {next_t} out of range")
        expected = {f"{e:04d}" for e in range(venv.num_envs)}
        if set(assignments_tree) != expected or set(traces_tree) != expected:
            raise CheckpointError("vector-run checkpoint env keys do not match num_envs")
        # Stage everything that can fail before mutating manager/envs.
        assignments = [
            _deserialize_assignments(dict(assignments_tree[f"{e:04d}"]))
            for e in range(venv.num_envs)
        ]
        traces = [
            _deserialize_trace(dict(traces_tree[f"{e:04d}"]), manager.name)
            for e in range(venv.num_envs)
        ]
        manager.load_state_dict(dict(tree["manager"]))
        venv.load_state_dict(dict(tree["envs"]))
        first_t = next_t
    else:
        traces = [
            RunTrace(
                manager_name=manager.name,
                services={
                    name: ServiceTrace(qos_target_ms=venv.qos_target_of(name))
                    for name in venv.service_names
                },
                interval_s=venv.config.interval_s,
            )
            for _ in range(venv.num_envs)
        ]
        assignments = manager.initial_assignments()
    index_tag = venv.index_tag
    if sink.enabled:
        for e in range(venv.num_envs):
            sink.emit(
                make_event(
                    "run_start",
                    venv.time,
                    manager=manager.name,
                    services=list(venv.service_names),
                    steps=steps,
                    interval_s=venv.config.interval_s,
                    **{index_tag: e},
                )
            )
    step_timing = timings.get("env.step") if timings is not None else None
    update_timing = timings.get("manager.update") if timings is not None else None
    record_timing = timings.get("loop.record") if timings is not None else None
    # Every recorded list in row-major (env, service) order, so a tick's
    # (E, S) matrices append in one flat pass per series.
    names = venv.service_names
    service_series = [
        [getattr(trace.services[name], field) for trace in traces for name in names]
        for field in ("p99_ms", "arrival_rps", "cores", "frequency_ghz")
    ]
    env_series = [
        [getattr(trace, field) for trace in traces]
        for field in ("power_w", "true_power_w", "membw_utilization")
    ]
    started = time.perf_counter()
    for t in range(first_t, steps):
        if step_timing is not None:
            t0 = time.perf_counter()
            results = venv.step(assignments)
            step_timing.add(time.perf_counter() - t0)
        else:
            results = venv.step(assignments)
        if record_timing is not None:
            t0 = time.perf_counter()
        # Recorded from the batch's matrices, so no StepResult is built;
        # the values equal the result objects' fields.
        arrays = results.arrays
        for lists, key in zip(
            service_series, ("p99", "arrivals", "cores", "frequency_ghz")
        ):
            for values, value in zip(lists, arrays[key].ravel().tolist()):
                values.append(value)
        for lists, key in zip(
            env_series, ("power_w", "true_power_w", "membw_utilization")
        ):
            for values, value in zip(lists, arrays[key].tolist()):
                values.append(value)
        if record_timing is not None:
            record_timing.add(time.perf_counter() - t0)
        if update_timing is not None:
            t0 = time.perf_counter()
            assignments = manager.update_batch(results)
            update_timing.add(time.perf_counter() - t0)
        else:
            assignments = manager.update_batch(results)
        if (
            ckpt_path is not None
            and checkpoint_every is not None
            and (t + 1) % checkpoint_every == 0
            and (t + 1) < steps
        ):
            # Taken after the manager produced the *next* assignments, so
            # a resume replays the loop exactly: restore state, apply the
            # stored assignments, continue at next_t.
            save_state(ckpt_path, VECTOR_RUN_CKPT_KIND, _checkpoint_tree(
                manager, venv, traces, assignments, t + 1, steps
            ))
    if sink.enabled:
        for e in range(venv.num_envs):
            sink.emit(
                make_event(
                    "run_end",
                    venv.time,
                    steps=steps,
                    wall_time_s=time.perf_counter() - started,
                    **{index_tag: e},
                )
            )
    for e, counts in enumerate(venv.migration_counts()):
        traces[e].migrations = counts
    return traces


def _checkpoint_tree(
    manager: FleetTwig,
    venv: VectorEnvironment,
    traces: List[RunTrace],
    assignments,
    next_t: int,
    steps: int,
) -> Dict[str, Any]:
    return {
        "manager": manager.state_dict(),
        "envs": venv.state_dict(),
        "loop": {
            "next_t": next_t,
            "steps": steps,
            "manager_name": manager.name,
            "num_envs": venv.num_envs,
            "assignments": {
                f"{e:04d}": _serialize_assignments(assignments[e])
                for e in range(venv.num_envs)
            },
        },
        "traces": {
            f"{e:04d}": _serialize_trace(traces[e]) for e in range(venv.num_envs)
        },
    }
