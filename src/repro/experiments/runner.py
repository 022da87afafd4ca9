"""Run a task manager against an environment and record the trace.

One loop core, :func:`run_loop`, drives every run. :func:`run_manager`
(one manager on one :class:`ColocationEnvironment`) and
:func:`repro.engine.rollout.run_fleet` (one fleet manager on a
:class:`~repro.engine.vector_env.VectorEnvironment`) differ only in the
small object they hand it: :class:`ScalarRun` or
:class:`~repro.engine.rollout.FleetRun`, which update the manager,
record the traces and read and write the checkpoint tree.

The trace keeps everything the paper's evaluation metrics need: per-step,
per-service tail latency, QoS target, arrival rate, allocated cores and
frequency, plus the socket power and cumulative energy. Summaries (QoS
guarantee, normalised energy, tardiness histograms, core-mapping
distributions) are computed over configurable windows, matching the
paper's practice of summarising over the last 300 s or 600 s after the
learning phase. :func:`run_experiments` runs registered experiments in
batches, one manifest each.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ckpt.checkpoint import load_state, save_state
from repro.core.manager import TaskManager
from repro.core.mapper import AssignmentBatch
from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.metrics.qos import qos_guarantee_pct
from repro.obs.context import ObsContext, activate, current
from repro.obs.events import make_event
from repro.obs.manifest import RunManifest, config_hash, git_sha, now_iso
from repro.obs.sink import JsonlSink, iter_trace
from repro.obs.summary import summarize_events
from repro.server.machine import CoreAssignment
from repro.sim.environment import ColocationEnvironment, StepResult

#: File name of the rolling run checkpoint inside ``checkpoint_dir``.
RUN_CKPT_NAME = "run.ckpt.npz"

#: Checkpoint kind written by :func:`run_manager`.
RUN_CKPT_KIND = "run"


#: The per-service and the per-run series of a trace, in record order.
SERVICE_SERIES = ("p99_ms", "arrival_rps", "cores", "frequency_ghz")
RUN_SERIES = ("power_w", "true_power_w", "membw_utilization")


@dataclass
class ServiceTrace:
    """Per-service time series recorded during a run.

    A trace returned by :func:`run_manager` or
    :func:`repro.engine.rollout.run_fleet` holds each series as a float64
    array, one value per interval; a fleet trace's series are views of the
    run's ``(steps, nodes, services)`` columns. The list defaults serve
    :meth:`RunTrace.record`, which appends.

    ``start`` is the step of the first sample: 0, or the step at which
    :meth:`RunTrace.record` created the series of a service swapped in
    mid-run. It is a class attribute, not a field, so result hashes and
    the checkpoint layout do not see it (a trace read back from a run
    checkpoint starts every series at 0).
    """

    p99_ms: Sequence[float] = field(default_factory=list)
    arrival_rps: Sequence[float] = field(default_factory=list)
    cores: Sequence[float] = field(default_factory=list)
    frequency_ghz: Sequence[float] = field(default_factory=list)
    qos_target_ms: float = 0.0

    start = 0


@dataclass
class RunTrace:
    """Full record of one manager x environment run.

    Every series is a float64 array once a run loop returns it (see
    :class:`ServiceTrace`); readers go through ``np.asarray``, so a
    trace built by hand with :meth:`record` reads the same.
    """

    manager_name: str
    services: Dict[str, ServiceTrace]
    power_w: Sequence[float] = field(default_factory=list)
    true_power_w: Sequence[float] = field(default_factory=list)
    membw_utilization: Sequence[float] = field(default_factory=list)
    migrations: Dict[str, int] = field(default_factory=dict)
    interval_s: float = 1.0

    @classmethod
    def for_env(cls, manager_name: str, env: Any) -> "RunTrace":
        """An empty trace of ``env``'s services, QoS targets and interval
        (a :class:`ColocationEnvironment` or a vector of them)."""
        return cls(
            manager_name=manager_name,
            services={
                name: ServiceTrace(qos_target_ms=env.qos_target_of(name))
                for name in env.service_names
            },
            interval_s=env.config.interval_s,
        )

    def record(self, result: StepResult) -> None:
        """Append one interval's :class:`StepResult` to list series. A
        service swapped in mid-run (transfer-learning runs) starts its own
        series."""
        for name, observation in result.observations.items():
            interval = observation.interval
            series = self.services.get(name)
            if series is None:
                series = self.services[name] = ServiceTrace()
                series.start = len(self.power_w)
            series.p99_ms.append(interval.p99_ms)
            series.arrival_rps.append(interval.arrival_rate)
            series.cores.append(interval.cores)
            series.frequency_ghz.append(interval.frequency_ghz)
            series.qos_target_ms = interval.qos_target_ms
        self.power_w.append(result.socket_power_w)
        self.true_power_w.append(result.true_power_w)
        self.membw_utilization.append(result.membw_utilization)

    def convert_series(self, convert) -> None:
        """Replace every series ``values`` with ``convert(values)``."""
        for series in self.services.values():
            for key in SERVICE_SERIES:
                setattr(series, key, convert(getattr(series, key)))
        for key in RUN_SERIES:
            setattr(self, key, convert(getattr(self, key)))

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def _window(self, values: Sequence[float], last_n: Optional[int]) -> np.ndarray:
        array = np.asarray(values, dtype=np.float64)
        if last_n is not None and last_n > 0:
            array = array[-last_n:]
        if array.size == 0:
            raise ConfigurationError("trace window is empty")
        return array

    def qos_guarantee(self, service: str, last_n: Optional[int] = None) -> float:
        trace = self.services[service]
        window = self._window(trace.p99_ms, last_n)
        return qos_guarantee_pct(window, trace.qos_target_ms)

    def tardiness(self, service: str, last_n: Optional[int] = None) -> np.ndarray:
        trace = self.services[service]
        return self._window(trace.p99_ms, last_n) / trace.qos_target_ms

    def energy_j(self, last_n: Optional[int] = None) -> float:
        return float(self._window(self.true_power_w, last_n).sum() * self.interval_s)

    def mean_power_w(self, last_n: Optional[int] = None) -> float:
        return float(self._window(self.true_power_w, last_n).mean())

    def mean_cores(self, service: str, last_n: Optional[int] = None) -> float:
        return float(self._window(self.services[service].cores, last_n).mean())

    def core_histogram(self, service: str, max_cores: int, last_n: Optional[int] = None) -> np.ndarray:
        """Fraction of time spent at each core count (Figures 6 and 12)."""
        window = self._window(self.services[service].cores, last_n)
        counts = np.round(window).astype(int)
        histogram = np.bincount(np.clip(counts, 0, max_cores), minlength=max_cores + 1)
        return histogram / histogram.sum()

    def steps(self) -> int:
        return len(self.power_w)

    def to_csv(self, path) -> None:
        """Dump the full trace as CSV (one row per step) for external
        analysis — columns are the per-service series plus socket power.
        Each sample sits on the step it was recorded; a service swapped in
        or out mid-run has empty cells on the steps it did not run."""
        import csv  # here, not at module level: 0.17 MB RSS in every process

        steps = self.steps()
        header = ["step"]
        columns = []
        # Python floats: the csv module writes a numpy scalar by its repr.
        for name, series in self.services.items():
            header.extend(
                [f"{name}.p99_ms", f"{name}.arrival_rps", f"{name}.cores", f"{name}.freq_ghz"]
            )
            for key in SERVICE_SERIES:
                column = [""] * series.start + np.asarray(
                    getattr(series, key), dtype=np.float64).tolist()
                columns.append(column + [""] * (steps - len(column)))
        header.extend(["power_w", "true_power_w", "membw_util"])
        columns.extend(
            np.asarray(getattr(self, key), dtype=np.float64).tolist() for key in RUN_SERIES
        )
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(zip(range(steps), *columns))


def _serialize_assignments(
    assignments: Mapping[str, CoreAssignment],
) -> Dict[str, Dict[str, Any]]:
    return {
        name: {
            "cores": [int(c) for c in a.cores],
            "freq_index": int(a.freq_index),
            "llc_ways": int(a.llc_ways),
        }
        for name, a in assignments.items()
    }


def _deserialize_assignments(state: Mapping[str, Any]) -> Dict[str, CoreAssignment]:
    try:
        return {
            str(name): CoreAssignment(
                cores=tuple(int(c) for c in entry["cores"]),
                freq_index=int(entry["freq_index"]),
                llc_ways=int(entry["llc_ways"]),
            )
            for name, entry in dict(state).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed assignment state: {exc}") from exc


def _serialize_trace(trace: RunTrace) -> Dict[str, Any]:
    return {
        "service_order": list(trace.services),
        "services": {
            name: {
                **{key: np.asarray(getattr(s, key), dtype=np.float64)
                   for key in SERVICE_SERIES},
                "qos_target_ms": float(s.qos_target_ms),
            }
            for name, s in trace.services.items()
        },
        **{key: np.asarray(getattr(trace, key), dtype=np.float64) for key in RUN_SERIES},
        "interval_s": float(trace.interval_s),
    }


def _deserialize_trace(state: Mapping[str, Any], manager_name: str) -> RunTrace:
    """A trace tree back as a :class:`RunTrace` of float64 arrays."""
    try:
        order = [str(name) for name in state["service_order"]]
        per_service = dict(state["services"])
        services = {}
        for name in order:
            entry = dict(per_service[name])
            services[name] = ServiceTrace(
                **{key: np.asarray(entry[key], dtype=np.float64) for key in SERVICE_SERIES},
                qos_target_ms=float(entry["qos_target_ms"]),
            )
        return RunTrace(
            manager_name=manager_name,
            services=services,
            **{key: np.asarray(state[key], dtype=np.float64) for key in RUN_SERIES},
            interval_s=float(state["interval_s"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed run-trace state: {exc}") from exc


def _checkpointable(manager: Any) -> bool:
    return hasattr(manager, "state_dict") and hasattr(manager, "load_state_dict")


def _require_checkpointable(manager: Any) -> None:
    if not _checkpointable(manager):
        raise ConfigurationError(
            f"manager {manager.name!r} does not support checkpointing "
            "(no state_dict/load_state_dict methods)"
        )


def run_loop(
    manager: Any,
    env: Any,
    steps: int,
    side: Any,
    on_step=None,
    obs: Optional[ObsContext] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> Any:
    """The one run loop body behind :func:`run_manager` and
    :func:`repro.engine.rollout.run_fleet`.

    ``side`` is what an entry point keeps of its own (:class:`ScalarRun`,
    :class:`repro.engine.rollout.FleetRun`): ``kind``, its checkpoint
    kind; ``tags``, one index envelope per ``run_start``/``run_end``
    pair; ``update``, the manager call a tick makes; ``record``, which
    records a tick's results in its traces; ``tree``/``stage``, which
    write and read its checkpoint tree; and ``finish``, which returns its
    traces. Everything else is here, once: the step-count check, the
    ambient :class:`ObsContext` and checkpoint resolution, resume, run
    events, the ``env.step``/``loop.record``/``manager.update`` timings,
    ``on_step`` and the checkpoint cadence.
    """
    if steps <= 0:
        raise ConfigurationError(f"steps must be positive, got {steps}")
    obs = obs if obs is not None else current()
    timings = None
    if obs is not None:
        timings = obs.timings
        env.attach_obs(obs.sink, timings)
        attach = getattr(manager, "attach_obs", None)
        if attach is not None:
            attach(obs.sink, timings)
        # The ambient flag (repro run --checkpoint-every) reaches *every*
        # run inside an experiment, including baseline comparison runs.
        # Baselines without state support just run uncheckpointed — only
        # an explicit checkpoint_every= argument makes that an error.
        if checkpoint_every is None and _checkpointable(manager):
            checkpoint_every = obs.checkpoint_every
        if checkpoint_dir is None:
            checkpoint_dir = obs.checkpoint_dir
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ConfigurationError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_dir is None:
            raise ConfigurationError("checkpoint_every requires checkpoint_dir")
        _require_checkpointable(manager)
        ckpt_path = Path(checkpoint_dir) / RUN_CKPT_NAME
    if resume_from is not None:
        assignments, first_t = _resume(manager, env, steps, side, resume_from)
    else:
        assignments, first_t = manager.initial_assignments(), 0
    sink = env.trace
    if sink.enabled:
        for tag in side.tags:
            sink.emit(
                make_event(
                    "run_start",
                    env.time,
                    manager=manager.name,
                    services=list(env.service_names),
                    steps=steps,
                    interval_s=env.config.interval_s,
                    **tag,
                )
            )
    sections = (
        None if timings is None
        else [timings.get(n) for n in ("env.step", "loop.record", "manager.update")]
    )
    record, update = side.record, side.update
    started = time.perf_counter()
    for t in range(first_t, steps):
        t0 = time.perf_counter()
        results = env.step(assignments)
        t1 = time.perf_counter()
        record(results)
        t2 = time.perf_counter()
        assignments = update(results)
        if sections is not None:
            t3 = time.perf_counter()
            for timing, seconds in zip(sections, (t1 - t0, t2 - t1, t3 - t2)):
                timing.add(seconds)
        if on_step is not None:
            replaced = on_step(t, results)
            if replaced is not None:
                assignments = replaced
        if checkpoint_every is not None and (t + 1) % checkpoint_every == 0 and t + 1 < steps:
            # Taken after the manager produced the *next* assignments, so a
            # resume replays the loop exactly: restore state, apply the
            # stored assignments, continue at next_t.
            loop = {"next_t": t + 1, "steps": steps, "manager_name": manager.name}
            save_state(ckpt_path, side.kind, side.tree(manager, env, loop, assignments))
    if sink.enabled:
        wall_time_s = time.perf_counter() - started
        for tag in side.tags:
            sink.emit(
                make_event("run_end", env.time, steps=steps, wall_time_s=wall_time_s, **tag)
            )
    return side.finish(env)


def _resume(manager: Any, env: Any, steps: int, side: Any, resume_from) -> Tuple[Any, int]:
    """Restore a run checkpoint into ``manager`` and ``env``.

    Returns the stored next assignments and the tick to continue at.
    Everything that can fail is staged first, and a manager or
    environment that refuses its subtree is rolled back with the other:
    a refused resume leaves both as they were.
    """
    path = Path(resume_from)
    if path.is_dir():
        path = path / RUN_CKPT_NAME
    tree = load_state(path, kind=side.kind)
    try:
        loop = dict(tree["loop"])
        next_t = int(loop["next_t"])
        stored_steps = int(loop["steps"])
        stored_manager = str(loop["manager_name"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed {side.kind} checkpoint: {exc}") from exc
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
    if not 0 < next_t <= steps:
        raise CheckpointError(f"checkpoint next_t {next_t} out of range")
    _require_checkpointable(manager)
    try:
        assignments, manager_tree, env_tree = side.stage(tree, loop, manager.name)
    except (KeyError, TypeError, ValueError, AllocationError) as exc:
        raise CheckpointError(f"malformed {side.kind} checkpoint: {exc}") from exc
    snapshot = manager.state_dict(), env.state_dict()
    try:
        manager.load_state_dict(manager_tree)
        env.load_state_dict(env_tree)
    except Exception:
        manager.load_state_dict(snapshot[0])
        env.load_state_dict(snapshot[1])
        raise
    return assignments, next_t


class ScalarRun:
    """:func:`run_manager`'s side of :func:`run_loop`: ``manager.update``
    on each result, one :class:`RunTrace` recorded per result, and the
    ``run`` checkpoint tree.

    The trace appends to lists while the run goes, so a service swapped
    in mid-run starts its own series, and :meth:`finish` turns each series
    into a float64 array once."""

    kind = RUN_CKPT_KIND
    tags = ({},)

    def __init__(self, manager: TaskManager, env: ColocationEnvironment) -> None:
        self.update = manager.update
        self.trace = RunTrace.for_env(manager.name, env)
        self._env = env

    def record(self, result) -> None:
        self.trace.record(result)

    def tree(self, manager, env, loop, assignments) -> Dict[str, Any]:
        loop["assignments"] = _serialize_assignments(assignments)
        return {"manager": manager.state_dict(), "env": env.state_dict(), "loop": loop,
                "trace": _serialize_trace(self.trace)}

    def stage(self, tree, loop, manager_name: str):
        assignments = _deserialize_assignments(loop["assignments"])
        # What the machine could not install is refused before anything
        # loads, as the vector side refuses its batch.
        env = self._env
        AssignmentBatch.from_dicts(
            env.service_names, [assignments], env.spec, env.config.socket_index
        )
        trace = _deserialize_trace(dict(tree["trace"]), manager_name)
        trace.convert_series(np.ndarray.tolist)
        self.trace = trace
        return assignments, dict(tree["manager"]), dict(tree["env"])

    def finish(self, env: ColocationEnvironment) -> RunTrace:
        self.trace.migrations = dict(env.machine.migration_counts)
        self.trace.convert_series(_float64)
        return self.trace


def _float64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def run_manager(
    manager: TaskManager,
    env: ColocationEnvironment,
    steps: int,
    on_step=None,
    obs: Optional[ObsContext] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> RunTrace:
    """Drive ``manager`` for ``steps`` control intervals.

    ``on_step(t, result)`` is an optional callback (used by experiments to
    inject service swaps or record custom signals). ``obs`` wires a
    structured trace sink and timing registry through the run; when it is
    omitted the ambient :func:`repro.obs.context.current` context (if any)
    is used, which is how ``repro run --trace`` reaches runs started deep
    inside experiment modules.

    ``checkpoint_every=N`` writes a rolling full-state checkpoint
    (``run.ckpt.npz`` under ``checkpoint_dir``) every N completed steps:
    manager state, environment state, the next assignments, and the trace
    recorded so far, all in one atomically-replaced ``repro.ckpt``
    container. ``resume_from`` restores such a checkpoint into the given
    (freshly constructed) ``manager`` and ``env`` and continues the loop
    where it left off; the returned :class:`RunTrace` is bit-identical to
    the uninterrupted run's. Both default to the ambient
    :class:`ObsContext`'s ``checkpoint_every`` / ``checkpoint_dir`` when
    not passed explicitly. The loop itself is :func:`run_loop`.
    """
    return run_loop(
        manager, env, steps, ScalarRun(manager, env), on_step, obs,
        checkpoint_every, checkpoint_dir, resume_from,
    )


# ---------------------------------------------------------------------- #
# experiment batches: manifests, tracing, strict failure handling
# ---------------------------------------------------------------------- #
@dataclass
class ExperimentRun:
    """Outcome of one experiment inside a batch."""

    experiment_id: str
    manifest: RunManifest
    result: Any = None             # the experiment's Result object, None on failure

    @property
    def ok(self) -> bool:
        return self.manifest.status == "ok"


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: under a CPU
    affinity mask or a container cgroup quota it overstates the usable
    parallelism, which is exactly the situation where the process pool
    ran at 0.93x (pool overhead with no real overlap). The scheduler
    affinity mask sees both restrictions.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):        # non-Linux platforms
        return os.cpu_count() or 1


def run_experiments(
    experiment_ids: Sequence[str],
    configs: Optional[Mapping[str, Any]] = None,
    strict: bool = False,
    out_dir: Optional[Union[str, Path]] = None,
    trace: bool = False,
    validate: bool = False,
    jobs: int = 1,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    resume: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
) -> List[ExperimentRun]:
    """Run a batch of registered experiments, writing one manifest each.

    Per-experiment exceptions are *never* silently swallowed: every
    failure is recorded in that experiment's manifest (status, error,
    traceback summary) and reported in the returned list; with
    ``strict=True`` the first failure re-raises after its manifest is
    written. With ``trace=True`` each experiment runs under an ambient
    :class:`ObsContext` whose JSONL sink lands in ``out_dir/<id>/trace.jsonl``
    and whose summary/timing histograms land in the manifest.

    ``jobs > 1`` dispatches the experiments to a pool of worker processes.
    The effective worker count is ``min(jobs, usable CPUs, pending
    experiments)``, where the usable CPUs are those of the scheduler
    affinity mask (``os.sched_getaffinity``); when that count is one the
    batch runs serially in-process. Asking for more workers than cores
    only adds scheduling overhead (CPU-bound experiments cannot overlap;
    the pool ran at 0.93x on 1-CPU boxes), so on a single-core box any
    ``jobs`` value degrades gracefully to the serial path. Each worker
    writes its own manifest and JSONL sink (no file is ever shared
    between processes), the global RNGs are re-seeded per experiment
    from a stable hash of ``(experiment_id, config)`` in both the serial
    and parallel paths, and results come back in ``experiment_ids``
    order, so a parallel batch is equivalent to the serial one modulo
    timing fields (:meth:`repro.obs.manifest.RunManifest.comparable_dict`).
    Under ``strict=True`` the first failure (in submission order) cancels
    any not-yet-started experiments and re-raises after its manifest is
    written.

    Crash safety:

    - ``retries=N`` re-runs a failing experiment up to N extra times with
      exponential backoff (``retry_backoff_s * 2**attempt``) before its
      failure is recorded. Incompatible with ``strict`` (which wants the
      first failure re-raised, not retried).
    - ``resume=<dir>`` skips every experiment that already has an ``ok``
      manifest under ``<dir>/<id>/manifest.json`` from an earlier
      (crashed or interrupted) batch; skipped experiments come back as
      salvaged :class:`ExperimentRun` objects with the on-disk manifest
      and ``result=None``.
    - A worker process dying mid-batch (``BrokenProcessPool``) no longer
      takes the whole batch down: completed results are salvaged, the
      pool is recreated, and the unfinished experiments are resubmitted
      up to ``retries`` times; anything still unfinished after that gets
      a synthesized failed manifest instead of an exception.
    - ``checkpoint_every=N`` asks every ``run_manager`` loop inside each
      experiment to write a rolling full-state checkpoint under
      ``out_dir/<id>/`` every N steps (see :func:`run_manager`).
    """
    if trace and out_dir is None:
        raise ConfigurationError("trace=True requires out_dir for the JSONL sinks")
    if checkpoint_every is not None and out_dir is None:
        raise ConfigurationError("checkpoint_every requires out_dir for the checkpoints")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if retry_backoff_s < 0:
        raise ConfigurationError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
    if strict and retries:
        raise ConfigurationError(
            "strict=True re-raises the first failure; combining it with "
            "retries is contradictory — pick one"
        )
    configs = dict(configs or {})
    out_path = Path(out_dir) if out_dir is not None else None
    # The SHA of the code being run, not of whatever directory the caller
    # happens to be in. Resolved once, here, so workers never shell out.
    sha = git_sha(Path(__file__).resolve().parent)

    results: Dict[str, ExperimentRun] = {}
    pending: List[str] = []
    for experiment_id in experiment_ids:
        salvaged = _salvage_run(experiment_id, resume)
        if salvaged is not None:
            results[experiment_id] = salvaged
        else:
            pending.append(experiment_id)

    def finish() -> List[ExperimentRun]:
        return [results[experiment_id] for experiment_id in experiment_ids]

    # Capping at the *affinity-visible* CPU count (not os.cpu_count) is
    # what selects serial on 1-CPU boxes and containers.
    effective_jobs = min(jobs, _available_cpus(), len(pending))
    if effective_jobs <= 1:
        for experiment_id in pending:
            results[experiment_id] = _run_with_retries(
                experiment_id, configs.get(experiment_id), sha, out_path,
                trace, validate, strict, retries, retry_backoff_s,
                checkpoint_every,
            )
        return finish()

    unfinished = list(pending)
    pool_attempt = 0
    while unfinished:
        with ProcessPoolExecutor(max_workers=effective_jobs) as pool:
            futures = {
                experiment_id: pool.submit(
                    _run_with_retries, experiment_id,
                    configs.get(experiment_id), sha, out_path, trace,
                    validate, strict, retries, retry_backoff_s,
                    checkpoint_every,
                )
                for experiment_id in unfinished
            }
            try:
                # Collect in submission order: deterministic result
                # ordering, and under strict the first failure in that
                # order wins.
                for experiment_id, future in futures.items():
                    results[experiment_id] = future.result()
                unfinished = []
            except BrokenProcessPool:
                # A worker died hard (OOM kill, segfault, os._exit).
                # Salvage everything that finished, then resubmit the rest
                # to a fresh pool if the retry budget allows.
                strict_failure: Optional[BaseException] = None
                for experiment_id, future in futures.items():
                    if (
                        experiment_id in results
                        or not future.done()
                        or future.cancelled()
                    ):
                        continue
                    exc = future.exception()
                    if exc is None:
                        results[experiment_id] = future.result()
                    elif strict and strict_failure is None and not isinstance(
                        exc, BrokenProcessPool
                    ):
                        # A real strict-mode failure (its manifest is
                        # already written by the worker) must not be
                        # masked as a crash or swallowed by a resubmit.
                        strict_failure = exc
                if strict_failure is not None:
                    # Strict aborts return promptly: re-raise before any
                    # pool-rebuild backoff sleep or resubmission.
                    raise strict_failure
                unfinished = [e for e in unfinished if e not in results]
                pool_attempt += 1
                if pool_attempt > retries:
                    for experiment_id in unfinished:
                        results[experiment_id] = _crashed_run(
                            experiment_id, configs.get(experiment_id), sha,
                            out_path,
                        )
                    unfinished = []
                elif retry_backoff_s > 0:
                    time.sleep(retry_backoff_s * 2 ** (pool_attempt - 1))
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    return finish()


def _salvage_run(
    experiment_id: str, resume: Optional[Union[str, Path]]
) -> Optional[ExperimentRun]:
    """A completed run salvaged from an earlier batch's manifest, or None.

    Only ``status == "ok"`` manifests are salvaged — failed or torn ones
    mean the experiment should run again. The salvaged run carries
    ``result=None`` (the Result object died with the original process);
    callers that want tables must re-run, callers that want coverage
    (which experiments still need work after a crash) get exactly that.
    """
    if resume is None:
        return None
    manifest_path = Path(resume) / experiment_id / "manifest.json"
    if not manifest_path.exists():
        return None
    try:
        manifest = RunManifest.read(manifest_path)
    except Exception:
        return None  # torn/corrupt manifest: re-run the experiment
    if manifest.status != "ok":
        return None
    return ExperimentRun(experiment_id, manifest, None)


def _crashed_run(
    experiment_id: str,
    config: Any,
    sha: Optional[str],
    out_path: Optional[Path],
) -> ExperimentRun:
    """Synthesize the failed manifest for an experiment whose worker died
    without ever reporting back (the worker can't write it — it's gone)."""
    manifest = RunManifest(
        experiment_id=experiment_id,
        seed=getattr(config, "seed", None),
        config_hash=config_hash(config),
        config=None if config is None else _config_dict(config),
        git_sha=sha,
        started_at=now_iso(),
    )
    manifest.status = "failed"
    manifest.error = "worker process crashed (BrokenProcessPool)"
    manifest.summary = {}
    if out_path is not None:
        manifest.write(out_path / experiment_id / "manifest.json")
    return ExperimentRun(experiment_id, manifest, None)


def _run_with_retries(
    experiment_id: str,
    config: Any,
    sha: Optional[str],
    out_path: Optional[Path],
    trace: bool,
    validate: bool,
    reraise: bool,
    retries: int,
    retry_backoff_s: float,
    checkpoint_every: Optional[int],
) -> ExperimentRun:
    """Run one experiment, retrying in-process failures with backoff.

    Each attempt rewrites the manifest/trace from scratch, so the final
    on-disk state always describes the last attempt; earlier failures
    survive only in the returned run's manifest when every attempt fails.
    """
    for attempt in range(retries + 1):
        run = _run_single(
            experiment_id, config, sha, out_path, trace, validate, reraise,
            checkpoint_every,
        )
        if run.ok or attempt == retries:
            return run
        if retry_backoff_s > 0:
            time.sleep(retry_backoff_s * 2 ** attempt)
    return run  # unreachable; keeps type checkers happy


def _experiment_seed(experiment_id: str, config: Any) -> int:
    """Stable per-experiment seed for the global RNG streams."""
    payload = f"{experiment_id}:{config_hash(config)}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


def _run_single(
    experiment_id: str,
    config: Any,
    sha: Optional[str],
    out_path: Optional[Path],
    trace: bool,
    validate: bool,
    reraise: bool,
    checkpoint_every: Optional[int] = None,
) -> ExperimentRun:
    """Run one experiment end to end: seed, run, finalize its manifest.

    Runs either inline (serial batches) or inside a pool worker — the
    manifest and trace sink are always written by the process that ran the
    experiment, so parallel batches never share a file handle.
    """
    from repro.experiments.registry import run_experiment

    manifest = RunManifest(
        experiment_id=experiment_id,
        seed=getattr(config, "seed", None),
        config_hash=config_hash(config),
        config=None if config is None else _config_dict(config),
        git_sha=sha,
        started_at=now_iso(),
    )
    sink = None
    obs = None
    if trace:
        trace_path = out_path / experiment_id / "trace.jsonl"
        sink = JsonlSink(trace_path, validate=validate)
        obs = ObsContext(sink=sink)
        manifest.trace_path = str(trace_path)
    if checkpoint_every is not None:
        # Checkpointing needs an ambient context even without tracing.
        if obs is None:
            obs = ObsContext()
        obs.checkpoint_every = checkpoint_every
        obs.checkpoint_dir = out_path / experiment_id
    # Experiments draw from generators seeded by their configs, but anything
    # that falls back to the global streams must behave identically whether
    # the batch ran serially or across workers — and must not depend on
    # which experiments ran before it in the batch.
    seed = _experiment_seed(experiment_id, config)
    random.seed(seed)
    np.random.seed(seed)
    started = time.perf_counter()
    result = None
    try:
        if obs is not None:
            with activate(obs):
                result = run_experiment(experiment_id, config)
        else:
            result = run_experiment(experiment_id, config)
        manifest.status = "ok"
        manifest.summary = {"result_type": type(result).__name__}
    except Exception as exc:
        manifest.status = "failed"
        manifest.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        manifest.summary = {}
        if reraise:
            _finalize_manifest(manifest, sink, obs, started, out_path, experiment_id)
            raise
    _finalize_manifest(manifest, sink, obs, started, out_path, experiment_id)
    return ExperimentRun(experiment_id, manifest, result)


def _config_dict(config: Any) -> Optional[Dict[str, Any]]:
    from repro.obs.manifest import _stable

    stable = _stable(config)
    return stable if isinstance(stable, dict) else {"value": stable}


def _finalize_manifest(
    manifest: RunManifest,
    sink: Optional[JsonlSink],
    obs: Optional[ObsContext],
    started: float,
    out_path: Optional[Path],
    experiment_id: str,
) -> None:
    """Close the sink, fold trace + timings in, and write the manifest."""
    manifest.wall_time_s = time.perf_counter() - started
    if sink is not None:
        sink.close()
        manifest.trace_events = sink.count
        if manifest.status == "ok" and sink.count:
            manifest.summary["trace"] = summarize_events(iter_trace(sink.path)).to_dict()
    if obs is not None:
        manifest.timings = obs.timings.summary()
    if out_path is not None:
        manifest.write(out_path / experiment_id / "manifest.json")
