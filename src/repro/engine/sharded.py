"""Sharded multi-core stepping: the cluster hot path across W processes.

:class:`ShardedClusterEnvironment` presents the same stepping surface as
:class:`~repro.cluster.environment.ClusterEnvironment` — one
:class:`~repro.engine.vector_env.StepBatch` per control interval, the
balancer feedback loop, ``vector_run`` checkpointing — but partitions the
fleet's nodes into W **contiguous shards**, each owned by a persistent
worker process. Per tick the parent:

1. runs the cluster control plane (traffic model + balancer — their RNG
   streams live here, exactly as in the single-process engine),
2. writes the tick's assignments as pin, DVFS and way rows (those of
   the nodes whose assignment changed; per-node dicts are converted
   first) and the ``(N, S)`` rate matrix into a
   :mod:`multiprocessing.shared_memory` block, so the ``step`` message
   carries nothing, and releases every worker,
3. waits on the lock-step barrier while each worker installs its rows
   and steps its node slice through the fused :class:`VectorEnvironment`
   math, writing its rows of every result array straight into the
   shared block,
4. assembles the full-fleet :class:`StepBatch` from the shared arrays and
   rebuilds the balancer feedback.

The parent keeps the single fused act/train path: ``run_fleet`` drives
one :class:`~repro.core.fleet.FleetTwig` against this environment
unchanged, so the policy forward/backward and the striped PER never
cross a process boundary.

Bit-identity with the vector engine
-----------------------------------
Every numeric formula in ``VectorEnvironment.step`` is row-independent —
elementwise ``(E, S)`` ops, per-row ``axis=1`` reductions, and per-row
Erlang-C/pressure kernels — so stepping a contiguous row slice yields
the same bits as stepping those rows inside the full batch. Each node's
RNG streams are private (environment RNG at
``seed + node * ENV_SEED_STRIDE``, fault injectors per node) and the
shared cluster streams (traffic at ``seed + 17``, balancer at
``seed + 29``) are consumed only by the parent, so shard boundaries
never reorder a draw. Trajectories, manager state, and ``vector_run``
checkpoint bytes are pinned identical to the vector engine in
``tests/test_engine_sharded.py``.

Limits: per-node trace sinks cannot cross the process boundary, so
stepping with an *enabled* sink raises ``ConfigurationError`` — use the
vector engine for traced runs. Worker processes are daemonic and torn
down by :meth:`close` (or interpreter exit).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import signal
import threading
import time as _time
import traceback
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.balancer import NodeLoads, make_balancer
from repro.cluster.environment import (
    BALANCER_SEED_OFFSET,
    TRAFFIC_SEED_OFFSET,
    make_cluster_node,
)
from repro.cluster.topology import ClusterTopology
from repro.cluster.traffic import (
    TrafficModel,
    TrafficSpec,
    check_rates,
    install_rates,
    make_traffic_spec,
)
from repro.core.mapper import AssignmentBatch
from repro.engine.vector_env import (
    ENV_SEED_STRIDE,
    AssignmentRows,
    StepBatch,
    VectorEnvironment,
)
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.sink import NULL_SINK
from repro.server.machine import CoreAssignment
from repro.server.power import PowerModel
from repro.services.profiles import get_profile
from repro.sim.environment import EnvironmentConfig

#: Result matrices each worker writes into the shared block, with the
#: trailing shape beyond the node axis ("S" = one column per service).
_OUT_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("arrivals", "S", "f8"),
    ("throughput", "S", "f8"),
    ("p99", "S", "f8"),
    ("mean_ms", "S", "f8"),
    ("utilization", "S", "f8"),
    ("capacity", "S", "f8"),
    ("backlog", "S", "f8"),
    ("cores", "S", "f8"),
    ("frequency_ghz", "S", "f8"),
    ("inflation", "S", "f8"),
    ("miss_inflation", "S", "f8"),
    ("membw_gbps", "S", "f8"),
    ("busy_core_seconds", "S", "f8"),
    ("instructions", "S", "f8"),
    ("counters", "S11", "f8"),
    ("power_w", "", "f8"),
    ("true_power_w", "", "f8"),
    ("membw_utilization", "", "f8"),
    ("energy_j", "", "f8"),
    ("time", "", "i8"),
)


#: What the parent writes for the workers each tick: the balancer's
#: rates and the assignments as pin ("SC": one row per service over the
#: socket's cores), DVFS and way rows.
_IN_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("rates_in", "S", "f8"),
    ("freq_in", "S", "i8"),
    ("ways_in", "S", "i8"),
    ("pins_in", "SC", "?"),
)


class _ShmLayout:
    """Offsets of the input and result-out arrays in one shared block."""

    def __init__(self, num_nodes: int, num_services: int, num_cores: int):
        self.num_nodes = num_nodes
        self.num_services = num_services
        self._slots: Dict[str, Tuple[int, Tuple[int, ...], np.dtype]] = {}
        offset = 0
        for key, shape, dtype in _IN_FIELDS + _OUT_FIELDS:
            dims: Tuple[int, ...] = (num_nodes,)
            if shape == "S":
                dims += (num_services,)
            elif shape == "S11":
                dims += (num_services, 11)
            elif shape == "SC":
                dims += (num_services, num_cores)
            dt = np.dtype(dtype)
            self._slots[key] = (offset, dims, dt)
            # Round up so every slot stays 8-byte aligned after the bool
            # pin rows.
            offset += (int(np.prod(dims)) * dt.itemsize + 7) // 8 * 8
        self.nbytes = offset

    def views(self, buf) -> Dict[str, np.ndarray]:
        """ndarray views over ``buf`` for every slot (no copies)."""
        return {
            key: np.ndarray(dims, dtype=dt, buffer=buf, offset=off)
            for key, (off, dims, dt) in self._slots.items()
        }


class _ShardSlice(VectorEnvironment):
    """A worker's contiguous node slice: arrival rates come from the
    parent's balancer (via shared memory), not per-node generators."""

    index_tag = "node"

    def __init__(self, envs):
        super().__init__(envs)
        self._pending_rates: Optional[np.ndarray] = None

    def _gather_arrivals(self) -> np.ndarray:
        rates = self._pending_rates
        if rates is None:  # stepped outside the shard protocol
            return super()._gather_arrivals()
        # Keep the generators in sync exactly as ClusterEnvironment does,
        # so node state (and its checkpoint bytes) match the vector path.
        install_rates(self._generators, rates)
        return rates


def _shard_worker(
    conn,
    shm_name: str,
    num_nodes: int,
    services: Sequence[str],
    seed: int,
    config: Optional[EnvironmentConfig],
    qos_targets: Optional[Dict[str, float]],
    core_ids: Sequence[int],
    lo: int,
    hi: int,
    parent_pid: int,
) -> None:
    """Worker loop: build nodes ``lo..hi-1``, then serve parent commands."""
    # The parent tears workers down with terminate() (SIGTERM) when the
    # close handshake stalls, and multiprocessing terminates daemonic
    # children the same way at interpreter exit. The default SIGTERM
    # disposition would kill the process without running the finally
    # below; turning it into SystemExit lets the shared block detach
    # cleanly on every exit path.
    def _graceful_term(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _graceful_term)
    # A worker cannot rely on EOF to notice the parent dying: with the
    # fork start method every child inherits the parent-side pipe fds
    # created before its fork (including its own pipe's), so conn.recv()
    # blocks forever after a SIGKILLed parent — and the shared segment
    # would stay pinned in /dev/shm. Poll the parent pid instead and turn
    # reparenting into the same SIGTERM -> SystemExit path.
    # parent_pid was captured by the parent *before* the fork: reading
    # os.getppid() here races the parent's death — a child scheduled
    # late enough is already reparented and would record pid 1 as its
    # "parent", disarming the watchdog forever.
    main_thread = threading.get_ident()

    def _watch_parent() -> None:
        while True:
            if os.getppid() != parent_pid:
                try:
                    signal.pthread_kill(main_thread, signal.SIGTERM)
                except OSError:  # pragma: no cover - main thread already gone
                    pass
                return
            _time.sleep(0.5)

    # The signal must land on the *main* thread: delivered to the watchdog
    # (the kernel picks any unmasked thread for process-directed signals,
    # and pthread_kill from the watchdog to itself would be worse) CPython
    # only sets its pending flag — the main thread stays blocked in
    # conn.recv() and the Python-level handler never runs. Mask SIGTERM
    # while spawning so the watchdog inherits the block, leaving the main
    # thread as the only delivery target.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    threading.Thread(target=_watch_parent, daemon=True).start()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    # Attaching re-registers the name with the resource tracker, but the
    # tracker process (and its name cache, a set) is shared with the
    # parent, so the duplicate collapses and the parent's unlink() both
    # releases the segment and clears the single registration.
    shm = shared_memory.SharedMemory(name=shm_name)
    views = _ShmLayout(num_nodes, len(services), len(core_ids)).views(shm.buf)
    slice_env = _ShardSlice(
        [
            make_cluster_node(services, seed + e * ENV_SEED_STRIDE, config, qos_targets)
            for e in range(lo, hi)
        ]
    )
    try:
        while True:
            cmd, payload = conn.recv()
            try:
                if cmd == "step":
                    slice_env._pending_rates = np.array(views["rates_in"][lo:hi])
                    assignments = AssignmentBatch(
                        services, core_ids, views["pins_in"][lo:hi],
                        views["freq_in"][lo:hi], views["ways_in"][lo:hi],
                    )
                    try:
                        batch = slice_env.step(assignments)
                    finally:
                        slice_env._pending_rates = None
                    arrays = batch.arrays
                    for key, _, _ in _OUT_FIELDS:
                        views[key][lo:hi] = arrays[key]
                    conn.send(("ok", None))
                elif cmd == "state":
                    conn.send(("ok", slice_env.env_states()))
                elif cmd == "load":
                    slice_env.load_env_states(payload)
                    conn.send(("ok", slice_env.time))
                elif cmd == "faults":
                    local_index, injector = payload
                    slice_env.envs[local_index].faults = injector
                    conn.send(("ok", None))
                elif cmd == "migrations":
                    conn.send(("ok", slice_env.migration_counts()))
                elif cmd == "close":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol bug
                    conn.send(("err", (RuntimeError(f"unknown command {cmd!r}"), "")))
            except Exception as exc:  # surface worker failures in the parent
                conn.send(("err", (exc, traceback.format_exc())))
    except (EOFError, KeyboardInterrupt, SystemExit):  # parent died / SIGTERM
        pass
    finally:
        shm.close()


class ShardedClusterEnvironment:
    """A fleet of N nodes stepped by W shard worker processes in lock-step.

    Drop-in for :class:`~repro.cluster.environment.ClusterEnvironment`
    inside :func:`repro.engine.rollout.run_fleet`: same constructor
    recipe, same ``StepBatch`` per step, same checkpoint tree (so
    ``vector_run`` containers are byte-identical), same balancer
    feedback. Nodes are split into ``workers`` contiguous shards; shard
    ``w`` owns nodes ``bounds[w]..bounds[w+1]-1``.
    """

    index_tag = "node"

    def __init__(
        self,
        services: Sequence[str],
        num_nodes: int,
        seed: int,
        traffic: TrafficModel,
        balancer,
        workers: int = 4,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Dict[str, float]] = None,
    ):
        if not services:
            raise ConfigurationError("need at least one service")
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if traffic.topology.num_nodes != num_nodes:
            raise ConfigurationError(
                f"traffic topology covers {traffic.topology.num_nodes} nodes, "
                f"cluster has {num_nodes}"
            )
        if list(traffic.names) != list(services):
            raise ConfigurationError(
                f"traffic spec covers services {traffic.names}, "
                f"nodes host {list(services)}"
            )
        self.names: List[str] = list(services)
        self.num_envs = num_nodes
        self.seed = seed
        self.config = config or EnvironmentConfig()
        self.spec = self.config.spec
        self.traffic = traffic
        self.balancer = balancer
        self.workers = min(workers, num_nodes)
        self.timings = None
        self._sink = NULL_SINK
        self._time = 0
        self._last_loads: Optional[NodeLoads] = None
        self._power_model = PowerModel(self.spec)
        qos_targets = dict(qos_targets or {})
        self._qos_targets = {
            name: float(
                qos_targets.get(name, get_profile(name).qos_target_ms)
            )
            for name in self.names
        }
        self._qos_target = np.array(
            [self._qos_targets[name] for name in self.names], dtype=np.float64
        )

        # Contiguous shard bounds: the first (N % W) shards get one extra
        # node, matching numpy.array_split.
        base, extra = divmod(num_nodes, self.workers)
        bounds = [0]
        for w in range(self.workers):
            bounds.append(bounds[-1] + base + (1 if w < extra else 0))
        self._bounds = bounds

        core_ids = self.spec.socket_core_ids(self.config.socket_index)
        self._inputs = AssignmentRows(
            self.names, core_ids, self.config.socket_index, len(self.spec.dvfs),
            num_nodes,
        )
        self._layout = _ShmLayout(num_nodes, len(self.names), len(core_ids))
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._layout.nbytes
        )
        self._views = self._layout.views(self._shm.buf)
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        self._closed = False
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        try:
            for w in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(
                        child_conn,
                        self._shm.name,
                        num_nodes,
                        self.names,
                        seed,
                        config,
                        qos_targets or None,
                        core_ids,
                        bounds[w],
                        bounds[w + 1],
                        os.getpid(),
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except Exception:
            self.close()
            raise
        # A parent that exits (sys.exit, an uncaught exception, falling
        # off main) without calling close() must still unlink the
        # segment: /dev/shm is not reclaimed on process death. close()
        # unregisters the hook, so the common path pays nothing at exit.
        atexit.register(self.close)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_services(
        cls,
        services: Sequence[str],
        num_nodes: int,
        seed: int,
        traffic: Union[str, TrafficSpec] = "diurnal",
        balancer: str = "round_robin",
        regions: Optional[Sequence[str]] = None,
        workers: int = 4,
        config: Optional[EnvironmentConfig] = None,
        qos_targets: Optional[Dict[str, float]] = None,
    ) -> "ShardedClusterEnvironment":
        """Build an N-node sharded cluster with the standard seeding.

        Identical seed recipe to
        :meth:`ClusterEnvironment.from_services` — node ``e`` at
        ``seed + e * ENV_SEED_STRIDE``, traffic at ``seed + 17``,
        balancer at ``seed + 29`` — so the trajectory is a pure function
        of ``seed`` regardless of ``workers``.
        """
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if regions is None:
            regions = ("r0", "r1") if num_nodes >= 2 else ("r0",)
        topology = ClusterTopology(num_nodes, tuple(regions))
        spec = (
            make_traffic_spec(traffic, services)
            if isinstance(traffic, str)
            else traffic
        )
        model = TrafficModel(
            spec, topology, np.random.default_rng(seed + TRAFFIC_SEED_OFFSET)
        )
        policy = make_balancer(balancer, topology, seed=seed + BALANCER_SEED_OFFSET)
        return cls(
            services,
            num_nodes,
            seed,
            model,
            policy,
            workers=workers,
            config=config,
            qos_targets=qos_targets,
        )

    # ------------------------------------------------------------------ #
    # properties (the run_fleet surface)
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Alias for ``num_envs`` in cluster vocabulary."""
        return self.num_envs

    @property
    def topology(self) -> ClusterTopology:
        """The cluster topology shared by traffic model and balancer."""
        return self.traffic.topology

    @property
    def service_names(self) -> List[str]:
        """Colocated service names, identical across all nodes."""
        return list(self.names)

    @property
    def time(self) -> int:
        """Current control-interval index (all shards step in lock-step)."""
        return self._time

    def max_power_w(self) -> float:
        """Socket power cap shared by every node."""
        return self._power_model.max_power_w()

    def qos_target_of(self, name: str) -> float:
        """p99 QoS target (ms) for ``name`` (same on every node)."""
        if name not in self._qos_targets:
            raise ConfigurationError(f"unknown service {name!r}")
        return self._qos_targets[name]

    def profile_of(self, name: str):
        """The :class:`ServiceProfile` for ``name`` (same on every node)."""
        return get_profile(name)

    @property
    def trace_sink(self):
        """The (necessarily disabled) trace sink; see :meth:`set_trace_sink`."""
        return self._sink

    def set_trace_sink(self, sink) -> None:
        """Accept a disabled sink; enabled sinks cannot cross processes."""
        if sink is not None and getattr(sink, "enabled", False):
            raise ConfigurationError(
                "the shard engine cannot emit per-node trace events across "
                "process boundaries; use --engine vector for traced runs"
            )
        self._sink = sink if sink is not None else NULL_SINK

    def migration_counts(self) -> List[Dict[str, int]]:
        """Per-node service migration counters (for final run traces)."""
        counts: List[Dict[str, int]] = []
        for reply in self._broadcast("migrations", [None] * self.workers):
            counts.extend(reply)
        return counts

    def install_faults(self, node: int, injector) -> None:
        """Install a :class:`FaultInjector` on ``node`` (in its shard)."""
        if not 0 <= node < self.num_envs:
            raise ConfigurationError(
                f"node {node} out of range [0, {self.num_envs})"
            )
        w = self._shard_of(node)
        self._send(w, "faults", (node - self._bounds[w], injector))
        self._recv(w)

    def close(self) -> None:
        """Tear down the worker processes and the shared block."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._views = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __del__(self):  # best-effort; close() is the supported path
        # During interpreter shutdown module globals may already have
        # been torn down (set to None); the atexit hook registered in
        # __init__ has then done — or will do — the real cleanup, and
        # calling close() here would only raise into the finalizer.
        if atexit is None or shared_memory is None:
            return
        if getattr(self, "_closed", True):
            return
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # worker protocol
    # ------------------------------------------------------------------ #
    def _shard_of(self, node: int) -> int:
        for w in range(self.workers):
            if self._bounds[w] <= node < self._bounds[w + 1]:
                return w
        raise ConfigurationError(f"node {node} outside shard bounds")

    def _send(self, w: int, cmd: str, payload) -> None:
        if self._closed:
            raise ConfigurationError("sharded environment is closed")
        self._conns[w].send((cmd, payload))

    def _recv(self, w: int):
        status, payload = self._conns[w].recv()
        if status == "err":
            exc, tb = payload
            raise RuntimeError(
                f"shard worker {w} failed:\n{tb}"
            ) from exc
        return payload

    def _broadcast(self, cmd: str, payloads: Sequence[Any]) -> List[Any]:
        """Send one command to every worker, then barrier on all replies."""
        for w in range(self.workers):
            self._send(w, cmd, payloads[w])
        return [self._recv(w) for w in range(self.workers)]

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> StepBatch:
        """Balance the interval's demand, then step every shard in parallel."""
        if self._closed:
            raise ConfigurationError("sharded environment is closed")
        if len(assignments) != self.num_envs:
            raise ConfigurationError(
                f"got assignments for {len(assignments)} environments, "
                f"batch has {self.num_envs}"
            )
        if self._sink.enabled:
            raise ConfigurationError(
                "the shard engine cannot emit per-node trace events across "
                "process boundaries; use --engine vector for traced runs"
            )
        timings = self.timings
        t0 = _time.perf_counter() if timings is not None else 0.0
        demand = self.traffic.demand(self._time)
        rates = self.balancer.assign(self._time, demand, self._last_loads)
        # Refused here, so that no shard installs or steps a bad matrix.
        check_rates(rates)
        if timings is not None:
            timings.get("cluster.control").add(_time.perf_counter() - t0)
            t0 = _time.perf_counter()
        # Also refused before any worker is released: a bad assignment
        # leaves every shard as it was.
        self._write_assignments(assignments)
        self._views["rates_in"][:] = rates
        self._broadcast("step", [None] * self.workers)
        # Copy out of the shared block so the batch (and anything holding
        # references into it — balancer feedback, manager transitions)
        # survives the next tick's overwrite.
        arrays = {
            key: np.array(self._views[key], copy=True) for key, _, _ in _OUT_FIELDS
        }
        arrays["qos_target"] = self._qos_target.copy()
        self._time += 1
        if timings is not None:
            timings.get("cluster.step").add(_time.perf_counter() - t0)
        batch = StepBatch(self.names, self.config.interval_s, arrays, envs=None)
        degraded = ~np.isfinite(arrays["p99"]).all(axis=1)
        degraded |= ~np.isfinite(arrays["utilization"]).all(axis=1)
        self._last_loads = NodeLoads(
            arrival_rps=arrays["arrivals"],
            utilization=arrays["utilization"],
            backlog=arrays["backlog"],
            degraded=degraded,
        )
        return batch

    def _write_assignments(
        self, assignments: Sequence[Mapping[str, CoreAssignment]]
    ) -> None:
        """Write the tick's assignments into the shared input rows.

        Only the nodes whose assignment changed are rewritten; the rows of
        the others still hold it. Each worker then installs the rows of
        its nodes that differ from what it has installed.
        """
        views = self._views
        changed, pins, level, ways = self._inputs.changes(
            assignments, views["pins_in"], views["freq_in"], views["ways_in"]
        )
        views["pins_in"][changed] = pins
        views["freq_in"][changed] = level
        views["ways_in"][changed] = ways

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Per-node trees plus the cluster control state, assembled in the
        parent — the tree (and its ``vector_run`` container bytes) is
        identical to :meth:`ClusterEnvironment.state_dict`."""
        env_trees: Dict[str, Any] = {}
        e = 0
        for reply in self._broadcast("state", [None] * self.workers):
            for tree in reply:
                env_trees[f"{e:04d}"] = tree
                e += 1
        out: Dict[str, Any] = {"num_envs": self.num_envs, "envs": env_trees}
        cluster: Dict[str, Any] = {
            "traffic": self.traffic.state_dict(),
            "balancer": self.balancer.state_dict(),
        }
        if self._last_loads is not None:
            cluster["loads"] = {
                "arrival_rps": np.asarray(self._last_loads.arrival_rps),
                "utilization": np.asarray(self._last_loads.utilization),
                "backlog": np.asarray(self._last_loads.backlog),
            }
            if self._last_loads.degraded is not None:
                cluster["loads"]["degraded"] = np.asarray(
                    self._last_loads.degraded, dtype=bool
                )
        out["cluster"] = cluster
        return out

    def load_state_dict(self, tree: Dict[str, Any]) -> None:
        """Restore nodes (shipped to their shards), traffic, balancer,
        and feedback loads; accepts :meth:`ClusterEnvironment.state_dict`
        trees unchanged."""
        try:
            cluster = dict(tree["cluster"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"cluster checkpoint missing 'cluster' subtree: {exc}"
            ) from exc
        try:
            num_envs = int(tree["num_envs"])
            env_trees = dict(tree["envs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed vector environment checkpoint: {exc}"
            ) from exc
        if num_envs != self.num_envs:
            raise CheckpointError(
                f"checkpoint describes {num_envs} environments, "
                f"batch has {self.num_envs}"
            )
        expected = {f"{e:04d}" for e in range(self.num_envs)}
        if set(env_trees) != expected:
            raise CheckpointError(
                f"vector checkpoint env keys {sorted(env_trees)} do not match "
                f"batch size {self.num_envs}"
            )
        bounds = self._bounds
        payloads = [
            [dict(env_trees[f"{e:04d}"]) for e in range(bounds[w], bounds[w + 1])]
            for w in range(self.workers)
        ]
        times = self._broadcast("load", payloads)
        self._time = int(times[0])
        self.traffic.load_state_dict(dict(cluster["traffic"]))
        self.balancer.load_state_dict(dict(cluster["balancer"]))
        loads = cluster.get("loads")
        if loads is not None:
            loads = dict(loads)
            degraded = loads.get("degraded")
            self._last_loads = NodeLoads(
                arrival_rps=np.asarray(loads["arrival_rps"], dtype=np.float64),
                utilization=np.asarray(loads["utilization"], dtype=np.float64),
                backlog=np.asarray(loads["backlog"], dtype=np.float64),
                degraded=(
                    None if degraded is None else np.asarray(degraded, dtype=bool)
                ),
            )
        else:
            self._last_loads = None
