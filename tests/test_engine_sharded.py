"""ShardedClusterEnvironment: bit-identity with the in-process vector engine.

The shard engine moves only the fused node simulation into worker
processes; traffic, balancing, and the manager's act/train path stay in
the parent with the exact same RNG streams. Every test here therefore
demands *exact* equality — trajectories, state trees, and checkpoint
bytes — not closeness.
"""

import zipfile

import numpy as np
import pytest

from repro.cluster.environment import ClusterEnvironment
from repro.core.actions import Allocation
from repro.core.config import TwigConfig
from repro.core.mapper import Mapper
from repro.engine.fleet import FleetTwig
from repro.engine.rollout import RUN_CKPT_NAME, run_fleet
from repro.engine.sharded import ShardedClusterEnvironment
from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.hier import BudgetConfig, HierFleetTwig
from repro.obs.sink import MemorySink
from repro.server.machine import CoreAssignment
from repro.services.profiles import get_profile
from repro.sim.faults import Fault, FaultInjector

SERVICES = ["masstree", "xapian"]


def _make_manager(num_nodes, seed=7, hier=False):
    profiles = [get_profile(s) for s in SERVICES]
    config = TwigConfig.fast(epsilon_mid_steps=10, epsilon_final_steps=20)
    if hier:
        manager = HierFleetTwig(
            profiles,
            config,
            np.random.default_rng(seed + 1),
            num_envs=num_nodes,
            budget=BudgetConfig(period=4),
            allocator_rng=np.random.default_rng(seed + 2),
        )
    else:
        manager = FleetTwig(
            profiles,
            config,
            np.random.default_rng(seed + 1),
            num_envs=num_nodes,
        )
    manager.index_tag = "node"
    return manager


def _make_env(engine, num_nodes, seed=7, balancer="least_loaded", workers=2):
    kwargs = dict(
        num_nodes=num_nodes, seed=seed, traffic="diurnal", balancer=balancer
    )
    if engine == "shard":
        return ShardedClusterEnvironment.from_services(
            SERVICES, workers=workers, **kwargs
        )
    return ClusterEnvironment.from_services(SERVICES, **kwargs)


def _series_equal(a, b):
    """Exact equality for float time series, treating NaN == NaN (crash
    faults legitimately put NaNs in the p99 trace)."""
    return np.array_equal(
        np.asarray(a, dtype=np.float64),
        np.asarray(b, dtype=np.float64),
        equal_nan=True,
    )


def _assert_traces_equal(a, b):
    assert len(a) == len(b)
    for e, (ta, tb) in enumerate(zip(a, b)):
        assert ta.manager_name == tb.manager_name
        assert ta.interval_s == tb.interval_s
        assert _series_equal(ta.power_w, tb.power_w), e
        assert _series_equal(ta.true_power_w, tb.true_power_w), e
        assert _series_equal(ta.membw_utilization, tb.membw_utilization), e
        assert dict(ta.migrations) == dict(tb.migrations), e
        assert set(ta.services) == set(tb.services), e
        for name in ta.services:
            sa, sb = ta.services[name], tb.services[name]
            assert sa.qos_target_ms == sb.qos_target_ms, (e, name)
            assert _series_equal(sa.p99_ms, sb.p99_ms), (e, name)
            assert _series_equal(sa.arrival_rps, sb.arrival_rps), (e, name)
            assert _series_equal(sa.cores, sb.cores), (e, name)
            assert _series_equal(sa.frequency_ghz, sb.frequency_ghz), (e, name)


def _assert_tree_equal(a, b, path="root"):
    """Exact (bitwise for arrays) equality of two checkpoint trees."""
    if isinstance(a, dict):
        assert isinstance(b, dict), path
        assert set(a) == set(b), path
        for key in a:
            _assert_tree_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype, path
        assert a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_tree_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _run_pair(num_nodes, steps, workers, balancer="least_loaded", seed=7):
    """Run the same fleet through both engines; return (vec, shard) pieces."""
    results = {}
    for engine in ("vector", "shard"):
        manager = _make_manager(num_nodes, seed=seed)
        venv = _make_env(engine, num_nodes, seed=seed, balancer=balancer,
                         workers=workers)
        try:
            traces = run_fleet(manager, venv, steps)
            results[engine] = (traces, venv.state_dict(), manager.state_dict())
        finally:
            venv.close()
    return results["vector"], results["shard"]


class TestTrajectoryIdentity:
    def test_traces_states_match_vector(self):
        vec, shard = _run_pair(num_nodes=6, steps=10, workers=3)
        _assert_traces_equal(vec[0], shard[0])
        _assert_tree_equal(vec[1], shard[1])
        _assert_tree_equal(vec[2], shard[2])

    def test_uneven_shards(self):
        # 5 nodes over 2 workers: shard bounds 3 + 2, like np.array_split.
        vec, shard = _run_pair(
            num_nodes=5, steps=8, workers=2, balancer="power_of_two"
        )
        _assert_traces_equal(vec[0], shard[0])
        _assert_tree_equal(vec[1], shard[1])

    def test_workers_clamped_to_nodes(self):
        venv = _make_env("shard", num_nodes=2, workers=8)
        try:
            assert venv.workers == 2
            vec, shard = None, None
        finally:
            venv.close()
        vec, shard = _run_pair(num_nodes=2, steps=6, workers=8)
        _assert_traces_equal(vec[0], shard[0])

    def test_single_worker(self):
        vec, shard = _run_pair(num_nodes=3, steps=6, workers=1)
        _assert_traces_equal(vec[0], shard[0])
        _assert_tree_equal(vec[1], shard[1])

    def test_migration_counts_match(self):
        results = {}
        for engine in ("vector", "shard"):
            manager = _make_manager(4)
            venv = _make_env(engine, 4, workers=2)
            try:
                run_fleet(manager, venv, 6)
                results[engine] = venv.migration_counts()
            finally:
                venv.close()
        vec = [dict(c) for c in results["vector"]]
        shard = [dict(c) for c in results["shard"]]
        assert vec == shard


class TestFaults:
    def test_degraded_node_inside_shard(self):
        # A pmc_nan + service_crash burst on node 2 must degrade the node,
        # shed its traffic, and stay bit-identical across engines: the
        # fault injector RNG lives with the node in its worker.
        def faults():
            return [
                Fault(kind="pmc_nan", service="masstree", start=2, duration=3),
                Fault(kind="service_crash", service="xapian", start=4, duration=2),
            ]

        results = {}
        for engine in ("vector", "shard"):
            manager = _make_manager(5)
            venv = _make_env(engine, 5, workers=2, balancer="power_of_two")
            try:
                injector = FaultInjector(faults(), np.random.default_rng(99))
                if engine == "shard":
                    venv.install_faults(2, injector)
                else:
                    venv.envs[2].faults = injector
                traces = run_fleet(manager, venv, 8)
                results[engine] = (traces, venv.state_dict())
            finally:
                venv.close()
        _assert_traces_equal(results["vector"][0], results["shard"][0])
        _assert_tree_equal(results["vector"][1], results["shard"][1])

    def test_install_faults_bounds(self):
        venv = _make_env("shard", num_nodes=3, workers=2)
        try:
            with pytest.raises(ConfigurationError):
                venv.install_faults(3, FaultInjector([]))
        finally:
            venv.close()


class TestCheckpoints:
    def _run_with_ckpt(self, engine, directory, steps=8, every=4):
        manager = _make_manager(4)
        venv = _make_env(engine, 4, workers=2)
        try:
            traces = run_fleet(
                manager, venv, steps, checkpoint_every=every,
                checkpoint_dir=directory,
            )
        finally:
            venv.close()
        return traces

    def test_checkpoint_bytes_identical(self, tmp_path):
        a, b = tmp_path / "vec", tmp_path / "shard"
        a.mkdir(), b.mkdir()
        self._run_with_ckpt("vector", a)
        self._run_with_ckpt("shard", b)
        with zipfile.ZipFile(a / RUN_CKPT_NAME) as za, zipfile.ZipFile(
            b / RUN_CKPT_NAME
        ) as zb:
            assert za.namelist() == zb.namelist()
            for name in za.namelist():
                assert za.read(name) == zb.read(name), name

    def test_cross_engine_resume(self, tmp_path):
        # A shard env resuming a vector-engine run checkpoint must land
        # on the same trajectory as an uninterrupted vector run.
        full_dir = tmp_path / "full"
        half_dir = tmp_path / "half"
        full_dir.mkdir(), half_dir.mkdir()
        full = self._run_with_ckpt("vector", full_dir, steps=8, every=4)
        # The half-run file holds the t=4 mid-flight checkpoint (the
        # final-step checkpoint is skipped by run_fleet).
        self._run_with_ckpt("vector", half_dir, steps=8, every=4)

        manager = _make_manager(4)
        venv = _make_env("shard", 4, workers=2)
        try:
            resumed = run_fleet(
                manager, venv, 8, resume_from=half_dir / RUN_CKPT_NAME
            )
        finally:
            venv.close()
        _assert_traces_equal(full, resumed)

    def test_load_rejects_wrong_shape(self):
        venv = _make_env("shard", num_nodes=3, workers=2)
        other = _make_env("vector", num_nodes=4)
        try:
            with pytest.raises(CheckpointError):
                venv.load_state_dict(other.state_dict())
            with pytest.raises(CheckpointError):
                venv.load_state_dict({"num_envs": 3})
        finally:
            venv.close()


class TestHier:
    def test_hier_budgets_and_traces_match(self):
        results = {}
        for engine in ("vector", "shard"):
            manager = _make_manager(4, hier=True)
            venv = _make_env(engine, 4, workers=2)
            try:
                traces = run_fleet(manager, venv, 9)
                results[engine] = (
                    traces, manager.budgets.copy(), manager.state_dict()
                )
            finally:
                venv.close()
        _assert_traces_equal(results["vector"][0], results["shard"][0])
        assert np.array_equal(results["vector"][1], results["shard"][1])
        _assert_tree_equal(results["vector"][2], results["shard"][2])


class TestAssignmentRows:
    """Assignments reach the workers as shared-memory rows only."""

    def _schedule(self, venv, num_nodes):
        """Dicts, a batch, the same dicts again, the same batch again."""
        mapper = Mapper(venv.spec, socket_index=venv.config.socket_index)
        top = len(venv.spec.dvfs) - 1
        dicts = [
            mapper.map({name: Allocation(2 + e, top - e) for name in SERVICES})
            for e in range(num_nodes)
        ]
        cores = np.array([[9, 12]] * num_nodes)
        batch = mapper.map_rows(SERVICES, cores, np.ones_like(cores), np.zeros_like(cores))
        return [dicts, batch, dicts, batch]

    def test_step_message_carries_no_assignments(self):
        venv = _make_env("shard", num_nodes=4, workers=2)
        sent = []
        send = venv._send

        def recording(w, cmd, payload):
            sent.append((cmd, payload))
            send(w, cmd, payload)

        venv._send = recording
        try:
            run_fleet(_make_manager(4), venv, 4)  # batches
            for assignments in self._schedule(venv, 4):
                venv.step(assignments)
        finally:
            venv.close()
        steps = [payload for cmd, payload in sent if cmd == "step"]
        assert len(steps) == 2 * 8 and all(payload is None for payload in steps)

    def test_dicts_and_batches_interleave_like_vector(self):
        trees = {}
        for engine in ("vector", "shard"):
            venv = _make_env(engine, 5, workers=2)
            try:
                for assignments in self._schedule(venv, 5):
                    venv.step(assignments)
                trees[engine] = venv.state_dict()
            finally:
                venv.close()
        _assert_tree_equal(trees["vector"], trees["shard"])

    def test_bad_assignment_is_refused_before_any_worker_steps(self):
        venv = _make_env("shard", num_nodes=3, workers=2)
        try:
            good = self._schedule(venv, 3)[0]
            venv.step(good)
            before = venv.state_dict()["envs"]
            bad = list(good)
            bad[2] = {**good[2], "xapian": CoreAssignment(cores=(), freq_index=1)}
            with pytest.raises(AllocationError, match="zero cores"):
                venv.step(bad)
            assert venv.time == 1
            _assert_tree_equal(venv.state_dict()["envs"], before)
            venv.step(good)
        finally:
            venv.close()


class TestSurfaceAndErrors:
    def test_rejects_enabled_trace_sink(self):
        venv = _make_env("shard", num_nodes=2, workers=2)
        try:
            with pytest.raises(ConfigurationError, match="engine vector"):
                venv.set_trace_sink(MemorySink())
        finally:
            venv.close()

    def test_step_after_close_raises(self):
        venv = _make_env("shard", num_nodes=2, workers=2)
        venv.close()
        venv.close()  # idempotent
        with pytest.raises(ConfigurationError):
            venv.step([{} for _ in range(2)])

    def test_qos_target_of(self):
        venv = _make_env("shard", num_nodes=2, workers=2)
        try:
            assert venv.qos_target_of("masstree") == get_profile(
                "masstree"
            ).qos_target_ms
            with pytest.raises(ConfigurationError):
                venv.qos_target_of("nope")
        finally:
            venv.close()

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedClusterEnvironment.from_services(
                SERVICES, num_nodes=2, seed=1, workers=0
            )
        with pytest.raises(ConfigurationError):
            ShardedClusterEnvironment.from_services(
                SERVICES, num_nodes=0, seed=1
            )


class TestExperimentConfigs:
    def test_cluster_config_accepts_shard(self):
        from repro.experiments.cluster import ClusterConfig

        config = ClusterConfig(engine="shard", workers=2)
        assert config.workers == 2
        with pytest.raises(ConfigurationError):
            ClusterConfig(engine="shard", workers=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(engine="threads")

    def test_hier_config_accepts_shard(self):
        from repro.experiments.hier import HierConfig

        HierConfig(engine="shard", workers=2)
        with pytest.raises(ConfigurationError):
            HierConfig(engine="scalar")
        with pytest.raises(ConfigurationError):
            HierConfig(engine="shard", workers=0)

    def test_cluster_config_rejects_more_workers_than_nodes(self):
        from repro.experiments.cluster import ClusterConfig

        with pytest.raises(ConfigurationError, match="exceeds num_nodes"):
            ClusterConfig(engine="shard", num_nodes=2, workers=3)
        # The vector engine has no workers, so the check must not fire.
        ClusterConfig(engine="vector", num_nodes=2, workers=3)

    def test_hier_config_rejects_more_workers_than_nodes(self):
        from repro.experiments.hier import HierConfig

        with pytest.raises(ConfigurationError, match="exceeds num_nodes"):
            HierConfig(engine="shard", num_nodes=2, workers=3)
        HierConfig(engine="vector", num_nodes=2, workers=3)


# A child script that creates a sharded environment, reports the shm
# segment name on stdout, then idles (the test decides how it dies).
_PARENT_SCRIPT = """
import sys, time
from repro.engine.sharded import ShardedClusterEnvironment

venv = ShardedClusterEnvironment.from_services(
    ["masstree", "xapian"], num_nodes=2, seed=3, workers=2
)
print(venv._shm.name, flush=True)
mode = sys.argv[1]
if mode == "exit-without-close":
    sys.exit(0)  # atexit hook must unlink the segment
# mode == "idle": wait to be killed from outside
time.sleep(120)
"""


def _segment_path(name):
    import pathlib

    return pathlib.Path("/dev/shm") / name.lstrip("/")


def _wait_for_unlink(name, timeout_s=30.0):
    import time

    path = _segment_path(name)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not path.exists():
            return True
        time.sleep(0.2)
    return not path.exists()


@pytest.mark.skipif(
    not __import__("pathlib").Path("/dev/shm").is_dir(),
    reason="needs a POSIX /dev/shm to observe segment lifetimes",
)
class TestSegmentLifecycle:
    def test_close_unlinks_segment(self):
        venv = _make_env("shard", num_nodes=2, workers=2)
        name = venv._shm.name
        assert _segment_path(name).exists()
        venv.close()
        assert not _segment_path(name).exists()
        venv.close()  # idempotent

    def test_parent_exit_without_close_unlinks_segment(self, tmp_path):
        import subprocess
        import sys

        script = tmp_path / "parent.py"
        script.write_text(_PARENT_SCRIPT)
        proc = subprocess.run(
            [sys.executable, str(script), "exit-without-close"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip().splitlines()[0]
        assert _wait_for_unlink(name), (
            f"/dev/shm/{name} leaked after parent exited without close()"
        )

    def test_parent_killed_hard_leaves_no_orphan_segment(self, tmp_path):
        import signal
        import subprocess
        import sys

        script = tmp_path / "parent.py"
        script.write_text(_PARENT_SCRIPT)
        proc = subprocess.Popen(
            [sys.executable, str(script), "idle"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            name = proc.stdout.readline().strip()
            assert name, "child never reported its segment name"
            assert _segment_path(name).exists()
            # SIGKILL: no atexit, no __del__, no finally in the parent.
            # Workers see EOF on their pipes and exit; the multiprocessing
            # resource tracker then unlinks the orphaned segment.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            assert _wait_for_unlink(name), (
                f"/dev/shm/{name} orphaned after SIGKILL of the parent"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()

    def test_workers_exit_cleanly_on_sigterm(self):
        import os
        import signal

        venv = _make_env("shard", num_nodes=2, workers=2)
        try:
            # A command round-trip guarantees every worker reached its
            # serve loop (and installed its SIGTERM handler) before we
            # signal it.
            assert len(venv.migration_counts()) == 2
            procs = list(venv._procs)
            assert procs
            for proc in procs:
                os.kill(proc.pid, signal.SIGTERM)
            for proc in procs:
                proc.join(timeout=10.0)
                # The worker's SIGTERM handler raises SystemExit(0) so its
                # finally-block shm cleanup runs; the default disposition
                # would report -SIGTERM here.
                assert proc.exitcode == 0
        finally:
            venv.close()
