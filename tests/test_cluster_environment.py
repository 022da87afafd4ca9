"""ClusterEnvironment: scalar equivalence, events, checkpoints, experiment."""

import numpy as np
import pytest

from repro.cluster.balancer import NodeLoads, make_balancer
from repro.cluster.environment import (
    BALANCER_SEED_OFFSET,
    TRAFFIC_SEED_OFFSET,
    ClusterEnvironment,
    make_cluster_node,
)
from repro.cluster.topology import ClusterTopology
from repro.cluster.traffic import TrafficModel, make_traffic_spec
from repro.core.config import TwigConfig
from repro.core.mapper import AssignmentBatch, Mapper
from repro.engine.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.errors import AllocationError, ConfigurationError
from repro.experiments.cluster import ClusterConfig, run as run_cluster
from repro.obs.sink import MemorySink
from repro.services.profiles import get_profile
from tests.helpers import _assert_traces_equal, _assert_tree_equal

SERVICES = ["masstree", "xapian"]


def _ulp_close(a: float, b: float) -> bool:
    """Equal up to vectorized-vs-scalar summation-order round-off (the
    same tolerance the PR-6 engine oracle uses)."""
    return bool(np.isclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True))


def _static_assignments(venv, cores=6):
    """Every node's services on ``cores`` cores each at the top DVFS index."""
    mapper = Mapper(venv.spec, socket_index=venv.config.socket_index)
    shape = (venv.num_envs, len(venv.names))
    return mapper.map_rows(
        venv.names, np.full(shape, cores), np.full(shape, len(venv.spec.dvfs) - 1),
        np.zeros(shape),
    )


def _build_cluster(num_nodes, seed=7, traffic="diurnal", balancer="least_loaded"):
    venv = ClusterEnvironment.from_services(
        SERVICES, num_nodes=num_nodes, seed=seed, traffic=traffic, balancer=balancer
    )
    manager = FleetTwig(
        [get_profile(s) for s in SERVICES],
        TwigConfig.fast(epsilon_mid_steps=10, epsilon_final_steps=20),
        np.random.default_rng(seed + 1),
        num_envs=num_nodes,
    )
    manager.index_tag = "node"
    return manager, venv


class TestScalarEquivalence:
    @pytest.mark.parametrize("balancer", ["round_robin", "power_of_two"])
    def test_one_node_cluster_matches_hand_stepped_scalar(self, balancer):
        """A 1-node cluster is bit-identical to a scalar environment fed
        the same balancer rates via set_rate (the oracle for the whole
        traffic -> balancer -> vector-step path)."""
        seed, steps = 13, 20
        venv = ClusterEnvironment.from_services(
            SERVICES, num_nodes=1, seed=seed, traffic="diurnal", balancer=balancer
        )
        assignments = _static_assignments(venv)

        env = make_cluster_node(SERVICES, seed)
        topology = ClusterTopology(1, ("r0",))
        model = TrafficModel(
            make_traffic_spec("diurnal", SERVICES),
            topology,
            np.random.default_rng(seed + TRAFFIC_SEED_OFFSET),
        )
        policy = make_balancer(balancer, topology, seed=seed + BALANCER_SEED_OFFSET)

        loads = None
        for _ in range(steps):
            vec = venv.step(assignments)[0]
            rates = policy.assign(env.time, model.demand(env.time), loads)
            for i, name in enumerate(SERVICES):
                env.load_generators[name].set_rate(rates[0, i])
            scalar = env.step(assignments[0])
            obs = scalar.observations
            loads = NodeLoads(
                arrival_rps=np.array(
                    [[obs[n].interval.arrival_rate for n in SERVICES]]
                ),
                utilization=np.array([[obs[n].interval.utilization for n in SERVICES]]),
                backlog=np.array([[obs[n].interval.backlog for n in SERVICES]]),
            )
            assert _ulp_close(vec.socket_power_w, scalar.socket_power_w)
            assert _ulp_close(vec.energy_j, scalar.energy_j)
            for name in SERVICES:
                assert _ulp_close(
                    vec.observations[name].p99_ms, scalar.observations[name].p99_ms
                )
                # the balancer rate is installed verbatim on both sides
                assert (
                    vec.observations[name].interval.arrival_rate
                    == scalar.observations[name].interval.arrival_rate
                )


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a = ClusterEnvironment.from_services(SERVICES, 6, seed=3,
                                             balancer="power_of_two")
        b = ClusterEnvironment.from_services(SERVICES, 6, seed=3,
                                             balancer="power_of_two")
        assignments = _static_assignments(a)
        for _ in range(10):
            ra, rb = a.step(assignments), b.step(assignments)
            for x, y in zip(ra, rb):
                assert x.socket_power_w == y.socket_power_w
                for name in SERVICES:
                    assert x.observations[name].p99_ms == y.observations[name].p99_ms

    def test_different_seed_different_trajectory(self):
        a = ClusterEnvironment.from_services(SERVICES, 4, seed=3)
        b = ClusterEnvironment.from_services(SERVICES, 4, seed=4)
        assignments = _static_assignments(a)
        ra, rb = a.step(assignments), b.step(assignments)
        assert any(x.socket_power_w != y.socket_power_w for x, y in zip(ra, rb))


class TestRefusedStep:
    def test_refused_step_draws_no_traffic_or_balancer_randomness(self):
        """A step refused for a bad assignment changes nothing, the
        traffic model's and the balancer's RNG streams included, so the
        retried step equals the step of a twin that was never refused."""

        def cluster():
            return ClusterEnvironment.from_services(
                SERVICES, num_nodes=4, seed=3, balancer="power_of_two"
            )

        venv, twin = cluster(), cluster()
        assignments = _static_assignments(venv)
        venv.step(assignments)
        twin.step(assignments)
        pins = assignments.pins.copy()
        pins[0, 0] = False  # node 0's masstree on no core
        bad = AssignmentBatch(
            venv.names, assignments.core_ids, pins, assignments.freq, assignments.ways
        )
        before = venv.state_dict()
        with pytest.raises(AllocationError, match="zero cores"):
            venv.step(bad)
        assert venv.time == 1
        _assert_tree_equal(venv.state_dict(), before)
        retried, stepped = venv.step(assignments), twin.step(assignments)
        for key in ("arrivals", "p99", "power_w", "true_power_w"):
            assert retried.arrays[key].tobytes() == stepped.arrays[key].tobytes(), key
        _assert_tree_equal(venv.state_dict(), twin.state_dict())


class TestEvents:
    def test_events_node_tagged_and_schema_valid(self):
        venv = ClusterEnvironment.from_services(SERVICES, 3, seed=5)
        sink = MemorySink(validate=True)
        venv.attach_obs(sink, None)
        assignments = _static_assignments(venv, cores=2)  # force violations
        for _ in range(4):
            venv.step(assignments)
        intervals = sink.of_type("interval")
        assert len(intervals) == 3 * 4
        assert sorted({e["node"] for e in intervals}) == [0, 1, 2]
        assert all("env" not in e for e in intervals)
        violations = sink.of_type("qos_violation")
        assert violations and all("node" in e for e in violations)

    def test_cluster_interval_aggregates(self):
        venv = ClusterEnvironment.from_services(SERVICES, 3, seed=5)
        sink = MemorySink(validate=True)
        venv.attach_obs(sink, None)
        assignments = _static_assignments(venv)
        results = venv.step(assignments)
        (event,) = sink.of_type("cluster_interval")
        assert event["nodes"] == 3
        assert event["power_w"] == pytest.approx(
            sum(r.socket_power_w for r in results)
        )
        assert event["energy_j"] == pytest.approx(sum(r.energy_j for r in results))
        assert 0.0 <= event["qos_guarantee"] <= 1.0
        for name in SERVICES:
            per = event["services"][name]
            assert per["offered_rps"] == pytest.approx(
                sum(r.observations[name].interval.arrival_rate for r in results)
            )
            assert per["qos_nodes"] == sum(
                r.observations[name].qos_met for r in results
            )

    def test_run_fleet_tags_run_events_with_node(self):
        manager, venv = _build_cluster(2)
        sink = MemorySink(validate=True)
        from repro.obs.context import ObsContext

        run_fleet(manager, venv, 3, obs=ObsContext(sink=sink))
        starts = sink.of_type("run_start")
        assert sorted(e["node"] for e in starts) == [0, 1]
        assert all("node" in e for e in sink.of_type("reward"))


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        steps = 16
        plain_manager, plain_venv = _build_cluster(2)
        plain = run_fleet(plain_manager, plain_venv, steps)

        first_manager, first_venv = _build_cluster(2)
        run_fleet(
            first_manager, first_venv, steps,
            checkpoint_every=8, checkpoint_dir=tmp_path,
        )
        resumed_manager, resumed_venv = _build_cluster(2)
        resumed = run_fleet(resumed_manager, resumed_venv, steps,
                            resume_from=tmp_path)
        _assert_traces_equal(resumed, plain)

    def test_state_roundtrip_restores_cluster_layer(self):
        venv = ClusterEnvironment.from_services(SERVICES, 2, seed=9,
                                                balancer="power_of_two")
        assignments = _static_assignments(venv)
        venv.step(assignments)
        tree = venv.state_dict()
        assert "cluster" in tree and "loads" in tree["cluster"]
        other = ClusterEnvironment.from_services(SERVICES, 2, seed=1,
                                                 balancer="power_of_two")
        other.load_state_dict(tree)
        a = venv.step(assignments)
        b = other.step(assignments)
        for x, y in zip(a, b):
            assert x.socket_power_w == y.socket_power_w


class TestExperiment:
    def _config(self, **overrides):
        base = dict(
            services=tuple(SERVICES), num_nodes=3, steps=12, seed=3,
            epsilon_mid_steps=5, epsilon_final_steps=10, window=6,
        )
        base.update(overrides)
        return ClusterConfig(**base)

    def test_vector_run_shape_and_reproducibility(self):
        result = run_cluster(self._config())
        assert result.num_nodes == 3 and len(result.traces) == 3
        assert set(result.qos_guarantee) == set(SERVICES)
        assert result.mean_cluster_power_w > 0
        again = run_cluster(self._config())
        assert again.qos_guarantee == result.qos_guarantee
        assert again.mean_cluster_power_w == result.mean_cluster_power_w
        assert again.total_energy_j == result.total_energy_j

    def test_registry_dispatch(self):
        from repro.experiments import run_experiment

        result = run_experiment("cluster", self._config(num_nodes=2, steps=4))
        assert result.num_nodes == 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            self._config(balancer="nope")
        with pytest.raises(ConfigurationError):
            self._config(traffic="nope")
        for engine in ("vector", "scalar", "shard"):
            with pytest.raises(TypeError):
                self._config(engine=engine)
        with pytest.raises(ConfigurationError):
            self._config(num_nodes=1)  # two regions need two nodes
        for window in (0, -5):
            with pytest.raises(ConfigurationError, match="window"):
                self._config(window=window)

    def test_one_node_config_with_single_region(self):
        result = run_cluster(
            self._config(num_nodes=1, steps=4, regions=("r0",), window=4)
        )
        assert result.num_nodes == 1


class TestValidation:
    def test_topology_mismatch_rejected(self):
        venv = ClusterEnvironment.from_services(SERVICES, 2, seed=1)
        wrong = ClusterTopology(3, ("r0",))
        with pytest.raises(ConfigurationError):
            ClusterEnvironment(SERVICES, 2, 1, venv.traffic,
                               make_balancer("round_robin", wrong))
