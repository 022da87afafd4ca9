"""Balancer invariants: conservation, determinism, policy behaviour."""

import numpy as np
import pytest

from repro.cluster.balancer import (
    BALANCER_POLICIES,
    LeastLoadedBalancer,
    NodeLoads,
    PowerOfTwoBalancer,
    RoundRobinBalancer,
    ShardedByKeyBalancer,
    make_balancer,
)
from repro.cluster.topology import ClusterTopology
from repro.errors import ConfigurationError

POLICIES = sorted(BALANCER_POLICIES)


def _topology(num_nodes=7, regions=("r0", "r1")):
    return ClusterTopology(num_nodes, regions)


def _demand(topology, services=3, level=900.0):
    rng = np.random.default_rng(0)
    return level * (1.0 + rng.random((topology.num_regions, services)))


def _loads(topology, services=3, seed=1):
    rng = np.random.default_rng(seed)
    n = topology.num_nodes
    return NodeLoads(
        arrival_rps=200.0 * rng.random((n, services)),
        utilization=rng.random((n, services)),
        backlog=np.where(rng.random((n, services)) > 0.7, 50.0, 0.0),
    )


class TestConservation:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_traffic_conserved_without_feedback(self, policy):
        topology = _topology()
        balancer = make_balancer(policy, topology, seed=5)
        demand = _demand(topology)
        rates = balancer.assign(0, demand)
        assert rates.shape == (topology.num_nodes, 3)
        assert (rates >= 0).all()
        # per (region, service): node rates sum to the regional demand
        for r in range(topology.num_regions):
            nodes = topology.region_nodes(r)
            np.testing.assert_allclose(
                rates[nodes].sum(axis=0), demand[r], rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_traffic_conserved_with_feedback(self, policy):
        topology = _topology(num_nodes=9, regions=("r0", "r1", "r2"))
        balancer = make_balancer(policy, topology, seed=5)
        demand = _demand(topology)
        rates = balancer.assign(3, demand, _loads(topology))
        for r in range(topology.num_regions):
            nodes = topology.region_nodes(r)
            np.testing.assert_allclose(
                rates[nodes].sum(axis=0), demand[r], rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_node_gets_everything(self, policy):
        topology = _topology(num_nodes=1, regions=("r0",))
        balancer = make_balancer(policy, topology)
        demand = _demand(topology)
        np.testing.assert_allclose(balancer.assign(0, demand)[0], demand[0])


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fixed_seed_fixed_assignment(self, policy):
        topology = _topology()
        demand = _demand(topology)
        loads = _loads(topology)
        a = make_balancer(policy, topology, seed=42)
        b = make_balancer(policy, topology, seed=42)
        for t in range(8):
            np.testing.assert_array_equal(
                a.assign(t, demand, loads), b.assign(t, demand, loads)
            )

    def test_power_of_two_seed_changes_assignment(self):
        topology = _topology()
        demand = _demand(topology)
        a = make_balancer("power_of_two", topology, seed=1).assign(0, demand)
        b = make_balancer("power_of_two", topology, seed=2).assign(0, demand)
        assert not np.array_equal(a, b)


class TestRoundRobin:
    def test_cursor_rotates_remainder_chunks(self):
        topology = _topology(num_nodes=3, regions=("r0",))
        balancer = RoundRobinBalancer(topology, granularity=4)  # remainder 1
        demand = np.array([[300.0]])
        first = balancer.assign(0, demand)
        second = balancer.assign(1, demand)
        assert not np.array_equal(first, second)  # extra chunk moved on
        # over 3 intervals every node got the extra chunk exactly once
        total = first + second + balancer.assign(2, demand)
        np.testing.assert_allclose(total, total[0, 0])

    def test_even_split_when_granularity_divides(self):
        topology = _topology(num_nodes=4, regions=("r0",))
        balancer = RoundRobinBalancer(topology, granularity=64)
        rates = balancer.assign(0, np.array([[400.0, 800.0]]))
        np.testing.assert_allclose(rates[:, 0], 100.0)
        np.testing.assert_allclose(rates[:, 1], 200.0)

    def test_state_roundtrip(self):
        topology = _topology(num_nodes=3, regions=("r0",))
        demand = np.array([[300.0]])
        a = RoundRobinBalancer(topology, granularity=4)
        a.assign(0, demand)
        saved = a.state_dict()
        b = RoundRobinBalancer(topology, granularity=4)
        b.load_state_dict(saved)
        np.testing.assert_array_equal(a.assign(1, demand), b.assign(1, demand))


class TestLeastLoaded:
    def test_loaded_node_receives_less(self):
        topology = _topology(num_nodes=4, regions=("r0",))
        balancer = LeastLoadedBalancer(topology)
        loads = NodeLoads(
            arrival_rps=np.full((4, 1), 100.0),
            utilization=np.array([[0.95], [0.2], [0.2], [0.2]]),
            backlog=np.zeros((4, 1)),
        )
        rates = balancer.assign(1, np.array([[400.0]]), loads)
        assert rates[0, 0] < rates[1, 0]

    def test_uniform_without_feedback(self):
        topology = _topology(num_nodes=4, regions=("r0",))
        rates = LeastLoadedBalancer(topology).assign(0, np.array([[400.0]]))
        np.testing.assert_allclose(rates[:, 0], 100.0)

    def test_backlog_raises_pressure(self):
        loads = NodeLoads(
            arrival_rps=np.full((2, 1), 100.0),
            utilization=np.full((2, 1), 0.5),
            backlog=np.array([[80.0], [0.0]]),
        )
        pressure = loads.pressure()
        assert pressure[0] > pressure[1]


class TestPowerOfTwo:
    def test_prefers_unloaded_nodes(self):
        topology = _topology(num_nodes=4, regions=("r0",))
        balancer = PowerOfTwoBalancer(topology, seed=3, granularity=256)
        loads = NodeLoads(
            arrival_rps=np.full((4, 1), 100.0),
            utilization=np.array([[1.0], [0.1], [0.1], [0.1]]),
            backlog=np.zeros((4, 1)),
        )
        rates = balancer.assign(1, np.array([[400.0]]), loads)
        assert rates[0, 0] < rates[1:, 0].min()

    def test_state_roundtrip_resumes_rng(self):
        topology = _topology()
        demand = _demand(topology)
        a = PowerOfTwoBalancer(topology, seed=7)
        a.assign(0, demand)
        saved = a.state_dict()
        b = PowerOfTwoBalancer(topology, seed=99)
        b.load_state_dict(saved)
        np.testing.assert_array_equal(a.assign(1, demand), b.assign(1, demand))


def _array_shares(rng, n, granularity, pressure, services):
    """The two-choice picks as they ran over float64 arrays and numpy
    scalars, before they ran over Python lists."""
    if pressure is None:
        running = np.zeros(n)
    else:
        running = np.where(np.isfinite(pressure), pressure.astype(np.float64), np.inf)
    counts = np.zeros(n)
    chunk_load = 1.0 / granularity
    for a, b in rng.integers(0, n, size=(granularity, 2)):
        pick = a if running[a] <= running[b] else b
        counts[pick] += 1
        running[pick] += chunk_load
    return np.broadcast_to((counts / granularity)[:, None], (n, services)).copy()


class TestPowerOfTwoPicks:
    @pytest.mark.parametrize("seed", range(8))
    def test_list_picks_match_the_array_loop_bit_for_bit(self, seed):
        """Ties, faulted (NaN and inf) nodes and no feedback included."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        granularity = int(rng.integers(1, 200))
        pressure = None
        if seed % 4:
            pressure = rng.choice([0.0, 0.25, 0.5, 1.0], size=n) + rng.random(n) * (seed % 2)
            pressure[rng.random(n) < 0.2] = rng.choice([np.nan, np.inf])
        balancer = PowerOfTwoBalancer(_topology(n, ("r0",)), seed=seed,
                                      granularity=granularity)
        reference = np.random.default_rng(seed)
        for t in range(3):
            got = balancer._shares(0, t, n, np.ones(3), pressure)
            expected = _array_shares(reference, n, granularity, pressure, 3)
            assert got.tobytes() == expected.tobytes()
        assert balancer._rng.bit_generator.state == reference.bit_generator.state


class TestShardedByKey:
    def test_assignment_ignores_time_and_load(self):
        topology = _topology()
        balancer = ShardedByKeyBalancer(topology, seed=5)
        demand = _demand(topology)
        first = balancer.assign(0, demand)
        np.testing.assert_array_equal(first, balancer.assign(50, demand))
        np.testing.assert_array_equal(
            first, balancer.assign(51, demand, _loads(topology))
        )

    def test_skew_concentrates_traffic(self):
        topology = _topology(num_nodes=8, regions=("r0",))
        demand = np.array([[800.0]])
        flat = ShardedByKeyBalancer(topology, seed=5, skew=0.0).assign(0, demand)
        skewed = ShardedByKeyBalancer(topology, seed=5, skew=1.2).assign(0, demand)
        assert skewed.max() > flat.max()


class TestAllSaturated:
    """Regression: all-saturated feedback must stay finite and conserving."""

    def _saturated_loads(self, n, services=2):
        # Every node fully saturated with a deep backlog: pressure ~2.0,
        # headroom pinned to the floor on every node.
        return NodeLoads(
            arrival_rps=np.full((n, services), 100.0),
            utilization=np.ones((n, services)),
            backlog=np.full((n, services), 500.0),
        )

    @pytest.mark.parametrize("policy", ("least_loaded", "power_of_two"))
    def test_all_saturated_is_finite_and_conserving(self, policy):
        topology = _topology(num_nodes=6, regions=("r0", "r1"))
        balancer = make_balancer(policy, topology, seed=3)
        demand = _demand(topology, services=2)
        rates = balancer.assign(1, demand, self._saturated_loads(6))
        assert np.isfinite(rates).all()
        assert (rates >= 0).all()
        for r in range(topology.num_regions):
            nodes = topology.region_nodes(r)
            np.testing.assert_allclose(
                rates[nodes].sum(axis=0), demand[r], rtol=0, atol=1e-9
            )

    def test_least_loaded_underflowed_headroom_splits_uniformly(self):
        # Drive the headroom sum below any meaningful scale via a tiny
        # floor: the fallback must be a uniform split, not NaN shares.
        topology = _topology(num_nodes=4, regions=("r0",))
        balancer = LeastLoadedBalancer(topology, floor=1e-300)
        shares = balancer._shares(0, 1, 4, np.array([400.0]), np.full(4, 2.0) * 1e300)
        assert np.isfinite(shares).all()
        np.testing.assert_allclose(shares.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(shares[:, 0], 0.25)

    def test_least_loaded_nan_pressure_is_finite(self):
        topology = _topology(num_nodes=3, regions=("r0",))
        balancer = LeastLoadedBalancer(topology)
        shares = balancer._shares(
            0, 1, 3, np.array([300.0]), np.array([np.nan, 0.5, np.nan])
        )
        assert np.isfinite(shares).all()
        np.testing.assert_allclose(shares.sum(axis=0), 1.0, atol=1e-9)

    def test_power_of_two_nan_pressure_loses_ties(self):
        topology = _topology(num_nodes=2, regions=("r0",))
        balancer = PowerOfTwoBalancer(topology, seed=1, granularity=256)
        loads = NodeLoads(
            arrival_rps=np.full((2, 1), 100.0),
            utilization=np.array([[np.nan], [0.5]]),
            backlog=np.zeros((2, 1)),
        )
        rates = balancer.assign(1, np.array([[200.0]]), loads)
        assert np.isfinite(rates).all()
        # The NaN-telemetry node reads as saturated: it only receives
        # chunks when both choices land on it.
        assert rates[0, 0] < rates[1, 0]


class TestDegradedShedding:
    def _loads_with_degraded(self, n, degraded, services=2):
        return NodeLoads(
            arrival_rps=np.full((n, services), 100.0),
            utilization=np.full((n, services), 0.5),
            backlog=np.zeros((n, services)),
            degraded=np.asarray(degraded, dtype=bool),
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_degraded_node_sheds_all_load(self, policy):
        topology = _topology(num_nodes=4, regions=("r0",))
        balancer = make_balancer(policy, topology, seed=3)
        demand = np.array([[400.0, 800.0]])
        loads = self._loads_with_degraded(4, [True, False, False, False])
        rates = balancer.assign(1, demand, loads)
        np.testing.assert_allclose(rates[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(rates.sum(axis=0), demand[0], atol=1e-9)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_live_node_absorbs_region(self, policy):
        topology = _topology(num_nodes=3, regions=("r0",))
        balancer = make_balancer(policy, topology, seed=3)
        demand = np.array([[300.0]])
        loads = self._loads_with_degraded(3, [True, False, True], services=1)
        rates = balancer.assign(1, demand, loads)
        np.testing.assert_allclose(rates[1, 0], 300.0, atol=1e-9)
        np.testing.assert_allclose(rates[[0, 2], 0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_degraded_keeps_conservation(self, policy):
        # Nowhere to shed to: shares must be kept rather than zeroed.
        topology = _topology(num_nodes=4, regions=("r0",))
        balancer = make_balancer(policy, topology, seed=3)
        demand = np.array([[400.0, 100.0]])
        loads = self._loads_with_degraded(4, [True] * 4)
        rates = balancer.assign(1, demand, loads)
        assert np.isfinite(rates).all()
        np.testing.assert_allclose(rates.sum(axis=0), demand[0], atol=1e-9)

    def test_uniform_fallback_when_live_shares_collapse(self):
        # A column whose live shares are all zero falls back to a uniform
        # split over live nodes.
        from repro.cluster.balancer import _shed_degraded

        shares = np.array([[1.0], [0.0], [0.0]])
        shed = _shed_degraded(shares, np.array([True, False, False]))
        np.testing.assert_allclose(shed[:, 0], [0.0, 0.5, 0.5])


class TestInterface:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_balancer("random_spray", _topology())

    def test_wrong_demand_shape_rejected(self):
        balancer = make_balancer("round_robin", _topology())
        with pytest.raises(ConfigurationError):
            balancer.assign(0, np.zeros((5, 2)))  # 5 regions, topology has 2

    def test_negative_demand_rejected(self):
        balancer = make_balancer("round_robin", _topology())
        with pytest.raises(ConfigurationError):
            balancer.assign(0, np.full((2, 1), -1.0))


class TestVectorizedEquivalence:
    """``assign`` is *bitwise* identical to the per-region reference loop
    below, with its own degraded-node shedding, for every policy on even
    and uneven regions (a golden cluster trajectory reads every rate, so
    balancer internals must not perturb them)."""

    @staticmethod
    def _reference_shed(shares, degraded):
        degraded = np.asarray(degraded, dtype=bool)
        if not degraded.any() or degraded.all():
            return shares
        shed = shares.copy()
        shed[degraded] = 0.0
        live = ~degraded
        column_total = shed.sum(axis=0)
        uniform_live = live.astype(np.float64) / live.sum()
        for s in range(shed.shape[1]):
            if column_total[s] > 0.0:
                shed[:, s] /= column_total[s]
            else:
                shed[:, s] = uniform_live
        return shed

    @classmethod
    def _reference_assign(cls, policy, t, demand, loads):
        """The pre-vectorization region-by-region assign loop."""
        demand = np.asarray(demand, dtype=np.float64)
        topology = policy.topology
        pressure = loads.pressure() if loads is not None else None
        degraded = loads.degraded_mask() if loads is not None else None
        rates = np.zeros((topology.num_nodes, demand.shape[1]))
        for r in range(topology.num_regions):
            nodes = topology.region_nodes(r)
            node_pressure = pressure[nodes] if pressure is not None else None
            shares = policy._shares(r, t, len(nodes), demand[r], node_pressure)
            if degraded is not None:
                shares = cls._reference_shed(shares, degraded[nodes])
            rates[nodes] = shares * demand[r][None, :]
        return rates

    def _loads_case(self, topology, case, services=3, seed=1):
        if case == "none":
            return None
        rng = np.random.default_rng(seed)
        n = topology.num_nodes
        degraded = None
        if case == "some_degraded":
            degraded = rng.random(n) < 0.3
        elif case == "all_degraded":
            degraded = np.ones(n, dtype=bool)
        elif case == "half_degraded":
            degraded = np.zeros(n, dtype=bool)
            degraded[: max(1, n // 2)] = True
        return NodeLoads(
            arrival_rps=200.0 * rng.random((n, services)),
            utilization=rng.random((n, services)),
            backlog=np.where(rng.random((n, services)) > 0.7, 50.0, 0.0),
            degraded=degraded,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "num_nodes,regions",
        [
            (64, ("r0", "r1")),
            (1024, ("a", "b", "c", "d")),
            (7, ("r0", "r1")),  # uneven regions
            (1, ("r0",)),
        ],
    )
    @pytest.mark.parametrize(
        "case", ["none", "loads", "some_degraded", "all_degraded", "half_degraded"]
    )
    def test_assign_bitwise_matches_reference(self, policy, num_nodes, regions, case):
        topology = ClusterTopology(num_nodes, regions)
        demand = _demand(topology)
        loads = self._loads_case(topology, case)
        balancer = make_balancer(policy, topology, seed=5)
        reference = make_balancer(policy, topology, seed=5)
        for t in range(3):
            got = balancer.assign(t, demand, loads)
            want = self._reference_assign(reference, t, demand, loads)
            assert np.array_equal(got, want), (policy, t)

    def test_sharded_by_key_matches_per_service_hashing(self):
        from repro.cluster.balancer import _mix_hash

        topology = ClusterTopology(13, ("r0",))
        policy = make_balancer("sharded_by_key", topology, seed=9)
        n, S = 13, 4
        shares = policy._shares(0, 0, n, np.ones(S), None)
        shards = np.arange(policy.num_shards, dtype=np.uint64)
        for s in range(S):
            salt = (
                np.uint64(0) * np.uint64(0x100000001B3)
                + np.uint64(s) * np.uint64(0x1000193)
                + np.uint64(policy.seed & 0xFFFFFFFF)
            )
            nodes = (_mix_hash(shards + salt) % np.uint64(n)).astype(np.int64)
            want = np.bincount(nodes, weights=policy._shard_weights, minlength=n)
            assert np.array_equal(shares[:, s], want), s
