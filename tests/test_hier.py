"""Hierarchical fleet control: allocator, budgets, transfer, resume."""

import numpy as np
import pytest

from repro.cluster.environment import ClusterEnvironment
from repro.core.config import TwigConfig
from repro.engine.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.hier import (
    RULE_BASELINES,
    BudgetAllocator,
    BudgetConfig,
    HierFleetTwig,
    make_rule_fleet,
    provision_fleet,
)
from repro.obs.context import ObsContext
from repro.obs.sink import MemorySink
from repro.services.profiles import get_profile
from repro.sim.faults import Fault, FaultInjector
from tests.helpers import _assert_traces_equal, _assert_tree_equal

SERVICES = ["masstree", "xapian"]


def _twig_config():
    return TwigConfig.fast(epsilon_mid_steps=10, epsilon_final_steps=20)


def _build_hier(num_nodes, seed=7, period=4, **kwargs):
    venv = ClusterEnvironment.from_services(
        SERVICES, num_nodes=num_nodes, seed=seed, balancer="least_loaded"
    )
    manager = HierFleetTwig(
        [get_profile(s) for s in SERVICES],
        _twig_config(),
        np.random.default_rng(seed + 1),
        num_envs=num_nodes,
        budget=BudgetConfig(period=period, **kwargs),
        allocator_rng=np.random.default_rng(seed + 2),
    )
    manager.index_tag = "node"
    return manager, venv


class TestBudgetConfig:
    def test_defaults_valid(self):
        config = BudgetConfig()
        assert config.period == 10 and config.levels == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0},
            {"levels": 1},
            {"tilts": 0},
            {"floor_fraction": 0.0},
            {"floor_fraction": 1.0},
            {"tilt_strength": -0.1},
            {"energy_weight": -1.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BudgetConfig(**kwargs)


class TestBudgetAllocator:
    def _allocator(self, **kwargs):
        return BudgetAllocator(
            BudgetConfig(**kwargs), max_power_w=100.0, rng=np.random.default_rng(3)
        )

    def test_starts_wide_open(self):
        allocator = self._allocator()
        assert allocator.level == pytest.approx(1.0)
        assert allocator.tilt == pytest.approx(0.0)
        assert not allocator.primed

    def test_decide_updates_indices_and_primes(self):
        allocator = self._allocator()
        state = np.linspace(0.0, 1.0, BudgetAllocator.STATE_DIM)
        level, tilt = allocator.decide(state)
        assert allocator.primed
        assert level in allocator.level_ladder
        assert tilt in allocator.tilt_ladder
        # Second decision closes the first transition with a reward.
        allocator.decide(state, reward=0.5)
        assert allocator.agent.step_count == 1

    def test_decide_rejects_wrong_state_dim(self):
        with pytest.raises(ShapeError):
            self._allocator().decide(np.zeros(3))

    def test_budgets_tilt_toward_high_slack_nodes(self):
        allocator = self._allocator(levels=5, tilts=3, tilt_strength=0.5)
        allocator._level_idx = 2          # mid ladder
        allocator._tilt_idx = 2           # max tilt
        budgets = allocator.budgets(np.array([1.0, 0.0, 0.0, 0.0]))
        assert budgets[0] > budgets[1]
        np.testing.assert_allclose(budgets[1:], budgets[1])

    def test_budgets_clipped_to_floor_and_cap(self):
        allocator = self._allocator(floor_fraction=0.3, tilt_strength=5.0)
        allocator._level_idx = 0
        allocator._tilt_idx = allocator.config.tilts - 1
        budgets = allocator.budgets(np.array([10.0, -10.0]))
        assert (budgets >= 0.3 * 100.0 - 1e-9).all()
        assert (budgets <= 100.0 + 1e-9).all()

    def test_non_finite_slack_handled(self):
        allocator = self._allocator()
        budgets = allocator.budgets(np.array([np.nan, 0.5, np.inf]))
        assert np.isfinite(budgets).all()

    def test_state_roundtrip(self):
        a = self._allocator()
        state = np.linspace(0.0, 1.0, BudgetAllocator.STATE_DIM)
        a.decide(state)
        a.decide(state * 0.5, reward=0.2)
        b = self._allocator()
        b.load_state_dict(a.state_dict())
        assert b._level_idx == a._level_idx and b._tilt_idx == a._tilt_idx
        assert b.primed
        np.testing.assert_array_equal(b._prev_state, a._prev_state)
        assert b.agent.step_count == a.agent.step_count

    def test_malformed_state_rejected(self):
        allocator = self._allocator()
        with pytest.raises(CheckpointError):
            allocator.load_state_dict({"level_idx": 0})


class TestBudgetMasking:
    def _first_tick(self, manager, venv):
        """Every node's arrivals after one tick, and an action matrix
        asking for all cores at max DVFS for every service."""
        arrival = venv.step(manager.initial_assignments()).arrays["arrivals"]
        actions = np.zeros(
            (manager.num_envs, len(manager.service_order), manager.action_space.n_branches),
            dtype=np.int64,
        )
        actions[:, :, 0] = manager.action_space.max_cores - 1
        actions[:, :, 1] = len(manager.spec.dvfs) - 1
        return arrival, actions

    def test_tight_budget_repairs_allocations(self):
        manager, venv = _build_hier(2)
        arrival, actions = self._first_tick(manager, venv)
        manager.budgets[:] = 0.35 * manager.max_power_w
        requested = actions.copy()
        repaired = manager._repair_action_rows(np.arange(2), actions, arrival)
        assert not np.array_equal(repaired, requested)
        cores, freqs = repaired[:, :, 0] + 1, repaired[:, :, 1]
        power = manager._power_for(cores, freqs, arrival)
        for e in range(2):
            shrinkable = ((freqs[e] > 0) | (cores[e] > 1)).any()
            assert sum(power[e].tolist()) <= manager.budgets[e] or not shrinkable

    def test_loose_budget_returns_same_object(self):
        manager, venv = _build_hier(2)
        arrival, actions = self._first_tick(manager, venv)
        manager.budgets[:] = len(SERVICES) * manager.max_power_w
        requested = actions.copy()
        assert manager._repair_action_rows(np.arange(2), actions, arrival) is actions
        assert np.array_equal(actions, requested)

    def test_overshoot_penalty_lowers_rewards(self):
        manager, venv = _build_hier(2)
        arrival, _ = self._first_tick(manager, venv)
        manager._est_power[:] = manager._power_for(
            manager._alloc_cores, manager._alloc_freq, arrival
        )
        rows = np.arange(2)
        totals = np.ones((2, len(SERVICES)))
        extras = (np.zeros_like(totals), np.zeros_like(totals), np.zeros(totals.shape, bool))
        manager.budgets[:] = 1e6                          # no overshoot
        unshaped = manager._shape_reward_rows(rows, totals.copy(), *extras)
        assert np.array_equal(unshaped, totals)
        estimated = manager._est_power[0].sum()
        manager.budgets[:] = estimated / 2.0              # 2x overshoot on node 0
        shaped = manager._shape_reward_rows(rows, totals.copy(), *extras)
        assert (shaped[0] < totals[0]).all()

    def test_update_batch_refuses_a_plain_result_list(self):
        manager, venv = _build_hier(2)
        batch = venv.step(manager.initial_assignments())
        before = manager.state_dict()
        with pytest.raises(ConfigurationError, match="StepBatch"):
            manager.update_batch([batch[e] for e in range(2)])
        _assert_tree_equal(manager.state_dict(), before)


class TestBudgetEvents:
    def test_budget_assign_emitted_every_period(self):
        manager, venv = _build_hier(2, period=3)
        sink = MemorySink(validate=True)
        run_fleet(manager, venv, 7, obs=ObsContext(sink=sink))
        events = sink.of_type("budget_assign")
        assert [e["t"] for e in events] == [3, 6]
        first, second = events
        assert first["reward"] == 0.0                 # nothing to learn from yet
        assert first["period"] == 3
        for event in events:
            assert 0.0 < event["min_budget_w"] <= event["mean_budget_w"]
            assert event["mean_budget_w"] <= event["max_budget_w"]
            assert event["max_budget_w"] <= manager.max_power_w + 1e-9
        # The window reward is real from the second assignment on.
        assert second["reward"] != 0.0 or second["level"] >= 0.0

    def test_budgets_respect_ladder_floor(self):
        manager, venv = _build_hier(2, period=2, floor_fraction=0.4)
        run_fleet(manager, venv, 6)
        floor = 0.4 * manager.max_power_w
        assert (manager.budgets >= floor - 1e-9).all()
        assert (manager.budgets <= manager.max_power_w + 1e-9).all()


class TestHierResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        steps = 16
        plain_manager, plain_venv = _build_hier(2, period=3)
        plain = run_fleet(plain_manager, plain_venv, steps)

        first_manager, first_venv = _build_hier(2, period=3)
        run_fleet(
            first_manager, first_venv, steps,
            checkpoint_every=8, checkpoint_dir=tmp_path,
        )
        resumed_manager, resumed_venv = _build_hier(2, period=3)
        resumed = run_fleet(resumed_manager, resumed_venv, steps,
                            resume_from=tmp_path)
        _assert_traces_equal(resumed, plain)
        np.testing.assert_array_equal(
            resumed_manager.budgets, plain_manager.budgets
        )
        assert resumed_manager._tick == plain_manager._tick
        assert (
            resumed_manager.allocator.agent.step_count
            == plain_manager.allocator.agent.step_count
        )

    def test_flat_checkpoint_rejected_by_hier_run(self, tmp_path):
        # Distinct manager names keep flat and hierarchical checkpoints
        # from cross-resuming.
        flat = FleetTwig(
            [get_profile(s) for s in SERVICES],
            _twig_config(),
            np.random.default_rng(8),
            num_envs=2,
        )
        flat.index_tag = "node"
        venv = ClusterEnvironment.from_services(SERVICES, 2, seed=7,
                                                balancer="least_loaded")
        run_fleet(flat, venv, 10, checkpoint_every=5, checkpoint_dir=tmp_path)
        manager, hier_venv = _build_hier(2)
        with pytest.raises(CheckpointError):
            run_fleet(manager, hier_venv, 10, resume_from=tmp_path)

    def test_state_without_hier_subtree_rejected(self):
        flat = FleetTwig(
            [get_profile(s) for s in SERVICES],
            _twig_config(),
            np.random.default_rng(8),
            num_envs=2,
        )
        manager, _ = _build_hier(2)
        with pytest.raises(CheckpointError):
            manager.load_state_dict(flat.state_dict())


def _named(network, test):
    """Copies of the values of ``network``'s parameters whose names pass
    ``test``, in parameter order (never none)."""
    values = [p.value.copy() for p in network.parameters() if test(p.name)]
    assert values
    return values


def _trunk(network):
    return _named(network, lambda name: name.startswith("trunk."))


class TestTransfer:
    """BDQAgent.transfer composed with the fused head bank."""

    def _snapshot(self, network):
        trunk = _trunk(network)
        outs = _named(network, lambda name: name.endswith(".out.W"))
        hidden = _named(network, lambda name: name.endswith(".hidden.W"))
        return trunk, outs, hidden

    def test_transfer_keeps_trunk_rerandomizes_heads(self):
        manager, venv = _build_hier(2)
        run_fleet(manager, venv, 6)               # move weights off init
        agent = manager.agent
        trunk_before, outs_before, hidden_before = self._snapshot(agent.online)
        step_before = agent.step_count
        assert step_before > 0

        agent.transfer(np.random.default_rng(99), restart_epsilon_at=0)

        trunk_after, outs_after, hidden_after = self._snapshot(agent.online)
        for a, b in zip(trunk_before, trunk_after):
            np.testing.assert_array_equal(a, b)   # shared trunk untouched
        for a, b in zip(hidden_before, hidden_after):
            np.testing.assert_array_equal(a, b)   # head hidden layers too
        assert any(
            not np.array_equal(a, b) for a, b in zip(outs_before, outs_after)
        )                                          # output layers replaced
        # Target resynced from online after the re-randomisation.
        for p, q in zip(agent.online.parameters(), agent.target.parameters()):
            np.testing.assert_array_equal(p.value, q.value)
        # Schedules rewound: exploration restarts from scratch.
        assert agent.step_count == 0
        assert agent.epsilon() == pytest.approx(agent.epsilon_schedule(0))
        assert agent.beta_schedule(agent.step_count) == pytest.approx(
            agent.config.per_beta_start
        )


class TestProvisioning:
    def test_provision_from_fleet_checkpoint(self, tmp_path):
        source_manager, source_venv = _build_hier(2, seed=11)
        run_fleet(source_manager, source_venv, 6)
        path = tmp_path / "source.ckpt.npz"
        source_manager.save(path)

        manager, _ = _build_hier(2, seed=23)
        sink = MemorySink(validate=True)
        manager.attach_obs(sink, None)
        provision_fleet(manager, path, rng=np.random.default_rng(5), time=0)

        # Trunk carried over from the source policy.
        source_trunk = _trunk(source_manager.agent.online)
        new_trunk = _trunk(manager.agent.online)
        for a, b in zip(source_trunk, new_trunk):
            np.testing.assert_array_equal(a, b)
        assert manager.agent.step_count == 0
        assert manager._provision_log == [
            {"source": str(path), "restart_epsilon_at": 0}
        ]
        events = sink.of_type("node_provisioned")
        assert sorted(e["node"] for e in events) == [0, 1]
        assert all(e["source"] == str(path) for e in events)
        assert all(e["services"] == SERVICES for e in events)
        # The provisioning log rides in the checkpoint.
        clone, _ = _build_hier(2, seed=31)
        clone.load_state_dict(manager.state_dict())
        assert clone._provision_log == manager._provision_log

    def test_provision_from_vector_run_checkpoint(self, tmp_path):
        source_manager, source_venv = _build_hier(2, seed=11)
        run_fleet(source_manager, source_venv, 8,
                  checkpoint_every=4, checkpoint_dir=tmp_path)
        ckpt = tmp_path / "run.ckpt.npz"
        assert ckpt.exists()
        manager, _ = _build_hier(2, seed=23)
        provision_fleet(manager, ckpt)
        source_trunk = _trunk(source_manager.agent.online)
        new_trunk = _trunk(manager.agent.online)
        for a, b in zip(source_trunk, new_trunk):
            np.testing.assert_array_equal(a, b)

    def test_missing_checkpoint_rejected(self, tmp_path):
        manager, _ = _build_hier(2)
        with pytest.raises(CheckpointError):
            provision_fleet(manager, tmp_path / "nope.ckpt.npz")

    def test_architecture_mismatch_rejected(self, tmp_path):
        small = HierFleetTwig(
            [get_profile("masstree")],
            _twig_config(),
            np.random.default_rng(3),
            num_envs=2,
        )
        path = tmp_path / "small.ckpt.npz"
        small.save(path)
        manager, _ = _build_hier(2)      # two services: different net shape
        with pytest.raises(CheckpointError):
            provision_fleet(manager, path)


class TestDegradedShedding:
    """service_crash on one node of an 8-node cluster sheds its traffic."""

    def test_crashed_node_is_drained_then_recovers(self):
        venv = ClusterEnvironment.from_services(
            SERVICES, num_nodes=8, seed=7, regions=("r0",),
            balancer="least_loaded",
        )
        venv.faults[3] = FaultInjector(
            [Fault("service_crash", "masstree", start=2, duration=3)]
        )
        manager = FleetTwig(
            [get_profile(s) for s in SERVICES],
            _twig_config(),
            np.random.default_rng(8),
            num_envs=8,
        )
        manager.index_tag = "node"
        assignments = manager.initial_assignments()
        node3_rates = {}
        for _ in range(7):
            results = venv.step(assignments)
            t = results[0].time
            node3_rates[t] = sum(
                results[3].observations[n].interval.arrival_rate for n in SERVICES
            )
        # Fault active t=2..4: NaN telemetry marks node 3 degraded, so the
        # balancer drains it from t=3 until one tick after recovery.
        assert venv._last_loads is not None
        assert node3_rates[1] > 0.0
        assert node3_rates[3] == pytest.approx(0.0)
        assert node3_rates[4] == pytest.approx(0.0)
        # Telemetry is finite again at t=5; traffic returns at t=6.
        assert node3_rates[6] > 0.0

    def test_degraded_mask_rides_in_checkpoint(self):
        venv = ClusterEnvironment.from_services(
            SERVICES, num_nodes=4, seed=7, regions=("r0",),
            balancer="least_loaded",
        )
        venv.faults[1] = FaultInjector(
            [Fault("service_crash", "masstree", start=1, duration=5)]
        )
        manager = FleetTwig(
            [get_profile(s) for s in SERVICES],
            _twig_config(),
            np.random.default_rng(8),
            num_envs=4,
        )
        assignments = manager.initial_assignments()
        venv.step(assignments)
        mask = venv._last_loads.degraded_mask()
        assert mask is not None and mask[1] and not mask[0]
        clone = ClusterEnvironment.from_services(
            SERVICES, num_nodes=4, seed=9, regions=("r0",),
            balancer="least_loaded",
        )
        clone.faults[1] = FaultInjector(
            [Fault("service_crash", "masstree", start=1, duration=5)]
        )
        clone.load_state_dict(venv.state_dict())
        np.testing.assert_array_equal(clone._last_loads.degraded_mask(), mask)


class TestRuleFleets:
    def test_static_fleet_runs_lock_step(self):
        fleet = make_rule_fleet("static", SERVICES, num_envs=3, seed=7)
        venv = ClusterEnvironment.from_services(SERVICES, 3, seed=7)
        traces = run_fleet(fleet, venv, 4)
        assert len(traces) == 3
        for trace in traces:
            for name in SERVICES:
                assert len(trace.services[name].p99_ms) == 4

    def test_parties_fleet_has_distinct_rngs(self):
        fleet = make_rule_fleet("parties", SERVICES, num_envs=2, seed=7)
        a, b = fleet.controller._rngs
        assert a.bit_generator.state != b.bit_generator.state

    def test_heracles_multi_service_rejected(self):
        with pytest.raises(ConfigurationError):
            make_rule_fleet("heracles", SERVICES, num_envs=2, seed=7)

    def test_heracles_single_service_allowed(self):
        fleet = make_rule_fleet("heracles", ["masstree"], num_envs=2, seed=7)
        assert fleet.num_envs == 2

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            make_rule_fleet("oracle", SERVICES, num_envs=2, seed=7)

    def test_state_identity_checked(self):
        fleet = make_rule_fleet("static", SERVICES, num_envs=2, seed=7)
        other = make_rule_fleet("parties", SERVICES, num_envs=2, seed=7)
        with pytest.raises(CheckpointError):
            other.load_state_dict(fleet.state_dict())


class TestHierExperiment:
    def test_registry_has_hier(self):
        from repro.experiments import REGISTRY

        assert "hier" in REGISTRY

    def test_scalar_engine_rejected(self):
        from repro.experiments.hier import HierConfig

        for engine in ("vector", "scalar", "shard"):
            with pytest.raises(TypeError):
                HierConfig(engine=engine)

    def test_non_positive_window_rejected(self):
        from repro.experiments.hier import HierConfig

        for window in (0, -5):
            with pytest.raises(ConfigurationError, match="window"):
                HierConfig(window=window)

    def test_heracles_with_colocation_rejected(self):
        from repro.experiments.hier import HierConfig

        with pytest.raises(ConfigurationError):
            HierConfig(baselines=("flat", "heracles"))

    def test_tiny_run_compares_hier_and_flat(self):
        from repro.experiments.hier import HierConfig, run

        result = run(HierConfig(
            services=("masstree", "xapian"),
            num_nodes=3,
            steps=12,
            budget_period=4,
            baselines=("flat",),
            regions=("r0",),
            epsilon_mid_steps=5,
            epsilon_final_steps=10,
            window=6,
        ))
        assert sorted(result.variants) == ["flat", "hier"]
        for summary in result.variants.values():
            assert summary.total_energy_j > 0.0
            assert 0.0 <= summary.mean_fleet_qos <= 100.0
        assert isinstance(result.hier_beats_flat_energy, bool)
        assert "Hierarchical control" in result.format_table()
