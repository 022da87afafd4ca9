"""Array-state FleetTwig vs the frozen dict-state reference.

The array control plane (:class:`repro.engine.fleet.FleetTwig` holding
``(num_envs, num_services)`` matrices plus one
:class:`~repro.pmc.monitor.MonitorBank`) must be *bit-identical* to the
original per-env-dict implementation, preserved verbatim as
:class:`tests.oracles.fleet_reference.DictFleetTwig`: same trajectories,
same RNG streams, same agent state, and a loadable legacy checkpoint
format. These tests are the pin.
"""

from dataclasses import replace
from typing import Dict

import numpy as np
import pytest

from repro.core.actions import Allocation
from repro.core.config import TwigConfig
from repro.core.reward import RewardBreakdown
from repro.engine.fleet import FleetTwig
from tests.oracles.fleet_reference import DictFleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError, ConfigurationError
from repro.hier import BudgetConfig, HierFleetTwig
from repro.pmc.counters import CounterCatalogue
from repro.pmc.monitor import MonitorBank, SystemMonitor
from repro.services.profiles import get_profile
from repro.sim.environment import StepResult
from tests.helpers import _assert_traces_equal

SERVICES = ["masstree", "xapian"]
FRACTIONS = {"masstree": 0.4, "xapian": 0.5}
SEED = 7


def _twig_config():
    return TwigConfig.fast(epsilon_mid_steps=15, epsilon_final_steps=30)


def _build(cls, num_envs, seed=SEED, **kwargs):
    venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, num_envs, seed)
    manager = cls(
        [get_profile(s) for s in SERVICES],
        _twig_config(),
        np.random.default_rng(seed + 1),
        num_envs=num_envs,
        **kwargs,
    )
    return manager, venv


def _assert_tree_equal(a, b, path="root"):
    if isinstance(a, dict):
        assert isinstance(b, dict), path
        assert set(a) == set(b), path
        for key in a:
            _assert_tree_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_tree_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _assert_managers_equivalent(array_mgr, dict_mgr):
    """Array manager state == dict manager state, field by field."""
    # Identical RNG streams: exact bit-generator state, not closeness.
    assert (
        array_mgr._rng.bit_generator.state == dict_mgr._rng.bit_generator.state
    )
    assert (
        array_mgr.agent._rng.bit_generator.state
        == dict_mgr.agent._rng.bit_generator.state
    )
    # Same learned state (network weights, replay, schedule counters).
    _assert_tree_equal(array_mgr.agent.state_dict(), dict_mgr.agent.state_dict())
    # Each env's array rows hold what the reference keeps in its dicts; a
    # flag is set exactly when the reference dict is non-empty.
    order = array_mgr.service_order
    for e in range(array_mgr.num_envs):
        allocations = dict_mgr._last_allocations[e]
        assert array_mgr._has_alloc[e] == bool(allocations), e
        if allocations:
            rows = (array_mgr._alloc_cores, array_mgr._alloc_freq, array_mgr._alloc_ways)
            fields = ("num_cores", "freq_index", "llc_ways")
            for row, field in zip(rows, fields):
                assert row[e].tolist() == [
                    getattr(allocations[name], field) for name in order
                ], (e, field)
        for flag, values, dicts in (
            (array_mgr._has_est, array_mgr._est_power, dict_mgr._last_estimated_power),
            (array_mgr._has_reward, array_mgr._reward_totals, dict_mgr.last_rewards),
        ):
            assert flag[e] == bool(dicts[e]), e
            if dicts[e]:
                assert values[e].tolist() == [dicts[e][name] for name in order], e
    # MonitorBank rows == per-env SystemMonitor smoothed states.
    states = array_mgr.monitor_bank.states()
    k = len(SERVICES)
    for e, monitor in enumerate(dict_mgr.monitors):
        for i, name in enumerate(SERVICES):
            assert np.array_equal(states[e * k + i], monitor.state(name)), (e, name)


class TestArrayDictEquivalence:
    @pytest.mark.parametrize(
        "num_envs,steps", [(1, 12), (4, 10), (64, 4)]
    )
    def test_bit_identical_trajectories(self, num_envs, steps):
        array_mgr, array_venv = _build(FleetTwig, num_envs)
        dict_mgr, dict_venv = _build(DictFleetTwig, num_envs)
        array_traces = run_fleet(array_mgr, array_venv, steps)
        dict_traces = run_fleet(dict_mgr, dict_venv, steps)
        _assert_traces_equal(array_traces, dict_traces)
        _assert_managers_equivalent(array_mgr, dict_mgr)
        # The environments saw identical action streams.
        _assert_tree_equal(array_venv.state_dict(), dict_venv.state_dict())


class _DictHierFleetTwig(DictFleetTwig):
    """The dict-state reference for ``HierFleetTwig``'s two array hooks.

    ``_shape_rewards`` and ``_constrain_allocations`` state the budget
    rules one environment and one service at a time, on the dict-state
    fleet's per-env hooks: the overshoot penalty, and the greedy repair
    that steps the highest-power shrinkable service's DVFS down, else
    sheds one of its cores, until the node fits. They are the reference,
    so keep them scalar. There is no allocator, so ``budgets`` holds
    still; a run shorter than ``HierFleetTwig``'s budget period compares
    the hooks alone.
    """

    def __init__(self, *args, budget_w, **kwargs):
        super().__init__(*args, **kwargs)
        self.budgets = np.full(self.num_envs, budget_w, dtype=np.float64)

    def _shape_rewards(
        self, env_index: int, breakdowns: Dict[str, RewardBreakdown]
    ) -> Dict[str, RewardBreakdown]:
        budget = float(self.budgets[env_index])
        node_power = sum(self._last_estimated_power[env_index].values())
        overshoot = max(0.0, node_power / max(budget, 1e-9) - 1.0)
        if overshoot <= 0.0:
            return breakdowns
        penalty = self.config.reward.theta * overshoot
        return {
            name: replace(b, total=b.total - penalty)
            for name, b in breakdowns.items()
        }

    def _constrain_allocations(
        self,
        env_index: int,
        allocations: Dict[str, Allocation],
        result: StepResult,
    ) -> Dict[str, Allocation]:
        budget = float(self.budgets[env_index])
        rates = {
            name: result.observations[name].interval.arrival_rate
            for name in self.service_order
        }

        def node_power(allocs: Dict[str, Allocation]) -> float:
            return sum(
                self._allocation_power(name, allocs[name], rates[name])
                for name in self.service_order
            )

        if node_power(allocations) <= budget:
            return allocations
        repaired = dict(allocations)
        while node_power(repaired) > budget:
            shrinkable = [
                name
                for name in self.service_order
                if repaired[name].freq_index > 0 or repaired[name].num_cores > 1
            ]
            if not shrinkable:
                break
            name = max(
                shrinkable,
                key=lambda n: self._allocation_power(n, repaired[n], rates[n]),
            )
            a = repaired[name]
            if a.freq_index > 0:
                repaired[name] = Allocation(
                    num_cores=a.num_cores,
                    freq_index=a.freq_index - 1,
                    llc_ways=a.llc_ways,
                )
            else:
                repaired[name] = Allocation(
                    num_cores=a.num_cores - 1,
                    freq_index=a.freq_index,
                    llc_ways=a.llc_ways,
                )
        return repaired


class TestHierOracle:
    def test_array_hooks_match_the_dict_oracle(self):
        # Fixed budgets (the period outlasts the run, so the allocator
        # never decides) from loose to below the smallest allocation's
        # power: the repair sheds DVFS and cores, stops where nothing can
        # shrink, and the penalty lands on stored transitions.
        budgets = np.array([60.0, 30.0, 10.0, 0.9])
        hier, hier_venv = _build(
            HierFleetTwig,
            4,
            budget=BudgetConfig(period=50),
            allocator_rng=np.random.default_rng(SEED + 2),
        )
        hier.budgets[:] = budgets
        changed = {"stored_penalty": 0, "repair": 0}

        class Counting(_DictHierFleetTwig):
            def _shape_rewards(self, env_index, breakdowns):
                shaped = super()._shape_rewards(env_index, breakdowns)
                stored = self._prev_states[env_index] is not None
                changed["stored_penalty"] += stored and shaped is not breakdowns
                return shaped

            def _constrain_allocations(self, env_index, allocations, result):
                repaired = super()._constrain_allocations(env_index, allocations, result)
                changed["repair"] += repaired is not allocations
                return repaired

        oracle, oracle_venv = _build(Counting, 4, budget_w=budgets)
        hier_traces = run_fleet(hier, hier_venv, 8)
        oracle_traces = run_fleet(oracle, oracle_venv, 8)
        _assert_traces_equal(hier_traces, oracle_traces)
        _assert_managers_equivalent(hier, oracle)
        _assert_tree_equal(hier_venv.state_dict(), oracle_venv.state_dict())
        assert np.array_equal(hier.budgets, oracle.budgets)
        # Both hooks changed what was learned, or the comparison is vacuous.
        assert changed["stored_penalty"] > 0 and changed["repair"] > 0


class TestMonitorBank:
    def _max_values(self):
        from repro.server.spec import ServerSpec

        return CounterCatalogue(ServerSpec()).max_values()

    def _random_readings(self, rng, max_values, counters):
        return np.array([rng.random(len(counters)) * 2.0 for _ in range(1)])[0]

    def test_rows_match_scalar_monitors(self):
        max_values = self._max_values()
        rows = 6
        bank = MonitorBank(max_values, rows, eta=4)
        monitors = [SystemMonitor(max_values, eta=4) for _ in range(rows)]
        counters = bank.counters
        rng = np.random.default_rng(3)
        for t in range(9):
            raw = rng.random((rows, len(counters))) * 1.5
            if t in (3, 6):  # degrade some rows with non-finite readings
                raw[1, 0] = np.nan
                raw[4, 2] = np.inf
            got = bank.observe_rows(raw)
            for r in range(rows):
                readings = dict(zip(counters, raw[r]))
                want = monitors[r].observe("svc", readings)
                assert np.array_equal(got[r], want), (t, r)
                assert bank.degraded[r] == ("svc" in monitors[r].degraded), (t, r)

    def test_state_dict_round_trip(self):
        max_values = self._max_values()
        bank = MonitorBank(max_values, 3, eta=5)
        rng = np.random.default_rng(11)
        for _ in range(4):
            bank.observe_rows(rng.random((3, len(bank.counters))))
        snapshot = bank.state_dict()
        probe = rng.random((3, len(bank.counters)))
        after = bank.observe_rows(probe.copy())

        fresh = MonitorBank(max_values, 3, eta=5)
        fresh.load_state_dict(snapshot)
        assert np.array_equal(fresh.observe_rows(probe.copy()), after)

    def test_load_rejects_bad_shapes(self):
        max_values = self._max_values()
        bank = MonitorBank(max_values, 3, eta=5)
        good = bank.state_dict()
        with pytest.raises(CheckpointError):
            bank.load_state_dict({**good, "history": good["history"][:2]})
        with pytest.raises(CheckpointError):
            bank.load_state_dict({**good, "counts": good["counts"] + 9})
        with pytest.raises(CheckpointError):
            bank.load_state_dict({"history": good["history"]})

    def test_load_monitor_rows_matches_scalar(self):
        # A legacy SystemMonitor tree loaded into bank rows reproduces the
        # scalar monitor's smoothed state exactly.
        max_values = self._max_values()
        monitor = SystemMonitor(max_values, eta=5)
        rng = np.random.default_rng(23)
        for _ in range(3):
            monitor.observe(
                "svc", dict(zip(monitor.counters, rng.random(len(monitor.counters))))
            )
        bank = MonitorBank(max_values, 2, eta=5)
        bank.load_monitor_rows(1, monitor.state_dict(), ["svc"])
        assert np.array_equal(bank.states()[1], monitor.state("svc"))

    def test_constructor_validation(self):
        max_values = self._max_values()
        with pytest.raises(ConfigurationError):
            MonitorBank(max_values, 0)
        with pytest.raises(ConfigurationError):
            MonitorBank(max_values, 2, eta=0)
        with pytest.raises(ConfigurationError):
            MonitorBank({}, 2)


class TestLegacyCheckpoint:
    def test_array_manager_loads_dict_checkpoint(self):
        # A checkpoint written by the dict reference restores the array
        # manager onto the identical trajectory.
        steps_before, steps_after, num_envs = 8, 6, 3
        dict_mgr, dict_venv = _build(DictFleetTwig, num_envs)
        run_fleet(dict_mgr, dict_venv, steps_before)
        legacy_tree = dict_mgr.state_dict()
        env_tree = dict_venv.state_dict()

        array_mgr, array_venv = _build(FleetTwig, num_envs)
        array_mgr.load_state_dict(legacy_tree)
        array_venv.load_state_dict(env_tree)
        array_traces = run_fleet(array_mgr, array_venv, steps_after)
        dict_traces = run_fleet(dict_mgr, dict_venv, steps_after)
        _assert_traces_equal(array_traces, dict_traces)
        _assert_managers_equivalent(array_mgr, dict_mgr)

    def test_torn_legacy_tree_never_half_loads(self):
        dict_mgr, dict_venv = _build(DictFleetTwig, 2)
        run_fleet(dict_mgr, dict_venv, 6)
        legacy_tree = dict_mgr.state_dict()

        array_mgr, _ = _build(FleetTwig, 2)
        before = array_mgr.state_dict()
        torn = dict(legacy_tree)
        torn["envs"] = dict(legacy_tree["envs"])
        torn["envs"]["0001"] = {"prev_actions": None}  # missing fields
        with pytest.raises(CheckpointError):
            array_mgr.load_state_dict(torn)
        _assert_tree_equal(array_mgr.state_dict(), before)

    def test_rejects_mismatched_env_count(self):
        dict_mgr, dict_venv = _build(DictFleetTwig, 2)
        run_fleet(dict_mgr, dict_venv, 4)
        array_mgr, _ = _build(FleetTwig, 3)
        with pytest.raises(CheckpointError):
            array_mgr.load_state_dict(dict_mgr.state_dict())

    def test_array_round_trip(self):
        # Array-format save/load onto a fresh manager: identical futures.
        num_envs = 3
        first_mgr, first_venv = _build(FleetTwig, num_envs)
        run_fleet(first_mgr, first_venv, 8)
        tree = first_mgr.state_dict()
        env_tree = first_venv.state_dict()

        second_mgr, second_venv = _build(FleetTwig, num_envs)
        second_mgr.load_state_dict(tree)
        second_venv.load_state_dict(env_tree)
        a = run_fleet(first_mgr, first_venv, 5)
        b = run_fleet(second_mgr, second_venv, 5)
        _assert_traces_equal(a, b)
