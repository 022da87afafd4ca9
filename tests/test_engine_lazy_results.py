"""Lazy step results: what a fleet tick builds, and that it is still right.

A :class:`~repro.engine.vector_env.StepBatch` builds a node's
``StepResult`` only when it is read, and that result's per-service
``ServiceObservation``/``IntervalResult`` objects only when a value of
its ``observations`` mapping is read. These tests pin:

- the hot path: a static rule fleet, which never reads an observation,
  builds no result object (counted through patched constructors), hands
  back one batch equal row for row to a per-node ``StaticManager``, and
  has its rows written on the first tick only;
- equality: what the PARTIES and Heracles fleets read equals the eager
  ``build_observations`` build field for field, and the hand-stepped
  scalar oracle byte for byte, with a faulted node and with a trace
  sink, on multi-node and 1-node clusters;
- ownership: a batch's arrays are read-only;
- the one result reader: a plain result list reads into the keys, dtypes
  and values a batch carries, and a reading without a counter is refused;
- a faulted node: every ``batch.arrays`` entry of the node equals the
  result its injector returned, for each fault kind;
- rates: a balancer rate matrix with a NaN, infinite or negative rate,
  or of the wrong size, is refused before any node steps;
- ownership of the nodes: building an engine builds no per-node object
  graph (no environment, machine, service or scheduled load), and the
  paper loop, the one-node engine, builds no machine and never applies
  one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.static import StaticManager
from repro.cluster.environment import ClusterEnvironment
from repro.cluster.traffic import ScheduledLoad, check_rates
from repro.core import Twig, TwigConfig
from repro.core.mapper import Mapper
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import (
    _FIELD_ARRAYS,
    ENV_SEED_STRIDE,
    VectorEnvironment,
)
from repro.errors import ConfigurationError, ShapeError
from repro.experiments.common import make_environment
from repro.experiments.runner import run_manager
from repro.hier.baselines import make_rule_fleet
from repro.obs.context import ObsContext
from repro.obs.sink import MemorySink
from repro.pmc.counters import COUNTER_NAMES
from repro.server.machine import Machine
from repro.services.profiles import get_profile
from repro.services.service import IntervalResult
from repro.sim.environment import ColocationEnvironment
from repro.sim.node import ServiceObservation, StepResult, result_arrays
from repro.sim.faults import FAULT_KINDS, Fault, FaultInjector
from tests.helpers import _assert_tree_equal
from tests.oracles.colocation_reference import LCService, scalar_cluster_node

SERVICES = ["masstree", "xapian"]
SEED = 7
#: The node that carries a fault schedule in the faulted runs.
FAULTED = 2

_INTERVAL_FIELDS = [
    "arrival_rate", "throughput_rps", "p99_ms", "mean_ms", "utilization",
    "capacity_rps", "backlog", "cores", "frequency_ghz", "inflation",
    "miss_inflation", "membw_gbps", "busy_core_seconds", "instructions",
    "qos_target_ms",
]


def _faults(services):
    return FaultInjector(
        [
            Fault("latency_spike", services[-1], start=2, duration=2, magnitude=3.0),
            Fault("pmc_nan", services[0], start=3, duration=2, magnitude=2.0),
        ],
        rng=np.random.default_rng(5),
    )


def _cluster(services, nodes, faulted=False):
    venv = ClusterEnvironment.from_services(
        services, num_nodes=nodes, seed=SEED, balancer="least_loaded"
    )
    if faulted:
        venv.faults[FAULTED] = _faults(services)
    return venv


def _run_recorded(fleet, venv, ticks, obs=None):
    """Run ``fleet`` on ``venv``; per tick, the batch, the assignments it
    was stepped with, and the results the fleet was handed."""
    seen = []
    step, update = venv.step, fleet.update_batch

    def recording_step(assignments):
        batch = step(assignments)
        seen.append((batch, list(assignments), []))
        return batch

    def recording_update(results):
        seen[-1][2].extend(results[e] for e in range(len(results)))
        return update(results)

    venv.step = recording_step
    fleet.update_batch = recording_update
    run_fleet(fleet, venv, ticks, obs=obs)
    return seen


def _eager(batch, e):
    """Env ``e``'s result built eagerly from the batch's arrays."""
    a = batch.arrays
    return StepResult(
        time=int(a["time"][e]),
        observations=batch.build_observations(e),
        socket_power_w=float(a["power_w"][e]),
        true_power_w=float(a["true_power_w"][e]),
        membw_utilization=float(a["membw_utilization"][e]),
        energy_j=float(a["energy_j"][e]),
    )


def _same_bytes(a: float, b: float) -> bool:
    """Equal as float64 bytes: the engine adds in the scalar oracle's order."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _assert_matches_scalar(got: StepResult, expected: StepResult, where) -> None:
    assert got.time == expected.time, where
    for field in ("socket_power_w", "true_power_w", "membw_utilization", "energy_j"):
        assert _same_bytes(getattr(got, field), getattr(expected, field)), (where, field)
    assert list(got.observations) == list(expected.observations), where
    for name, ref in expected.observations.items():
        obs = got.observations[name]
        for field in _INTERVAL_FIELDS:
            assert _same_bytes(
                getattr(obs.interval, field), getattr(ref.interval, field)
            ), (where, name, field)
        assert list(obs.pmcs) == list(ref.pmcs), where
        for counter, value in ref.pmcs.items():
            assert _same_bytes(obs.pmcs[counter], value), (where, name, counter)


def _assert_matches_oracles(services, seen, faulted):
    """Hand-step one scalar node per cluster node with the rates the
    balancer gave it; every result the fleet read must match."""
    oracles = [
        scalar_cluster_node(services, SEED + e * ENV_SEED_STRIDE)
        for e in range(len(seen[0][2]))
    ]
    if faulted:
        oracles[FAULTED].faults = _faults(services)
    for batch, assignments, results in seen:
        for e, (oracle, result) in enumerate(zip(oracles, results)):
            for i, name in enumerate(services):
                oracle.load_generators[name].set_rate(batch.arrays["arrivals"][e, i])
            _assert_matches_scalar(result, oracle.step(assignments[e]), (e, result.time))


class _Counter:
    """Patches a class's ``__init__`` to count constructions."""

    def __init__(self, monkeypatch, cls):
        self.count = 0
        init = cls.__init__

        def counting_init(obj, *args, **kwargs):
            self.count += 1
            init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)


class TestHotPath:
    def test_static_fleet_builds_no_observation_objects(self, monkeypatch):
        nodes, ticks = 32, 5
        venv = _cluster(SERVICES, nodes)
        fleet = make_rule_fleet("static", SERVICES, nodes, SEED)
        intervals = _Counter(monkeypatch, IntervalResult)
        observations = _Counter(monkeypatch, ServiceObservation)
        results = _Counter(monkeypatch, StepResult)
        traces = run_fleet(fleet, venv, ticks)
        assert intervals.count == 0
        assert observations.count == 0
        # The fleet hands back its one batch without reading a result.
        assert results.count == 0
        assert all(t.steps() == ticks for t in traces)

    def test_static_fleet_is_one_batch_the_engine_installs_once(self, monkeypatch):
        """Every node's row, every tick, is what a per-node
        ``StaticManager`` returns; a batch of the wrong length is refused;
        the engine writes every row on the first tick and none after."""
        nodes, ticks = 6, 5
        venv = _cluster(SERVICES, nodes)
        fleet = make_rule_fleet("static", SERVICES, nodes, SEED)
        oracle = StaticManager(SERVICES)
        installed, handed = [], []
        changed_rows, update = venv._changed_rows, fleet.update_batch

        def recording_changed_rows(batch):
            found = changed_rows(batch)
            installed.append(found.tolist())
            return found

        def recording_update(results):
            handed.append((results, update(results)))
            return handed[-1][1]

        monkeypatch.setattr(venv, "_changed_rows", recording_changed_rows)
        monkeypatch.setattr(fleet, "update_batch", recording_update)
        run_fleet(fleet, venv, ticks)
        assert installed == [list(range(nodes))] + [[]] * (ticks - 1)
        assert len(handed) == ticks
        initial = fleet.initial_assignments()
        assert [initial[e] for e in range(nodes)] == [oracle.initial_assignments()] * nodes
        for results, assignments in handed:
            assert len(assignments) == nodes
            for e in range(nodes):
                assert assignments[e] == oracle.update(results[e]), (e, results[e].time)
        short = _cluster(SERVICES, nodes - 1).step(
            make_rule_fleet("static", SERVICES, nodes - 1, SEED).initial_assignments()
        )
        with pytest.raises(ShapeError, match=f"expected {nodes} results"):
            update(short)

    def test_reading_a_value_builds_that_nodes_observations_once(self, monkeypatch):
        venv = _cluster(SERVICES, 4)
        fleet = make_rule_fleet("static", SERVICES, 4, SEED)
        batch = venv.step(fleet.initial_assignments())
        intervals = _Counter(monkeypatch, IntervalResult)
        result = batch[1]
        assert list(result.observations) == SERVICES
        assert "xapian" in result.observations and len(result.observations) == 2
        assert intervals.count == 0
        result.observations["xapian"]
        assert intervals.count == len(SERVICES)
        assert result.observations["masstree"] is result.observations["masstree"]
        assert intervals.count == len(SERVICES)
        assert batch[1] is result


class TestLazyEqualsEager:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "name,services", [("parties", SERVICES), ("heracles", ["masstree"])]
    )
    @pytest.mark.parametrize("nodes", [1, 4])
    def test_rule_fleet_reads_eager_equal_results(self, name, services, nodes, traced):
        faulted = nodes > FAULTED
        venv = _cluster(services, nodes, faulted=faulted)
        fleet = make_rule_fleet(name, services, nodes, SEED)
        sink = MemorySink(validate=True) if traced else None
        obs = ObsContext(sink=sink) if traced else None
        seen = _run_recorded(fleet, venv, 6, obs=obs)
        for batch, _, results in seen:
            assert len(results) == nodes
            for e, result in enumerate(results):
                if faulted and e == FAULTED and venv.faults[e].active_at(result.time):
                    continue  # the injector replaced these observations
                assert result == _eager(batch, e), (e, result.time)
        _assert_matches_oracles(services, seen, faulted)
        if traced:
            assert len(sink.of_type("interval")) == 6 * nodes
        if faulted:
            assert any(
                venv.faults[FAULTED].active_at(results[0].time)
                for _, _, results in seen
            )


class TestBatchArraysReadOnly:
    def test_writing_into_batch_arrays_raises(self):
        venv = _cluster(SERVICES, 4)
        assignments = make_rule_fleet("static", SERVICES, 4, SEED).initial_assignments()
        batch = venv.step(assignments)
        for key, array in batch.arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            assert not array.flags.writeable, key


class TestResultArrays:
    """``result_arrays``, the one reader of a tick's results, reads a plain
    result list into what a ``StepBatch`` carries."""

    KEYS = ["arrivals", "counters", "membw_gbps", "p99", "power_w", "time"]

    def test_a_plain_result_list_reads_as_the_batch_arrays(self):
        venv = _cluster(SERVICES, 3)
        batch = venv.step(make_rule_fleet("static", SERVICES, 3, SEED).initial_assignments())
        assert result_arrays(batch, SERVICES) is batch.arrays
        plain = result_arrays([batch[e] for e in range(3)], SERVICES)
        assert sorted(plain) == self.KEYS
        for key, array in plain.items():
            assert array.dtype == batch.arrays[key].dtype, key
            assert np.array_equal(array, batch.arrays[key]), key

    def test_a_reading_without_a_counter_is_refused(self):
        venv = _cluster(SERVICES, 1)
        batch = venv.step(make_rule_fleet("static", SERVICES, 1, SEED).initial_assignments())
        result = batch[0]
        observations = dict(result.observations.items())
        xapian = observations["xapian"]
        pmcs = {k: v for k, v in xapian.pmcs.items() if k != "LLC_MISSES"}
        observations["xapian"] = ServiceObservation(xapian.interval, pmcs)
        short = StepResult(result.time, observations, result.socket_power_w,
                           result.true_power_w, result.membw_utilization, result.energy_j)
        with pytest.raises(ShapeError, match=r"readings missing counters: \['LLC_MISSES'\]"):
            result_arrays([short], SERVICES)


def _same(a: float, b: float) -> bool:
    """Equal, or both NaN."""
    return a == b or (a != a and b != b)


class TestFaultedArrays:
    """``batch.arrays`` of a faulted node read what its result reads."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_array_of_the_faulted_node_is_the_faulted_value(self, kind):
        venv = VectorEnvironment.from_services(
            SERVICES, {"masstree": 0.4, "xapian": 0.4}, 2, SEED
        )
        magnitude = 5.0 if kind == "latency_spike" else 3.0
        venv.faults[1] = FaultInjector(
            [Fault(kind, "xapian", start=1, duration=1, magnitude=magnitude)],
            rng=np.random.default_rng(5),
        )
        allocation = Mapper(venv.spec).map_rows(
            SERVICES, np.full((2, 2), 4), np.full((2, 2), 3), np.zeros((2, 2))
        )
        batch = venv.step(allocation)
        faulted = batch[1].observations
        rebuilt = batch.build_observations(1)
        for i, name in enumerate(SERVICES):
            interval, pmcs = faulted[name].interval, faulted[name].pmcs
            for field, key in _FIELD_ARRAYS.items():
                assert _same(batch.arrays[key][1, i], getattr(interval, field)), (name, key)
                assert _same(getattr(rebuilt[name].interval, field), getattr(interval, field))
            for c, counter in enumerate(COUNTER_NAMES):
                assert _same(batch.arrays["counters"][1, i, c], pmcs[counter]), (name, counter)


class TestRates:
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")],
                             ids=["nan", "negative", "inf"])
    def test_check_rates_refuses_a_bad_rate(self, bad):
        rates = np.arange(6.0).reshape(3, 2) + 10.0
        rates[2, 1] = bad
        with pytest.raises(ConfigurationError, match="scheduled rate must be finite >= 0"):
            check_rates(rates, 6)

    def test_check_rates_refuses_the_wrong_count(self):
        assert check_rates(np.arange(6.0).reshape(3, 2), 6).tolist() == list(np.arange(6.0))
        with pytest.raises(ConfigurationError, match="got 4 rates for 6 generators"):
            check_rates(np.ones((2, 2)), 6)

    @pytest.mark.parametrize("bad", [float("nan"), -3.0], ids=["nan", "negative"])
    def test_engine_refuses_bad_balancer_rates(self, monkeypatch, bad):
        nodes = 4
        venv = _cluster(SERVICES, nodes)
        assignments = make_rule_fleet("static", SERVICES, nodes, SEED).initial_assignments()
        good = venv.step(assignments).arrays["arrivals"].copy()
        rates = good + 1.0
        rates[-1, -1] = bad
        monkeypatch.setattr(venv.balancer, "assign", lambda t, demand, loads=None: rates)
        before = venv.state_dict()["envs"]
        with pytest.raises(ConfigurationError, match="scheduled rate must be finite >= 0"):
            venv.step(assignments)
        # No node stepped, and the balancer feedback still holds the
        # matrix of the last interval.
        assert venv.time == 1
        _assert_tree_equal(venv.state_dict()["envs"], before)
        assert np.array_equal(venv.state_dict()["cluster"]["loads"]["arrival_rps"], good)


class TestNodeOwnership:
    @pytest.mark.parametrize("build", ["vector", "cluster"])
    def test_building_64_nodes_builds_no_node_objects(self, monkeypatch, build):
        counters = [
            _Counter(monkeypatch, cls)
            for cls in (ColocationEnvironment, Machine, LCService, ScheduledLoad)
        ]
        if build == "vector":
            venv = VectorEnvironment.from_services(SERVICES, {"masstree": 0.4}, 64, SEED)
        else:
            venv = _cluster(SERVICES, 64)
        assert venv.num_envs == 64
        assert [counter.count for counter in counters] == [0, 0, 0, 0]

    def test_paper_loop_runs_no_scalar_server(self, monkeypatch):
        """``make_environment`` builds the one-node engine: a Twig run on it
        builds no ``Machine`` and never calls ``Machine.apply``."""
        machines = _Counter(monkeypatch, Machine)
        applied, apply = [], Machine.apply

        def recording_apply(machine, assignments):
            applied.append(assignments)
            apply(machine, assignments)

        monkeypatch.setattr(Machine, "apply", recording_apply)
        env = make_environment(SERVICES, [0.4, 0.5], SEED)
        twig = Twig([get_profile(s) for s in SERVICES], TwigConfig.fast(),
                    np.random.default_rng(SEED))
        trace = run_manager(twig, env, 4)
        assert trace.steps() == env.time == 4
        assert machines.count == 0
        assert applied == []
