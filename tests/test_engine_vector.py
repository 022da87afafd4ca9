"""Equivalence and resume tests for the vectorized rollout engine.

The vector engine's contract is *equivalence* against the retained
scalar path:

- a :class:`~repro.engine.vector_env.VectorEnvironment` stepped in
  lock-step produces, per environment, the trajectory the equivalent
  standalone :class:`ColocationEnvironment` produces at the same
  per-env seed — to the last ulp (vectorized sums may associate
  differently than scalar accumulation, nothing more), with the RNG
  streams consumed draw-for-draw identically;
- :meth:`FleetBDQAgent.act_batch` consumes the exploration RNG exactly
  like N consecutive scalar ``act`` calls;
- a checkpointed/resumed vector run replays bit-identically to an
  uninterrupted one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import Allocation
from repro.core.config import TwigConfig
from repro.core.mapper import AssignmentBatch, Mapper
from repro.engine.fleet import FleetBDQAgent, FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import ENV_SEED_STRIDE, VectorEnvironment
from repro.errors import AllocationError, CheckpointError, ConfigurationError, ShapeError
from repro.experiments.common import make_environment
from repro.experiments.fleet import FleetConfig, run as run_fleet_experiment
from repro.rl.agent import BDQAgent, BDQAgentConfig
from repro.rl.striped import StripedPrioritizedReplayBuffer
from repro.rl.sum_tree import SumTree
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile
from repro.obs.sink import MemorySink
from repro.sim.faults import Fault, FaultInjector
from tests.helpers import _assert_traces_equal, _assert_tree_equal, as_batch

SERVICES = ["masstree", "xapian", "moses"]
FRACTIONS = {"masstree": 0.4, "xapian": 0.5, "moses": 0.3}
SEED = 11

_INTERVAL_FIELDS = [
    "arrival_rate",
    "throughput_rps",
    "p99_ms",
    "mean_ms",
    "utilization",
    "capacity_rps",
    "backlog",
    "cores",
    "frequency_ghz",
    "inflation",
    "miss_inflation",
    "membw_gbps",
    "busy_core_seconds",
    "instructions",
    "qos_target_ms",
]


def _ulp_close(a: float, b: float) -> bool:
    """Equal up to vectorized-vs-scalar summation-order round-off."""
    return bool(np.isclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True))


def _assignments(spec: ServerSpec, t: int):
    """Deterministic per-step allocation schedule exercising cores+DVFS."""
    mapper = Mapper(spec)
    top = len(spec.dvfs) - 1
    allocations = {
        name: Allocation(
            num_cores=2 + (t + 3 * i) % 4,
            freq_index=(t + i) % (top + 1),
        )
        for i, name in enumerate(SERVICES)
    }
    return mapper.map(allocations)


class TestVectorMatchesScalar:
    def test_lockstep_trajectories_bit_identical(self):
        num_envs, steps = 3, 25
        venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, num_envs, SEED)
        oracles = [
            make_environment(SERVICES, [FRACTIONS[s] for s in SERVICES],
                             SEED + e * ENV_SEED_STRIDE)
            for e in range(num_envs)
        ]
        for t in range(steps):
            assignment = _assignments(venv.spec, t)
            results = venv.step(as_batch(venv, [assignment] * num_envs))
            for e, oracle in enumerate(oracles):
                expected = oracle.step(assignment)
                got = results[e]
                assert got.time == expected.time
                assert _ulp_close(got.socket_power_w, expected.socket_power_w)
                assert _ulp_close(got.true_power_w, expected.true_power_w)
                assert _ulp_close(got.membw_utilization, expected.membw_utilization)
                assert _ulp_close(got.energy_j, expected.energy_j)
                for name in SERVICES:
                    interval = got.observations[name].interval
                    ref = expected.observations[name].interval
                    for field in _INTERVAL_FIELDS:
                        assert _ulp_close(
                            getattr(interval, field), getattr(ref, field)
                        ), (name, field, t)
                    pmcs, ref_pmcs = got.observations[name].pmcs, expected.observations[name].pmcs
                    assert set(pmcs) == set(ref_pmcs)
                    for counter in pmcs:
                        assert _ulp_close(pmcs[counter], ref_pmcs[counter]), (name, counter, t)
        # The RNG streams must end in the same state too — equality of the
        # outputs above could in principle survive a draw-order swap, the
        # bit generator state cannot.
        trees = venv.state_dict()["envs"]
        for e, oracle in enumerate(oracles):
            assert trees[f"{e:04d}"]["rng"] == oracle._rng.bit_generator.state
        _assert_envs_match(venv, oracles)

    def test_env_zero_matches_standard_recipe(self):
        # Environment 0 of a batch is seed-identical to a scalar run at
        # the batch seed, so single-experiment results are reproducible
        # inside a fleet.
        venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, 2, SEED)
        solo = make_environment(SERVICES, [FRACTIONS[s] for s in SERVICES], SEED)
        assignment = _assignments(venv.spec, 0)
        results = venv.step(as_batch(venv, [assignment, assignment]))
        expected = solo.step(assignment)
        assert _ulp_close(results[0].socket_power_w, expected.socket_power_w)
        assert not _ulp_close(results[1].socket_power_w, expected.socket_power_w)


SERVICES4 = ["masstree", "xapian", "moses", "img-dnn"]
FRACTIONS4 = {"masstree": 0.3, "xapian": 0.4, "moses": 0.2, "img-dnn": 0.3}


def _map4(mapper, cores, freqs, ways):
    return mapper.map(
        {
            name: Allocation(num_cores=c, freq_index=f, llc_ways=w)
            for name, c, f, w in zip(SERVICES4, cores, freqs, ways)
        }
    )


def _schedule4(spec, num_envs, steps):
    """Per-env 4-service assignment schedules for the install oracle.

    Each env alternates its own two placements A (requests over the
    socket's 18 cores, so the mapper timeshares cores between services
    asking for different DVFS states) and B (disjoint, with LLC ways),
    repeats A unchanged (the same dict, then an equal copy) and every
    fifth step takes a fresh, possibly overlapping placement.
    """
    mapper = Mapper(spec)
    top = len(spec.dvfs) - 1
    schedule = []
    for e in range(num_envs):
        a = _map4(mapper, (6 + e, 7, 5, 4), (top, 0, 3 + e, 1), (0, 0, 0, 0))
        b = _map4(mapper, (2, 3 + e, 4, 5), (1, top, 2, 4), (4, 0, 6, 2))
        rows = []
        for t in range(steps):
            kind = (t + e) % 5
            if kind in (0, 1):
                rows.append(a)
            elif kind == 2:
                rows.append(b)
            elif kind == 3:
                rows.append(dict(a))
            else:
                rows.append(
                    _map4(
                        mapper,
                        [1 + (3 * t + 5 * i + e) % 9 for i in range(4)],
                        [(t + 2 * i + e) % (top + 1) for i in range(4)],
                        [(t + i + e) % 4 for i in range(4)],
                    )
                )
        schedule.append(rows)
    return schedule


def _assert_tree_close(got, expected, path):
    """Every leaf of ``got`` equals ``expected``'s, of the same type;
    floats up to vectorized-vs-scalar round-off."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and set(got) == set(expected), path
        for key in expected:
            _assert_tree_close(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert got.dtype == expected.dtype and got.shape == expected.shape, path
        if expected.dtype.kind == "f":
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0, equal_nan=True), path
        else:
            assert np.array_equal(got, expected), path
    elif isinstance(expected, (list, tuple)):
        assert type(got) is type(expected) and len(got) == len(expected), path
        for i, (a, b) in enumerate(zip(got, expected)):
            _assert_tree_close(a, b, f"{path}[{i}]")
    else:
        assert type(got) is type(expected), path
        if isinstance(expected, float):
            assert _ulp_close(got, expected), path
        else:
            assert got == expected, path


def _assert_envs_match(venv, oracles):
    """Migration counters, then every leaf of each node's state tree
    (clock, violation streaks, RNG states, machine, RAPL energy and last
    reading, backlogs, fault RNG) equal each oracle's."""
    assert venv.migration_counts() == [
        dict(oracle.machine.migration_counts) for oracle in oracles
    ]
    trees = venv.state_dict()["envs"]
    for e, oracle in enumerate(oracles):
        _assert_tree_close(trees[f"{e:04d}"], oracle.state_dict(), f"env {e}")


def _step_and_compare(venv, oracles, assignments):
    """Step ``venv`` on a batch, or on per-env dicts converted to one,
    and each oracle on its row."""
    if not isinstance(assignments, AssignmentBatch):
        assignments = as_batch(venv, assignments)
    results = venv.step(assignments)
    for e, oracle in enumerate(oracles):
        expected = oracle.step(assignments[e])
        assert results[e].time == expected.time
        assert _ulp_close(results[e].socket_power_w, expected.socket_power_w)
        for name in SERVICES4:
            got = results[e].observations[name].interval
            ref = expected.observations[name].interval
            for field in ("p99_ms", "cores", "frequency_ghz", "miss_inflation"):
                assert _ulp_close(getattr(got, field), getattr(ref, field)), (
                    e, name, field,
                )
    _assert_envs_match(venv, oracles)


def _four_service_batch(num_envs):
    venv = VectorEnvironment.from_services(SERVICES4, FRACTIONS4, num_envs, SEED)
    oracles = [
        make_environment(SERVICES4, [FRACTIONS4[s] for s in SERVICES4],
                         SEED + e * ENV_SEED_STRIDE)
        for e in range(num_envs)
    ]
    return venv, oracles


class TestArrayInstall:
    """The array install pinned to ``Machine.apply`` on the scalar oracle."""

    def test_install_matches_scalar_machine(self):
        num_envs, steps, mid = 3, 24, 11
        venv, oracles = _four_service_batch(num_envs)
        schedule = _schedule4(venv.spec, num_envs, steps)
        assert any(
            sum(len(a.cores) for a in schedule[e][t].values()) > 18
            for e in range(num_envs)
            for t in range(steps)
        )
        for t in range(mid):
            _step_and_compare(venv, oracles, [schedule[e][t] for e in range(num_envs)])
        # Checkpoint mid-schedule, load into a fresh batch and continue:
        # the re-gathered machines carry the pins and counters on.
        resumed = VectorEnvironment.from_services(SERVICES4, FRACTIONS4, num_envs, 999)
        resumed.load_state_dict(venv.state_dict())
        _assert_envs_match(resumed, oracles)
        for t in range(mid, steps):
            _step_and_compare(
                resumed, oracles, [schedule[e][t] for e in range(num_envs)]
            )


def _crash_faults():
    return FaultInjector(
        [
            Fault("pmc_nan", "xapian", start=2, duration=2, magnitude=3.0),
            Fault("service_crash", "moses", start=4, duration=1),
        ],
        rng=np.random.default_rng(5),
    )


class TestEngineOwnedState:
    """The engine owns every node's state; each node's tree equals its
    scalar oracle's, a faulted and a traced one included."""

    def test_crash_drops_the_engine_backlog_like_the_oracle(self):
        venv, oracles = _four_service_batch(2)
        venv.faults[1], oracles[1].faults = _crash_faults(), _crash_faults()
        # One core each at the lowest DVFS state: every service backs up.
        tight = _map4(Mapper(venv.spec), (1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))
        backlogs = []
        for _ in range(6):
            _step_and_compare(venv, oracles, [tight, tight])
            backlogs.append(oracles[1].services["moses"].backlog)
        # The crash at t=4 dropped a real backlog, which then grew again.
        assert backlogs[2] > 0.0 and backlogs[3] == 0.0 and backlogs[4] > 0.0

    def test_traced_lockstep_events_and_state_match_the_oracles(self):
        """Each node's events, with their ``env`` tag, equal its traced
        oracle's on every step, and so does its state tree: streaks, the
        crash's backlog and the fault RNG included."""
        venv, oracles = _four_service_batch(3)
        venv.faults[1], oracles[1].faults = _crash_faults(), _crash_faults()
        sink = MemorySink(validate=True)
        venv.attach_obs(sink, None)
        oracle_sinks = [MemorySink(validate=True) for _ in oracles]
        for oracle, oracle_sink in zip(oracles, oracle_sinks):
            oracle.attach_obs(oracle_sink, None)
        # One core each at the lowest DVFS state: every service violates.
        tight = _map4(Mapper(venv.spec), (1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))
        kinds = set()
        for t in range(6):
            del sink.events[:]
            for oracle_sink in oracle_sinks:
                del oracle_sink.events[:]
            _step_and_compare(venv, oracles, [tight] * 3)
            for e, oracle_sink in enumerate(oracle_sinks):
                got = [event for event in sink.events if event["env"] == e]
                expected = [{**event, "env": e} for event in oracle_sink.events]
                assert [event["ev"] for event in got] == [event["ev"] for event in expected]
                for i, (a, b) in enumerate(zip(got, expected)):
                    _assert_tree_close(a, b, f"step {t} env {e} event {i}")
                kinds.update(event["ev"] for event in got)
        assert kinds == {"fault", "qos_violation", "interval"}
        streaks = venv.state_dict()["envs"]["0001"]["violation_streaks"]
        assert streaks and max(streaks.values()) > 1


class TestKeptBatch:
    """A batch kept across the next step still reads its own interval."""

    def test_kept_batch_matches_scalar_after_next_step(self):
        venv, oracles = _four_service_batch(2)
        mapper = Mapper(venv.spec)
        top = len(venv.spec.dvfs) - 1
        fast = _map4(mapper, (3, 4, 5, 2), (top, top, top, top), (0, 0, 0, 0))
        slow = _map4(mapper, (5, 2, 3, 4), (0, 0, 0, 0), (0, 0, 0, 0))
        kept = venv.step(as_batch(venv, [fast, fast]))
        expected = [oracle.step(fast) for oracle in oracles]
        # Step t+1 installs another placement (every service at DVFS 0)
        # before anything reads batch t.
        venv.step(as_batch(venv, [slow, slow]))
        for oracle in oracles:
            oracle.step(slow)
        columns = {
            "frequency_ghz": "frequency_ghz", "cores": "cores", "p99": "p99_ms",
            "arrivals": "arrival_rate", "backlog": "backlog",
        }
        for e, ref in enumerate(expected):
            for i, name in enumerate(SERVICES4):
                interval = ref.observations[name].interval
                for key, field in columns.items():
                    assert _ulp_close(
                        kept.arrays[key][e, i], getattr(interval, field)
                    ), (e, name, key)
            got = kept[e]
            assert got.time == ref.time
            assert _ulp_close(got.socket_power_w, ref.socket_power_w)
            assert _ulp_close(got.energy_j, ref.energy_j)
            for name in SERVICES4:
                for field in _INTERVAL_FIELDS:
                    assert _ulp_close(
                        getattr(got.observations[name].interval, field),
                        getattr(ref.observations[name].interval, field),
                    ), (e, name, field)
                assert got.observations[name].pmcs.keys() == (
                    ref.observations[name].pmcs.keys()
                )


INVALID = [
    "outside_socket",
    "repeated_core",
    "zero_cores",
    "freq_too_high",
    "freq_negative",
    "missing_service",
    "extra_service",
]


def _invalid(label, good, spec):
    """``good`` made invalid in the way ``label`` names."""
    if label == "missing_service":
        return {name: a for name, a in good.items() if name != "moses"}
    socket = Mapper(spec).socket_cores
    outside = next(c for c in range(spec.total_cores) if c not in socket)
    name, cores, level = {
        "outside_socket": ("xapian", (socket[0], outside), 1),
        "repeated_core": ("xapian", (socket[3], socket[3]), 1),
        "zero_cores": ("moses", (), 1),
        "freq_too_high": ("img-dnn", (socket[5],), len(spec.dvfs)),
        "freq_negative": ("img-dnn", (socket[5],), -1),
        "extra_service": ("bogus", (socket[1],), 1),
    }[label]
    return {**good, name: CoreAssignment(cores=cores, freq_index=level)}


class TestInstallValidation:
    """``AssignmentBatch.from_dicts`` rejects what ``ColocationEnvironment.step``
    rejects, with the same message, and ``VectorEnvironment.step`` refuses
    anything but a batch and changes nothing."""

    @pytest.mark.parametrize("label", INVALID)
    def test_rejects_like_scalar_and_changes_nothing(self, label):
        venv, oracles = _four_service_batch(2)
        mapper = Mapper(venv.spec)
        good = _map4(mapper, (3, 4, 5, 2), (2, 6, 1, 8), (0, 2, 0, 0))
        changed = _map4(mapper, (8, 6, 5, 4), (1, 3, 5, 7), (0, 0, 0, 0))
        _step_and_compare(venv, oracles, [good, good])
        bad = _invalid(label, good, venv.spec)
        with pytest.raises(AllocationError) as scalar:
            oracles[1].step(bad)
        with pytest.raises(AllocationError) as vector:
            as_batch(venv, [changed, bad])
        assert str(vector.value) == str(scalar.value)
        before = venv.state_dict()
        with pytest.raises(AllocationError, match="installs an AssignmentBatch"):
            venv.step([changed, good])
        _assert_tree_equal(venv.state_dict(), before)
        _step_and_compare(venv, oracles, [changed, good])

    def test_freq_checked_for_cached_core_set(self):
        """A DVFS index is checked where the core set is one already
        installed."""
        venv, oracles = _four_service_batch(1)
        good = _map4(Mapper(venv.spec), (3, 4, 5, 2), (2, 6, 1, 8), (0, 0, 0, 0))
        _step_and_compare(venv, oracles, [good])
        for level in (len(venv.spec.dvfs), -1):
            bad = {
                **good,
                "xapian": CoreAssignment(cores=good["xapian"].cores, freq_index=level),
            }
            with pytest.raises(AllocationError) as scalar:
                oracles[0].step(bad)
            with pytest.raises(AllocationError) as vector:
                as_batch(venv, [bad])
            assert str(vector.value) == str(scalar.value)
        _step_and_compare(venv, oracles, [good])


def _rows4(mapper, rows):
    """An ``AssignmentBatch`` of one ``(cores, freqs, ways)`` row per env."""
    cores, freqs, ways = (np.array([row[k] for row in rows]) for k in range(3))
    return mapper.map_rows(SERVICES4, cores, freqs, ways)


def _machine_arrays(venv):
    return [
        a.copy() for a in (
            venv._m_membership, venv._m_level, venv._m_freq_index, venv._migrations,
        )
    ]


class TestBatchInstall:
    """An ``AssignmentBatch`` installs as its dicts would, and a bad one
    changes nothing."""

    GOOD = ((3, 4, 5, 2), (2, 6, 1, 8), (0, 2, 0, 0))
    OVER = ((8, 6, 5, 4), (1, 3, 5, 7), (4, 0, 6, 20))

    def test_only_changed_rows_are_written(self, monkeypatch):
        venv, oracles = _four_service_batch(3)
        mapper = Mapper(venv.spec)
        _step_and_compare(venv, oracles, _rows4(mapper, [self.GOOD] * 3))
        batch = _rows4(mapper, [self.GOOD, self.OVER, self.GOOD])
        written, changed_rows = [], venv._changed_rows

        def recording_changed_rows(batch):
            found = changed_rows(batch)
            written.append(found.tolist())
            return found

        monkeypatch.setattr(venv, "_changed_rows", recording_changed_rows)
        venv.step(batch)
        assert written == [[1]]
        for e, oracle in enumerate(oracles):
            oracle.step(batch[e])
        _assert_envs_match(venv, oracles)

    def test_load_reinstalls_every_env(self):
        """A tree holds pins but no per-service DVFS or way rows, so after
        a load the next batch is written in full even where it matches."""
        venv, oracles = _four_service_batch(2)
        mapper = Mapper(venv.spec)
        first = _rows4(mapper, [self.GOOD, self.GOOD])
        second = _rows4(mapper, [self.OVER, self.OVER])
        _step_and_compare(venv, oracles, first)
        saved, oracle_trees = venv.state_dict(), [o.state_dict() for o in oracles]
        _step_and_compare(venv, oracles, second)
        venv.load_state_dict(saved)
        for oracle, tree in zip(oracles, oracle_trees):
            oracle.load_state_dict(tree)
        # The first batch's pins (the machines' now) with the second's
        # DVFS and ways (the rows installed before the load).
        mixed = AssignmentBatch(SERVICES4, first.core_ids, first.pins, second.freq,
                                second.ways)
        _step_and_compare(venv, oracles, mixed)

    @pytest.mark.parametrize("label", ["other_socket", "zero_cores", "freq_too_high",
                                       "freq_negative", "service_order"])
    def test_bad_batch_changes_nothing(self, label):
        venv, oracles = _four_service_batch(2)
        mapper = Mapper(venv.spec)
        _step_and_compare(venv, oracles, _rows4(mapper, [self.GOOD, self.GOOD]))
        batch = _rows4(mapper, [self.OVER, self.GOOD])
        pins, freq, ways = batch.pins.copy(), batch.freq.copy(), batch.ways.copy()
        core_ids, names = batch.core_ids, SERVICES4
        if label == "service_order":
            names = SERVICES4[::-1]
        elif label == "other_socket":
            core_ids = Mapper(venv.spec, socket_index=0).socket_cores
        elif label == "zero_cores":
            pins[1, 2] = False
        elif label == "freq_too_high":
            freq[1, 3] = len(venv.spec.dvfs)
        else:
            freq[1, 0] = -1
        bad = AssignmentBatch(names, core_ids, pins, freq, ways)
        before, arrays, time = venv.state_dict(), _machine_arrays(venv), venv.time
        with pytest.raises(AllocationError):
            venv.step(bad)
        assert venv.time == time
        for got, expected in zip(_machine_arrays(venv), arrays):
            assert np.array_equal(got, expected)
        _assert_tree_equal(venv.state_dict(), before)
        _step_and_compare(venv, oracles, batch)


class TestBatchedAct:
    def _agent_config(self) -> BDQAgentConfig:
        return BDQAgentConfig(
            state_dim=22,
            branch_sizes=[[18, 9], [18, 9]],
            batch_size=16,
            min_buffer_size=16,
            buffer_capacity=256,
            shared_hidden=(32, 16),
            branch_hidden=8,
        )

    @staticmethod
    def _flat(actions):
        return [a for agent in actions for a in agent]

    def test_act_batch_matches_sequential_act(self):
        config = self._agent_config()
        states = np.random.default_rng(9).normal(size=(4, config.state_dim))
        for schedule in ("frozen", "mid", "start"):
            scalar = BDQAgent(config, np.random.default_rng(5))
            fleet = FleetBDQAgent(config, np.random.default_rng(5), num_envs=4)
            if schedule == "frozen":
                # Epsilon 0 still draws once per branch.
                scalar.exploring_frozen = fleet.exploring_frozen = True
            elif schedule == "mid":
                # Mid-schedule epsilon so the exploration branch actually fires.
                scalar.step_count = fleet.step_count = config.epsilon_mid_steps // 2
            epsilon = fleet.epsilon()
            assert epsilon == scalar.epsilon()
            assert {
                "frozen": epsilon == 0.0,
                "mid": 0.0 < epsilon < 1.0,
                "start": epsilon == 1.0,
            }[schedule]
            batched = fleet.act_batch(states)
            assert batched.dtype == np.int64
            assert batched.shape == (4, sum(len(agent) for agent in config.branch_sizes))
            for i in range(4):
                assert batched[i].tolist() == self._flat(scalar.act(states[i])), schedule
            # Identical draw counts: both streams end in the same state.
            assert (
                fleet._rng.bit_generator.state == scalar._rng.bit_generator.state
            ), schedule

    def test_act_batch_greedy_matches_single(self):
        config = self._agent_config()
        fleet = FleetBDQAgent(config, np.random.default_rng(5), num_envs=3)
        states = np.random.default_rng(10).normal(size=(3, config.state_dim))
        before = fleet._rng.bit_generator.state
        batched = fleet.act_batch(states, greedy=True)
        for i in range(3):
            assert batched[i].tolist() == self._flat(fleet.act(states[i], greedy=True))
        # The greedy path draws nothing.
        assert fleet._rng.bit_generator.state == before


class TestObserveBatch:
    def _agent(self):
        config = BDQAgentConfig(
            state_dim=4,
            branch_sizes=[[3, 2], [3, 2]],
            batch_size=2,
            min_buffer_size=2,
            buffer_capacity=8,
            shared_hidden=(8,),
            branch_hidden=4,
            target_update_every=2,
        )
        return FleetBDQAgent(config, np.random.default_rng(3), num_envs=2)

    @staticmethod
    def _rows(count, rewards=2):
        rng = np.random.default_rng(count)
        return (
            np.arange(count),
            rng.normal(size=(count, 4)),
            rng.integers(0, 2, size=(count, 4)),
            rng.normal(size=(count, rewards)),
            rng.normal(size=(count, 4)),
        )

    def test_empty_tick_leaves_cadence_alone(self):
        agent = self._agent()
        assert agent.observe_batch(*self._rows(2)) is not None  # trains at 2 rows
        assert (agent.step_count, agent.train_count, len(agent.striped)) == (1, 1, 2)
        rng_before = agent._rng.bit_generator.state
        assert agent.observe_batch(*self._rows(0)) is None
        assert (agent.step_count, agent.train_count, len(agent.striped)) == (1, 1, 2)
        assert agent._rng.bit_generator.state == rng_before
        # The next tick that stores a row is step 2, a target-sync step.
        assert agent.observe_batch(*self._rows(1)) is not None
        assert (agent.step_count, agent.train_count, len(agent.striped)) == (2, 2, 3)
        for online, target in zip(agent.online.parameters(), agent.target.parameters()):
            assert np.array_equal(online.value, target.value)

    def test_rows_checked_before_storing(self):
        agent = self._agent()
        with pytest.raises(ShapeError):
            agent.observe_batch(*self._rows(2, rewards=3))
        assert (agent.step_count, len(agent.striped)) == (0, 0)
        assert agent.striped._storage is None


class TestStripedReplay:
    def _transition(self, rng):
        return {
            "state": rng.normal(size=4),
            "actions": rng.integers(0, 3, size=2).astype(float),
            "rewards": rng.normal(size=1),
            "next_state": rng.normal(size=4),
            "done": np.asarray(0.0),
        }

    def test_per_stripe_eviction(self):
        rng = np.random.default_rng(3)
        buf = StripedPrioritizedReplayBuffer(2, 4, rng)
        for _ in range(6):
            buf.add(0, self._transition(rng))
        buf.add(1, self._transition(rng))
        # Stripe 0 wrapped its ring; stripe 1 kept its single transition.
        assert buf.stripe_len(0) == 4
        assert buf.stripe_len(1) == 1
        assert len(buf) == 5
        batch = buf.sample(32, beta=0.5)
        assert batch["state"].shape == (32, 4)
        assert batch["weights"].max() == 1.0
        # Global slots map back to the owning stripe.
        assert set(batch["indices"] // 4) <= {0, 1}

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(4)
        buf = StripedPrioritizedReplayBuffer(3, 8, rng, alpha=0.7)
        for e in (0, 1, 0, 2, 0, 1):
            buf.add(e, self._transition(rng))
        buf.update_priorities(np.array([0, 8, 16]), np.array([0.5, 2.0, 0.1]))
        clone = StripedPrioritizedReplayBuffer(3, 8, np.random.default_rng(4), alpha=0.7)
        clone.load_state_dict(buf.state_dict())
        assert len(clone) == len(buf)
        assert np.array_equal(clone._sizes, buf._sizes)
        assert np.array_equal(clone._cursors, buf._cursors)
        assert clone._tree.total == buf._tree.total
        for key, store in buf._storage.items():
            assert np.array_equal(clone._storage[key], store)

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        buf = StripedPrioritizedReplayBuffer(2, 8, rng)
        buf.add(0, self._transition(rng))
        other = StripedPrioritizedReplayBuffer(4, 8, rng)
        with pytest.raises(CheckpointError):
            other.load_state_dict(buf.state_dict())

    @staticmethod
    def _rows(rng, count):
        return {
            "state": rng.normal(size=(count, 4)),
            "actions": rng.integers(0, 3, size=(count, 2)).astype(float),
            "rewards": rng.normal(size=(count, 1)),
            "next_state": rng.normal(size=(count, 4)),
            "done": np.zeros(count),
        }

    @staticmethod
    def _snapshot(buf):
        storage = {key: store.copy() for key, store in buf._storage.items()}
        return storage, buf._cursors.copy(), buf._sizes.copy(), buf._tree._tree.copy()

    def _assert_unchanged(self, buf, snapshot):
        storage, cursors, sizes, tree = snapshot
        assert set(buf._storage) == set(storage)
        for key, store in storage.items():
            assert np.array_equal(buf._storage[key], store), key
        assert np.array_equal(buf._cursors, cursors)
        assert np.array_equal(buf._sizes, sizes)
        assert np.array_equal(buf._tree._tree, tree)

    def test_add_batch_bitwise_matches_per_row_inserts(self):
        # 5 stripes of 3 (a non-power-of-two tree of 15 leaves); ten
        # rounds wrap every ring, so inserts overwrite leaves that hold
        # re-prioritised, non-zero priorities.
        rng = np.random.default_rng(11)
        num_envs, stripe = 5, 3
        buf = StripedPrioritizedReplayBuffer(num_envs, stripe, np.random.default_rng(0), alpha=0.7)
        tree = SumTree(num_envs * stripe)
        storage = {}
        cursors = np.zeros(num_envs, dtype=np.int64)
        sizes = np.zeros(num_envs, dtype=np.int64)
        max_priority = 1.0
        for _ in range(10):
            envs = rng.permutation(num_envs)[: rng.integers(1, num_envs + 1)]
            rows = self._rows(rng, envs.size)
            slots = buf.add_batch(envs, rows)
            for i, e in enumerate(envs.tolist()):
                slot = e * stripe + int(cursors[e])
                assert slots[i] == slot
                cursors[e] = (cursors[e] + 1) % stripe
                sizes[e] = min(sizes[e] + 1, stripe)
                for key, value in rows.items():
                    storage.setdefault(key, np.zeros((num_envs * stripe,) + value.shape[1:]))
                    storage[key][slot] = value[i]
                tree.update(slot, max_priority ** 0.7)
            assert np.array_equal(buf._tree._tree, tree._tree)
            for key, store in storage.items():
                assert np.array_equal(buf._storage[key], store), key
            assert np.array_equal(buf._cursors, cursors)
            assert np.array_equal(buf._sizes, sizes)
            # Re-prioritise what is stored, as a train round would.
            filled = np.nonzero(tree._tree[tree._leaf_count:][: num_envs * stripe])[0]
            td = rng.random(filled.size) * 3.0
            buf.update_priorities(filled, td)
            max_priority = max(max_priority, float((np.abs(td) + buf.eps).max()))
            tree.update_batch(filled, (np.abs(td) + buf.eps) ** 0.7)
            assert np.array_equal(buf._tree._tree, tree._tree)
        assert np.array_equal(sizes, np.full(num_envs, stripe))

    def test_add_batch_rejects_before_writing(self):
        rng = np.random.default_rng(12)
        buf = StripedPrioritizedReplayBuffer(3, 2, rng)
        for _ in range(3):  # wrap every stripe
            buf.add_batch(np.arange(3), self._rows(rng, 3))
        snapshot = self._snapshot(buf)
        good = self._rows(rng, 2)
        missing = {key: value for key, value in good.items() if key != "done"}
        extra = {**good, "bonus": np.zeros((2, 1))}
        wide = {**good, "rewards": np.ones((2, 2))}
        short = {**good, "state": np.ones((1, 4))}
        bad_calls = [
            (np.array([0, 3]), good),     # env index out of range
            (np.array([-1, 0]), good),
            (np.array([1, 1]), good),     # one env twice in one call
            (np.array([0, 1]), missing),
            (np.array([0, 1]), extra),
            (np.array([0, 1]), wide),     # wrong row shape
            (np.array([0, 1]), short),    # wrong row count
        ]
        for envs, rows in bad_calls:
            with pytest.raises(ShapeError):
                buf.add_batch(envs, rows)
            self._assert_unchanged(buf, snapshot)

    def test_add_batch_empty_writes_nothing(self):
        rng = np.random.default_rng(13)
        fresh = StripedPrioritizedReplayBuffer(2, 4, rng)
        slots = fresh.add_batch(np.zeros(0, dtype=np.int64), self._rows(rng, 0))
        assert slots.shape == (0,)
        assert fresh._storage is None
        assert len(fresh) == 0 and fresh._tree.total == 0.0
        fresh.add_batch(np.array([1]), self._rows(rng, 1))
        snapshot = self._snapshot(fresh)
        fresh.add_batch(np.zeros(0, dtype=np.int64), self._rows(rng, 0))
        self._assert_unchanged(fresh, snapshot)


def _build_fleet(num_envs: int, seed: int = 7):
    services = ["masstree", "xapian"]
    fractions = {"masstree": 0.4, "xapian": 0.5}
    config = TwigConfig.fast(epsilon_mid_steps=15, epsilon_final_steps=30)
    venv = VectorEnvironment.from_services(services, fractions, num_envs, seed)
    manager = FleetTwig(
        [get_profile(s) for s in services],
        config,
        np.random.default_rng(seed + 1),
        num_envs=num_envs,
    )
    return manager, venv


class TestVectorResume:
    def test_checkpoint_resume_bit_identical(self, tmp_path):
        num_envs, steps = 3, 20
        plain_manager, plain_venv = _build_fleet(num_envs)
        plain = run_fleet(plain_manager, plain_venv, steps)

        first_manager, first_venv = _build_fleet(num_envs)
        run_fleet(
            first_manager, first_venv, steps,
            checkpoint_every=7, checkpoint_dir=tmp_path,
        )
        resumed_manager, resumed_venv = _build_fleet(num_envs)
        resumed = run_fleet(resumed_manager, resumed_venv, steps, resume_from=tmp_path)

        _assert_traces_equal(resumed, plain)

    def test_resume_rejects_wrong_num_envs(self, tmp_path):
        manager, venv = _build_fleet(2)
        run_fleet(manager, venv, 10, checkpoint_every=5, checkpoint_dir=tmp_path)
        other_manager, other_venv = _build_fleet(3)
        with pytest.raises(CheckpointError):
            run_fleet(other_manager, other_venv, 10, resume_from=tmp_path)


class TestFleetSmoke:
    def test_tiny_four_env_vector_rollout(self):
        config = FleetConfig(
            services=("masstree", "xapian"),
            load_fractions=(0.4, 0.5),
            num_envs=4,
            steps=30,
            epsilon_mid_steps=10,
            epsilon_final_steps=20,
            window=10,
        )
        result = run_fleet_experiment(config)
        assert result.num_envs == 4
        assert len(result.qos_guarantee) == 4
        assert len(result.mean_power_w) == 4
        for e in range(4):
            assert np.isfinite(result.mean_power_w[e]) and result.mean_power_w[e] > 0
            for name in ("masstree", "xapian"):
                assert 0.0 <= result.qos_guarantee[e][name] <= 100.0
            trace = result.traces[e]
            assert len(trace.power_w) == 30
            assert len(trace.services["masstree"].p99_ms) == 30
        assert result.format_table()

    def test_config_validation(self):
        with pytest.raises(TypeError):
            FleetConfig(engine="scalar")
        for window in (0, -5):
            with pytest.raises(ConfigurationError, match="window"):
                FleetConfig(window=window)
