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
from repro.core.mapper import Mapper
from repro.engine.fleet import FleetBDQAgent, FleetTwig
from repro.engine.rollout import run_fleet
from repro.engine.vector_env import (
    ENV_SEED_STRIDE,
    VectorEnvironment,
    make_sibling_environment,
)
from repro.errors import AllocationError, CheckpointError
from repro.experiments.fleet import FleetConfig, run as run_fleet_experiment
from repro.rl.agent import BDQAgent, BDQAgentConfig
from repro.rl.striped import StripedPrioritizedReplayBuffer
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile
from tests.test_engine_sharded import _assert_tree_equal

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
            make_sibling_environment(SERVICES, FRACTIONS, SEED + e * ENV_SEED_STRIDE)
            for e in range(num_envs)
        ]
        for t in range(steps):
            assignment = _assignments(venv.spec, t)
            results = venv.step([assignment] * num_envs)
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
        for e, oracle in enumerate(oracles):
            assert (
                venv.envs[e]._rng.bit_generator.state == oracle._rng.bit_generator.state
            )

    def test_env_zero_matches_standard_recipe(self):
        # Environment 0 of a batch is seed-identical to a scalar run at
        # the batch seed, so single-experiment results are reproducible
        # inside a fleet.
        venv = VectorEnvironment.from_services(SERVICES, FRACTIONS, 2, SEED)
        solo = make_sibling_environment(SERVICES, FRACTIONS, SEED)
        assignment = _assignments(venv.spec, 0)
        results = venv.step([assignment, assignment])
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


def _assert_machine_matches(venv, oracles):
    """Migration counters and the machine subtree equal each oracle's."""
    assert venv.migration_counts() == [
        dict(oracle.machine.migration_counts) for oracle in oracles
    ]
    trees = venv.state_dict()["envs"]
    for e, oracle in enumerate(oracles):
        got = trees[f"{e:04d}"]["machine"]
        expected = oracle.machine.state_dict()
        assert set(got) == set(expected)
        assert got["freq_index"].dtype == expected["freq_index"].dtype
        assert np.array_equal(got["freq_index"], expected["freq_index"]), e
        assert np.array_equal(got["online"], expected["online"]), e
        assert got["services"] == expected["services"], e
        assert got["migration_counts"] == expected["migration_counts"], e


def _step_and_compare(venv, oracles, assignments):
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
    _assert_machine_matches(venv, oracles)


def _four_service_batch(num_envs):
    venv = VectorEnvironment.from_services(SERVICES4, FRACTIONS4, num_envs, SEED)
    oracles = [
        make_sibling_environment(SERVICES4, FRACTIONS4, SEED + e * ENV_SEED_STRIDE)
        for e in range(num_envs)
    ]
    return venv, oracles


class TestArrayInstall:
    """The array install pinned to ``Machine.apply`` on the scalar oracle."""

    @pytest.mark.parametrize("row_cache_limit", [None, 8])
    def test_install_matches_scalar_machine(self, monkeypatch, row_cache_limit):
        if row_cache_limit is not None:
            # The schedule uses ~50 core sets: a tiny cache restarts often.
            monkeypatch.setattr(
                "repro.engine.vector_env._ROW_CACHE_LIMIT", row_cache_limit
            )
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
        _assert_machine_matches(resumed, oracles)
        for t in range(mid, steps):
            _step_and_compare(
                resumed, oracles, [schedule[e][t] for e in range(num_envs)]
            )

    def test_in_place_mutation_is_installed(self):
        venv, oracles = _four_service_batch(2)
        shared = _map4(Mapper(venv.spec), (4, 4, 4, 4), (8, 2, 5, 0), (0, 0, 0, 0))
        _step_and_compare(venv, oracles, [shared, shared])
        # A manager reusing one dict and replacing an entry in place.
        shared["xapian"] = CoreAssignment(
            cores=shared["xapian"].cores[:2], freq_index=7, llc_ways=3
        )
        _step_and_compare(venv, oracles, [shared, shared])
        shared["moses"] = CoreAssignment(cores=shared["masstree"].cores, freq_index=1)
        _step_and_compare(venv, oracles, [shared, shared])


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
    """``VectorEnvironment.step`` rejects what ``ColocationEnvironment.step``
    rejects, with the same message, and a rejected step changes nothing."""

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
        before = venv.state_dict()
        # Env 0 would install a valid new placement; env 1 is rejected,
        # so neither may change.
        with pytest.raises(AllocationError) as vector:
            venv.step([changed, bad])
        assert str(vector.value) == str(scalar.value)
        _assert_tree_equal(venv.state_dict(), before)
        _step_and_compare(venv, oracles, [changed, good])

    def test_freq_checked_for_cached_core_set(self):
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
                venv.step([bad])
            assert str(vector.value) == str(scalar.value)
        _step_and_compare(venv, oracles, [good])


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

    def test_act_batch_matches_sequential_act(self):
        config = self._agent_config()
        scalar = BDQAgent(config, np.random.default_rng(5))
        fleet = FleetBDQAgent(config, np.random.default_rng(5), num_envs=4)
        states = np.random.default_rng(9).normal(size=(4, config.state_dim))
        # Mid-schedule epsilon so the exploration branch actually fires.
        scalar.step_count = fleet.step_count = config.epsilon_mid_steps // 2
        batched = fleet.act_batch(states)
        sequential = [scalar.act(states[i]) for i in range(4)]
        assert batched == sequential
        # Identical draw counts: both streams end in the same state.
        assert (
            fleet._rng.bit_generator.state == scalar._rng.bit_generator.state
        )

    def test_act_batch_greedy_matches_single(self):
        config = self._agent_config()
        fleet = FleetBDQAgent(config, np.random.default_rng(5), num_envs=3)
        states = np.random.default_rng(10).normal(size=(3, config.state_dim))
        batched = fleet.act_batch(states, greedy=True)
        for i in range(3):
            assert batched[i] == fleet.act(states[i], greedy=True)


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

        for e in range(num_envs):
            assert resumed[e].power_w == plain[e].power_w
            assert resumed[e].true_power_w == plain[e].true_power_w
            for name in ("masstree", "xapian"):
                assert resumed[e].services[name].p99_ms == plain[e].services[name].p99_ms
                assert resumed[e].services[name].cores == plain[e].services[name].cores

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
            engine="vector",
            epsilon_mid_steps=10,
            epsilon_final_steps=20,
            window=10,
        )
        result = run_fleet_experiment(config)
        assert result.engine == "vector"
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
