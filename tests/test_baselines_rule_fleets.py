"""The PARTIES and Heracles fleets against their one-server form.

- :func:`~repro.baselines.parties.first_extremes` returns the column
  Python's ``max`` and ``min`` return over crafted rows: ties, a leading
  NaN, an interior NaN and infinities;
- a PARTIES server whose service avoids one resource still calls its
  generator, and that one-choice call draws no word;
- an N-server fleet fed random rows returns every tick what N one-server
  managers, and N frozen scalar managers
  (``tests/oracles/rule_reference.py``), return for the same rows, and
  leaves every generator in the same state;
- an untraced fleet tick on the engine calls no ``Mapper.map`` and
  builds no result or observation object;
- a PARTIES fleet and a Heracles fleet resumed mid-run (the Heracles one
  inside a lockout) record the uninterrupted run's traces bit for bit and
  end in its controller state.
"""

from __future__ import annotations

from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import HeraclesManager, PartiesManager
from repro.baselines.heracles import HeraclesFleet
from repro.baselines.parties import DVFS, PartiesFleet, first_extremes
from repro.ckpt.checkpoint import load_state
from repro.cluster.environment import ClusterEnvironment
from repro.core.mapper import Mapper
from repro.engine.rollout import VECTOR_RUN_CKPT_KIND, run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.experiments.runner import RUN_CKPT_NAME
from repro.hier.baselines import RuleFleet, make_rule_fleet
from repro.pmc.counters import COUNTER_NAMES
from repro.services.profiles import get_profile
from repro.sim.environment import ServiceObservation, StepResult
from tests.helpers import _assert_traces_equal, _assert_tree_equal
from tests.oracles.rule_reference import ScalarHeracles, ScalarParties

SERVICES = ["masstree", "xapian", "moses"]
NAN, INF = float("nan"), float("inf")


class _Rows(Sequence):
    """One tick's rows as a rule fleet reads them: the engine's ``names``
    and ``arrays``, and each server's result as a one-server manager
    reads it."""

    def __init__(self, names, arrays):
        self.names = list(names)
        self.arrays = arrays

    def __len__(self):
        return len(self.arrays["p99"])

    def __getitem__(self, e):
        a = self.arrays
        return SimpleNamespace(
            time=e,
            observations={
                name: SimpleNamespace(
                    p99_ms=float(a["p99"][e, i]),
                    interval=SimpleNamespace(
                        arrival_rate=float(a["arrivals"][e, i]),
                        membw_gbps=float(a["membw_gbps"][e, i]),
                    ),
                    pmcs=dict.fromkeys(COUNTER_NAMES, 0.0),
                )
                for i, name in enumerate(self.names)
            },
            socket_power_w=float(a["power_w"][e]),
        )


CRAFTED = [
    [0.5, 0.5, 0.5],          # all tied
    [0.9, 1.2, 1.2],          # tied maximum
    [0.3, 0.3, 0.8],          # tied minimum
    [NAN, 1.5, 0.2],          # leading NaN: kept by both
    [NAN, NAN, NAN],
    [1.5, NAN, 0.2],          # interior NaN: passed over
    [0.2, NAN, 1.5],
    [1.0, NAN, NAN],
    [INF, 0.5, INF],          # infinities
    [-INF, 0.5, -INF],
    [0.5, INF, NAN],
    [0.5, -INF, NAN],
    [-INF, NAN, -INF],
]


def test_first_extremes_are_pythons_max_and_min():
    closest, slackest = first_extremes(np.array(CRAFTED))
    for row, c, s in zip(CRAFTED, closest.tolist(), slackest.tolist()):
        order = range(len(row))
        assert c == max(order, key=lambda i: row[i]), row
        assert s == min(order, key=lambda i: row[i]), row


def test_a_one_choice_pick_draws_no_word():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert rng.integers(0, 1) == 0
    assert rng.bit_generator.state == state
    fleet = PartiesFleet(
        [get_profile(s) for s in SERVICES],
        [np.random.default_rng(1), np.random.default_rng(2)],
        poll_every=1,
    )
    fleet._avoid[0, 0] = DVFS
    before = [r.bit_generator.state for r in fleet._rngs]
    cores = fleet.cores.copy()
    # Both servers upsize masstree, the closest to its target: server 0
    # may only take a core, server 1 draws between cores and DVFS.
    p99 = np.array([[2.0, 0.8, 0.8], [2.0, 0.8, 0.8]]) * fleet._qos
    fleet.update_batch(_Rows(SERVICES, {"p99": p99}))  # read as a batch only
    assert fleet._rngs[0].bit_generator.state == before[0]
    assert fleet._rngs[1].bit_generator.state != before[1]
    assert fleet.cores[0, 0] == cores[0, 0] + 1


def _parties_rows(rng, shape):
    """Latency ratios around PARTIES's thresholds, with exact ties, NaN
    and infinities (every QoS target is 1 ms, so p99 is the ratio)."""
    pool = np.array([0.2, 0.5, 0.69, 0.7, 0.8, 0.95, 1.0, 1.05, 1.5, NAN, INF])
    p99 = np.where(rng.random(shape) < 0.6, rng.choice(pool, shape),
                   rng.uniform(0.3, 1.3, shape))
    return {"p99": p99, "arrivals": p99, "membw_gbps": p99, "power_w": p99[:, 0]}


@pytest.mark.parametrize("poll_every", [1, 2])
def test_parties_fleet_is_n_one_server_managers(poll_every):
    E, ticks = 6, 80
    profiles = [get_profile(s) for s in SERVICES]
    targets = {s: 1.0 for s in SERVICES}
    fleet = PartiesFleet(profiles, [np.random.default_rng(10 + e) for e in range(E)],
                         poll_every=poll_every, qos_targets=targets)
    managers = [PartiesManager(profiles, np.random.default_rng(10 + e),
                               poll_every=poll_every, qos_targets=targets)
                for e in range(E)]
    oracles = [ScalarParties(profiles, np.random.default_rng(10 + e),
                             poll_every=poll_every, qos_targets=targets)
               for e in range(E)]
    batch = fleet.initial_assignments()
    for e in range(E):
        assert batch[e] == managers[e].initial_assignments() == oracles[e].initial_assignments()
    rng = np.random.default_rng(3)
    reverts = 0
    for t in range(ticks):
        rows = _Rows(SERVICES, _parties_rows(rng, (E, len(SERVICES))))
        reverts += int((fleet._avoid >= 0).sum())
        batch = fleet.update_batch(rows)
        for e in range(E):
            expected = oracles[e].update(rows[e])
            assert managers[e].update(rows[e]) == expected, (t, e)
            assert batch[e] == expected, (t, e)
    assert reverts  # some downsizing was reverted
    for e in range(E):
        state = oracles[e]._rng.bit_generator.state
        assert fleet._rngs[e].bit_generator.state == state
        assert managers[e]._rngs[0].bit_generator.state == state


def _heracles_rows(rng, E, profile, spec):
    q, top_load, tdp = profile.qos_target_ms, profile.max_load_rps, spec.tdp_w
    pick = lambda values: rng.choice(np.array(values), (E, 1))  # noqa: E731
    return {
        "p99": pick([0.5 * q, 0.8 * q, q, 1.2 * q, NAN]),
        "arrivals": pick([0.5 * top_load, 0.85 * top_load, 0.9 * top_load]),
        "membw_gbps": rng.uniform(1.0, 1.2, (E, 1)),
        "power_w": pick([0.8 * tdp, 0.9 * tdp, 0.95 * tdp])[:, 0],
    }


def test_heracles_fleet_is_n_one_server_managers():
    E, ticks = 6, 90
    profile = get_profile("masstree")
    knobs = {"main_poll_every": 5, "lockout_steps": 6}
    fleet = HeraclesFleet(profile, E, **knobs)
    managers = [HeraclesManager(profile, **knobs) for _ in range(E)]
    oracles = [ScalarHeracles(profile, **knobs) for _ in range(E)]
    batch = fleet.initial_assignments()
    for e in range(E):
        assert batch[e] == managers[e].initial_assignments() == oracles[e].initial_assignments()
    rng = np.random.default_rng(4)
    locked = 0
    for t in range(ticks):
        rows = _Rows([profile.name], _heracles_rows(rng, E, profile, fleet.spec))
        batch = fleet.update_batch(rows)
        locked += int((fleet._lockout_until > fleet.step_count).sum())
        for e in range(E):
            expected = oracles[e].update(rows[e])
            assert managers[e].update(rows[e]) == expected, (t, e)
            assert batch[e] == expected, (t, e)
    assert 0 < locked < E * ticks


@pytest.mark.parametrize("name,services", [("parties", SERVICES), ("heracles", ["masstree"])])
def test_untraced_fleet_tick_maps_and_builds_nothing(monkeypatch, name, services):
    counts = {"map": 0, "results": 0, "observations": 0}

    def counting(cls, attr, key):
        original = getattr(cls, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)

    counting(Mapper, "map", "map")
    counting(StepResult, "__init__", "results")
    counting(ServiceObservation, "__init__", "observations")
    nodes, ticks = 8, 12
    venv = ClusterEnvironment.from_services(services, num_nodes=nodes, seed=5)
    fleet = make_rule_fleet(name, services, nodes, 5)
    traces = run_fleet(fleet, venv, ticks)
    assert counts == {"map": 0, "results": 0, "observations": 0}
    # The controllers moved: not every tick placed every node alike.
    cores = np.array([t.services[services[0]].cores for t in traces])
    assert len(np.unique(cores)) > 1


def _resumed_matches_uninterrupted(make_pair, steps, every, tmp_path):
    """Traces of a run resumed from its last rolling checkpoint, and its
    controllers at the end (PARTIES's generators included), equal the
    uninterrupted run's, bit for bit; returns the checkpoint tree."""
    fleet, venv = make_pair()
    expected = run_fleet(fleet, venv, steps)
    run_fleet(*make_pair(), steps, checkpoint_every=every, checkpoint_dir=tmp_path)
    resumed_fleet, resumed_venv = make_pair()
    resumed = run_fleet(resumed_fleet, resumed_venv, steps, resume_from=tmp_path)
    for a, b in zip(expected, resumed):
        _assert_traces_equal(a, b)
    _assert_tree_equal(resumed_fleet.state_dict(), fleet.state_dict())
    return load_state(tmp_path / RUN_CKPT_NAME, kind=VECTOR_RUN_CKPT_KIND)


def test_resumed_parties_fleet_continues_its_controllers(tmp_path):
    """A resumed PARTIES fleet used to restart its controllers (even
    split, step 0, each generator at its seed) while the engine resumed
    at tick 8: it recorded other cores on every tick from 9 on."""
    services = ["masstree", "xapian"]

    def make_pair():
        venv = VectorEnvironment.from_services(
            services, {"masstree": 0.4, "xapian": 0.5}, 3, 21
        )
        return make_rule_fleet("parties", services, 3, 21), venv

    tree = _resumed_matches_uninterrupted(make_pair, 16, 8, tmp_path)
    state = tree["manager"]["controller"]
    assert tree["loop"]["next_t"] == state["step_count"] == 8
    # The controllers had moved by the checkpoint: a restart would not
    # reproduce them.
    fresh = make_rule_fleet("parties", services, 3, 21).controller
    assert not np.array_equal(state["cores"], fresh.cores)


def test_resumed_heracles_fleet_continues_a_lockout(tmp_path):
    """Checkpointed while node 0 is locked out, resumed, and run past the
    lockout's end: the resumed controllers keep the lockout, the tick
    count and the last memory bandwidth."""

    def make_pair():
        venv = VectorEnvironment.from_services(["masstree"], {"masstree": 0.7}, 3, 5)
        controller = HeraclesFleet(get_profile("masstree"), 3, main_poll_every=5,
                                   lockout_steps=8)
        return RuleFleet("heracles", controller), venv

    steps = 40
    tree = _resumed_matches_uninterrupted(make_pair, steps, 15, tmp_path)
    next_t = tree["loop"]["next_t"]
    lockout = tree["manager"]["controller"]["lockout_until"]
    assert next_t == 30
    assert ((lockout > next_t) & (lockout < steps)).any()
