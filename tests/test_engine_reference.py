"""The engine's node step against its frozen pre-install-time form.

``tests/oracles/engine_reference.py`` keeps the node step from before
the engine kept its pin-, DVFS- and LLC-derived arrays per install and
ran one Erlang-C evaluation per (node, service). Each test here steps
the package's engine and that reference on the same seeds and batches
in lock-step, and requires every ``batch.arrays`` entry to be the same
bytes on every tick and the two ``state_dict`` trees to flatten to the
same bytes at the end: on random fleets, and on fleets crafted for the
edges of the install-time arrays (offline cores loaded from a tree,
``hotplug_unused``, LLC ways, one service on every core, both sides of
the stability edge in one tick, a crashed service, one service).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.ckpt.checkpoint import _flatten, _json_default
from repro.cluster.environment import ClusterEnvironment
from repro.cluster.traffic import make_traffic_spec
from repro.core.mapper import AssignmentBatch
from repro.engine.vector_env import VectorEnvironment
from repro.services.profiles import builtin_profiles
from repro.sim.node import EnvironmentConfig, service_sum
from repro.sim.faults import Fault, FaultInjector
from tests.oracles.engine_reference import reference_engine

ReferenceVector = reference_engine(VectorEnvironment)
ReferenceCluster = reference_engine(ClusterEnvironment)

SERVICES4 = ["masstree", "xapian", "moses", "img-dnn"]


def state_bytes(engine):
    """An engine's ``state_dict`` as ``save_state`` flattens it: every
    array leaf's path, dtype, shape and bytes, then the scalar leaves."""
    arrays, scalars = _flatten(engine.state_dict())
    leaves = [
        (path, array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes())
        for path, array in arrays.items()
    ]
    return leaves, json.dumps(scalars, default=_json_default)


def assert_same_bytes(got, expected, where):
    assert list(got) == list(expected), where
    for key, array in expected.items():
        other = got[key]
        assert (other.dtype, other.shape) == (array.dtype, array.shape), (where, key)
        assert other.tobytes() == array.tobytes(), (where, key)


def vector_pair(services, fractions, num_envs, seed, config=None):
    """The engine and its reference, built alike."""
    load = dict(zip(services, fractions))
    return tuple(
        cls.from_services(services, load, num_envs, seed, config)
        for cls in (VectorEnvironment, ReferenceVector)
    )


def scaled_traffic(preset, services, scale):
    spec = make_traffic_spec(preset, services)
    return replace(spec, services=tuple(
        replace(s, base_fraction=scale * s.base_fraction,
                diurnal_amplitude=scale * s.diurnal_amplitude)
        for s in spec.services
    ))


def cluster_pair(services, num_nodes, seed, traffic, balancer, config=None):
    return tuple(
        cls.from_services(services, num_nodes, seed, traffic=traffic,
                          balancer=balancer, config=config)
        for cls in (ClusterEnvironment, ReferenceCluster)
    )


def random_batch(rng, engine, previous=None, change=1.0, max_ways=6, pin_all=()):
    """Random placements: each service on a random set of cores (so cores
    are timeshared), a random DVFS index and, up to ``max_ways``, random
    LLC ways. With a ``previous`` batch, each row is new with probability
    ``change`` and that row otherwise. Services in ``pin_all`` are pinned
    to every core."""
    E, S, C = engine.num_envs, len(engine.names), len(engine._core_ids)
    pins = np.zeros((E, S, C), dtype=bool)
    for e in range(E):
        for s in range(S):
            count = int(rng.integers(1, C + 1)) if rng.random() < 0.5 else int(rng.integers(1, 7))
            pins[e, s, rng.choice(C, size=count, replace=False)] = True
    pins[:, list(pin_all), :] = True
    freq = rng.integers(0, len(engine.spec.dvfs), size=(E, S))
    ways = rng.integers(0, max_ways + 1, size=(E, S)) * (rng.random((E, S)) < 0.5)
    if previous is not None:
        keep = rng.random(E) >= change
        pins[keep], freq[keep], ways[keep] = (
            previous.pins[keep], previous.freq[keep], previous.ways[keep]
        )
    return AssignmentBatch(engine.names, engine._core_ids, pins, freq, ways)


def schedule(rng, engine, ticks, change, **kwargs):
    batches = [random_batch(rng, engine, **kwargs)]
    while len(batches) < ticks:
        batches.append(random_batch(rng, engine, batches[-1], change, **kwargs))
    return batches


def lockstep(pair, batches):
    """Step both engines on every batch, comparing each tick's arrays and
    the final states by bytes; return the reference's arrays per tick."""
    engine, reference = pair
    ticks = []
    for t, batch in enumerate(batches):
        expected = reference.step(batch).arrays
        assert_same_bytes(engine.step(batch).arrays, expected, f"tick {t}")
        ticks.append(expected)
    assert state_bytes(engine) == state_bytes(reference)
    return ticks


@pytest.mark.parametrize("seed", range(12))
def test_random_fleets(seed):
    rng = np.random.default_rng(seed)
    names = list(builtin_profiles())
    services = [names[i] for i in rng.permutation(len(names))[:rng.integers(1, 5)]]
    nodes = int(rng.integers(1, 25))
    if seed % 2:
        pair = vector_pair(services, rng.uniform(0.05, 1.3, len(services)), nodes, seed)
    else:
        preset = ["diurnal", "flash_crowd", "regional_shift", "steady"][seed // 2 % 4]
        balancer = ["least_loaded", "power_of_two", "round_robin"][seed // 2 % 3]
        traffic = scaled_traffic(preset, services, float(rng.uniform(0.2, 1.0)))
        pair = cluster_pair(services, nodes, seed, traffic, balancer)
    change = [0.0, 0.3, 1.0][seed % 3]
    lockstep(pair, schedule(rng, pair[0], 30, change))


def test_offline_cores_loaded_from_a_tree():
    rng = np.random.default_rng(1)
    engine, reference = vector_pair(SERVICES4, [0.3, 0.5, 0.4, 0.6], 5, 3)
    batches = schedule(rng, engine, 16, 0.3)
    lockstep((engine, reference), batches[:6])
    tree = reference.state_dict()
    socket = engine.spec.socket_core_ids(engine.config.socket_index)
    for node, cores in (("0001", socket[2:9]), ("0003", socket[:1])):
        tree["envs"][node]["machine"]["online"][cores] = False
    engine.load_state_dict(tree)
    reference.load_state_dict(tree)
    assert not engine._m_online.all()
    # The rows the next batch installs equal the ones before the load on
    # most nodes; the load alone has to rebuild their install-time arrays.
    lockstep((engine, reference), batches[5:])


def test_hotplug_unused():
    rng = np.random.default_rng(2)
    config = EnvironmentConfig(hotplug_unused=True)
    pair = vector_pair(SERVICES4[:3], [0.4, 0.7, 0.2], 6, 5, config)
    lockstep(pair, schedule(rng, pair[0], 20, 0.4))


def test_llc_ways_past_the_cache():
    """Ways on every service, often more than the cache holds together."""
    rng = np.random.default_rng(3)
    traffic = scaled_traffic("diurnal", SERVICES4, 0.3)
    pair = cluster_pair(SERVICES4, 6, 9, traffic, "least_loaded")
    batches = schedule(rng, pair[0], 20, 0.5, max_ways=20)
    assert any((batch.ways > 0).all(axis=1).any() for batch in batches)
    lockstep(pair, batches)


def test_one_service_pinned_to_every_core():
    rng = np.random.default_rng(4)
    pair = vector_pair(SERVICES4, [0.5, 0.3, 0.3, 0.2], 4, 7)
    lockstep(pair, schedule(rng, pair[0], 16, 0.5, pin_all=(0,)))


def test_both_sides_of_the_stability_edge_in_one_tick():
    """Even nodes give every service one slow core, odd nodes eight fast
    ones, so every tick holds overloaded and stable (node, service)."""
    engine, reference = vector_pair(SERVICES4[:2], [0.6, 0.6], 6, 13)
    E, S, C = engine.num_envs, 2, len(engine._core_ids)
    pins = np.zeros((E, S, C), dtype=bool)
    freq = np.zeros((E, S), dtype=np.int64)
    pins[0::2, 0, 0] = pins[0::2, 1, 1] = True
    pins[1::2, 0, :8] = pins[1::2, 1, 8:16] = True
    freq[1::2] = len(engine.spec.dvfs) - 1
    batch = AssignmentBatch(engine.names, engine._core_ids, pins, freq,
                            np.zeros((E, S), dtype=np.int64))
    for arrays in lockstep((engine, reference), [batch] * 8):
        overloaded = arrays["throughput"] == arrays["capacity"]
        assert overloaded.any() and not overloaded.all()


def test_service_crash_fault():
    rng = np.random.default_rng(6)
    traffic = scaled_traffic("diurnal", SERVICES4, 0.3)
    pair = cluster_pair(SERVICES4, 5, 21, traffic, "power_of_two")
    for engine in pair:
        engine.faults[2] = FaultInjector(
            [Fault("service_crash", "xapian", start=4, duration=3),
             Fault("pmc_nan", "moses", start=6, duration=2, magnitude=3.0)],
            rng=np.random.default_rng(5),
        )
    lockstep(pair, schedule(rng, pair[0], 14, 0.3))


@pytest.mark.parametrize("services", [["moses"], SERVICES4], ids=["one", "four"])
def test_one_and_four_services(services):
    rng = np.random.default_rng(len(services))
    pair = vector_pair(services, [0.45] * len(services), 4, 17)
    lockstep(pair, schedule(rng, pair[0], 16, 0.5))


def test_loaded_then_stepped_equals_uninterrupted():
    """A load rebuilds every install-time array. The loaded engine last
    installed the DVFS levels and ways the next batch carries, on other
    pins; the tree brings the batch's pins, so only the load tells it
    that its derived arrays are stale."""
    rng = np.random.default_rng(8)
    load = dict(zip(SERVICES4, [0.4, 0.3, 0.5, 0.3]))
    steady, loaded = (VectorEnvironment.from_services(SERVICES4, load, 5, 19) for _ in range(2))
    batches = schedule(rng, steady, 14, 0.3)
    for batch in batches[:7]:
        steady.step(batch)
    resumed = batches[6]
    other = random_batch(np.random.default_rng(9), loaded)
    for _ in range(2):
        loaded.step(AssignmentBatch(loaded.names, loaded._core_ids, other.pins,
                                    resumed.freq, resumed.ways))
    loaded.load_state_dict(steady.state_dict())
    for t, batch in enumerate([resumed] + batches[7:]):
        assert_same_bytes(loaded.step(batch).arrays, steady.step(batch).arrays, t)
    assert state_bytes(loaded) == state_bytes(steady)


def test_array_forms_match_the_numpy_calls_they_replace():
    """The step's replacements give the bytes of what they replace,
    signed zeros and NaN included: ``np.clip`` with scalar bounds is
    ``minimum(hi, maximum(lo, x))``, with an array bound
    ``minimum(maximum(x, lo), hi)``, and :func:`service_sum` is
    ``sum(axis=-2)``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 4, 18))
    for value, share in ((-0.0, 0.2), (0.0, 0.1), (np.nan, 0.05), (np.inf, 0.02),
                         (-np.inf, 0.02), (1.0, 0.05)):
        x[rng.random(x.shape) < share] = value
    hi = rng.uniform(0.5, 2.0, x.shape)
    lo = rng.uniform(0.0, 0.5, x.shape[-1])
    zeros = np.full((3, 4, 2), -0.0)
    with np.errstate(invalid="ignore"):  # inf + -inf
        pairs = [
            (np.clip(x, 0.0, 1.0), np.minimum(1.0, np.maximum(0.0, x))),
            (np.clip(x, 0.0, hi), np.minimum(np.maximum(x, 0.0), hi)),
            (np.clip(x, lo, 1.0), np.minimum(np.maximum(x, lo), 1.0)),
            (x.sum(axis=-2), service_sum(x)),
            (zeros.sum(axis=-2), service_sum(zeros)),
        ]
    for expected, got in pairs:
        assert got.tobytes() == expected.tobytes()
