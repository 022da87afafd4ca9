"""The placement (``Mapper.map_rows``) pinned to the frozen scalar mapper.

Every core-count row of one and two services, and a few thousand random
rows of three and four services (fitting and oversubscribed sockets,
fitting and oversubscribed LLC ways), must give the pins, DVFS indices and
ways the original per-server mapper (``tests/oracles/mapper_reference.py``)
gives, on both sockets; ``AssignmentBatch[e]`` and ``Mapper.map`` of the
row alone must equal its dict. Bad rows raise the type and message it
raises.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.actions import Allocation
from repro.core.config import TwigConfig
from repro.core.fleet import FleetTwig
from repro.core.mapper import AssignmentBatch, Mapper
from repro.errors import AllocationError, ConfigurationError, ShapeError
from repro.experiments.common import make_environment
from repro.server.spec import ServerSpec
from repro.services.profiles import get_profile
from tests.oracles.mapper_reference import ReferenceMapper

SPEC = ServerSpec()
CORES = SPEC.cores_per_socket
LEVELS = len(SPEC.dvfs)
WAYS = SPEC.socket.llc_ways


def _names(count):
    return [f"sv-{i}" for i in range(count)]


def _assert_rows_match_reference(socket, cores, freq, ways):
    mapper = Mapper(SPEC, socket_index=socket)
    reference = ReferenceMapper(SPEC, socket_index=socket)
    names = _names(cores.shape[1])
    batch = mapper.map_rows(names, cores, freq, ways)
    assert len(batch) == len(cores)
    for e in range(len(cores)):
        requests = {
            name: Allocation(int(cores[e, i]), int(freq[e, i]), int(ways[e, i]))
            for i, name in enumerate(names)
        }
        expected = reference.map(requests)
        for i, name in enumerate(names):
            pinned = batch.core_ids[batch.pins[e, i]].tolist()
            assert pinned == list(expected[name].cores), (e, name)
            assert batch.freq[e, i] == expected[name].freq_index, (e, name)
            assert batch.ways[e, i] == expected[name].llc_ways, (e, name)
        assert batch[e] == expected, e
        assert list(batch[e]) == names
        assert mapper.map(requests) == expected, e


@pytest.mark.parametrize("socket", [0, 1])
@pytest.mark.parametrize("services", [1, 2])
def test_every_core_count_row_matches_map(socket, services):
    cores = np.array(list(itertools.product(range(1, CORES + 1), repeat=services)))
    assert len(cores) == CORES ** services  # 18 and 324 rows
    rng = np.random.default_rng(services)
    freq = rng.integers(0, LEVELS, size=cores.shape)
    ways = rng.integers(0, WAYS + 3, size=cores.shape)  # past the cache too
    _assert_rows_match_reference(socket, cores, freq, ways)


@pytest.mark.parametrize("socket", [0, 1])
@pytest.mark.parametrize("services", [3, 4])
def test_random_rows_match_map(socket, services):
    rng = np.random.default_rng(10 * services + socket)
    rows = 1500
    # Half the rows drawn small enough to fit the socket mostly, half
    # from the whole range (mostly oversubscribed: overlap windows).
    cores = np.concatenate([
        rng.integers(1, 2 * CORES // services, size=(rows // 2, services)),
        rng.integers(1, CORES + 1, size=(rows - rows // 2, services)),
    ])
    freq = rng.integers(0, LEVELS, size=cores.shape)
    ways = np.where(
        rng.random(cores.shape) < 0.3, 0, rng.integers(0, WAYS + 1, size=cores.shape)
    )
    over_cores = cores.sum(axis=1) > CORES
    over_ways = np.minimum(ways, WAYS).sum(axis=1) > WAYS
    assert 0.2 < over_cores.mean() < 0.9 and 0.2 < over_ways.mean() < 0.9
    _assert_rows_match_reference(socket, cores, freq, ways)


def _bad_row(label):
    """A two-service request row made bad in the way ``label`` names."""
    cores, freq, ways = [3, 4], [2, 5], [0, 0]
    if label == "zero_cores":
        cores[1] = 0
    elif label == "too_many_cores":
        cores[0] = CORES + 1
    elif label == "dvfs_past_ladder":
        freq[1] = LEVELS
    elif label == "negative_dvfs":
        freq[0] = -1
    elif label == "negative_ways":
        ways[1] = -2
    return cores, freq, ways


BAD_ROWS = {
    "zero_cores": ConfigurationError,
    "too_many_cores": AllocationError,
    "dvfs_past_ladder": AllocationError,
    "negative_dvfs": ConfigurationError,
    "negative_ways": ConfigurationError,
}


@pytest.mark.parametrize("label", sorted(BAD_ROWS))
def test_bad_rows_raise_what_map_raises(label):
    mapper, reference = Mapper(SPEC), ReferenceMapper(SPEC)
    names = _names(2)
    cores, freq, ways = _bad_row(label)

    def requests():
        return {name: Allocation(c, f, w) for name, c, f, w in zip(names, cores, freq, ways)}

    with pytest.raises(BAD_ROWS[label]) as frozen:
        reference.map(requests())
    good = [[2, 2], [1, 1], [0, 0]]
    # The bad row is the second of three: the first bad row is reported.
    matrices = [np.array([g, b, g]) for g, b in zip(good, (cores, freq, ways))]
    with pytest.raises(BAD_ROWS[label]) as batched:
        mapper.map_rows(names, *matrices)
    assert str(batched.value) == str(frozen.value)
    if BAD_ROWS[label] is AllocationError:  # the requests themselves build
        with pytest.raises(AllocationError) as scalar:
            mapper.map(requests())
        assert str(scalar.value) == str(frozen.value)


def test_no_requests_are_refused():
    with pytest.raises(AllocationError, match="mapper received no requests") as frozen:
        ReferenceMapper(SPEC).map({})
    with pytest.raises(AllocationError) as scalar:
        Mapper(SPEC).map({})
    assert str(scalar.value) == str(frozen.value)


class _ZeroCoreRepair(FleetTwig):
    """A repair hook that asks for zero cores for the second service."""

    def _repair_action_rows(self, env_rows, actions, arrival):
        actions[:, 1, 0] = -1
        return actions


def test_repair_hook_zero_cores_raises_configuration_error():
    services = ["masstree", "xapian"]
    fleet = _ZeroCoreRepair(
        [get_profile(s) for s in services], TwigConfig.fast(),
        np.random.default_rng(3), num_envs=1,
    )
    env = make_environment(services, [0.4, 0.4], 3)
    assignments = fleet.initial_assignments()
    with pytest.raises(ConfigurationError, match="num_cores must be >= 1"):
        fleet.update_batch([env.step(assignments[0])])


def test_kept_batch_reads_its_own_tick():
    """A batch is not a view of the manager's allocation state or of a
    later batch."""
    services = ["masstree", "xapian", "moses"]
    fleet = FleetTwig(
        [get_profile(s) for s in services], TwigConfig.fast(),
        np.random.default_rng(4), num_envs=3,
    )
    envs = [make_environment(services, [0.4, 0.3, 0.3], seed) for seed in (1, 2, 3)]
    batch = fleet.initial_assignments()
    kept, kept_dicts, kept_arrays = None, None, None
    for t in range(12):
        batch = fleet.update_batch([env.step(batch[e]) for e, env in enumerate(envs)])
        if t == 4:
            kept, kept_dicts = batch, [batch[e] for e in range(3)]
            kept_arrays = [a.copy() for a in (batch.pins, batch.freq, batch.ways)]
    assert any(kept_dicts[e] != batch[e] for e in range(3))  # later ticks moved
    assert [kept[e] for e in range(3)] == kept_dicts
    for array, copy in zip((kept.pins, kept.freq, kept.ways), kept_arrays):
        assert np.array_equal(array, copy)
        assert not array.flags.writeable
        for state in (batch.pins, fleet._alloc_cores, fleet._alloc_freq,
                      fleet._alloc_ways):
            assert not np.shares_memory(array, state)


def test_batch_checks_its_shapes():
    with pytest.raises(ShapeError, match="assignment batch"):
        AssignmentBatch(["a", "b"], range(18), np.zeros((2, 2, 17), bool),
                        np.zeros((2, 2)), np.zeros((2, 2)))
