"""Tests for the Intel-CAT (LLC way partitioning) extension.

The paper lists cache allocation as the natural third action dimension
(its testbed could not enable CAT); our substrate models way partitioning,
the mapper arbitrates conflicting quota requests, and Twig can optionally
learn the extra branch (``TwigConfig(manage_llc=True)``).
"""

import numpy as np
import pytest

from repro.core import Twig, TwigConfig
from repro.core.actions import ActionSpace, Allocation
from repro.core.mapper import Mapper
from repro.errors import ConfigurationError
from repro.server.machine import CoreAssignment
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from tests.oracles.colocation_reference import ScalarInterference, ServiceDemand


def test_socket_way_granularity(spec):
    assert spec.socket.llc_ways == 20
    assert spec.socket.mb_per_way == pytest.approx(2.25)


def test_action_space_grows_with_llc_branch(spec):
    base = ActionSpace(spec)
    extended = ActionSpace(spec, manage_llc=True)
    assert base.branch_sizes == [18, 9]
    assert extended.branch_sizes == [18, 9, 21]
    allocation = extended.decode([5, 3, 8])
    assert allocation == Allocation(num_cores=6, freq_index=3, llc_ways=8)
    assert extended.encode(allocation) == [5, 3, 8]


def test_action_space_llc_validation(spec):
    extended = ActionSpace(spec, manage_llc=True)
    with pytest.raises(ConfigurationError):
        extended.decode([0, 0])  # missing the third branch
    with pytest.raises(ConfigurationError):
        extended.decode([0, 0, 21])
    with pytest.raises(ConfigurationError):
        Allocation(1, 0, llc_ways=-1)


def test_mapper_carries_and_arbitrates_ways(spec):
    mapper = Mapper(spec, socket_index=1)
    result = mapper.map(
        {
            "a": Allocation(4, 0, llc_ways=15),
            "b": Allocation(4, 0, llc_ways=15),
        }
    )
    total = result["a"].llc_ways + result["b"].llc_ways
    assert total <= spec.socket.llc_ways
    assert result["a"].llc_ways > 0


def test_mapper_passes_ways_through_when_they_fit(spec):
    mapper = Mapper(spec, socket_index=1)
    result = mapper.map({"a": Allocation(4, 0, llc_ways=6), "b": Allocation(4, 0)})
    assert result["a"].llc_ways == 6
    assert result["b"].llc_ways == 0


def test_partition_isolates_sensitive_service(moses, xapian):
    """Giving Xapian an exclusive partition shields it from Moses's
    cache footprint while Moses's own misses rise."""
    model = ScalarInterference(membw_capacity_gbps=1000.0, llc_capacity_mb=45.0)
    shared = model.resolve(
        {
            "moses": ServiceDemand(moses, 2500.0),
            "xapian": ServiceDemand(xapian, 900.0),
        }
    )
    partitioned = model.resolve(
        {
            "moses": ServiceDemand(moses, 2500.0),
            "xapian": ServiceDemand(xapian, 900.0, llc_quota_mb=18.0),
        }
    )
    assert partitioned["xapian"].miss_inflation < shared["xapian"].miss_inflation
    assert partitioned["moses"].miss_inflation >= shared["moses"].miss_inflation


def test_small_quota_hurts_its_owner(moses):
    model = ScalarInterference(membw_capacity_gbps=1000.0, llc_capacity_mb=45.0)
    tiny = model.resolve({"moses": ServiceDemand(moses, 2500.0, llc_quota_mb=4.0)})
    assert tiny["moses"].miss_inflation > 1.5  # working set 30 MB in 4 MB


def test_environment_applies_quota_from_assignment(rng):
    spec = ServerSpec()
    profiles = [get_profile("moses"), get_profile("xapian")]
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        profiles,
        {
            "moses": ConstantLoad(2800, 0.8, rng=np.random.default_rng(1)),
            "xapian": ConstantLoad(1000, 0.5, rng=np.random.default_rng(2)),
        },
        rng,
    )
    ids = env.socket_core_ids
    base = {
        "moses": CoreAssignment(cores=tuple(ids[:10]), freq_index=8),
        "xapian": CoreAssignment(cores=tuple(ids[10:]), freq_index=8),
    }
    shielded = {
        "moses": CoreAssignment(cores=tuple(ids[:10]), freq_index=8),
        "xapian": CoreAssignment(cores=tuple(ids[10:]), freq_index=8, llc_ways=9),
    }
    p99_shared = np.median(
        [env.step(base).observations["xapian"].p99_ms for _ in range(15)]
    )
    env2 = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        profiles,
        {
            "moses": ConstantLoad(2800, 0.8, rng=np.random.default_rng(1)),
            "xapian": ConstantLoad(1000, 0.5, rng=np.random.default_rng(2)),
        },
        np.random.default_rng(1234),
    )
    p99_shielded = np.median(
        [env2.step(shielded).observations["xapian"].p99_ms for _ in range(15)]
    )
    assert p99_shielded <= p99_shared * 1.05


def test_twig_with_llc_branch_runs(rng):
    spec = ServerSpec()
    profiles = [get_profile("moses"), get_profile("xapian")]
    config = TwigConfig.fast().scaled(manage_llc=True)
    twig = Twig(profiles, config, np.random.default_rng(42), spec=spec)
    assert twig.agent.online.branch_sizes == [[18, 9, 21], [18, 9, 21]]
    env = ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        profiles,
        {
            "moses": ConstantLoad(2800, 0.4, rng=np.random.default_rng(1)),
            "xapian": ConstantLoad(1000, 0.4, rng=np.random.default_rng(2)),
        },
        rng,
    )
    assignments = twig.initial_assignments()
    for _ in range(10):
        result = env.step(assignments)
        assignments = twig.update(result)
    for assignment in assignments.values():
        assert 0 <= assignment.llc_ways <= spec.socket.llc_ways
