"""A checked-in ``vector_run`` checkpoint resumes and is rewritten unchanged.

``tests/data/vector_run_fleet.ckpt.npz`` is the rolling checkpoint a
learning ``FleetTwig`` fleet wrote every 12 ticks of a 30-tick
``run_fleet`` (the file holds the last one, at tick 24), before
controller-to-engine assignments became arrays:

    venv = ClusterEnvironment.from_services(
        ["masstree", "xapian"], num_nodes=8, seed=23, traffic="diurnal",
        balancer="least_loaded")
    config = TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16).scaled(
        shared_hidden=(8,), branch_hidden=4, buffer_capacity=16, batch_size=2,
        min_buffer_size=4, target_update_every=5, eta=2)
    manager = FleetTwig(profiles, config, np.random.default_rng(24), num_envs=8)
    manager.index_tag = "node"
    run_fleet(manager, venv, 30, checkpoint_every=12, checkpoint_dir=...)

``FINAL_SHA256`` is that run's run-trace hash after all 30 ticks. The
network is small and there are two services, so the file stays small
(its size is mostly per-member npz overhead) while ``loop.assignments``
still holds a two-service placement per node.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ckpt.checkpoint import META_KEY
from repro.cluster.environment import ClusterEnvironment
from repro.core.config import TwigConfig
from repro.core.fleet import FleetTwig
from repro.engine.rollout import run_fleet
from repro.experiments.runner import RUN_CKPT_NAME
from repro.services.profiles import get_profile
from tests.test_golden_run_traces import trace_sha256

FIXTURE = Path(__file__).parent / "data" / "vector_run_fleet.ckpt.npz"
SERVICES = ["masstree", "xapian"]
STEPS, CHECKPOINT_AT = 30, 12
FINAL_SHA256 = "44076ecbf5e8caf5c702e51773b4111241200f50dd09928b98b5f1d6dcb17754"


def _fleet():
    venv = ClusterEnvironment.from_services(
        SERVICES, num_nodes=8, seed=23, traffic="diurnal", balancer="least_loaded"
    )
    config = TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16).scaled(
        shared_hidden=(8,), branch_hidden=4, buffer_capacity=16, batch_size=2,
        min_buffer_size=4, target_update_every=5, eta=2,
    )
    manager = FleetTwig(
        [get_profile(s) for s in SERVICES], config, np.random.default_rng(24), num_envs=8
    )
    manager.index_tag = "node"
    return manager, venv


def test_fixture_resumes_to_the_recorded_run():
    manager, venv = _fleet()
    traces = run_fleet(manager, venv, STEPS, resume_from=FIXTURE)
    assert trace_sha256(traces) == FINAL_SHA256


#: Where the fixture's agent kept its unused scalar replay ring. Agents
#: replay from ``striped`` alone since checkpoint format version 2.
SCALAR_RING = "manager/agent/buffer/"


def test_checkpoint_at_the_same_tick_equals_the_fixture(tmp_path):
    """Leaf for leaf, except that the fixture's ``manager/agent/buffer``
    subtree is gone and the envelope's format version is 2."""
    manager, venv = _fleet()
    traces = run_fleet(
        manager, venv, STEPS, checkpoint_every=CHECKPOINT_AT, checkpoint_dir=tmp_path
    )
    assert trace_sha256(traces) == FINAL_SHA256
    with np.load(FIXTURE) as stored, np.load(tmp_path / RUN_CKPT_NAME) as written:
        kept = [m for m in stored.files if not m.startswith(SCALAR_RING)]
        assert len(kept) == len(stored.files) - 1
        assert written.files == kept
        for member in kept:
            a, b = written[member], stored[member]
            if member == META_KEY:
                # The JSON envelope: every scalar leaf, in tree order.
                mine, theirs = (json.loads(bytes(x).decode()) for x in (a, b))
                assert theirs.pop("version") == 1 and mine.pop("version") == 2
                scalars = theirs.pop("scalars")
                assert len([k for k in scalars if k.startswith(SCALAR_RING)]) == 6
                assert list(mine.pop("scalars").items()) == [
                    (k, v) for k, v in scalars.items() if not k.startswith(SCALAR_RING)
                ]
                assert mine == theirs
            else:
                assert (a.dtype, a.shape) == (b.dtype, b.shape), member
                assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), member
