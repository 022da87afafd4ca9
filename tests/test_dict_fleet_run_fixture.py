"""A checked-in per-env-dict fleet checkpoint resumes on ``FleetTwig``.

``tests/data/legacy_dict_fleet_run.ckpt.npz`` is the rolling checkpoint
``run_fleet`` wrote at tick 12 of a 24-tick run driving the dict-state
reference fleet, so its manager subtree has the legacy per-env
``monitors``/``envs`` layout rather than ``monitor_bank``/``fleet``:

    venv = ClusterEnvironment.from_services(
        ["masstree", "xapian"], num_nodes=4, seed=29, traffic="diurnal",
        balancer="least_loaded")
    config = TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16).scaled(
        shared_hidden=(8,), branch_hidden=4, buffer_capacity=16, batch_size=2,
        min_buffer_size=4, target_update_every=5, eta=2)
    manager = DictFleetTwig(profiles, config, np.random.default_rng(30), num_envs=4)
    manager.index_tag = "node"
    run_fleet(manager, venv, 24, checkpoint_every=12, checkpoint_dir=...)

``FINAL_SHA256`` is that run's run-trace hash after all 24 ticks; an
uninterrupted ``FleetTwig`` run and a ``FleetTwig`` resumed from the
file reached the same hash when the file was written. The file pins
``FleetTwig``'s conversion of the legacy layout
(``_array_tree_from_legacy``) without the reference class.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.ckpt.checkpoint import load_state
from repro.cluster.environment import ClusterEnvironment
from repro.core.config import TwigConfig
from repro.core.fleet import FleetTwig
from repro.engine.rollout import VECTOR_RUN_CKPT_KIND, run_fleet
from repro.services.profiles import get_profile
from tests.test_golden_run_traces import trace_sha256

FIXTURE = Path(__file__).parent / "data" / "legacy_dict_fleet_run.ckpt.npz"
SERVICES = ["masstree", "xapian"]
STEPS, CHECKPOINT_AT, NODES = 24, 12, 4
FINAL_SHA256 = "1f7df87ba6bd33f6ba3e264001611a27498f8b367fec1c5ff029d5950e37cf37"


def _fleet():
    venv = ClusterEnvironment.from_services(
        SERVICES, num_nodes=NODES, seed=29, traffic="diurnal", balancer="least_loaded"
    )
    config = TwigConfig.fast(epsilon_mid_steps=8, epsilon_final_steps=16).scaled(
        shared_hidden=(8,), branch_hidden=4, buffer_capacity=16, batch_size=2,
        min_buffer_size=4, target_update_every=5, eta=2,
    )
    manager = FleetTwig(
        [get_profile(s) for s in SERVICES], config, np.random.default_rng(30),
        num_envs=NODES,
    )
    manager.index_tag = "node"
    return manager, venv


def test_fixture_has_the_per_env_dict_layout():
    tree = load_state(FIXTURE, kind=VECTOR_RUN_CKPT_KIND)
    assert int(tree["loop"]["next_t"]) == CHECKPOINT_AT
    manager = tree["manager"]
    assert {"monitors", "envs"} <= set(manager)
    assert not {"monitor_bank", "fleet"} & set(manager)


def test_fixture_resumes_to_the_recorded_run():
    manager, venv = _fleet()
    traces = run_fleet(manager, venv, STEPS, resume_from=FIXTURE)
    assert trace_sha256(traces) == FINAL_SHA256


def test_an_uninterrupted_run_reaches_the_recorded_hash():
    manager, venv = _fleet()
    assert trace_sha256(run_fleet(manager, venv, STEPS)) == FINAL_SHA256
