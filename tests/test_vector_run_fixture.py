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
from repro.experiments.runner import RUN_CKPT_NAME, RUN_SERIES, SERVICE_SERIES
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

#: The fixture's per-node traces (``traces/<node>/...``). Since format
#: version 3 they are one ``traces/header`` and seven stacked arrays.
TRACES = "traces/"


def test_checkpoint_at_the_same_tick_equals_the_fixture(tmp_path):
    """Leaf for leaf, except that the fixture's ``manager/agent/buffer``
    subtree is gone, the envelope's format version is 3, and the traces
    are stacked: each of the seven ``traces/<series>`` arrays equals the
    fixture's per-node series stacked in node order (and service order),
    and ``traces/header`` holds the service order, QoS targets and
    interval every node's trace records."""
    manager, venv = _fleet()
    traces = run_fleet(
        manager, venv, STEPS, checkpoint_every=CHECKPOINT_AT, checkpoint_dir=tmp_path
    )
    assert trace_sha256(traces) == FINAL_SHA256
    nodes = [f"{e:04d}" for e in range(8)]
    with np.load(FIXTURE) as stored, np.load(tmp_path / RUN_CKPT_NAME) as written:
        kept = [m for m in stored.files if not m.startswith((SCALAR_RING, TRACES))]
        assert len(kept) == len(stored.files) - 1 - 11 * len(nodes)
        assert [m for m in written.files if not m.startswith(TRACES)] == kept
        assert [m for m in written.files if m.startswith(TRACES)] == [
            TRACES + key for key in SERVICE_SERIES + RUN_SERIES
        ]
        for member in kept:
            a, b = written[member], stored[member]
            if member == META_KEY:
                # The JSON envelope: every scalar leaf, in tree order.
                mine, theirs = (json.loads(bytes(x).decode()) for x in (a, b))
                assert theirs.pop("version") == 1 and mine.pop("version") == 3
                scalars = theirs.pop("scalars")
                assert len([k for k in scalars if k.startswith(SCALAR_RING)]) == 6
                mine_scalars = mine.pop("scalars")
                header = {k: v for k, v in mine_scalars.items() if k.startswith(TRACES)}
                assert [
                    (k, v) for k, v in mine_scalars.items() if not k.startswith(TRACES)
                ] == [
                    (k, v) for k, v in scalars.items()
                    if not k.startswith((SCALAR_RING, TRACES))
                ]
                assert header == {
                    "traces/header/service_order": SERVICES,
                    "traces/header/qos_target_ms": [
                        scalars[f"traces/0000/services/{name}/qos_target_ms"]
                        for name in SERVICES
                    ],
                    "traces/header/interval_s": scalars["traces/0000/interval_s"],
                }
                for node in nodes:
                    assert scalars[f"traces/{node}/service_order"] == SERVICES
                    assert scalars[f"traces/{node}/interval_s"] == header[
                        "traces/header/interval_s"]
                    assert [
                        scalars[f"traces/{node}/services/{name}/qos_target_ms"]
                        for name in SERVICES
                    ] == header["traces/header/qos_target_ms"]
                assert mine == theirs
            else:
                assert (a.dtype, a.shape) == (b.dtype, b.shape), member
                assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), member
        for key in SERVICE_SERIES + RUN_SERIES:
            per_node = [
                [stored[f"{TRACES}{node}/services/{name}/{key}"] for name in SERVICES]
                if key in SERVICE_SERIES else stored[f"{TRACES}{node}/{key}"]
                for node in nodes
            ]
            stacked = written[TRACES + key]
            assert stacked.dtype == np.float64, key
            assert stacked.shape == np.shape(per_node), key
            assert stacked.tobytes() == np.array(per_node, dtype=np.float64).tobytes(), key

