"""A checkpoint the runtime could not continue from is refused at load.

Each case raises ``CheckpointError`` before anything mutates, so the
serving policy (a node agent's ``update_policy`` loads files from outside
the program through this path) is left exactly as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.checkpoint import load_state
from repro.core.config import TwigConfig
from repro.engine.fleet import FleetTwig
from repro.engine.fleet_reference import DictFleetTwig
from repro.errors import CheckpointError
from repro.experiments.common import make_environment
from repro.services.profiles import get_profile
from tests.test_engine_sharded import _assert_tree_equal
from tests.test_legacy_checkpoints import DATA
from tests.test_legacy_checkpoints import _twig as _legacy_twig

PENDING_SERVICES = ["masstree", "moses"]


def _pending_fleet(cls, env, steps):
    """A one-environment fleet driven ``steps`` intervals on ``env``,
    training from the second stored transition on."""
    config = TwigConfig.fast().scaled(batch_size=2, min_buffer_size=2, buffer_capacity=64)
    profiles = [get_profile(s) for s in PENDING_SERVICES]
    fleet = cls(profiles, config, np.random.default_rng(5), num_envs=1)
    assignments = fleet.initial_assignments()
    for _ in range(steps):
        assignments = fleet.update_batch([env.step(assignments[0])])
    return fleet, assignments


@pytest.mark.parametrize("layout", ["array", "per-env"])
def test_out_of_range_pending_actions_are_refused(layout):
    """A pending action outside its branch used to load and then crash a
    train step within three intervals (IndexError gathering its Q-value)."""
    env = make_environment(PENDING_SERVICES, [0.4, 0.4], 3)
    fleet, assignments = _pending_fleet(FleetTwig, env, 5)
    if layout == "array":
        tree = fleet.state_dict()
        tree["fleet"]["prev_actions"][...] = 99
    else:
        # The per-env-dict layout the dict-state fleet writes.
        tree = _pending_fleet(DictFleetTwig, env, 5)[0].state_dict()
        tree["envs"]["0000"]["prev_actions"] = [[99, 99], [99, 99]]
    before = fleet.state_dict()
    with pytest.raises(CheckpointError, match="prev_actions out of range"):
        fleet.load_state_dict(tree)
    _assert_tree_equal(fleet.state_dict(), before)
    for _ in range(4):
        assignments = fleet.update_batch([env.step(assignments[0])])


def test_malformed_monitor_bank_is_refused_before_the_agent_loads():
    """The bank used to load after the agent had committed, so a bad bank
    tree left a fleet with the checkpoint's agent and its own monitors."""
    env = make_environment(PENDING_SERVICES, [0.4, 0.4], 3)
    fleet, _ = _pending_fleet(FleetTwig, env, 5)
    tree = _pending_fleet(FleetTwig, make_environment(PENDING_SERVICES, [0.4, 0.4], 4), 7)[0]
    tree = tree.state_dict()
    tree["monitor_bank"]["history"] = tree["monitor_bank"]["history"][:, :2]
    before = fleet.state_dict()
    with pytest.raises(CheckpointError, match="monitor-bank history"):
        fleet.load_state_dict(tree)
    _assert_tree_equal(fleet.state_dict(), before)


def test_out_of_range_pending_actions_in_a_twig_tree_are_refused():
    """The per-service-dict layout the scalar Twig wrote, same check."""
    tree = load_state(DATA / "legacy_twig.ckpt.npz")
    tree["prev_actions"] = [[99, 99], [99, 99]]
    twig = _legacy_twig()
    before = twig.state_dict()
    with pytest.raises(CheckpointError, match="prev_actions out of range"):
        twig.load_state_dict(tree)
    _assert_tree_equal(twig.state_dict(), before)
