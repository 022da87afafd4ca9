"""A checkpoint the runtime could not continue from is refused at load.

Each case raises ``CheckpointError`` before anything mutates, so the
serving policy (a node agent's ``update_policy`` loads files from outside
the program through this path) is left exactly as it was. A run
checkpoint refused at resume leaves the manager and the environment it
was handed as they were, whichever run loop entry point loaded it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.checkpoint import load_state, rng_state, save_state
from repro.cluster.environment import ClusterEnvironment
from repro.core import Twig
from repro.core.config import TwigConfig
from repro.engine.fleet import FleetBDQAgent, FleetTwig
from tests.oracles.fleet_reference import DictFleetTwig
from repro.engine.rollout import VECTOR_RUN_CKPT_KIND, run_fleet
from repro.engine.vector_env import VectorEnvironment
from repro.errors import CheckpointError
from repro.experiments.common import make_environment
from repro.experiments.runner import RUN_CKPT_KIND, RUN_CKPT_NAME, run_manager
from repro.hier import BudgetConfig, HierFleetTwig
from repro.hier.baselines import make_rule_fleet
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.baselines import StaticManager
from repro.services.profiles import get_profile
from repro.sim.faults import Fault, FaultInjector
from tests.helpers import _assert_traces_equal, _assert_tree_equal
from tests.test_legacy_checkpoints import DATA, scalar_agent_config
from tests.test_legacy_checkpoints import _twig as _legacy_twig
from tests.test_vector_run_fixture import FIXTURE
from tests.test_vector_run_fixture import STEPS as FIXTURE_STEPS
from tests.test_vector_run_fixture import _fleet as _fixture_fleet

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


#: Replay ``actions`` a train step cannot gather, by what they do there:
#: an index at its branch size raises IndexError, a negative one counts
#: from the end, a fractional one is truncated by the int cast.
REPLAY_ACTION_CORRUPTIONS = {
    "past_branch": (0, 18.0),  # cores branch has 18 choices: 0..17
    "negative": (1, -1.0),
    "fractional": (0, 2.5),
}


def _corrupt_actions(fields, corruption):
    column, value = REPLAY_ACTION_CORRUPTIONS[corruption]
    actions = np.array(fields["actions"], dtype=np.float64)
    actions[-1, column] = value
    fields["actions"] = actions


@pytest.mark.parametrize("corruption", sorted(REPLAY_ACTION_CORRUPTIONS))
def test_bad_striped_replay_actions_are_refused(corruption):
    env = make_environment(PENDING_SERVICES, [0.4, 0.4], 3)
    fleet, assignments = _pending_fleet(FleetTwig, env, 6)
    tree = fleet.state_dict()
    _corrupt_actions(tree["agent"]["striped"]["fields"], corruption)
    before = fleet.state_dict()
    with pytest.raises(CheckpointError, match="striped replay actions"):
        fleet.load_state_dict(tree)
    _assert_tree_equal(fleet.state_dict(), before)
    for _ in range(4):
        assignments = fleet.update_batch([env.step(assignments[0])])


#: The ``bdq_agent`` fixture a plain agent wrote with its own scalar
#: replay ring (``buffer`` subtree, no ``striped`` one), and its config.
LEGACY_AGENT = DATA / "scalar_bdq_agent_prioritized.ckpt.npz"
LEGACY_AGENT_CONFIG = scalar_agent_config()


def _refused(agent, tree, match):
    before = agent.state_dict()
    with pytest.raises(CheckpointError, match=match):
        agent.load_state_dict(tree)
    _assert_tree_equal(agent.state_dict(), before)


@pytest.mark.parametrize("corruption", sorted(REPLAY_ACTION_CORRUPTIONS))
def test_bad_scalar_replay_actions_are_refused(corruption):
    """A plain agent's replay, as its own ``striped`` tree, as the
    ``buffer`` ring of a ``bdq_agent`` file written before the agent
    replayed from stripes, and inside a legacy Twig tree (where that
    ring becomes stripe 0)."""
    config = BDQAgentConfig(
        state_dim=4, branch_sizes=[[18, 9]], batch_size=4, min_buffer_size=4,
        buffer_capacity=8, shared_hidden=(8,), branch_hidden=4,
    )
    source = BDQAgent(config, np.random.default_rng(1))
    feeder = np.random.default_rng(2)
    for _ in range(6):
        source.observe(Transition(
            state=feeder.normal(size=4), actions=[[3, 2]], rewards=feeder.normal(size=1),
            next_state=feeder.normal(size=4),
        ))
    tree = source.state_dict()
    _corrupt_actions(tree["striped"]["fields"], corruption)
    _refused(BDQAgent(config, np.random.default_rng(3)), tree, "replay actions")

    legacy_agent = load_state(LEGACY_AGENT)
    _corrupt_actions(legacy_agent["buffer"]["fields"], corruption)
    _refused(
        BDQAgent(LEGACY_AGENT_CONFIG, np.random.default_rng(3)), legacy_agent, "replay actions"
    )

    legacy = load_state(DATA / "legacy_twig.ckpt.npz")
    _corrupt_actions(legacy["agent"]["buffer"]["fields"], corruption)
    twig = _legacy_twig()
    before = twig.state_dict()
    with pytest.raises(CheckpointError, match="replay actions"):
        twig.load_state_dict(legacy)
    _assert_tree_equal(twig.state_dict(), before)


def _widen(fields, key):
    """One column more than the agent stores (two ``done`` values a row)."""
    value = np.asarray(fields[key], dtype=np.float64)
    value = value[:, None] if value.ndim == 1 else value
    fields[key] = np.concatenate([value, value[:, :1]], axis=1)


@pytest.mark.parametrize("key", ["state", "next_state", "rewards", "done"])
@pytest.mark.parametrize("layout", ["striped", "buffer"])
def test_replay_fields_of_the_wrong_width_are_refused(layout, key):
    """Replay rows the network cannot read used to load: a state wider
    than ``state_dim`` made the next insert raise ``ShapeError``, and a
    reward column too many trained silently on column 0. Refused for a
    fleet agent's own ``striped`` tree and for a scalar ``buffer`` ring,
    whichever class loads it."""
    if layout == "striped":
        config = BDQAgentConfig(
            state_dim=4, branch_sizes=[[18, 9]], batch_size=2, min_buffer_size=2,
            buffer_capacity=8, shared_hidden=(8,), branch_hidden=4,
        )
        source = FleetBDQAgent(config, np.random.default_rng(1), num_envs=1)
        feeder = np.random.default_rng(2)
        for _ in range(5):
            source.observe_batch(
                np.array([0]), feeder.normal(size=(1, 4)), np.array([[3, 2]]),
                feeder.normal(size=(1, 1)), feeder.normal(size=(1, 4)),
            )
        tree = source.state_dict()
    else:
        config = LEGACY_AGENT_CONFIG
        tree = load_state(LEGACY_AGENT)
    _widen(tree[layout]["fields"], key)
    for agent in (
        BDQAgent(config, np.random.default_rng(3)),
        FleetBDQAgent(config, np.random.default_rng(3), num_envs=1),
    ):
        _refused(agent, tree, f"replay {key}")


def _sum_tree_fleet():
    """A 3-stripe agent (stripes of 4 slots in a 16-leaf tree) whose
    stripes 0 and 2 hold two transitions each and stripe 1 none."""
    config = BDQAgentConfig(
        state_dim=4, branch_sizes=[[18, 9]], batch_size=2, min_buffer_size=2,
        buffer_capacity=12, shared_hidden=(8,), branch_hidden=4,
    )
    agent = FleetBDQAgent(config, np.random.default_rng(1), num_envs=3)
    feeder = np.random.default_rng(2)
    for _ in range(2):
        agent.observe_batch(
            np.array([0, 2]), feeder.normal(size=(2, 4)), np.array([[3, 2], [5, 1]]),
            feeder.normal(size=(2, 1)), feeder.normal(size=(2, 4)),
        )
    return agent


def _leaf(slot, value):
    """Set one leaf of the striped sum tree, its ancestors' sums kept true."""
    def corrupt(tree):
        nodes = tree["agent"]["striped"]["tree"]["tree"]
        node = nodes.size // 2 + slot
        delta = value - nodes[node]
        while node >= 1:
            nodes[node] += delta
            node //= 2
    return corrupt


def _node(index, value):
    def corrupt(tree):
        tree["agent"]["striped"]["tree"]["tree"][index] = value
    return corrupt


#: Sum trees that used to load. Mass on an unoccupied slot is sampled as
#: an all-zero transition (slot 4 is stripe 1's first, empty slot; slot 2
#: is past stripe 0's two rows; leaf 13 is padding past the 12 slots); a
#: NaN or infinite node poisons every later descent; a negative leaf is
#: a negative sampling probability.
SUM_TREE_CORRUPTIONS = {
    "empty_stripe": _leaf(4, 1.0),
    "past_stripe_size": _leaf(2, 0.5),
    "padding": _leaf(13, 1.0),
    "nan_leaf": _leaf(9, np.nan),
    "inf_root": _node(1, np.inf),
    "negative_leaf": _leaf(8, -0.5),
}


@pytest.mark.parametrize("corruption", list(SUM_TREE_CORRUPTIONS))
def test_sum_tree_without_a_transition_behind_its_mass_is_refused(corruption):
    tree = {"agent": _sum_tree_fleet().state_dict()}
    SUM_TREE_CORRUPTIONS[corruption](tree)
    _refused(_sum_tree_fleet(), tree["agent"], "sum.tree")


CLUSTER_SERVICES = ["masstree", "xapian"]


def _stepped_cluster(ticks, nodes=4):
    """A round-robin cluster (its balancer keeps cursors) after ``ticks``
    static-fleet intervals, with the assignments it was stepped with."""
    venv = ClusterEnvironment.from_services(CLUSTER_SERVICES, num_nodes=nodes, seed=3)
    assignments = make_rule_fleet("static", CLUSTER_SERVICES, nodes, 3).initial_assignments()
    for _ in range(ticks):
        venv.step(assignments)
    return venv, assignments


def _drop(*path):
    def corrupt(tree):
        for key in path[:-1]:
            tree = tree[key]
        del tree[path[-1]]
    return corrupt


def _set(value, *path):
    def corrupt(tree):
        for key in path[:-1]:
            tree = tree[key]
        tree[path[-1]] = value
    return corrupt


def _three_nodes(tree):
    tree.update(_stepped_cluster(2, nodes=3)[0].state_dict())


#: Trees a cluster cannot continue from. The first four used to raise
#: only after some part of the fleet was restored: the last node after
#: nodes 0-2, the cluster subtrees after every node. The last four give
#: node state the engine does not hold: a pinned or clocked-up core off
#: the server socket (socket 1; core 0 is on socket 0), a service the
#: node does not run, and a drawn stream for a node's balancer-driven
#: load generator.
CLUSTER_CORRUPTIONS = {
    "last_node": _drop("envs", "0003", "rapl"),
    "traffic": _drop("cluster", "traffic", "rng"),
    "balancer": _set(np.zeros(3, dtype=np.int64), "cluster", "balancer", "cursors"),
    "loads": _set(np.zeros((3, 2)), "cluster", "loads", "backlog"),
    "no_cluster": _drop("cluster"),
    "node_count": _three_nodes,
    "off_socket_pin": _set(["masstree"], "envs", "0001", "machine", "services", 0),
    "off_socket_dvfs": _set(2, "envs", "0002", "machine", "freq_index", 0),
    "unknown_service": _set(3, "envs", "0000", "machine", "migration_counts", "moses"),
    "drawn_load_stream": _set(rng_state(np.random.default_rng(5)), "envs", "0003",
                              "loadgen_rng", "xapian"),
}


@pytest.mark.parametrize("corruption", list(CLUSTER_CORRUPTIONS))
def test_malformed_cluster_tree_leaves_the_fleet_as_it_was(corruption):
    tree = _stepped_cluster(2)[0].state_dict()
    CLUSTER_CORRUPTIONS[corruption](tree)
    venv, assignments = _stepped_cluster(5)
    before = venv.state_dict()
    with pytest.raises(CheckpointError):
        venv.load_state_dict(tree)
    _assert_tree_equal(venv.state_dict(), before)
    assert venv.time == 5
    # It steps on exactly like a fleet that never saw the tree.
    twin = _stepped_cluster(5)[0]
    for _ in range(2):
        venv.step(assignments)
        twin.step(assignments)
    _assert_tree_equal(venv.state_dict(), twin.state_dict())


def _hier_fleet(ticks):
    """A 3-node hierarchical fleet after ``ticks`` intervals; with a
    budget period of 2 its budgets and window are both live."""
    venv = VectorEnvironment.from_services(
        CLUSTER_SERVICES, {"masstree": 0.4, "xapian": 0.5}, 3, 11
    )
    fleet = HierFleetTwig(
        [get_profile(s) for s in CLUSTER_SERVICES],
        TwigConfig.fast(),
        np.random.default_rng(12),
        num_envs=3,
        budget=BudgetConfig(period=2),
        allocator_rng=np.random.default_rng(13),
    )
    run_fleet(fleet, venv, ticks)
    return fleet


#: ``hier`` subtrees that used to load and then poison the leaves or the
#: allocator: a NaN budget switches the repair and the penalty off, a
#: non-positive one shrinks the node to one core at the lowest DVFS, a
#: QoS ratio above 1 or a NaN window sum reaches the allocator's state,
#: reward and replay buffer.
HIER_CORRUPTIONS = {
    "nan_budget": _set(np.nan, "hier", "budgets", 1),
    "inf_budget": _set(np.inf, "hier", "budgets", 0),
    "negative_budget": _set(-5.0, "hier", "budgets", 2),
    "zero_budget": _set(0.0, "hier", "budgets", 0),
    "negative_tick": _set(-3, "hier", "tick"),
    "negative_window_ticks": _set(-2, "hier", "window", "ticks"),
    "negative_qos_met": _set(-1, "hier", "window", "qos_met"),
    "negative_qos_total": _set(-6, "hier", "window", "qos_total"),
    "qos_met_over_total": _set(99, "hier", "window", "qos_met"),
    "negative_node_viol": _set(-1.0, "hier", "window", "node_viol", 0),
    "nan_node_viol": _set(np.nan, "hier", "window", "node_viol", 1),
    "nan_window_power": _set(np.nan, "hier", "window", "power"),
    "inf_window_util": _set(np.inf, "hier", "window", "util"),
}


@pytest.mark.parametrize("corruption", list(HIER_CORRUPTIONS))
def test_malformed_hier_tree_is_refused(corruption):
    tree = _hier_fleet(3).state_dict()
    HIER_CORRUPTIONS[corruption](tree)
    fleet = _hier_fleet(5)
    before = fleet.state_dict()
    with pytest.raises(CheckpointError):
        fleet.load_state_dict(tree)
    _assert_tree_equal(fleet.state_dict(), before)


def _stepped_rule_fleet(name, ticks, seed=21):
    """A 3-node PARTIES (masstree, xapian) or Heracles (masstree) fleet
    after ``ticks`` ticks."""
    services = CLUSTER_SERVICES if name == "parties" else ["masstree"]
    venv = VectorEnvironment.from_services(services, {"masstree": 0.7, "xapian": 0.5},
                                           3, seed)
    fleet = make_rule_fleet(name, services, 3, seed)
    run_fleet(fleet, venv, ticks)
    return fleet


#: PARTIES and Heracles fleet trees a fleet cannot continue from: no
#: controller state (a tree written before rule fleets kept it), a wrong
#: shape, a value off its range, a fractional count, a bad generator.
RULE_FLEET_CORRUPTIONS = {
    "parties_no_controller": ("parties", _drop("controller")),
    "parties_short_cores": ("parties", _set(np.ones((2, 2), np.int64), "controller", "cores")),
    "parties_zero_cores": ("parties", _set(np.zeros((3, 2), np.int64), "controller", "cores")),
    "parties_dvfs_off_ladder": ("parties", _set(np.full((3, 2), 9), "controller", "freq")),
    "parties_bad_avoid": ("parties", _set(np.full((3, 2), 2), "controller", "avoid")),
    "parties_down_service": ("parties", _set(np.full(3, 2), "controller", "down_service")),
    "parties_negative_step": ("parties", _set(-1, "controller", "step_count")),
    "parties_missing_rng": ("parties", _drop("controller", "rngs", "0002")),
    "parties_bad_rng": ("parties", _set({"bit_generator": "MT0"}, "controller", "rngs",
                                        "0001")),
    "heracles_no_controller": ("heracles", _drop("controller")),
    "heracles_fractional_cores": ("heracles", _set(np.full(3, 2.5), "controller", "cores")),
    "heracles_negative_lockout": ("heracles", _set(np.full(3, -4), "controller",
                                                   "lockout_until")),
    "heracles_short_membw": ("heracles", _set(np.ones(2), "controller", "last_membw")),
    "heracles_missing_freq": ("heracles", _drop("controller", "freq_index")),
}


@pytest.mark.parametrize("corruption", list(RULE_FLEET_CORRUPTIONS))
def test_malformed_rule_fleet_tree_is_refused(corruption):
    name, corrupt = RULE_FLEET_CORRUPTIONS[corruption]
    tree = _stepped_rule_fleet(name, 7).state_dict()
    corrupt(tree)
    fleet = _stepped_rule_fleet(name, 4, seed=22)
    before = fleet.state_dict()
    with pytest.raises(CheckpointError):
        fleet.load_state_dict(tree)
    _assert_tree_equal(fleet.state_dict(), before)


def test_static_fleet_tree_has_no_controller_state():
    fleet = make_rule_fleet("static", CLUSTER_SERVICES, 3, 21)
    assert fleet.state_dict() == {"name": "static", "num_envs": 3}
    fleet.load_state_dict({"name": "static", "num_envs": 3})


def _twig_c_pair():
    """Twig-C (one learning Twig, two services) and its environment."""
    twig = Twig([get_profile(s) for s in CLUSTER_SERVICES], TwigConfig.fast(),
                np.random.default_rng(21))
    return twig, make_environment(CLUSTER_SERVICES, [0.4, 0.5], 21)


def _fleet_pair():
    """A 3-environment learning fleet and its vector environment."""
    venv = VectorEnvironment.from_services(
        CLUSTER_SERVICES, {"masstree": 0.4, "xapian": 0.5}, 3, 21
    )
    fleet = FleetTwig([get_profile(s) for s in CLUSTER_SERVICES], TwigConfig.fast(),
                      np.random.default_rng(22), num_envs=3)
    return fleet, venv


#: Each run loop entry point: its driver, a fresh (manager, environment)
#: pair, its checkpoint kind, and the path to one environment's services.
RESUME_ENTRY_POINTS = {
    "run_manager": (run_manager, _twig_c_pair, RUN_CKPT_KIND, ("env", "services")),
    "run_fleet": (run_fleet, _fleet_pair, VECTOR_RUN_CKPT_KIND,
                  ("envs", "envs", "0002", "services")),
}


@pytest.mark.parametrize("entry", list(RESUME_ENTRY_POINTS))
def test_refused_resume_leaves_manager_and_environment_as_they_were(entry, tmp_path):
    """The manager used to load before the environment refused its
    subtree, so the run raised with the manager already resumed."""
    run, make_pair, kind, services = RESUME_ENTRY_POINTS[entry]
    run(*make_pair(), 8, checkpoint_every=4, checkpoint_dir=tmp_path)
    tree = load_state(tmp_path / RUN_CKPT_NAME, kind=kind)
    _drop(*services, "xapian")(tree)
    refused = tmp_path / "refused.ckpt.npz"
    save_state(refused, kind, tree)

    manager, env = make_pair()
    run(manager, env, 3)
    before = manager.state_dict(), env.state_dict()
    with pytest.raises(CheckpointError, match="services"):
        run(manager, env, 8, resume_from=refused)
    _assert_tree_equal(manager.state_dict(), before[0])
    _assert_tree_equal(env.state_dict(), before[1])
    # It runs on exactly like a pair that never saw the checkpoint.
    twin_manager, twin_env = make_pair()
    run(twin_manager, twin_env, 3)
    _assert_traces_equal(run(manager, env, 5), run(twin_manager, twin_env, 5))
    _assert_tree_equal(manager.state_dict(), twin_manager.state_dict())
    _assert_tree_equal(env.state_dict(), twin_env.state_dict())


def _parties_pair():
    """A 3-node PARTIES fleet and its vector environment."""
    venv = VectorEnvironment.from_services(
        CLUSTER_SERVICES, {"masstree": 0.4, "xapian": 0.5}, 3, 21
    )
    return make_rule_fleet("parties", CLUSTER_SERVICES, 3, 21), venv


#: Pending assignments for node 1 that the engine cannot install: a core
#: off the server socket (socket 1; cores 0 and 1 are on socket 0), no
#: core, a service the node does not run, a DVFS index off the ladder.
PENDING_CORRUPTIONS = {
    "off_socket_core": _set([0, 1], "loop", "assignments", "0001", "masstree", "cores"),
    "zero_cores": _set([], "loop", "assignments", "0001", "masstree", "cores"),
    "unknown_service": _set({"cores": [20], "freq_index": 3, "llc_ways": 0},
                            "loop", "assignments", "0001", "moses"),
    "dvfs_off_ladder": _set(9, "loop", "assignments", "0001", "xapian", "freq_index"),
}


@pytest.mark.parametrize("corruption", list(PENDING_CORRUPTIONS))
def test_malformed_pending_assignments_are_refused_at_stage(corruption, tmp_path):
    """They used to load the manager and the engine, then fail the first
    resumed step with an ``AllocationError``: node time went 3 -> 4."""
    run_fleet(*_parties_pair(), 8, checkpoint_every=4, checkpoint_dir=tmp_path)
    tree = load_state(tmp_path / RUN_CKPT_NAME, kind=VECTOR_RUN_CKPT_KIND)
    PENDING_CORRUPTIONS[corruption](tree)
    refused = tmp_path / "refused.ckpt.npz"
    save_state(refused, VECTOR_RUN_CKPT_KIND, tree)

    manager, venv = _parties_pair()
    run_fleet(manager, venv, 3)
    before = manager.state_dict(), venv.state_dict()
    with pytest.raises(CheckpointError, match="malformed vector_run checkpoint"):
        run_fleet(manager, venv, 8, resume_from=refused)
    assert venv.time == 3
    _assert_tree_equal(manager.state_dict(), before[0])
    _assert_tree_equal(venv.state_dict(), before[1])


#: The same four for a scalar ``run`` checkpoint's one pending dict.
SCALAR_PENDING_CORRUPTIONS = {
    "off_socket_core": _set([0, 1], "loop", "assignments", "masstree", "cores"),
    "zero_cores": _set([], "loop", "assignments", "masstree", "cores"),
    "unknown_service": _set({"cores": [20], "freq_index": 3, "llc_ways": 0},
                            "loop", "assignments", "moses"),
    "dvfs_off_ladder": _set(9, "loop", "assignments", "xapian", "freq_index"),
}


@pytest.mark.parametrize("corruption", list(SCALAR_PENDING_CORRUPTIONS))
def test_malformed_scalar_pending_assignment_is_refused_at_stage(corruption, tmp_path):
    """It used to load the manager and the environment, then fail the
    first resumed step with an ``AllocationError``: time went 3 -> 4."""
    run_manager(*_twig_c_pair(), 8, checkpoint_every=4, checkpoint_dir=tmp_path)
    tree = load_state(tmp_path / RUN_CKPT_NAME, kind=RUN_CKPT_KIND)
    SCALAR_PENDING_CORRUPTIONS[corruption](tree)
    refused = tmp_path / "refused.ckpt.npz"
    save_state(refused, RUN_CKPT_KIND, tree)

    manager, env = _twig_c_pair()
    run_manager(manager, env, 3)
    before = manager.state_dict(), env.state_dict()
    with pytest.raises(CheckpointError, match="malformed run checkpoint"):
        run_manager(manager, env, 8, resume_from=refused)
    assert env.time == 3
    _assert_tree_equal(manager.state_dict(), before[0])
    _assert_tree_equal(env.state_dict(), before[1])


@pytest.mark.parametrize("layout", ["stacked", "per_node"])
@pytest.mark.parametrize("corruption", ["short_env_series", "short_service_series",
                                        "service_order"])
def test_vector_run_traces_that_do_not_fit_the_run_are_refused(layout, corruption, tmp_path):
    """The traces must record the engine's services, in its order, with
    one value per series for every tick before the resume tick: in the
    stacked layout (format version 3) and in the per-node layout of
    versions 1 and 2 (the checked-in ``vector_run`` fixture)."""
    if layout == "stacked":
        make_pair, steps = _fleet_pair, 8
        run_fleet(*make_pair(), steps, checkpoint_every=4, checkpoint_dir=tmp_path)
        tree = load_state(tmp_path / RUN_CKPT_NAME, kind=VECTOR_RUN_CKPT_KIND)
        traces, match = tree["traces"], "vector-run traces"
        if corruption == "short_env_series":
            traces["power_w"] = traces["power_w"][:, :-1]
        elif corruption == "short_service_series":
            traces["p99_ms"] = traces["p99_ms"][:, :, :-1]
        else:
            traces["header"]["service_order"] = list(traces["header"]["service_order"])[::-1]
    else:
        make_pair, steps = _fixture_fleet, FIXTURE_STEPS
        tree = load_state(FIXTURE, kind=VECTOR_RUN_CKPT_KIND)
        trace, match = tree["traces"]["0001"], "vector-run trace 0001"
        if corruption == "short_env_series":
            trace["power_w"] = trace["power_w"][:-1]
        elif corruption == "short_service_series":
            trace["services"]["xapian"]["p99_ms"] = trace["services"]["xapian"]["p99_ms"][:-1]
        else:
            trace["service_order"] = list(trace["service_order"])[::-1]
    refused = tmp_path / "refused.ckpt.npz"
    save_state(refused, VECTOR_RUN_CKPT_KIND, tree)
    with pytest.raises(CheckpointError, match=match):
        run_fleet(*make_pair(), steps, resume_from=refused)


@pytest.mark.parametrize("path", [("rng",), ("loadgen_rng", "xapian"), ("faults", "rng")],
                         ids=["rng", "loadgen_rng", "faults"])
def test_environment_refuses_a_bad_rng_state_before_writing(path):
    """A bad RNG state used to raise after the machine, the RAPL energy and
    the backlogs were written, so a refused load left the environment
    half restored."""
    services = ["masstree", "xapian"]
    env = make_environment(services, [0.4, 0.4], 7)
    env.faults = FaultInjector([Fault("pmc_nan", "masstree", start=50, duration=2)])
    run_manager(StaticManager(services), env, 3)
    tree = env.state_dict()
    run_manager(StaticManager(services), env, 2)
    before = env.state_dict()
    node = tree
    for key in path:
        node = node[key]
    node["state"] = "nonsense"
    with pytest.raises(CheckpointError, match="invalid RNG state"):
        env.load_state_dict(tree)
    _assert_tree_equal(env.state_dict(), before)

