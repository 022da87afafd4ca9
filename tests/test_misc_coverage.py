"""Targeted tests for smaller paths not covered elsewhere."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.nn.initializers import glorot_uniform, he_uniform
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.server.machine import CoreAssignment
from repro.cluster.environment import make_cluster_node


# --------------------------------------------------------------------- #
# errors hierarchy
# --------------------------------------------------------------------- #
def test_all_errors_derive_from_repro_error():
    from repro import errors

    for name in ("ConfigurationError", "AllocationError", "ShapeError",
                 "NotFittedError", "SimulationError"):
        assert issubclass(getattr(errors, name), ReproError)


# --------------------------------------------------------------------- #
# initializers
# --------------------------------------------------------------------- #
def test_initializer_shapes_and_bounds(rng):
    for init in (glorot_uniform, he_uniform):
        weights = init(64, 32, rng)
        assert weights.shape == (64, 32)
        assert np.abs(weights).max() <= np.sqrt(6.0 / 32)  # loosest bound


def test_initializer_validation(rng):
    with pytest.raises(ConfigurationError):
        he_uniform(0, 4, rng)


def test_he_wider_than_glorot(rng):
    """He allows larger weights than Glorot for the same fan-in/out."""
    he_limit = np.sqrt(6.0 / 100)
    glorot_limit = np.sqrt(6.0 / 200)
    he_weights = he_uniform(100, 100, np.random.default_rng(0))
    assert np.abs(he_weights).max() > glorot_limit
    assert np.abs(he_weights).max() <= he_limit + 1e-12


# --------------------------------------------------------------------- #
# demand-aware timesharing
# --------------------------------------------------------------------- #
def _shared_capacities(rates):
    """Core-equivalents of masstree and moses, both on every socket core at
    DVFS 8, over one interval at exactly ``rates`` (no backlog yet)."""
    env = make_cluster_node(list(rates), 1)
    for name, rate in rates.items():
        env.load_generators[name].set_rate(rate)
    cores = tuple(env.socket_core_ids)
    shared = {name: CoreAssignment(cores=cores, freq_index=8) for name in rates}
    observations = env.step(shared).observations
    return {name: observations[name].interval.cores for name in rates}


def test_shared_cores_split_by_demand():
    """A light service sharing cores with a heavy one gets more than its
    guaranteed half when the heavy one leaves headroom — and never less
    than the fair share."""
    capacities = _shared_capacities({"masstree": 240.0, "moses": 840.0})
    assert capacities["masstree"] >= 9.0 - 1e-9   # never below the fair share
    assert capacities["moses"] >= 9.0 - 1e-9
    # With both lightly loaded, each can expand into the other's idle time.
    assert capacities["masstree"] + capacities["moses"] > 18.0


def test_overloaded_sharers_get_fair_split():
    capacities = _shared_capacities({"masstree": 2400.0, "moses": 2800.0})
    assert capacities["masstree"] == pytest.approx(9.0, abs=0.5)
    assert capacities["moses"] == pytest.approx(9.0, abs=0.5)


# --------------------------------------------------------------------- #
# agent details
# --------------------------------------------------------------------- #
def test_gradient_steps_multiplies_training(rng):
    def train_count(gradient_steps):
        config = BDQAgentConfig(
            state_dim=3, branch_sizes=[[3, 2]], min_buffer_size=8,
            buffer_capacity=100, batch_size=8, shared_hidden=(8,),
            branch_hidden=4, dropout=0.0, epsilon_mid_steps=10,
            epsilon_final_steps=20, gradient_steps=gradient_steps,
        )
        agent = BDQAgent(config, np.random.default_rng(0))
        state = np.zeros(3)
        for _ in range(20):
            agent.observe(Transition(state, [[0, 0]], np.array([0.0]), state))
        return agent.train_count

    assert train_count(2) == 2 * train_count(1)


def test_local_exploration_stays_in_range(rng):
    config = BDQAgentConfig(
        state_dim=3, branch_sizes=[[18, 9]], min_buffer_size=8,
        buffer_capacity=100, batch_size=8, shared_hidden=(8,), branch_hidden=4,
        dropout=0.0, epsilon_mid_steps=10, epsilon_final_steps=20,
    )
    agent = BDQAgent(config, rng)
    agent.step_count = 0  # epsilon = 1: every branch explores
    for _ in range(200):
        cores, dvfs = agent.act(np.zeros(3))[0]
        assert 0 <= cores < 18
        assert 0 <= dvfs < 9
