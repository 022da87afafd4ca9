"""Unit tests for the (multi-agent) BDQ network, including gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.network import numerical_gradient
from repro.rl.bdq import BDQNetwork
from tests.helpers import parameter


def _branches(net, stack):
    """A padded ``(batch, B, out_max)`` stack as ``q[k][d]`` of shape
    ``(batch, branch_sizes[k][d])``."""
    q, b = [], 0
    for agent in net.branch_sizes:
        q.append([stack[:, b + d, :n] for d, n in enumerate(agent)])
        b += len(agent)
    return q


def _full_q(net, x):
    """Eval Q-values of every action column as a padded ``(batch, B,
    out_max)`` stack: one ``forward_stacked`` per column, so a narrow
    branch's padded columns hold meaningless values."""
    columns = [
        net.forward_stacked(x, np.full((len(x), net.total_branches), a))
        for a in range(net.out_max)
    ]
    return np.stack(columns, axis=2)


def _q(net, x):
    return _branches(net, _full_q(net, x))


def _net(rng, agents=2, dropout=0.0):
    return BDQNetwork(
        state_dim=6,
        branch_sizes=[[5, 3]] * agents,
        rng=rng,
        shared_hidden=(16, 8),
        branch_hidden=4,
        dropout=dropout,
    )


def test_forward_structure(rng):
    net = _net(rng)
    x = rng.normal(size=(7, 6))
    # One Q-value per branch at the given actions: two agents x (cores, dvfs).
    assert net.forward_stacked(x, np.zeros((7, 4), dtype=np.int64)).shape == (7, 4)
    stack = _full_q(net, x)
    assert stack.shape == (7, 4, 5)  # widest branch 5
    q = _branches(net, stack)
    assert len(q) == 2
    assert q[0][0].shape == (7, 5)
    assert q[0][1].shape == (7, 3)


def test_dueling_identity_mean_advantage_is_value(rng):
    """mean_a Q(s, a) == V(s) per branch — the dueling decomposition."""
    net = _net(rng)
    x = rng.normal(size=(4, 6))
    # The trunk from its named weights, then each value head's output
    # from the bank's eval forward (value heads lead the bank).
    shared = x
    for i in range(2):
        shared = shared @ parameter(net, f"trunk.{i}.W").value
        shared = np.maximum(shared + parameter(net, f"trunk.{i}.b").value, 0.0)
    heads = net.head_bank.forward(shared)
    q = _q(net, x)
    for k in range(2):
        value = heads[:, k, :1]
        for d in range(2):
            assert np.allclose(q[k][d].mean(axis=1, keepdims=True), value, atol=1e-9)


def test_invalid_configs(rng):
    with pytest.raises(ConfigurationError):
        BDQNetwork(0, [[3]], rng)
    with pytest.raises(ConfigurationError):
        BDQNetwork(4, [], rng)
    with pytest.raises(ConfigurationError):
        BDQNetwork(4, [[1]], rng)


def test_forward_rejects_wrong_state_dim(rng):
    net = _net(rng)
    actions = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ShapeError):
        net.forward_stacked(np.ones((2, 5)), actions)
    with pytest.raises(ShapeError):
        net.forward_train(np.ones((2, 6)), np.ones((2, 5)), actions)


def test_forward_rejects_wrong_action_shape(rng):
    """One action per branch per row, checked before anything is drawn."""
    net = _net(rng, dropout=0.5)
    x = np.ones((2, 6))
    state = rng.bit_generator.state
    for actions in (np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(8)):
        with pytest.raises(ShapeError):
            net.forward_stacked(x, actions)
        with pytest.raises(ShapeError):
            net.forward_train(x, x, actions)
    assert rng.bit_generator.state == state


def test_backward_before_forward_raises(rng):
    """The backward differentiates a training forward; an eval forward
    records nothing for it."""
    net = _net(rng)
    grad = np.ones((1, net.total_branches))
    with pytest.raises(ShapeError):
        net.backward_stacked(grad)
    net.forward_stacked(np.ones((1, 6)), np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ShapeError):
        net.backward_stacked(grad)
    net.forward_train(np.ones((1, 6)), np.ones((1, 6)), np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ShapeError):
        net.backward_stacked(np.ones((2, net.total_branches)))


def test_gradient_check_full_network(rng):
    """Analytic gradients (incl. the paper's rescaling) match numerics.

    The rescaling factors (1/K into each advantage branch, 1/total-branches
    into the trunk) make the analytic gradient a *scaled* version of the
    true gradient of the scalar loss; the check verifies each parameter
    group against the true gradient scaled by its expected factor.
    """
    net = _net(rng, agents=2, dropout=0.0)
    x = rng.normal(size=(3, 6))
    # One taken action per branch and row (branch sizes 5, 3, 5, 3).
    actions = np.array([[4, 2, 0, 1], [0, 0, 3, 2], [2, 1, 4, 0]])
    targets = rng.normal(size=(3, 4))

    def loss():
        return 0.5 * float(np.sum((net.forward_stacked(x, actions) - targets) ** 2))

    q, _ = net.forward_train(x, x, actions)
    net.backward_stacked(q - targets)

    # Advantage-branch parameters: scaled by 1/K = 1/2.
    adv_param = parameter(net, "adv0.0.hidden.W")
    numeric = numerical_gradient(loss, adv_param, sample=6, rng=rng)
    mask = ~np.isnan(numeric)
    assert np.allclose(adv_param.grad[mask], numeric[mask] / 2.0, atol=1e-4)

    # Value-head parameters: not rescaled.
    val_param = parameter(net, "value1.hidden.W")
    numeric = numerical_gradient(loss, val_param, sample=6, rng=rng)
    mask = ~np.isnan(numeric)
    assert np.allclose(val_param.grad[mask], numeric[mask], atol=1e-4)


def test_trunk_gradient_scaling(rng):
    """Trunk gradients shrink by 1/total_branches (advantage part also 1/K)."""
    x = np.random.default_rng(0).normal(size=(2, 6))
    trunk_grads = {}
    for agents in (1, 2):
        gen = np.random.default_rng(7)
        net = _net(gen, agents=agents)
        q, _ = net.forward_train(x, x, np.zeros((2, net.total_branches), dtype=np.int64))
        net.backward_stacked(np.ones_like(q))
        trunk_grads[agents] = np.linalg.norm(parameter(net, "trunk.0.W").grad)
    # More agents -> more branches -> per-branch trunk contribution shrinks;
    # both nets share identical trunk init (same seed), so the 2-agent trunk
    # gradient per unit of head gradient is strictly smaller than 2x.
    assert trunk_grads[2] < 2.0 * trunk_grads[1]


def test_clone_and_copy_from(rng):
    net = _net(rng)
    clone = net.clone(np.random.default_rng(9))
    x = rng.normal(size=(2, 6))
    qa, qb = _q(net, x), _q(clone, x)
    for k in range(2):
        for d in range(2):
            assert np.allclose(qa[k][d], qb[k][d])
    # diverge then resync
    net.parameters()[0].value += 1.0
    clone.copy_from(net)
    qa, qb = _q(net, x), _q(clone, x)
    assert np.allclose(qa[0][0], qb[0][0])


def test_copy_from_refuses_another_shape(rng):
    """A target sync copies the whole arena, so a network of other
    parameter shapes is refused and nothing is written."""
    net = _net(rng)
    before = [p.value.copy() for p in net.parameters()]
    wider = BDQNetwork(6, [[5, 3]] * 2, rng, shared_hidden=(16, 8), branch_hidden=5,
                       dropout=0.0)
    with pytest.raises(ShapeError):
        net.copy_from(wider)
    # Same arena size, other shapes: still refused.
    swapped = BDQNetwork(6, [[3, 5]] * 2, rng, shared_hidden=(16, 8), branch_hidden=4,
                         dropout=0.0)
    assert swapped._flat_param.value.shape == net._flat_param.value.shape
    with pytest.raises(ShapeError):
        net.copy_from(swapped)
    for param, value in zip(net.parameters(), before):
        assert np.array_equal(param.value, value)


def test_parameters_are_views_of_one_arena(rng):
    """Every named parameter, value and gradient, is a view into the
    network's flat arenas, which ``arena_views`` cuts the same way."""
    net = _net(rng)
    flat = net._flat_param
    for param, view in zip(net.parameters(), net.arena_views(flat.value)):
        assert np.shares_memory(param.value, flat.value)
        assert np.shares_memory(param.grad, flat.grad)
        assert view.shape == param.value.shape
        assert view.__array_interface__ == param.value.__array_interface__
    with pytest.raises(ShapeError):
        net.arena_views(np.zeros(flat.value.size + 1))


def test_reinitialize_output_layers_keeps_trunk(rng):
    net = _net(rng)
    trunk_before = parameter(net, "trunk.0.W").value.copy()
    out_before = parameter(net, "adv0.0.out.W").value.copy()
    net.reinitialize_output_layers(np.random.default_rng(3))
    assert np.array_equal(parameter(net, "trunk.0.W").value, trunk_before)
    assert not np.array_equal(parameter(net, "adv0.0.out.W").value, out_before)


def test_greedy_actions_structure(rng):
    net = _net(rng)
    actions = net.greedy_actions_batch(rng.normal(size=(3, 6)))
    # One row per state, agent-major: (agent 0 cores, dvfs, agent 1 ...).
    assert actions.shape == (3, 4)
    assert actions.dtype == np.int64
    assert np.all((0 <= actions) & (actions < np.array([5, 3, 5, 3])))


def test_parameter_count_matches_architecture(rng):
    net = BDQNetwork(4, [[3, 2]], rng, shared_hidden=(8,), branch_hidden=4, dropout=0.0)
    # trunk: 4*8+8; value: 8*4+4 + 4*1+1; adv0: 8*4+4 + 4*3+3; adv1: 8*4+4 + 4*2+2
    expected = (4 * 8 + 8) + (8 * 4 + 4 + 4 * 1 + 1) + (8 * 4 + 4 + 4 * 3 + 3) + (
        8 * 4 + 4 + 4 * 2 + 2
    )
    assert net.parameter_count() == expected
    assert net.parameter_bytes() == expected * 8
