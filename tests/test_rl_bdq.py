"""Unit tests for the (multi-agent) BDQ network, including gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.network import numerical_gradient
from repro.rl.bdq import BDQNetwork


def _branches(net, stack):
    """A padded ``(batch, B, out_max)`` stack as ``q[k][d]`` of shape
    ``(batch, branch_sizes[k][d])``."""
    q, b = [], 0
    for agent in net.branch_sizes:
        q.append([stack[:, b + d, :n] for d, n in enumerate(agent)])
        b += len(agent)
    return q


def _stack(net, q_grads):
    """``q_grads[k][d]`` as the padded stack ``backward_stacked`` takes."""
    flat = [g for agent in q_grads for g in agent]
    stack = np.zeros((len(flat[0]), net.total_branches, net.out_max))
    for b, grad in enumerate(flat):
        stack[:, b, :grad.shape[1]] = grad
    return stack


def _q(net, x):
    return _branches(net, net.forward_stacked(x))


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
    stack = net.forward_stacked(rng.normal(size=(7, 6)))
    assert stack.shape == (7, 4, 5)  # two agents x (cores, dvfs), widest 5
    q = _branches(net, stack)
    assert len(q) == 2
    assert q[0][0].shape == (7, 5)
    assert q[0][1].shape == (7, 3)


def test_dueling_identity_mean_advantage_is_value(rng):
    """mean_a Q(s, a) == V(s) per branch — the dueling decomposition."""
    net = _net(rng)
    x = rng.normal(size=(4, 6))
    shared = net.trunk.forward(x)
    q = _q(net, x)
    for k in range(2):
        value = net.value_heads[k].forward(shared)
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
    with pytest.raises(ShapeError):
        net.forward_stacked(np.ones((2, 5)))
    with pytest.raises(ShapeError):
        net.forward_train(np.ones((2, 6)), np.ones((2, 5)))


def test_backward_before_forward_raises(rng):
    """The backward differentiates a training forward; an eval forward
    records nothing for it."""
    net = _net(rng)
    grad = np.ones((1, net.total_branches, net.out_max))
    with pytest.raises(ShapeError):
        net.backward_stacked(grad)
    net.forward_stacked(np.ones((1, 6)))
    with pytest.raises(ShapeError):
        net.backward_stacked(grad)


def test_gradient_check_full_network(rng):
    """Analytic gradients (incl. the paper's rescaling) match numerics.

    The rescaling factors (1/K into each advantage branch, 1/total-branches
    into the trunk) make the analytic gradient a *scaled* version of the
    true gradient of the scalar loss; the check verifies each parameter
    group against the true gradient scaled by its expected factor.
    """
    net = _net(rng, agents=2, dropout=0.0)
    x = rng.normal(size=(3, 6))
    targets = [
        [rng.normal(size=(3, 5)), rng.normal(size=(3, 3))],
        [rng.normal(size=(3, 5)), rng.normal(size=(3, 3))],
    ]

    def loss():
        q = _q(net, x)
        return 0.5 * sum(
            float(np.sum((q[k][d] - targets[k][d]) ** 2))
            for k in range(2)
            for d in range(2)
        )

    q = _branches(net, net.forward_train(x, x)[0])
    grads = [[q[k][d] - targets[k][d] for d in range(2)] for k in range(2)]
    net.backward_stacked(_stack(net, grads))

    # Advantage-branch parameters: scaled by 1/K = 1/2.
    adv_param = net.adv_heads[0][0].parameters()[0]
    numeric = numerical_gradient(loss, adv_param, sample=6, rng=rng)
    mask = ~np.isnan(numeric)
    assert np.allclose(adv_param.grad[mask], numeric[mask] / 2.0, atol=1e-4)

    # Value-head parameters: not rescaled.
    val_param = net.value_heads[1].parameters()[0]
    numeric = numerical_gradient(loss, val_param, sample=6, rng=rng)
    mask = ~np.isnan(numeric)
    assert np.allclose(val_param.grad[mask], numeric[mask], atol=1e-4)


def test_trunk_gradient_scaling(rng):
    """Trunk gradients shrink by 1/total_branches (advantage part also 1/K)."""
    x = np.random.default_rng(0).normal(size=(2, 6))
    grads_template = None
    trunk_grads = {}
    for agents in (1, 2):
        gen = np.random.default_rng(7)
        net = _net(gen, agents=agents)
        q = _branches(net, net.forward_train(x, x)[0])
        grads = [[np.ones_like(q[k][d]) for d in range(2)] for k in range(agents)]
        net.backward_stacked(_stack(net, grads))
        trunk_grads[agents] = np.linalg.norm(net.trunk.parameters()[0].grad)
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


def test_reinitialize_output_layers_keeps_trunk(rng):
    net = _net(rng)
    trunk_before = net.trunk.parameters()[0].value.copy()
    out_before = net.adv_heads[0][0].layers[-1].weight.value.copy()
    net.reinitialize_output_layers(np.random.default_rng(3))
    assert np.array_equal(net.trunk.parameters()[0].value, trunk_before)
    assert not np.array_equal(net.adv_heads[0][0].layers[-1].weight.value, out_before)


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
