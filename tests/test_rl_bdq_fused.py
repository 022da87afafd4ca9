"""Fused head-bank vs frozen per-head reference: equivalence contract.

The fused :class:`~repro.rl.bdq.BDQNetwork` must be a pure execution-layout
change: same RNG draw order at init, identical eval-mode Q-values,
identical gradients with dropout = 0, identical greedy actions, and an
unchanged checkpoint format (fused and reference checkpoints are
interchangeable). These tests pin that contract against
:mod:`tests.oracles.bdq_reference` across 1-, 2- and 3-agent configurations
with ragged branch sizes, and guard the hot path against reintroducing a
per-head Python loop.
"""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.rl.agent import BDQAgent, BDQAgentConfig, Transition
from repro.rl.bdq import BDQNetwork
from tests.oracles.bdq_reference import ReferenceBDQAgent, ReferenceBDQNetwork
from tests.test_rl_bdq import _q, _stack

# Ragged branch widths on purpose: padding correctness only shows when
# branches disagree within and across agents.
CONFIGS = [
    pytest.param([[18, 9]], id="1-agent"),
    pytest.param([[18, 9], [12, 9]], id="2-agent-ragged"),
    pytest.param([[18, 9], [12, 9], [18, 5]], id="3-agent-ragged"),
]

STATE_DIM = 7
TOL = 1e-10


def _pair(branch_sizes, seed=5, dropout=0.0):
    """Fused + reference networks built from identical RNG streams."""
    kwargs = dict(shared_hidden=(24, 12), branch_hidden=8, dropout=dropout)
    fused = BDQNetwork(STATE_DIM, branch_sizes, np.random.default_rng(seed), **kwargs)
    ref = ReferenceBDQNetwork(
        STATE_DIM, branch_sizes, np.random.default_rng(seed), **kwargs
    )
    return fused, ref


def _assert_q_equal(qa, qb, tol=TOL):
    for agent_a, agent_b in zip(qa, qb):
        for branch_a, branch_b in zip(agent_a, agent_b):
            assert branch_a.shape == branch_b.shape
            assert np.max(np.abs(branch_a - branch_b)) <= tol


@pytest.mark.parametrize("branch_sizes", CONFIGS)
def test_same_seed_same_parameters(branch_sizes):
    fused, ref = _pair(branch_sizes)
    fused_params, ref_params = fused.parameters(), ref.parameters()
    assert len(fused_params) == len(ref_params)
    for f, r in zip(fused_params, ref_params):
        assert f.name == r.name
        assert f.value.shape == r.value.shape
        assert np.array_equal(f.value, r.value)


@pytest.mark.parametrize("branch_sizes", CONFIGS)
def test_eval_q_values_match(branch_sizes, rng):
    fused, ref = _pair(branch_sizes)
    states = rng.normal(size=(9, STATE_DIM))
    _assert_q_equal(_q(fused, states), ref.forward(states))


@pytest.mark.parametrize("branch_sizes", CONFIGS)
def test_backward_gradients_match_with_zero_dropout(branch_sizes, rng):
    fused, ref = _pair(branch_sizes, dropout=0.0)
    states = rng.normal(size=(6, STATE_DIM))
    grads = [
        [rng.normal(size=(6, n)) for n in agent] for agent in branch_sizes
    ]
    # The fused backward assigns its gradients: stale ones are overwritten.
    for p in fused.parameters():
        p.grad[...] = 7.0
    fused.forward_train(states, states)
    fused.backward_stacked(_stack(fused, grads))
    ref.forward(states, training=True)
    for p in ref.parameters():
        p.zero_grad()
    ref.backward([[g.copy() for g in agent] for agent in grads])
    for f, r in zip(fused.parameters(), ref.parameters()):
        assert np.max(np.abs(f.grad - r.grad)) <= TOL, f.name


@pytest.mark.parametrize("branch_sizes", CONFIGS)
def test_greedy_actions_match(branch_sizes, rng):
    """Each row of the fused batch forward is the reference's per-state
    greedy action, flattened agent-major."""
    fused, ref = _pair(branch_sizes)
    states = rng.normal(size=(25, STATE_DIM))
    rows = fused.greedy_actions_batch(states)
    assert rows.shape == (25, sum(len(agent) for agent in branch_sizes))
    for state, row in zip(states, rows):
        expected = [a for agent in ref.greedy_actions(state) for a in agent]
        assert row.tolist() == expected


@pytest.mark.parametrize("branch_sizes", CONFIGS)
def test_checkpoints_interchangeable(branch_sizes, tmp_path, rng):
    from repro.nn.network import load_weights, save_weights

    fused, ref = _pair(branch_sizes, seed=5)
    fused2, ref2 = _pair(branch_sizes, seed=99)
    states = rng.normal(size=(4, STATE_DIM))

    # fused -> reference and reference -> fused, through the same .npz format.
    save_weights(fused.parameters(), tmp_path / "fused.npz")
    load_weights(ref2.parameters(), tmp_path / "fused.npz")
    _assert_q_equal(_q(fused, states), ref2.forward(states))

    save_weights(ref.parameters(), tmp_path / "ref.npz")
    load_weights(fused2.parameters(), tmp_path / "ref.npz")
    _assert_q_equal(ref.forward(states), _q(fused2, states))
    # Loading into the fused net must hit the stacked storage the hot path
    # reads, not just the view parameters.
    assert np.array_equal(
        fused2.greedy_actions_batch(states), ref.greedy_actions_batch(states)
    )


def test_dueling_aggregation_with_training_dropout(rng):
    """Training-mode forward keeps the dueling identity per branch.

    Fused and reference draw different dropout masks (one stacked draw vs
    one draw per head), so values are not comparable across
    implementations; the invariant mean_a Q = V must still hold within the
    fused one.
    """
    net, _ = _pair([[18, 9], [12, 9]], dropout=0.5)
    states = rng.normal(size=(5, STATE_DIM))
    q, _ = net.forward_train(states, states)
    for b, n in enumerate(net.branch_sizes_flat):
        k = net.branch_agent_index[b]
        # V is recoverable as the valid-entry mean of Q for the branch.
        mean_q = q[:, b, :n].mean(axis=1)
        mean_q_other = q[
            :, net.agent_branch_starts[k], : net.branch_sizes_flat[net.agent_branch_starts[k]]
        ].mean(axis=1)
        assert np.allclose(mean_q, mean_q_other, atol=1e-9)


def _agent_pair(branch_sizes, agent_cls_pairs=(BDQAgent, ReferenceBDQAgent), seed=11):
    agents = []
    for cls in agent_cls_pairs:
        config = BDQAgentConfig(
            state_dim=STATE_DIM,
            branch_sizes=branch_sizes,
            min_buffer_size=12,
            buffer_capacity=300,
            batch_size=12,
            shared_hidden=(24, 12),
            branch_hidden=8,
            dropout=0.0,
            epsilon_mid_steps=50,
            epsilon_final_steps=100,
        )
        agents.append(cls(config, np.random.default_rng(seed)))
    return agents


@pytest.mark.parametrize("branch_sizes", CONFIGS)
def test_agent_train_step_equivalence(branch_sizes, rng):
    """Identical seeds + transitions -> same losses, priorities, weights.

    Both implementations consume identical RNG streams (with dropout = 0
    neither training forward draws), so equivalence holds through PER
    sampling and multiple optimizer steps; tolerance covers GEMM
    reassociation only.
    """
    fused_agent, ref_agent = _agent_pair(branch_sizes)
    feeder = np.random.default_rng(77)
    for step in range(30):
        state = feeder.normal(size=STATE_DIM)
        next_state = feeder.normal(size=STATE_DIM)
        actions = [
            [int(feeder.integers(0, n)) for n in agent] for agent in branch_sizes
        ]
        rewards = feeder.normal(size=len(branch_sizes))
        transition = Transition(state, actions, rewards, next_state)
        loss_a = fused_agent.observe(transition)
        loss_b = ref_agent.observe(transition)
        if loss_a is None or loss_b is None:
            assert loss_a is None and loss_b is None
            continue
        assert loss_a == pytest.approx(loss_b, rel=1e-9, abs=1e-12)
        assert fused_agent.last_td_error == pytest.approx(
            ref_agent.last_td_error, rel=1e-9, abs=1e-12
        )
    assert fused_agent.train_count == ref_agent.train_count > 0
    # The networks themselves stayed in lockstep through Adam updates.
    for f, r in zip(fused_agent.online.parameters(), ref_agent.online.parameters()):
        assert np.allclose(f.value, r.value, rtol=1e-8, atol=1e-10), f.name
    probe = feeder.normal(size=STATE_DIM)
    assert fused_agent.act(probe, greedy=True) == ref_agent.act(probe, greedy=True)


def test_agent_save_load_roundtrip_formats(tmp_path):
    """Agent checkpoints cross-load between fused and reference agents."""
    fused_agent, ref_agent = _agent_pair([[18, 9], [12, 9]])
    fused_agent.save(tmp_path / "a.npz")
    ref_agent.load(tmp_path / "a.npz")
    probe = np.random.default_rng(3).normal(size=STATE_DIM)
    assert fused_agent.act(probe, greedy=True) == ref_agent.act(probe, greedy=True)


# ---------------------------------------------------------------------- #
# hot-path guard: no per-head Python loops
# ---------------------------------------------------------------------- #
def test_hot_path_never_calls_per_head_dense(monkeypatch, rng):
    """forward/backward/train_step must run on the fused bank.

    The per-head ``Dense`` layers stay alive as views for save/load and
    introspection, but the hot path must never call their ``forward``/
    ``backward`` — one call per head is exactly the many-small-GEMMs
    pathology this refactor removed. A reintroduced per-head loop trips
    this counter.
    """
    calls = {"forward": 0, "backward": 0}
    dense_forward, dense_backward = Dense.forward, Dense.backward

    def counting_forward(self, x, training=False):
        calls["forward"] += 1
        return dense_forward(self, x, training=training)

    def counting_backward(self, grad):
        calls["backward"] += 1
        return dense_backward(self, grad)

    monkeypatch.setattr(Dense, "forward", counting_forward)
    monkeypatch.setattr(Dense, "backward", counting_backward)

    (fused_agent,) = _agent_pair([[18, 9], [12, 9]], agent_cls_pairs=(BDQAgent,))
    net = fused_agent.online
    states = rng.normal(size=(8, STATE_DIM))

    q, _ = net.forward_train(states, states)
    net.backward_stacked(np.zeros_like(q))
    net.forward_stacked(states)
    net.greedy_actions_batch(states)
    assert calls == {"forward": 0, "backward": 0}

    feeder = np.random.default_rng(1)
    for _ in range(15):
        state = feeder.normal(size=STATE_DIM)
        fused_agent.observe(
            Transition(
                state,
                [[0, 0], [1, 2]],
                feeder.normal(size=2),
                feeder.normal(size=STATE_DIM),
            )
        )
    assert fused_agent.train_count > 0
    assert calls == {"forward": 0, "backward": 0}


def test_head_bank_is_engaged(monkeypatch, rng):
    """Every batched eval forward goes through HeadBank exactly once."""
    from repro.nn.batched import HeadBank

    bank_calls = {"n": 0}
    bank_forward = HeadBank.forward

    def counting(self, shared, start=0):
        bank_calls["n"] += 1
        return bank_forward(self, shared, start)

    monkeypatch.setattr(HeadBank, "forward", counting)
    net, _ = _pair([[18, 9], [12, 9]])
    net.forward_stacked(rng.normal(size=(4, STATE_DIM)))
    assert bank_calls["n"] == 1
    net.greedy_actions_batch(rng.normal(size=(4, STATE_DIM)))
    assert bank_calls["n"] == 2
