"""Frozen per-head reference implementation of the BDQ network and agent.

This module preserves, verbatim, the pre-fusion implementation that looped
over every value head and advantage branch in Python: one small GEMM per
head inside ``forward``/``backward`` and nested ``for k / for d`` loops in
``_train_step`` — optimised by the pre-fusion :class:`ReferenceAdam`
(per-parameter temporaries, separate clip pass). It exists for two
reasons:

- **equivalence tests** (``tests/test_rl_bdq_fused.py``) assert that the
  fused head-bank implementation in :mod:`repro.rl.bdq` produces identical
  eval-mode Q-values, gradients (with dropout = 0), greedy actions and
  checkpoints;
- **benchmarks** (``benchmarks/test_perf_smoke.py``) measure the fused
  train-step/act speedup against this loop implementation.

Do not "optimise" this module — its value is being the slow, obviously
correct baseline. It lives with the tests, outside the package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import glorot_uniform
from repro.nn.layers import Dense, Parameter, Sequential
from repro.nn.losses import mse_loss
from repro.nn.network import copy_parameters
from repro.nn.optim import Optimizer
from repro.rl.agent import BDQAgent
from repro.rl.bdq import _head, _hidden_stack


class ReferenceAdam(Optimizer):
    """The pre-fusion Adam step, frozen for the benchmark baseline.

    The current :class:`repro.nn.optim.Adam` folds the clip factor and
    bias corrections into scalar coefficients and updates through one
    cache-resident scratch chunk — work done as part of the head-bank
    fusion PR. The loop baseline must not benefit from that, so this
    class keeps the original update verbatim: a separate clip pass over
    every gradient, ``setdefault`` moment initialisation, and the
    textbook expression with one fresh temporary per sub-term.
    """

    def __init__(
        self,
        parameters: List[Parameter],
        learning_rate: float = 0.0025,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = None,
    ):
        super().__init__(parameters, max_grad_norm)
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def _clip_gradients(self) -> float:
        total = float(np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in self.parameters)))
        if self.max_grad_norm is not None and total > self.max_grad_norm:
            factor = self.max_grad_norm / (total + 1e-12)
            for param in self.parameters:
                param.grad *= factor
        return total

    def step(self) -> None:
        self._clip_gradients()
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for index, param in enumerate(self.parameters):
            m = self._first_moment.setdefault(index, np.zeros_like(param.value))
            v = self._second_moment.setdefault(index, np.zeros_like(param.value))
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad * param.grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceBDQNetwork:
    """The pre-fusion BDQ network: one Python loop iteration per head."""

    def __init__(
        self,
        state_dim: int,
        branch_sizes: Sequence[Sequence[int]],
        rng: np.random.Generator,
        shared_hidden: Sequence[int] = (512, 256),
        branch_hidden: int = 128,
        dropout: float = 0.5,
    ):
        if state_dim <= 0:
            raise ConfigurationError(f"state_dim must be positive, got {state_dim}")
        if not branch_sizes or any(not agent for agent in branch_sizes):
            raise ConfigurationError(f"branch_sizes must be non-empty per agent: {branch_sizes}")
        for agent in branch_sizes:
            for size in agent:
                if size < 2:
                    raise ConfigurationError(
                        f"each action dimension needs >= 2 actions, got {branch_sizes}"
                    )
        self.state_dim = state_dim
        self.branch_sizes = [list(agent) for agent in branch_sizes]
        self.num_agents = len(self.branch_sizes)
        self.total_branches = sum(len(agent) for agent in self.branch_sizes)
        self.shared_hidden = list(shared_hidden)
        self.branch_hidden = branch_hidden
        self.dropout = dropout

        self.trunk = _hidden_stack([state_dim, *shared_hidden], rng, dropout, "trunk")
        trunk_out = self.shared_hidden[-1]
        self.value_heads: List[Sequential] = [
            _head(trunk_out, branch_hidden, 1, rng, dropout, f"value{k}")
            for k in range(self.num_agents)
        ]
        self.adv_heads: List[List[Sequential]] = [
            [
                _head(trunk_out, branch_hidden, n, rng, dropout, f"adv{k}.{d}")
                for d, n in enumerate(agent)
            ]
            for k, agent in enumerate(self.branch_sizes)
        ]
        self._last_batch: Optional[int] = None

    # ------------------------------------------------------------------ #
    def forward(self, states: np.ndarray, training: bool = False) -> List[List[np.ndarray]]:
        """Per-head forward: ``q[k][d]`` of shape ``(batch, branch_sizes[k][d])``."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.state_dim:
            raise ShapeError(f"expected state dim {self.state_dim}, got {states.shape[1]}")
        shared = self.trunk.forward(states, training=training)
        self._last_batch = states.shape[0]
        q_values: List[List[np.ndarray]] = []
        for k in range(self.num_agents):
            value = self.value_heads[k].forward(shared, training=training)
            agent_q: List[np.ndarray] = []
            for d in range(len(self.branch_sizes[k])):
                adv = self.adv_heads[k][d].forward(shared, training=training)
                agent_q.append(value + adv - adv.mean(axis=1, keepdims=True))
            q_values.append(agent_q)
        return q_values

    def backward(self, q_grads: Sequence[Sequence[np.ndarray]]) -> None:
        """Per-head backward with the paper's 1/K and 1/N rescalings."""
        if self._last_batch is None:
            raise ShapeError("backward called before forward")
        trunk_out = self.shared_hidden[-1]
        trunk_grad = np.zeros((self._last_batch, trunk_out))
        for k in range(self.num_agents):
            value_grad = np.zeros((self._last_batch, 1))
            for d, grad in enumerate(q_grads[k]):
                grad = np.asarray(grad, dtype=np.float64)
                n = self.branch_sizes[k][d]
                if grad.shape != (self._last_batch, n):
                    raise ShapeError(
                        f"q_grads[{k}][{d}] shape {grad.shape} != {(self._last_batch, n)}"
                    )
                value_grad += grad.sum(axis=1, keepdims=True)
                adv_grad = grad - grad.sum(axis=1, keepdims=True) / n
                adv_grad = adv_grad / self.num_agents
                trunk_grad += self.adv_heads[k][d].backward(adv_grad)
            trunk_grad += self.value_heads[k].backward(value_grad)
        self.trunk.backward(trunk_grad / self.total_branches)

    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        params = list(self.trunk.parameters())
        for head in self.value_heads:
            params.extend(head.parameters())
        for agent in self.adv_heads:
            for head in agent:
                params.extend(head.parameters())
        return params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        return sum(p.nbytes for p in self.parameters())

    def clone(self, rng: np.random.Generator) -> "ReferenceBDQNetwork":
        other = ReferenceBDQNetwork(
            self.state_dim,
            self.branch_sizes,
            rng,
            shared_hidden=self.shared_hidden,
            branch_hidden=self.branch_hidden,
            dropout=self.dropout,
        )
        copy_parameters(self.parameters(), other.parameters())
        return other

    def copy_from(self, other: "ReferenceBDQNetwork") -> None:
        copy_parameters(other.parameters(), self.parameters())

    def reinitialize_output_layers(self, rng: np.random.Generator) -> None:
        heads = list(self.value_heads)
        for agent in self.adv_heads:
            heads.extend(agent)
        for head in heads:
            out = head.layers[-1]
            assert isinstance(out, Dense)
            out.weight.value[...] = glorot_uniform(out.in_features, out.out_features, rng)
            out.bias.value[...] = 0.0

    def greedy_actions(self, state: np.ndarray) -> List[List[int]]:
        q_values = self.forward(np.atleast_2d(state), training=False)
        return [[int(np.argmax(q[0])) for q in agent] for agent in q_values]

    def greedy_actions_batch(self, states: np.ndarray) -> np.ndarray:
        """``(batch, total_branches)`` argmax actions, one head at a time."""
        q_values = self.forward(states, training=False)
        return np.stack(
            [np.argmax(q, axis=1) for agent in q_values for q in agent], axis=1
        )


class ReferenceBDQAgent(BDQAgent):
    """A :class:`BDQAgent` running the pre-fusion per-branch train loop.

    Uses :class:`ReferenceBDQNetwork` for its online/target networks,
    optimises with the frozen :class:`ReferenceAdam`, and overrides
    ``_train_step`` with the original nested ``for k / for d``
    implementation (double-Q target loop, per-branch ``mse_loss``,
    scatter into dense gradient arrays).
    """

    network_cls = ReferenceBDQNetwork

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.optimizer = ReferenceAdam(
            self.online.parameters(),
            learning_rate=self.config.learning_rate,
            max_grad_norm=self.config.max_grad_norm,
        )

    def _train_step(self) -> float:
        config = self.config
        batch, weights, _ = self._replay_sample()

        states = batch["state"]
        next_states = batch["next_state"]
        rewards = batch["rewards"]
        done = batch["done"].reshape(-1)
        action_columns = self._unflatten_actions(batch["actions"])
        batch_size = states.shape[0]
        rows = np.arange(batch_size)

        # Double Q-learning: online network picks actions, target evaluates.
        online_next = self.online.forward(next_states, training=False)
        target_next = self.target.forward(next_states, training=False)
        targets: List[np.ndarray] = []
        for k in range(self.num_agents):
            branch_values = []
            for d in range(len(self.online.branch_sizes[k])):
                best = np.argmax(online_next[k][d], axis=1)
                branch_values.append(target_next[k][d][rows, best])
            mean_next = np.mean(branch_values, axis=0)
            targets.append(rewards[:, k] + config.discount * (1.0 - done) * mean_next)

        predictions = self.online.forward(states, training=True)
        q_grads: List[List[np.ndarray]] = []
        total_loss = 0.0
        td_error_accum = np.zeros(batch_size)
        column = 0
        for k in range(self.num_agents):
            agent_grads: List[np.ndarray] = []
            for d in range(len(self.online.branch_sizes[k])):
                chosen = action_columns[column]
                column += 1
                selected = predictions[k][d][rows, chosen]
                loss, grad_selected = mse_loss(selected, targets[k], weight=weights)
                total_loss += loss
                grad = np.zeros_like(predictions[k][d])
                grad[rows, chosen] = grad_selected
                agent_grads.append(grad)
                td_error_accum += np.abs(selected - targets[k])
            q_grads.append(agent_grads)
        # Paper: loss is the mean squared error across each branch per agent.
        scale = 1.0 / self.online.total_branches
        q_grads = [[g * scale for g in agent] for agent in q_grads]
        total_loss *= scale

        self.optimizer.zero_grad()
        self.online.backward(q_grads)
        self.optimizer.step()

        self._replay_update(batch, td_error_accum)

        self.train_count += 1
        self.last_loss = float(total_loss)
        self.last_td_error = float(td_error_accum.mean() / self.online.total_branches)
        return self.last_loss
