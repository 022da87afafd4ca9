"""Frozen BDQ gradient step, from before it gathered Q where it is read.

This is, verbatim up to being written as free functions, the code one
:meth:`repro.rl.agent.BDQAgent.train_step` ran before the step was
trimmed to the array work its result depends on:

- the agent's ``_train_step``: full padded ``(batch, B, out_max)``
  dueling tensors for the online predictions and the target network,
  ``take_along_axis`` gathers and a ``put_along_axis`` gradient scatter;
- the network's training forward and backward (``forward_train``,
  ``_trunk_forward``, ``_trunk_backward``, ``backward_stacked``), its
  eval forward (``forward_stacked``) and the head bank's
  ``forward_train``/``backward``: eager ReLU masks, combined with each
  dropout mask by ``&=`` and stored; the bank's two dense layers ran
  through a stacked-layer class whose forward and backward are kept
  here as ``_stacked_forward`` and ``_dense_backward``;
- the replay's ``sample``/``update_priorities`` and the sum tree's
  ``find_batch``/``update_batch``: fancy indexing and one ``np.where``
  pair per tree level.

``tests/test_rl_train_reference.py`` runs :class:`ReferenceTrainAgent`
beside the package's agent and compares weights, Adam moments, sum-tree
nodes, RNG state and losses byte for byte. The frozen passes read and
write the package network's arrays (its trunk's ``W``/``b`` pairs and the
head bank's four stacks and gradients) and call none of its passes but
the bank's eval forward.

Do not "optimise" this module — its value is being the slow, obviously
correct baseline. It lives with the tests, outside the package.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.fleet import FleetBDQAgent
from repro.errors import ConfigurationError, ShapeError
from repro.rl.bdq import BDQNetwork
from repro.rl.striped import StripedPrioritizedReplayBuffer
from repro.rl.sum_tree import SumTree


# ---------------------------------------------------------------------- #
# sum tree and replay
# ---------------------------------------------------------------------- #
class ReferenceSumTree(SumTree):
    """A :class:`SumTree` whose batched descent and update are frozen."""

    def update_batch(self, leaves: np.ndarray, priorities: np.ndarray) -> None:
        leaves, priorities = self._check_batch(leaves, priorities)
        if priorities.size == 0:
            return
        nodes = self._leaf_count + leaves
        self._tree[nodes] = priorities
        parents = nodes >> 1
        for _ in range(self._depth):
            children = parents << 1
            self._tree[parents] = self._tree[children] + self._tree[children + 1]
            parents = parents >> 1

    def find_batch(self, masses: np.ndarray) -> np.ndarray:
        if self.total <= 0:
            raise ConfigurationError("cannot sample from an all-zero sum tree")
        masses = np.clip(np.asarray(masses, dtype=np.float64).reshape(-1), 0.0, self.total)
        nodes = np.ones(masses.shape, dtype=np.int64)
        for _ in range(self._depth):
            left = nodes << 1
            left_sum = self._tree[left]
            right_sum = self._tree[left + 1]
            go_left = (left_sum > 0.0) & ((right_sum <= 0.0) | (masses <= left_sum))
            masses = np.where(go_left | (left_sum <= 0.0), masses, masses - left_sum)
            nodes = np.where(go_left, left, left + 1)
        return nodes - self._leaf_count


class ReferenceReplay(StripedPrioritizedReplayBuffer):
    """A striped replay whose sampling and priority update are frozen,
    over a :class:`ReferenceSumTree`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tree = ReferenceSumTree(self.capacity)

    def sample(self, batch_size: int, beta: float = 1.0) -> Dict[str, np.ndarray]:
        if len(self) == 0:
            raise ConfigurationError("cannot sample from an empty replay buffer")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError(f"beta must be in [0, 1], got {beta}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        total = self._tree.total
        segment = total / batch_size
        masses = (np.arange(batch_size) + self._rng.random(batch_size)) * segment
        indices = self._tree.find_batch(masses)
        probabilities = self._tree.priorities(indices) / total
        weights = (len(self) * probabilities) ** (-beta)
        weights /= weights.max()
        assert self._storage is not None
        batch = {key: store[indices] for key, store in self._storage.items()}
        batch["indices"] = np.asarray(indices)
        batch["weights"] = weights
        return batch

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        priorities = np.abs(np.asarray(td_errors, dtype=np.float64).reshape(-1)) + self.eps
        if priorities.size:
            self._max_priority = max(self._max_priority, float(priorities.max()))
        self._tree.update_batch(indices, priorities ** self.alpha)


# ---------------------------------------------------------------------- #
# the head bank's dense layers: (in, H, out) weight stacks
# ---------------------------------------------------------------------- #
def exact_inverse(scale: float) -> Optional[float]:
    """``1/scale`` when dividing by ``scale`` is exactly multiplying by it."""
    if scale <= 0.0 or not np.isfinite(scale):
        return None
    return 1.0 / scale if math.frexp(scale)[0] == 0.5 else None


def _valid(net: BDQNetwork) -> Optional[np.ndarray]:
    """The output layer's 0/1 mask of real (unpadded) head columns."""
    sizes = np.array([1] * net.num_agents + list(net.branch_sizes_flat), dtype=np.int64)
    out_max = int(sizes.max())
    if not (sizes != out_max).any():
        return None
    return (np.arange(out_max)[None, :] < sizes[:, None]).astype(np.float64)


def _stacked_forward(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every head on its own input: ``(batch, H, in) -> (batch, H, out)``."""
    x = np.asarray(x, dtype=np.float64)
    result = np.matmul(
        x.transpose(1, 0, 2), weight.transpose(1, 0, 2)
    ).transpose(1, 0, 2)
    result += bias
    return result


def _dense_backward(
    weight: np.ndarray,
    weight_grad: np.ndarray,
    bias_grad: np.ndarray,
    valid: Optional[np.ndarray],
    x: np.ndarray,
    grad: np.ndarray,
    input_grad_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assign a stacked layer's gradients from its input ``x`` (shared
    2-D or per-head 3-D) and return the input gradient."""
    grad = np.asarray(grad, dtype=np.float64)
    if valid is not None:
        np.multiply(grad, valid, out=grad)
    np.sum(grad, axis=0, out=bias_grad)
    if x.ndim == 2:
        grad_2d = grad.reshape(grad.shape[0], -1)
        np.matmul(x.T, grad_2d, out=weight_grad.reshape(weight.shape[0], -1))
        return grad_2d @ weight.reshape(weight.shape[0], -1).T
    grad_hm = grad.transpose(1, 0, 2)
    np.matmul(x.transpose(1, 2, 0), grad_hm, out=weight_grad.transpose(1, 0, 2))
    return np.matmul(
        grad_hm, weight.transpose(1, 2, 0), out=input_grad_out
    ).transpose(1, 0, 2)


# ---------------------------------------------------------------------- #
# network: the bank's and the trunk's training passes, the eval forward
# ---------------------------------------------------------------------- #
class _Records:
    """What the frozen training forward kept for its backward."""

    def __init__(self) -> None:
        self.last_batch: Optional[int] = None
        self.trunk_inputs: List[np.ndarray] = []
        self.trunk_acts: List[np.ndarray] = []
        self.trunk_drop_masks: List[Optional[np.ndarray]] = []
        self.bank_input: Optional[np.ndarray] = None
        self.bank_out_input: Optional[np.ndarray] = None
        self.bank_relu_act: Optional[np.ndarray] = None
        self.bank_drop_mask: Optional[np.ndarray] = None
        self.head_grads_buf: Optional[np.ndarray] = None
        self.hidden_grad_buf: Optional[np.ndarray] = None


def _checked(net: BDQNetwork, states: np.ndarray) -> np.ndarray:
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] != net.state_dim:
        raise ShapeError(f"expected state dim {net.state_dim}, got {states.shape[1]}")
    return states


def _trunk_forward(
    net: BDQNetwork,
    states: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    records: Optional[_Records] = None,
    train_rows: Optional[int] = None,
) -> np.ndarray:
    if train_rows is not None:
        records.trunk_inputs = []
        records.trunk_acts = []
        records.trunk_drop_masks = []
    keep = 1.0 - net.dropout
    inv_keep = exact_inverse(keep) if net.dropout > 0.0 else None
    x = states
    for weight, bias in net._trunk:
        pre = x @ weight
        pre += bias
        if train_rows is None or net.dropout == 0.0:
            np.maximum(pre, 0.0, out=pre)
            drop_mask = None
        else:
            train = pre[:train_rows]
            relu_mask = train > 0
            np.maximum(pre, 0.0, out=pre)
            drop_mask = rng.random(train.shape) < keep
            train *= drop_mask
            if inv_keep is not None:
                train *= inv_keep
            else:
                train /= keep
            drop_mask &= relu_mask
        if train_rows is not None:
            records.trunk_inputs.append(x[:train_rows])
            records.trunk_acts.append(pre[:train_rows])
            records.trunk_drop_masks.append(drop_mask)
        x = pre
    return x


def _trunk_backward(net: BDQNetwork, records: _Records, grad: np.ndarray) -> None:
    keep = 1.0 - net.dropout
    inv_keep = exact_inverse(keep) if net.dropout > 0.0 else None
    for index in range(len(net._trunk) - 1, -1, -1):
        weight = net._trunk[index][0]
        weight_grad, bias_grad = net._trunk_grads[index]
        drop_mask = records.trunk_drop_masks[index]
        if drop_mask is not None:
            grad *= drop_mask
            if inv_keep is not None:
                grad *= inv_keep
            else:
                grad /= keep
        else:
            grad *= records.trunk_acts[index] > 0
        np.matmul(records.trunk_inputs[index].T, grad, out=weight_grad)
        np.sum(grad, axis=0, out=bias_grad)
        if index:
            grad = grad @ weight.T


def _bank_forward_train(
    net: BDQNetwork,
    rng: np.random.Generator,
    records: _Records,
    shared: np.ndarray,
    batch: int,
    tail_start: int,
) -> Tuple[np.ndarray, np.ndarray]:
    bank, dropout = net.head_bank, net.dropout
    rows = shared.shape[0]
    width = bank.width
    split = tail_start * width
    pre2d = np.empty((rows, bank.num_heads * width))
    np.matmul(shared, bank.hidden_w_2d[:, split:], out=pre2d[:, split:])
    np.matmul(
        shared[:batch], bank.hidden_w_2d[:, :split], out=pre2d[:batch, :split]
    )
    pre = pre2d.reshape(rows, bank.num_heads, width)
    records.bank_input = shared[:batch]
    train = pre[:batch]
    tail = pre[batch:, tail_start:, :]
    train += bank.hidden_b
    tail += bank.hidden_b[tail_start:]
    inv_keep = exact_inverse(1.0 - dropout) if dropout > 0.0 else None
    if dropout > 0.0:
        relu_mask = train > 0
        np.maximum(train, 0.0, out=train)
        keep = 1.0 - dropout
        mask = rng.random(train.shape) < keep
        train *= mask
        if inv_keep is not None:
            train *= inv_keep
        else:
            train /= keep
        mask &= relu_mask
        records.bank_drop_mask = mask
        records.bank_relu_act = None
    else:
        np.maximum(train, 0.0, out=train)
        records.bank_relu_act = train
        records.bank_drop_mask = None
    np.maximum(tail, 0.0, out=tail)
    records.bank_out_input = train
    train_out = _stacked_forward(bank.out_w, bank.out_b, train)
    tail_out = np.matmul(
        tail.transpose(1, 0, 2),
        bank.out_w[:, tail_start:, :].transpose(1, 0, 2),
    ).transpose(1, 0, 2)
    tail_out += bank.out_b[tail_start:]
    return train_out, tail_out


def _bank_backward(net: BDQNetwork, records: _Records, grad: np.ndarray) -> np.ndarray:
    bank, dropout = net.head_bank, net.dropout
    hidden_w_grad, hidden_b_grad, out_w_grad, out_b_grad = bank.grads
    shape = (grad.shape[0], bank.num_heads, bank.width)
    buf = records.hidden_grad_buf
    if buf is None or buf.shape != shape:
        buf = records.hidden_grad_buf = np.empty(shape)
    g = _dense_backward(
        bank.out_w, out_w_grad, out_b_grad, _valid(net), records.bank_out_input, grad,
        input_grad_out=buf.transpose(1, 0, 2),
    )
    if not g.flags.c_contiguous:
        g = np.ascontiguousarray(g)
    inv_keep = exact_inverse(1.0 - dropout) if dropout > 0.0 else None
    if records.bank_drop_mask is not None:
        g *= records.bank_drop_mask
        if inv_keep is not None:
            g *= inv_keep
        else:
            g /= 1.0 - dropout
    elif records.bank_relu_act is not None:
        g *= records.bank_relu_act > 0
    else:
        raise ShapeError("head_bank.backward called before forward")
    return _dense_backward(
        bank.hidden_w, hidden_w_grad, hidden_b_grad, None, records.bank_input, g
    )


def _q_values(net: BDQNetwork, heads: np.ndarray) -> np.ndarray:
    K = net.num_agents
    value = heads[:, :K, 0]
    adv = heads[:, K:, :]
    adv_mean = adv.sum(axis=2) / net.branch_sizes_flat
    q = value[:, net.branch_agent_index][:, :, None] + adv
    q -= adv_mean[:, :, None]
    return q


def forward_stacked(net: BDQNetwork, states: np.ndarray) -> np.ndarray:
    """The eval forward: padded ``(batch, B, out_max)`` Q-values."""
    shared = _trunk_forward(net, _checked(net, states))
    return _q_values(net, net.head_bank.forward(shared))


def forward_train(
    net: BDQNetwork,
    rng: np.random.Generator,
    records: _Records,
    states: np.ndarray,
    next_states: np.ndarray,
) -> tuple:
    """The training forward: ``(padded predictions, next advantages)``."""
    states = _checked(net, states)
    next_states = _checked(net, next_states)
    batch = states.shape[0]
    combined = np.concatenate((states, next_states), axis=0)
    shared = _trunk_forward(net, combined, rng, records, train_rows=batch)
    records.last_batch = batch
    heads, next_adv = _bank_forward_train(
        net, rng, records, shared, batch, net.num_agents
    )
    if net._pad_rows.size:
        next_adv[:, net._pad_rows, net._pad_cols] = -np.inf
    return _q_values(net, heads), next_adv


def backward_stacked(net: BDQNetwork, records: _Records, q_grad_stack: np.ndarray) -> None:
    """The backward of a padded ``(batch, B, out_max)`` gradient."""
    if records.last_batch is None:
        raise ShapeError("backward called before forward")
    q_grad_stack = np.asarray(q_grad_stack, dtype=np.float64)
    expected = (records.last_batch, net.total_branches, net.out_max)
    if q_grad_stack.shape != expected:
        raise ShapeError(f"q_grad_stack shape {q_grad_stack.shape} != {expected}")
    K = net.num_agents
    grad_sums = q_grad_stack.sum(axis=2)
    value_grads = np.add.reduceat(grad_sums, net.agent_branch_starts, axis=1)
    buf = records.head_grads_buf
    if buf is None or buf.shape[0] != records.last_batch:
        buf = records.head_grads_buf = np.zeros(
            (records.last_batch, K + net.total_branches, net.out_max)
        )
    buf[:, :K, 0] = value_grads
    adv_grads = buf[:, K:]
    np.subtract(
        q_grad_stack,
        (grad_sums / net.branch_sizes_flat)[:, :, None],
        out=adv_grads,
    )
    adv_grads /= K
    trunk_grad = _bank_backward(net, records, buf)
    trunk_grad /= net.total_branches
    _trunk_backward(net, records, trunk_grad)
    sq = 0.0
    for grad in net.head_bank.grads:
        flat = grad.reshape(-1)
        sq += float(np.dot(flat, flat))
    for pair in net._trunk_grads:
        for grad in pair:
            flat = grad.reshape(-1)
            sq += float(np.dot(flat, flat))
    net.last_grad_sq_sum = sq


# ---------------------------------------------------------------------- #
# agent
# ---------------------------------------------------------------------- #
class ReferenceTrainAgent(FleetBDQAgent):
    """A fleet agent whose gradient step and replay are the frozen ones;
    acting, storing and checkpointing are the package's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._records = _Records()
        self._q_grad_buf: Optional[np.ndarray] = None

    def _make_replay(self) -> StripedPrioritizedReplayBuffer:
        config = self.config
        return ReferenceReplay(
            self.num_envs,
            max(config.buffer_capacity // self.num_envs, config.batch_size),
            self._rng,
            alpha=config.per_alpha,
        )

    def _train_step(self) -> float:
        config = self.config
        net = self.online
        records = self._records
        batch, weights, beta = self._replay_sample()

        states = batch["state"]
        next_states = batch["next_state"]
        rewards = batch["rewards"]
        done = batch["done"].reshape(-1)
        chosen = np.asarray(batch["actions"], dtype=np.int64)
        batch_size = states.shape[0]

        predictions, online_next = forward_train(
            net, self._rng, records, states, next_states
        )
        target_next = forward_stacked(self.target, next_states)
        best = np.argmax(online_next, axis=2)
        branch_values = np.take_along_axis(
            target_next, best[:, :, None], axis=2
        )[:, :, 0]
        mean_next = (
            np.add.reduceat(branch_values, net.agent_branch_starts, axis=1)
            / net.branches_per_agent
        )
        targets = rewards + config.discount * (1.0 - done)[:, None] * mean_next

        selected = np.take_along_axis(
            predictions, chosen[:, :, None], axis=2
        )[:, :, 0]
        branch_targets = targets[:, net.branch_agent_index]
        diff = selected - branch_targets
        scale = 1.0 / net.total_branches
        weighted_diff = weights[:, None] * diff
        total_loss = float(
            ((weighted_diff * diff).sum(axis=0) / batch_size).sum() * scale
        )
        grad_selected = (2.0 * scale / batch_size) * weighted_diff
        q_grad_stack = self._q_grad_buf
        if q_grad_stack is None or q_grad_stack.shape != predictions.shape:
            q_grad_stack = self._q_grad_buf = np.empty(predictions.shape)
        q_grad_stack.fill(0.0)
        np.put_along_axis(
            q_grad_stack, chosen[:, :, None], grad_selected[:, :, None], axis=2
        )
        td_error_accum = np.abs(diff).sum(axis=1)
        backward_stacked(net, records, q_grad_stack)
        self.optimizer.step(grad_sq_sum=net.last_grad_sq_sum)

        self._replay_update(batch, td_error_accum)

        self.train_count += 1
        self.last_loss = float(total_loss)
        self.last_td_error = float(td_error_accum.mean() / self.online.total_branches)
        return self.last_loss
