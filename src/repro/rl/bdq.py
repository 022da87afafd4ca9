"""(Multi-agent) Branching Dueling Q-Network on a fused head bank.

Implements the architecture of Section III-A / Figure 3 of the paper:

- a **shared representation** trunk over the concatenated per-service state,
- one **state-value head** per learning agent (service),
- one **advantage branch** per action dimension per agent (e.g. core count
  and DVFS state), each with its own hidden layer,
- dueling aggregation per branch:
  ``Q_kd(s, a) = V_k(s) + A_kd(s, a) - mean_a A_kd(s, a)``.

Gradient rescaling follows the paper exactly: the combined gradient entering
the deepest layer of each advantage branch is scaled by ``1/K`` (number of
learning agents), and the combined gradient entering the shared
representation is scaled by one over the total number of action dimensions.

With ``num_agents == 1`` this reduces to the classic BDQ of Tavakoli et al.
(used by Twig-S); with ``num_agents > 1`` it is the paper's multi-agent
extension (used by Twig-C).

Execution layout
----------------
All K value heads and B advantage branches share the same single-hidden-
layer shape, so they are evaluated together by one
:class:`~repro.nn.batched.HeadBank`: head order ``[value_0..value_{K-1},
branch_0..branch_{B-1}]`` (branches in agent-major, flattened order), with
ragged branch widths zero-padded to ``out_max``.

Every weight lives in one flat value arena, and every gradient in a flat
gradient arena of the same layout. One layout function cuts each arena
into the trunk layers' ``W``/``b``, the bank's four stacks, and the
per-parameter views that :meth:`BDQNetwork.parameters` returns, with the
names, order and shapes of the per-head loop implementation (kept in
``tests/oracles/bdq_reference.py`` and asserted equivalent by
``tests/test_rl_bdq_fused.py``): ``trunk.0.W``, ``trunk.0.b``, ..., then
per head ``<head>.hidden.W``, ``<head>.hidden.b``, ``<head>.out.W``,
``<head>.out.b``, where ``<head>`` is ``value<k>`` or ``adv<k>.<d>``. The
initial weights are drawn straight into those views in that loop's order,
so checkpoints and ``save_weights`` files keep their format. The optimizer
steps the whole arena as one flat parameter
(:meth:`BDQNetwork.optim_parameters`), and the same layout function,
applied to a moment buffer, gives its per-parameter moments
(:meth:`BDQNetwork.arena_views`).

The network has one eval forward, one training forward and one backward,
each without a per-head Python loop:

- :meth:`BDQNetwork.forward_stacked`, the eval forward: batch-major
  ``(batch, B)`` Q-values at one given action per branch (what the
  train step's target network evaluates at the online argmax); it
  records nothing for backward. :meth:`BDQNetwork.greedy_actions_batch`
  acts through the same eval trunk and the bank's advantage heads only,
  one row for a plain agent's ``act`` and one per environment for a
  fleet's ``act_batch``;
- :meth:`BDQNetwork.forward_train`, the training forward: the Q-values
  at the replayed actions, dropout drawn for the training rows, whose
  activations it records, merged with the eval advantage forward of the
  next states;
- :meth:`BDQNetwork.backward_stacked`: the loss gradient at those
  actions through both paper rescalings into every parameter gradient,
  assigned rather than accumulated (one backward per optimizer step
  writes each gradient exactly once).

No forward builds the full ``(batch, B, out_max)`` dueling tensor: Q is
gathered where it is read, ``V + A[a] - mean(A)`` on the gathered
entries, the same roundings per entry as aggregating the whole tensor.
Action columns are addressed by flat offsets computed once per batch
size, and dropout masks are read back from the recorded activations.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ShapeError
from repro.nn.batched import HeadBank, ReluDropout
from repro.nn.initializers import glorot_uniform, he_uniform
from repro.nn.layers import Parameter


class BDQNetwork:
    """Branching dueling Q-network with per-agent value heads.

    Parameters
    ----------
    state_dim:
        Size of the (concatenated) input state vector.
    branch_sizes:
        ``branch_sizes[k][d]`` is the number of discrete actions in agent
        ``k``'s action dimension ``d``; e.g. ``[[18, 9], [18, 9]]`` for two
        services each choosing a core count (1–18) and a DVFS index (0–8).
    shared_hidden:
        Widths of the shared trunk's hidden layers (paper: ``[512, 256]``).
    branch_hidden:
        Width of each branch's single hidden layer (paper: 128).
    dropout:
        Dropout rate after every fully connected layer (paper: 0.5).
    """

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
        if not shared_hidden or min(shared_hidden) <= 0 or branch_hidden <= 0:
            raise ConfigurationError(
                f"layer widths must be positive, with at least one trunk layer: "
                f"shared_hidden {shared_hidden}, branch_hidden {branch_hidden}"
            )
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {dropout}")
        self.state_dim = state_dim
        self.branch_sizes = [list(agent) for agent in branch_sizes]
        self.num_agents = len(self.branch_sizes)
        self.total_branches = sum(len(agent) for agent in self.branch_sizes)
        self.shared_hidden = list(shared_hidden)
        self.branch_hidden = branch_hidden
        self.dropout = dropout

        widths = [state_dim, *self.shared_hidden]
        trunk_out = widths[-1]
        head_sizes = [1] * self.num_agents + [n for agent in self.branch_sizes for n in agent]
        heads = [f"value{k}" for k in range(self.num_agents)] + [
            f"adv{k}.{d}" for k, agent in enumerate(self.branch_sizes) for d in range(len(agent))
        ]
        out_max = max(head_sizes)
        self._head_sizes = head_sizes
        # The arena's pieces, in order: each trunk layer's W and b, then
        # the bank's hidden W, hidden b, output W and output b stacks.
        self._pieces: List[Tuple[int, ...]] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self._pieces += [(fan_in, fan_out), (fan_out,)]
        H = len(head_sizes)
        self._pieces += [
            (trunk_out, H, branch_hidden), (H, branch_hidden),
            (branch_hidden, H, out_max), (H, out_max),
        ]
        size = sum(math.prod(shape) for shape in self._pieces)
        # Zeroed, so a ragged head's padded output columns start at zero.
        values, grads = np.zeros(size), np.zeros(size)
        value_pieces, value_views = self._layout(values)
        grad_pieces, grad_views = self._layout(grads)
        names = [f"trunk.{i}.{p}" for i in range(len(widths) - 1) for p in "Wb"] + [
            f"{head}.{layer}.{p}" for head in heads for layer in ("hidden", "out") for p in "Wb"
        ]
        self._params: List[Parameter] = []
        for name, value, grad in zip(names, value_views, grad_views):
            param = Parameter(name, value)
            param.grad = grad
            self._params.append(param)
        self._flat_param = Parameter("bdq.flat", values)
        self._flat_param.grad = grads
        self._trunk = list(zip(value_pieces[:-4:2], value_pieces[1:-4:2]))
        self._trunk_grads = list(zip(grad_pieces[:-4:2], grad_pieces[1:-4:2]))

        # Initial weights, drawn as the per-head loop drew them: each trunk
        # layer's He-uniform, then head by head the hidden layer's
        # He-uniform and the output layer's Glorot-uniform. Biases are 0.
        for weight, _ in self._trunk:
            weight[...] = he_uniform(*weight.shape, rng)
        hidden_w, _, out_w, _ = value_pieces[-4:]
        for h, n in enumerate(head_sizes):
            hidden_w[:, h] = he_uniform(trunk_out, branch_hidden, rng)
            out_w[:, h, :n] = glorot_uniform(branch_hidden, n, rng)
        self.head_bank = HeadBank(
            value_pieces[-4:], grad_pieces[-4:], head_sizes, rng, dropout=dropout
        )

        # Flat branch-axis metadata used by the stacked forward/backward and
        # by BDQAgent's vectorized train step.
        self.branch_sizes_flat = np.array(
            [n for agent in self.branch_sizes for n in agent], dtype=np.int64
        )
        self.branch_agent_index = np.array(
            [k for k, agent in enumerate(self.branch_sizes) for _ in agent],
            dtype=np.int64,
        )
        self.branches_per_agent = np.array(
            [len(agent) for agent in self.branch_sizes], dtype=np.int64
        )
        self.agent_branch_starts = np.concatenate(
            ([0], np.cumsum(self.branches_per_agent)[:-1])
        )
        self.out_max = int(max(int(self.branch_sizes_flat.max()), 1))
        valid = np.arange(self.out_max)[None, :] < self.branch_sizes_flat[:, None]
        # Padded (branch, column) coordinates, for -inf masking of padded Q.
        self._pad_rows, self._pad_cols = np.nonzero(~valid)
        # Float divisor of each branch's advantage sum.
        self._branch_widths = self.branch_sizes_flat.astype(np.float64)
        self._offsets_by_batch: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._dropout = ReluDropout(dropout, rng)
        # Per-layer inputs and activations recorded by the training trunk
        # forward, and the flat head-gradient offsets of its actions.
        self._trunk_inputs: List[np.ndarray] = []
        self._trunk_acts: List[np.ndarray] = []
        self._grad_at: Optional[np.ndarray] = None
        self._head_grads_buf: Optional[np.ndarray] = None
        # Cache-hot global gradient sq-norm, refreshed by each backward
        # (None until then); consumed by the optimizer's clip.
        self.last_grad_sq_sum: Optional[float] = None

    def _layout(self, flat: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Cut a flat arena-sized buffer into ``(pieces, parameter_views)``.

        ``pieces`` are the trunk layers' ``W``/``b`` and the bank's four
        stacks, contiguous and in that order; ``parameter_views`` are the
        :meth:`parameters` views into them: the trunk's pieces, then per
        head its hidden-layer column block and the valid columns of its
        output layer.
        """
        pieces, offset = [], 0
        for shape in self._pieces:
            size = math.prod(shape)
            pieces.append(flat[offset:offset + size].reshape(shape))
            offset += size
        hidden_w, hidden_b, out_w, out_b = pieces[-4:]
        views = pieces[:-4]
        for h, n in enumerate(self._head_sizes):
            views += [hidden_w[:, h], hidden_b[h], out_w[:, h, :n], out_b[h, :n]]
        return pieces, views

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def _checked(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.state_dim:
            raise ShapeError(f"expected state dim {self.state_dim}, got {states.shape[1]}")
        return states

    def _checked_actions(self, actions: np.ndarray, batch: int) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (batch, self.total_branches):
            raise ShapeError(
                f"actions shape {actions.shape} != {(batch, self.total_branches)}"
            )
        return actions

    def _trunk_forward(
        self, states: np.ndarray, train_rows: Optional[int] = None
    ) -> np.ndarray:
        """The trunk forward: each hidden layer is ``x @ W + b`` rectified
        in place. Without
        ``train_rows`` this is the eval forward and records nothing.

        With ``train_rows = r`` (the merged train-step pass), ``states``
        holds ``r`` training rows followed by eval rows: every layer's GEMM
        runs once over the union, but inverted dropout applies to rows
        ``[:r]`` only, and the per-layer inputs and activations recorded
        for :meth:`_trunk_backward` cover those rows only. Rows are
        independent through ``x @ W + b``, ReLU and row-sliced dropout, so
        each half matches its separate-call result. Dropout draws one
        ``rng.random`` of the training activation's shape per hidden layer.
        """
        if train_rows is not None:
            self._trunk_inputs = []
            self._trunk_acts = []
        x = states
        for weight, bias in self._trunk:
            pre = x @ weight
            pre += bias
            np.maximum(pre, 0.0, out=pre)
            if train_rows is not None:
                train = pre[:train_rows]
                self._dropout.drop(train)
                self._trunk_inputs.append(x[:train_rows])
                self._trunk_acts.append(train)
            x = pre
        return x

    def _trunk_backward(self, grad: np.ndarray) -> None:
        """Backward through the fused trunk, assigning every trunk
        parameter gradient; ``grad`` must be owned by the caller (it is
        reused in place). The input gradient of the first layer is never
        needed and is not computed.
        """
        for index in range(len(self._trunk) - 1, -1, -1):
            weight_grad, bias_grad = self._trunk_grads[index]
            self._dropout.backward(grad, self._trunk_acts[index])
            np.matmul(self._trunk_inputs[index].T, grad, out=weight_grad)
            np.sum(grad, axis=0, out=bias_grad)
            if index:
                grad = grad @ self._trunk[index][0].T

    def _offsets(self, batch: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(batch, B)`` offsets ``(value, advantage, gradient)`` of
        each row's branch entries, built once per batch size.

        The bank's outputs lie head-major in memory, ``(K + B, batch,
        out_max)`` (the batch-major arrays it returns are transposed
        views): row ``i`` of branch ``b`` finds its agent's value at
        ``value[i, b]`` and its advantage for action ``a`` at
        ``advantage[i, b] + a``. The backward's head-gradient buffer is
        batch-major, ``(batch, K + B, out_max)``: that advantage's
        gradient goes to ``gradient[i, b] + a``.
        """
        offsets = self._offsets_by_batch.get(batch)
        if offsets is None:
            K, width = self.num_agents, self.out_max
            rows = np.arange(batch)[:, None]
            heads = K + np.arange(self.total_branches)[None, :]
            offsets = self._offsets_by_batch[batch] = (
                (self.branch_agent_index[None, :] * batch + rows) * width,
                (heads * batch + rows) * width,
                (rows * (K + self.total_branches) + heads) * width,
            )
        return offsets

    def _q_at(self, heads: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Dueling Q-values at one action per branch, ``(batch, B)``, from
        the bank's ``(batch, K + B, out_max)`` outputs.

        ``V + A[a]``, then ``- mean(A)``, on the gathered entries only:
        the same two roundings per entry as aggregating the whole padded
        tensor and gathering from it. Padded adv columns are exactly zero
        (zero weights/bias), so the full-width sum equals the per-branch
        sum over valid actions.
        """
        value, advantage, _ = self._offsets(heads.shape[0])
        flat = heads.transpose(1, 0, 2).reshape(-1)
        q = flat[value]
        q += flat[advantage + actions]
        q -= heads[:, self.num_agents:, :].sum(axis=2) / self._branch_widths
        return q

    def forward_stacked(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Eval-mode Q-values of ``states`` at ``actions``, one per branch.

        ``actions`` is ``(batch, total_branches)`` int, flat agent-major
        like :meth:`greedy_actions_batch` returns; the result has that
        shape too. Only the shape is checked: an action outside its
        branch reads a padded or another head's column. Records nothing
        for :meth:`backward_stacked`.
        """
        states = self._checked(states)
        actions = self._checked_actions(actions, states.shape[0])
        shared = self._trunk_forward(states)
        return self._q_at(self.head_bank.forward(shared), actions)

    def advantages_stacked(self, states: np.ndarray) -> np.ndarray:
        """Eval-mode raw advantage outputs: ``(batch, total_branches, out_max)``.

        For greedy-action selection only: within a branch, the argmax over
        ``Q = V + A - mean(A)`` equals the argmax over the raw ``A``
        because ``V`` and ``mean(A)`` are constants across that branch's
        actions. Skips the value heads' share of both bank GEMMs and the
        whole dueling aggregation. Padded entries are ``-inf``; does not
        record activations for backward.
        """
        shared = self._trunk_forward(self._checked(states))
        adv = self.head_bank.forward(shared, self.num_agents)
        if self._pad_rows.size:
            adv[:, self._pad_rows, self._pad_cols] = -np.inf
        return adv

    def forward_train(
        self, states: np.ndarray, next_states: np.ndarray, actions: np.ndarray
    ) -> tuple:
        """The train step's two online-network forwards as one merged pass.

        Returns ``(predictions, next_advantages)``: training-mode Q-values
        of ``states`` at ``actions``, laid out as :meth:`forward_stacked`
        returns them, and what :meth:`advantages_stacked` returns for
        ``next_states``. Both batches are concatenated row-wise so every
        trunk/bank layer runs one GEMM over the union instead of two
        half-sized ones (BLAS throughput grows with row count at these
        shapes, and per-layer dispatch overhead halves). Rows are
        independent through every layer, dropout is drawn for (and
        applied to) the training rows only, and the activations recorded
        for :meth:`backward_stacked` cover the training rows only, as do
        the actions it differentiates at.
        """
        states = self._checked(states)
        next_states = self._checked(next_states)
        batch = states.shape[0]
        actions = self._checked_actions(actions, batch)
        combined = np.concatenate((states, next_states), axis=0)
        shared = self._trunk_forward(combined, train_rows=batch)
        heads, next_adv = self.head_bank.forward_train(shared, batch, self.num_agents)
        if self._pad_rows.size:
            next_adv[:, self._pad_rows, self._pad_cols] = -np.inf
        predictions = self._q_at(heads, actions)
        self._grad_at = self._offsets(batch)[2] + actions
        return predictions, next_adv

    def backward_stacked(self, q_grad: np.ndarray) -> None:
        """Backpropagate the ``(batch, total_branches)`` gradient of the
        loss with respect to the last :meth:`forward_train`'s predictions.

        Every other action's Q-value has zero gradient. Differentiates the
        training rows of that forward. Applies the paper's rescalings
        (``1/K`` into each advantage branch, ``1/total_branches`` into the
        trunk) and *assigns* every parameter gradient, through the fused
        bank and the trunk: one backward per optimizer step writes each
        gradient exactly once, so no ``zero_grad`` is needed. Also sets
        :attr:`last_grad_sq_sum`.
        """
        grad_at = self._grad_at
        if grad_at is None:
            raise ShapeError("backward called before forward")
        q_grad = np.asarray(q_grad, dtype=np.float64)
        if q_grad.shape != grad_at.shape:
            raise ShapeError(f"q_grad shape {q_grad.shape} != {grad_at.shape}")
        K = self.num_agents
        batch = grad_at.shape[0]
        # A branch's gradient sum over its actions is the taken action's
        # entry plus zeros: adding 0.0 gives that sum's +0.0 for a -0.0.
        grad_sums = q_grad + 0.0
        # dQ/dV is 1 for every action output of a branch: each agent's value
        # head receives the sum over its branches' per-row gradient sums.
        value_grads = np.add.reduceat(grad_sums, self.agent_branch_starts, axis=1)
        # Reused head-gradient buffer. The value-head columns beyond 0 are
        # zeroed at allocation and never written afterwards (the bank's
        # ragged masking only ever multiplies them by 0 or 1).
        buf = self._head_grads_buf
        if buf is None or buf.shape[0] != batch:
            buf = self._head_grads_buf = np.zeros(
                (batch, K + self.total_branches, self.out_max)
            )
        buf[:, :K, 0] = value_grads
        # dQ/dA through the dueling mean-subtraction, then the paper's 1/K:
        # (0 - share) / K for every action, (grad - share) / K for the one
        # taken.
        share = grad_sums / self._branch_widths
        rest = np.subtract(0.0, share)
        rest /= K
        buf[:, K:] = rest[:, :, None]
        taken = q_grad - share
        taken /= K
        buf.reshape(-1)[grad_at] = taken
        trunk_grad = self.head_bank.backward(buf)
        # Paper: rescale the combined shared-representation gradient by one
        # over the number of action dimensions. trunk_grad is owned here
        # (freshly produced by the bank), so the in-place rescale is safe.
        trunk_grad /= self.total_branches
        self._trunk_backward(trunk_grad)
        # Every gradient in the arena was just written exactly once, so
        # summing per-piece dot products here equals the arena-wide dot —
        # but reads (mostly) cache-resident memory instead of re-streaming
        # the whole gradient arena inside the optimizer's grad-norm pass.
        sq = 0.0
        for grad in (*self.head_bank.grads, *(g for pair in self._trunk_grads for g in pair)):
            flat = grad.reshape(-1)
            sq += float(np.dot(flat, flat))
        self.last_grad_sq_sum = sq

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def greedy_actions_batch(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions for a batch of states in one fused pass.

        Returns ``(batch, total_branches)`` int64 — row ``i`` holds the
        flattened (agent-major) per-branch argmax actions for ``states[i]``.
        One trunk GEMM + one bank tail GEMM serve every row, so N
        environments pay for one forward. It argmaxes the raw advantages
        rather than full Q-values — identical per branch, since ``V`` and
        ``mean(A)`` are branch constants (see :meth:`advantages_stacked`)
        — so the value heads and the dueling aggregation are skipped.
        """
        adv = self.advantages_stacked(states)       # (batch, B, out_max)
        return np.argmax(adv, axis=2)

    # ------------------------------------------------------------------ #
    # parameters & utilities
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """Every weight as a named view into the arena, in the per-head
        loop implementation's order: the checkpoint and ``save_weights``
        layout."""
        return list(self._params)

    def arena_views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-:meth:`parameters` views into ``flat`` laid out like the arena.

        ``flat`` must be a contiguous float64 buffer shaped like the value
        arena (``self._flat_param.value``), e.g. an Adam moment of
        :meth:`optim_parameters`. This is how checkpoints translate between
        the per-parameter layout they store and the one flat moment array
        the optimizer keeps.
        """
        flat = np.asarray(flat)
        base = self._flat_param.value
        if flat.shape != base.shape or flat.dtype != base.dtype or not flat.flags.c_contiguous:
            raise ShapeError(
                f"arena buffer must be contiguous {base.dtype}{base.shape}, "
                f"got {flat.dtype}{flat.shape}"
            )
        return self._layout(flat)[1]

    def optim_parameters(self) -> List[Parameter]:
        """Parameter grouping for the optimizer: the whole network, flat.

        Elementwise optimizer updates run as one large array op per update
        step instead of one small op per parameter, and grad-norm clipping
        is a single dot product. Elementwise-identical to optimising the
        :meth:`parameters` one by one: padded stack entries always have
        zero gradient and therefore take a zero update.
        """
        return [self._flat_param]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        return sum(p.nbytes for p in self.parameters())

    def stage_weights(self, stored: Mapping[str, Any], source: str) -> List[np.ndarray]:
        """Check a stored weight tree against this network; write nothing.

        ``stored`` maps ``"0000"``, ``"0001"``, ... to one array per
        :meth:`parameters` entry, as ``BDQAgent.state_dict`` writes its
        ``online`` and ``target`` trees. Returns those arrays as float64
        in parameter order, or raises
        :class:`~repro.errors.CheckpointError` (naming ``source``) when the
        keys are not exactly those or an array does not fit its parameter.
        """
        params = self.parameters()
        keys = [f"{i:04d}" for i in range(len(params))]
        if set(stored) != set(keys):
            raise CheckpointError(
                f"{source} has {len(stored)} weight arrays, the network has "
                f"{len(params)} parameters: architectures do not match"
            )
        staged = []
        for key, param in zip(keys, params):
            try:
                value = np.asarray(stored[key], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise CheckpointError(f"{source}[{key}] is not an array: {exc}") from exc
            if value.shape != param.value.shape:
                raise CheckpointError(
                    f"{source}[{key}] has shape {value.shape}, parameter "
                    f"{param.name} has {param.value.shape}"
                )
            staged.append(value)
        return staged

    def clone(self, rng: np.random.Generator) -> "BDQNetwork":
        """A structurally identical network with copied weights (its own
        initial weights are drawn from ``rng`` first)."""
        other = BDQNetwork(
            self.state_dim,
            self.branch_sizes,
            rng,
            shared_hidden=self.shared_hidden,
            branch_hidden=self.branch_hidden,
            dropout=self.dropout,
        )
        other.copy_from(self)
        return other

    def copy_from(self, other: "BDQNetwork") -> None:
        """Overwrite this network's weights with another's (target sync):
        one copy of the value arena."""
        shapes = [p.value.shape for p in self.parameters()]
        other_shapes = [p.value.shape for p in other.parameters()]
        if other_shapes != shapes:
            raise ShapeError(
                f"cannot copy a network of parameter shapes {other_shapes} "
                f"into one of {shapes}"
            )
        np.copyto(self._flat_param.value, other._flat_param.value)

    def reinitialize_output_layers(self, rng: np.random.Generator) -> None:
        """Transfer learning (Section IV): re-randomise every head's last layer.

        The shared representation and hidden layers are kept; only the
        specialised output layers are replaced so the network re-learns the
        problem-specific mapping quickly. Heads are redrawn in bank order.
        """
        out_w, out_b = self.head_bank.out_w, self.head_bank.out_b
        for h, n in enumerate(self._head_sizes):
            out_w[:, h, :n] = glorot_uniform(self.branch_hidden, n, rng)
            out_b[h, :n] = 0.0
