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
ragged branch widths zero-padded to ``out_max``. The per-head
``Sequential`` objects in ``value_heads``/``adv_heads`` remain live views
into the stacked storage, so parameter ordering, the ``save``/``load``
checkpoint format and per-head introspection are unchanged from the loop
implementation (kept in ``tests/oracles/bdq_reference.py`` and asserted
equivalent by ``tests/test_rl_bdq_fused.py``).

The network has one eval forward, one training forward and one backward,
each without a per-head Python loop:

- :meth:`BDQNetwork.forward_stacked`, the eval forward: padded,
  batch-major ``(batch, B, out_max)`` branch Q-values (what the train
  step's target network evaluates); it records nothing for backward.
  :meth:`BDQNetwork.greedy_actions_batch` acts through the same eval
  trunk and the bank's advantage heads only, one row for a plain agent's
  ``act`` and one per environment for a fleet's ``act_batch``;
- :meth:`BDQNetwork.forward_train`, the training forward: dropout drawn
  for the training rows, whose activations it records, merged with the
  eval advantage forward of the next states;
- :meth:`BDQNetwork.backward_stacked`: both paper rescalings and every
  parameter gradient, assigned rather than accumulated (one backward per
  optimizer step writes each gradient exactly once).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.batched import HeadBank, exact_inverse
from repro.nn.initializers import glorot_uniform
from repro.nn.layers import Dense, Dropout, Parameter, ReLU, Sequential
from repro.nn.network import copy_parameters


def _hidden_stack(
    sizes: Sequence[int],
    rng: np.random.Generator,
    dropout: float,
    name: str,
) -> Sequential:
    """Dense→ReLU(→Dropout) stack without an output layer."""
    layers = []
    for index in range(len(sizes) - 1):
        layers.append(Dense(sizes[index], sizes[index + 1], rng, name=f"{name}.{index}"))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, rng))
    return Sequential(layers)


def _head(
    in_features: int,
    hidden: int,
    out_features: int,
    rng: np.random.Generator,
    dropout: float,
    name: str,
) -> Sequential:
    """A branch/value head: one hidden layer then a linear output."""
    layers = [
        Dense(in_features, hidden, rng, name=f"{name}.hidden"),
        ReLU(),
    ]
    if dropout > 0:
        layers.append(Dropout(dropout, rng))
    layers.append(
        Dense(hidden, out_features, rng, weight_init=glorot_uniform, name=f"{name}.out")
    )
    return Sequential(layers)


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
        self.state_dim = state_dim
        self.branch_sizes = [list(agent) for agent in branch_sizes]
        self.num_agents = len(self.branch_sizes)
        self.total_branches = sum(len(agent) for agent in self.branch_sizes)
        self.shared_hidden = list(shared_hidden)
        self.branch_hidden = branch_hidden
        self.dropout = dropout

        # Per-head layers are constructed exactly as the loop implementation
        # did (same RNG draw order, same Parameter names/ordering)...
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
        # ...then adopted into one fused bank (value heads first, branches in
        # flattened agent-major order). Adoption rebinds every head Parameter
        # to a view into the bank's stacked storage.
        flat_adv = [head for agent in self.adv_heads for head in agent]
        self.head_bank = HeadBank(
            self.value_heads + flat_adv, rng, dropout=dropout, name="head_bank"
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
        self._last_batch: Optional[int] = None
        self._rng = rng
        self._trunk_denses = [
            layer for layer in self.trunk.layers if isinstance(layer, Dense)
        ]
        # Per-layer inputs, activations and masks recorded by the training
        # trunk forward.
        self._trunk_inputs: List[np.ndarray] = []
        self._trunk_acts: List[np.ndarray] = []
        self._trunk_drop_masks: List[Optional[np.ndarray]] = []
        self._head_grads_buf: Optional[np.ndarray] = None
        self._flat_param = self._build_parameter_arena()
        # Cache-hot global gradient sq-norm, refreshed by each backward
        # (None until then); consumed by the optimizer's clip.
        self.last_grad_sq_sum: Optional[float] = None

    def _build_parameter_arena(self) -> Parameter:
        """Move every trainable array into one contiguous flat buffer.

        All trunk parameters and the bank's four stacks are copied into a
        single value arena (and a matching gradient arena) and rebound to
        contiguous views of it; the per-head views are then re-derived so
        every existing aliasing invariant holds against the arena. The
        returned Parameter exposes the whole network as ONE flat value/
        gradient pair, so elementwise optimizer updates and the global
        grad-norm dot product each run as a single large array op with no
        per-parameter dispatch. Elementwise updates over the concatenation
        are identical to updating the pieces separately.
        """
        params = list(self.trunk.parameters()) + self.head_bank.stack_parameters()
        total = sum(p.value.size for p in params)
        values = np.empty(total)
        grads = np.zeros(total)
        offset = 0
        for param in params:
            size = param.value.size
            value_view = values[offset:offset + size].reshape(param.value.shape)
            grad_view = grads[offset:offset + size].reshape(param.value.shape)
            value_view[...] = param.value
            grad_view[...] = param.grad
            param.value = value_view
            param.grad = grad_view
            offset += size
        self.head_bank.rebind_storage()
        flat = Parameter("bdq.flat", values)
        flat.grad = grads
        return flat

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def _checked(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.state_dim:
            raise ShapeError(f"expected state dim {self.state_dim}, got {states.shape[1]}")
        return states

    def _trunk_forward(
        self, states: np.ndarray, train_rows: Optional[int] = None
    ) -> np.ndarray:
        """Allocation-lean trunk forward (same math as ``trunk.forward``).

        Each hidden layer is ``x @ W + b`` rectified in place. Without
        ``train_rows`` this is the eval forward and records nothing.

        With ``train_rows = r`` (the merged train-step pass), ``states``
        holds ``r`` training rows followed by eval rows: every layer's GEMM
        runs once over the union, but inverted dropout (one 0-or-1/keep
        scale) applies to rows ``[:r]`` only, and the per-layer inputs and
        masks recorded for :meth:`_trunk_backward` cover those rows only.
        Rows are independent through ``x @ W + b``, ReLU and row-sliced
        dropout, so each half matches its separate-call result. The
        dropout mask draw order matches the trunk's ``Dropout`` layers
        (one ``rng.random`` of the training activation shape per hidden
        layer).
        """
        if train_rows is not None:
            self._trunk_inputs = []
            self._trunk_acts = []
            self._trunk_drop_masks = []
        keep = 1.0 - self.dropout
        inv_keep = exact_inverse(keep) if self.dropout > 0.0 else None
        x = states
        for dense in self._trunk_denses:
            pre = x @ dense.weight.value
            pre += dense.bias.value
            if train_rows is None or self.dropout == 0.0:
                np.maximum(pre, 0.0, out=pre)
                drop_mask = None
            else:
                # Dropout overwrites the activation, so capture the ReLU
                # mask eagerly. The dropout mask stays boolean and is
                # applied mask-then-divide, the Dropout layer's op order
                # (bitwise match).
                train = pre[:train_rows]
                relu_mask = train > 0
                np.maximum(pre, 0.0, out=pre)
                drop_mask = self._rng.random(train.shape) < keep
                train *= drop_mask
                if inv_keep is not None:
                    # keep is a power of two: multiplying by 1/keep is
                    # bitwise identical to the division, and faster.
                    train *= inv_keep
                else:
                    train /= keep
                # Store the combined relu&drop mask: backward then masks
                # in a single 0/1 pass (exact — 0/1 masking commutes).
                drop_mask &= relu_mask
            if train_rows is not None:
                # Without dropout, backward derives the ReLU mask from the
                # rectified activation (act > 0 exactly where pre > 0).
                self._trunk_inputs.append(x[:train_rows])
                self._trunk_acts.append(pre[:train_rows])
                self._trunk_drop_masks.append(drop_mask)
            x = pre
        return x

    def _trunk_backward(self, grad: np.ndarray) -> None:
        """Backward through the fused trunk, assigning every trunk
        parameter gradient; ``grad`` must be owned by the caller (it is
        reused in place). The input gradient of the first layer is never
        needed and is not computed.
        """
        keep = 1.0 - self.dropout
        inv_keep = exact_inverse(keep) if self.dropout > 0.0 else None
        for index in range(len(self._trunk_denses) - 1, -1, -1):
            dense = self._trunk_denses[index]
            drop_mask = self._trunk_drop_masks[index]
            if drop_mask is not None:
                # Combined relu&drop mask from the forward pass: one pass.
                grad *= drop_mask
                if inv_keep is not None:
                    grad *= inv_keep
                else:
                    grad /= keep
            else:
                grad *= self._trunk_acts[index] > 0
            np.matmul(self._trunk_inputs[index].T, grad, out=dense.weight.grad)
            np.sum(grad, axis=0, out=dense.bias.grad)
            if index:
                grad = grad @ dense.weight.value.T

    def _q_values(self, heads: np.ndarray) -> np.ndarray:
        """Dueling aggregation of the bank's ``(batch, K + B, out_max)``
        outputs into ``(batch, B, out_max)`` branch Q-values, padded
        columns left finite and meaningless."""
        K = self.num_agents
        value = heads[:, :K, 0]                     # (batch, K)
        adv = heads[:, K:, :]                       # (batch, B, out_max)
        # Padded adv columns are exactly zero (zero weights/bias), so the
        # full-width sum equals the per-branch sum over valid actions.
        adv_mean = adv.sum(axis=2) / self.branch_sizes_flat
        q = value[:, self.branch_agent_index][:, :, None] + adv
        q -= adv_mean[:, :, None]
        return q

    def forward_stacked(self, states: np.ndarray) -> np.ndarray:
        """Eval-mode Q-values for every branch as one padded tensor.

        Returns batch-major ``(batch, total_branches, out_max)``; branch
        ``b``'s valid entries are ``[..., b, :branch_sizes_flat[b]]``. The
        padded entries hold meaningless finite values, so callers gather
        the result at valid action indices only (the train step's target
        network does). Records nothing for :meth:`backward_stacked`.
        """
        shared = self._trunk_forward(self._checked(states))
        return self._q_values(self.head_bank.forward(shared))

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
        self, states: np.ndarray, next_states: np.ndarray
    ) -> tuple:
        """The train step's two online-network forwards as one merged pass.

        Returns ``(predictions, next_advantages)``: training-mode Q-values
        of ``states`` as :meth:`forward_stacked` lays them out (padding
        unmasked), and what :meth:`advantages_stacked` returns for
        ``next_states``. Both batches are concatenated row-wise so every
        trunk/bank layer runs one GEMM over the union instead of two
        half-sized ones (BLAS throughput grows with row count at these
        shapes, and per-layer dispatch overhead halves). Rows are
        independent through every layer, dropout is drawn for (and
        applied to) the training rows only, and the activations recorded
        for :meth:`backward_stacked` cover the training rows only.
        """
        states = self._checked(states)
        next_states = self._checked(next_states)
        batch = states.shape[0]
        combined = np.concatenate((states, next_states), axis=0)
        shared = self._trunk_forward(combined, train_rows=batch)
        self._last_batch = batch
        heads, next_adv = self.head_bank.forward_train(shared, batch, self.num_agents)
        if self._pad_rows.size:
            next_adv[:, self._pad_rows, self._pad_cols] = -np.inf
        return self._q_values(heads), next_adv

    def backward_stacked(self, q_grad_stack: np.ndarray) -> None:
        """Backpropagate a padded ``(batch, total_branches, out_max)`` gradient.

        Padded columns must be zero. Differentiates the training rows of
        the last :meth:`forward_train`. Applies the paper's rescalings
        (``1/K`` into each advantage branch, ``1/total_branches`` into the
        trunk) and *assigns* every parameter gradient, through the fused
        bank and the trunk: one backward per optimizer step writes each
        gradient exactly once, so no ``zero_grad`` is needed. Also sets
        :attr:`last_grad_sq_sum`.
        """
        if self._last_batch is None:
            raise ShapeError("backward called before forward")
        q_grad_stack = np.asarray(q_grad_stack, dtype=np.float64)
        expected = (self._last_batch, self.total_branches, self.out_max)
        if q_grad_stack.shape != expected:
            raise ShapeError(
                f"q_grad_stack shape {q_grad_stack.shape} != {expected}"
            )
        K = self.num_agents
        # dQ/dV is 1 for every action output of a branch: each agent's value
        # head receives the sum over its branches' per-row gradient sums.
        grad_sums = q_grad_stack.sum(axis=2)                       # (batch, B)
        value_grads = np.add.reduceat(grad_sums, self.agent_branch_starts, axis=1)
        # Reused head-gradient buffer. The value-head columns beyond 0 are
        # zeroed at allocation and never written afterwards (the bank's
        # ragged masking only ever multiplies them by 0 or 1).
        buf = self._head_grads_buf
        if buf is None or buf.shape[0] != self._last_batch:
            buf = self._head_grads_buf = np.zeros(
                (self._last_batch, K + self.total_branches, self.out_max)
            )
        buf[:, :K, 0] = value_grads
        # dQ/dA through the dueling mean-subtraction, then the paper's 1/K.
        adv_grads = buf[:, K:]
        np.subtract(
            q_grad_stack,
            (grad_sums / self.branch_sizes_flat)[:, :, None],
            out=adv_grads,
        )
        adv_grads /= K
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
        bank = self.head_bank
        sq = 0.0
        for grad in (
            bank.hidden.weight_grad_2d,
            bank.hidden.bias_grad,
            bank.out.weight_grad_2d,
            bank.out.bias_grad,
        ):
            flat = grad.reshape(-1)
            sq += float(np.dot(flat, flat))
        for dense in self._trunk_denses:
            for grad in (dense.weight.grad, dense.bias.grad):
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
        params = list(self.trunk.parameters())
        for head in self.value_heads:
            params.extend(head.parameters())
        for agent in self.adv_heads:
            for head in agent:
                params.extend(head.parameters())
        return params

    def arena_views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-:meth:`parameters` views into ``flat`` laid out like the arena.

        ``flat`` must be a contiguous float64 buffer shaped like the value
        arena (``self._flat_param.value``). Each returned view addresses the
        same offset/strides inside ``flat`` that the corresponding parameter
        occupies inside the arena, which is what lets checkpoints translate
        between the canonical per-parameter layout and the fused flat layout
        (e.g. Adam moments stored per parameter, restored into one flat
        moment array) without any index bookkeeping.
        """
        flat = np.asarray(flat)
        base = self._flat_param.value
        if flat.shape != base.shape or flat.dtype != base.dtype or not flat.flags.c_contiguous:
            raise ShapeError(
                f"arena buffer must be contiguous {base.dtype}{base.shape}, "
                f"got {flat.dtype}{flat.shape}"
            )
        base_addr = base.__array_interface__["data"][0]
        views = []
        for param in self.parameters():
            offset = param.value.__array_interface__["data"][0] - base_addr
            views.append(
                np.ndarray(
                    param.value.shape,
                    dtype=base.dtype,
                    buffer=flat,
                    offset=offset,
                    strides=param.value.strides,
                )
            )
        return views

    def optim_parameters(self) -> List[Parameter]:
        """Parameter grouping for the optimizer: the whole network, flat.

        Every trainable array lives in one contiguous arena (see
        :meth:`_build_parameter_arena`), exposed here as a single flat
        Parameter: elementwise optimizer updates run as one large array op
        per update step instead of one small op per layer parameter, and
        grad-norm clipping is a single dot product. Elementwise-identical
        to optimising the per-head views individually: padded stack
        entries always have zero gradient and therefore take a zero
        update, and the views alias the arena.
        """
        return [self._flat_param]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        return sum(p.nbytes for p in self.parameters())

    def clone(self, rng: np.random.Generator) -> "BDQNetwork":
        """A structurally identical network with copied weights."""
        other = BDQNetwork(
            self.state_dim,
            self.branch_sizes,
            rng,
            shared_hidden=self.shared_hidden,
            branch_hidden=self.branch_hidden,
            dropout=self.dropout,
        )
        copy_parameters(self.parameters(), other.parameters())
        return other

    def copy_from(self, other: "BDQNetwork") -> None:
        """Overwrite this network's weights with another's (target sync)."""
        copy_parameters(other.parameters(), self.parameters())

    def reinitialize_output_layers(self, rng: np.random.Generator) -> None:
        """Transfer learning (Section IV): re-randomise every head's last layer.

        The shared representation and hidden layers are kept; only the
        specialised output layers are replaced so the network re-learns the
        problem-specific mapping quickly. Writes are in place so the bank's
        stacked storage and the per-head views stay aliased.
        """
        heads = list(self.value_heads)
        for agent in self.adv_heads:
            heads.extend(agent)
        for head in heads:
            out = head.layers[-1]
            assert isinstance(out, Dense)
            out.weight.value[...] = glorot_uniform(out.in_features, out.out_features, rng)
            out.bias.value[...] = 0.0
