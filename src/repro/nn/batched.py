"""Fused multi-head layers: :class:`BatchedDense` and :class:`HeadBank`.

The BDQ topology evaluates many small, structurally identical heads over
one shared input: K state-value heads plus one advantage branch per action
dimension, each ``Dense(trunk_out, hidden) -> ReLU (-> Dropout) ->
Dense(hidden, n)``. Looping over those heads in Python issues one tiny
GEMM per head per layer — the dominant cost of ``BDQAgent.train_step``.

This module stores every head's weights in one ``(in, H, out)`` tensor
whose flattened ``(in, H*out)`` view turns the shared-input case into a
*single* large GEMM per layer (forward, weight gradient, and the
summed-over-heads input gradient are each one ``@``), with a broadcast
``np.matmul`` fallback for stacked per-head inputs. Stacked activations
are batch-major ``(batch, H, out)`` so the flattened views are contiguous.

A :class:`HeadBank` has one eval forward (:meth:`HeadBank.forward`, of
every head or a suffix of them), one training forward
(:meth:`HeadBank.forward_train`) and one backward, which *assigns* every
gradient: one backward per optimizer step writes each exactly once, so
no ``zero_grad`` pass is needed.

Compatibility contract
----------------------
:class:`BatchedDense` *adopts* existing :class:`~repro.nn.layers.Dense`
layers: their current values are copied into the stack and each layer's
``Parameter.value`` / ``Parameter.grad`` are rebound to **views** into
the stacked storage. The per-head ``Dense`` objects therefore keep
working exactly as before — ``parameters()`` ordering, shapes, the
``save_weights``/``load_weights`` ``.npz`` format, in-place target-network
sync, and per-head introspection in tests are all unchanged — while the
hot path runs fused over the stacks the views alias. ``stack_parameters``
additionally exposes the whole stack as a handful of fused
:class:`Parameter` objects so an optimizer can update all heads in a few
large elementwise passes instead of one small pass per head parameter.

Ragged output widths (advantage branches with different action counts)
are zero-padded to the widest head; padded weight columns are initialised
to zero, receive zero gradient (incoming gradients are masked), and are
invisible through the per-head parameter views, so they stay exactly zero
forever — in particular fused optimizer updates leave them untouched
(zero gradient means zero Adam/SGD step, elementwise).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Dense, Dropout, Layer, Parameter, ReLU, Sequential


def exact_inverse(scale: float) -> Optional[float]:
    """``1/scale`` when dividing by ``scale`` is *exactly* multiplying by it.

    True precisely when ``scale`` is a power of two: both the division and
    the multiplication then round the same real value, for every float64
    input (including subnormals and infinities). Returns ``None`` otherwise
    so callers keep the division.
    """
    if scale <= 0.0 or not np.isfinite(scale):
        return None
    return 1.0 / scale if math.frexp(scale)[0] == 0.5 else None


def _stack_param(name: str, value: np.ndarray, grad: np.ndarray) -> Parameter:
    """A Parameter aliasing stacked storage (value/grad are not copied)."""
    param = Parameter(name, value)
    assert param.value is value  # asarray on a float64 array is a no-op
    param.grad = grad
    return param


class BatchedDense(Layer):
    """``H`` dense heads evaluated together from ``(in, H, out)`` storage.

    Parameters
    ----------
    heads:
        The per-head :class:`Dense` layers to adopt. All heads must share
        ``in_features``; ``out_features`` may differ (ragged heads are
        zero-padded to the widest).
    """

    def __init__(self, heads: Sequence[Dense], name: str = "batched_dense"):
        heads = list(heads)
        if not heads:
            raise ConfigurationError("BatchedDense needs at least one head")
        in_features = heads[0].in_features
        for head in heads:
            if head.in_features != in_features:
                raise ConfigurationError(
                    f"all heads must share in_features; got "
                    f"{[h.in_features for h in heads]}"
                )
        self.name = name
        self.heads = heads
        self.num_heads = len(heads)
        self.in_features = in_features
        self.out_sizes = np.array([h.out_features for h in heads], dtype=np.int64)
        self.out_max = int(self.out_sizes.max())
        self.ragged = bool((self.out_sizes != self.out_max).any())

        # Stacked canonical storage (zero-padded beyond each head's width).
        # (in, H, out) layout makes the flattened (in, H*out) matrix a
        # contiguous view, so the shared-input path is one plain GEMM.
        self.weight = np.zeros((in_features, self.num_heads, self.out_max))
        self.bias = np.zeros((self.num_heads, self.out_max))
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self.weight_2d = self.weight.reshape(in_features, -1)
        self.weight_grad_2d = self.weight_grad.reshape(in_features, -1)
        for h, dense in enumerate(heads):
            n = dense.out_features
            self.weight[:, h, :n] = dense.weight.value
            self.bias[h, :n] = dense.bias.value
            # Rebind the per-head Parameters to views into the stacks so
            # save/load, target sync and per-head tests keep working.
            dense.weight.value = self.weight[:, h, :n]
            dense.weight.grad = self.weight_grad[:, h, :n]
            dense.bias.value = self.bias[h, :n]
            dense.bias.grad = self.bias_grad[h, :n]
        if self.ragged:
            valid = np.arange(self.out_max)[None, :] < self.out_sizes[:, None]
            self._valid = valid.astype(np.float64)
        else:
            self._valid = None
        self._stack_params = [
            _stack_param(f"{name}.W_stack", self.weight, self.weight_grad),
            _stack_param(f"{name}.b_stack", self.bias, self.bias_grad),
        ]
        self._input: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every head on its own input and record ``x`` for
        :meth:`backward`: ``(batch, H, in) -> (batch, H, out_max)``, one
        batched matmul.

        A shared ``(batch, in)`` input (the bank's hidden layer) is
        evaluated by :class:`HeadBank` as one GEMM over the flattened
        ``(in, H*out)`` weights, which sets ``_input`` itself.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.num_heads or x.shape[2] != self.in_features:
            raise ShapeError(
                f"{self.name} expected (batch, {self.num_heads}, "
                f"{self.in_features}), got {x.shape}"
            )
        self._input = x
        # (H, batch, in) @ (H, in, out) -> (H, batch, out), batch-major out.
        result = np.matmul(
            x.transpose(1, 0, 2), self.weight.transpose(1, 0, 2)
        ).transpose(1, 0, 2)
        result += self.bias
        return result

    def backward(
        self, grad: np.ndarray, input_grad_out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Write the parameter gradients and return the input gradient.

        The gradients are *assigned*, not added: one backward per
        optimizer step writes each exactly once, so no ``zero_grad`` pass
        is needed. ``grad`` is ``(batch, H, out_max)`` and may be modified
        in place (ragged masking); entries in a ragged head's padded
        columns are ignored (masked to zero) so padded weights never
        receive gradient. For a shared 2-D input the returned gradient is
        the ``(batch, in)`` sum over every head's contribution (the true
        gradient w.r.t. the shared input, computed as one GEMM); for a
        stacked 3-D input it is per head, ``(batch, H, in)``.

        ``input_grad_out`` (stacked 3-D inputs only) is an optional
        ``(H, batch, in)``-shaped destination for the input-gradient
        matmul — typically a transposed view of a caller-pooled
        contiguous ``(batch, H, in)`` buffer, which makes the returned
        batch-major gradient contiguous without an extra copy.
        """
        if self._input is None:
            raise ShapeError(f"{self.name}.backward called before forward")
        grad = np.asarray(grad, dtype=np.float64)
        x = self._input
        if grad.shape != (x.shape[0], self.num_heads, self.out_max):
            raise ShapeError(
                f"{self.name} expected grad shape "
                f"{(x.shape[0], self.num_heads, self.out_max)}, got {grad.shape}"
            )
        if self._valid is not None:
            np.multiply(grad, self._valid, out=grad)
        np.sum(grad, axis=0, out=self.bias_grad)
        if x.ndim == 2:
            grad_2d = grad.reshape(grad.shape[0], -1)
            np.matmul(x.T, grad_2d, out=self.weight_grad_2d)
            return grad_2d @ self.weight_2d.T
        grad_hm = grad.transpose(1, 0, 2)                    # (H, batch, out)
        np.matmul(x.transpose(1, 2, 0), grad_hm, out=self.weight_grad.transpose(1, 0, 2))
        return np.matmul(
            grad_hm, self.weight.transpose(1, 2, 0), out=input_grad_out
        ).transpose(1, 0, 2)

    def rebind_storage(self) -> None:
        """Refresh internal references after the stack Parameters moved.

        Called when the stack Parameters' ``value``/``grad`` have been
        rebound to new storage that aliases elsewhere (the network's flat
        parameter arena): re-derives the canonical arrays, the flattened
        2-D views and every per-head view from the Parameters, so all
        aliasing invariants hold against the new storage.
        """
        weight_param, bias_param = self._stack_params
        self.weight = weight_param.value
        self.bias = bias_param.value
        self.weight_grad = weight_param.grad
        self.bias_grad = bias_param.grad
        self.weight_2d = self.weight.reshape(self.in_features, -1)
        self.weight_grad_2d = self.weight_grad.reshape(self.in_features, -1)
        for h, dense in enumerate(self.heads):
            n = dense.out_features
            dense.weight.value = self.weight[:, h, :n]
            dense.weight.grad = self.weight_grad[:, h, :n]
            dense.bias.value = self.bias[h, :n]
            dense.bias.grad = self.bias_grad[h, :n]

    def parameters(self) -> List[Parameter]:
        """Per-head view parameters (save/load order and shapes)."""
        params: List[Parameter] = []
        for dense in self.heads:
            params.extend([dense.weight, dense.bias])
        return params

    def stack_parameters(self) -> List[Parameter]:
        """The fused stacks as two Parameters (for fused optimizer updates).

        Elementwise-identical to updating the per-head views one by one:
        padded entries always carry zero gradient, so any elementwise
        optimizer leaves them at zero.
        """
        return list(self._stack_params)


class HeadBank:
    """Fused evaluation of H single-hidden-layer heads over a shared input.

    Adopts a list of per-head ``Sequential`` stacks of the BDQ head shape
    (``Dense -> ReLU [-> Dropout] -> Dense``) and evaluates all of them —
    value heads and advantage branches alike — in two stacked matmuls.
    The adopted heads stay fully functional for per-head introspection;
    only the fused path is used on the hot path.
    """

    def __init__(
        self,
        heads: Sequence[Sequential],
        rng: np.random.Generator,
        dropout: float = 0.0,
        name: str = "head_bank",
    ):
        heads = list(heads)
        if not heads:
            raise ConfigurationError("HeadBank needs at least one head")
        hidden_denses: List[Dense] = []
        out_denses: List[Dense] = []
        for head in heads:
            layers = head.layers
            if (
                len(layers) not in (3, 4)
                or not isinstance(layers[0], Dense)
                or not isinstance(layers[1], ReLU)
                or not isinstance(layers[-1], Dense)
                or (len(layers) == 4 and not isinstance(layers[2], Dropout))
            ):
                raise ConfigurationError(
                    "HeadBank heads must be Dense -> ReLU [-> Dropout] -> Dense"
                )
            hidden_denses.append(layers[0])
            out_denses.append(layers[-1])
        self.name = name
        self.dropout = dropout
        # Multiply by 1/keep instead of dividing when that is bitwise
        # exact (keep a power of two, e.g. the paper's dropout 0.5);
        # float64 division is several times slower than multiplication.
        self._inv_keep = exact_inverse(1.0 - dropout) if dropout > 0.0 else None
        self._rng = rng
        self.hidden = BatchedDense(hidden_denses, name=f"{name}.hidden")
        self.out = BatchedDense(out_denses, name=f"{name}.out")
        if self.hidden.ragged or self.hidden.out_max != self.out.in_features:
            raise ConfigurationError(
                f"head hidden widths must be uniform and match the output "
                f"layer fan-in ({self.hidden.out_max} vs {self.out.in_features})"
            )
        self.num_heads = self.hidden.num_heads
        self.out_max = self.out.out_max
        # What the training forward keeps for backward: the rectified
        # hidden activation without dropout, else the combined relu&drop
        # mask.
        self._relu_act: Optional[np.ndarray] = None
        self._drop_mask: Optional[np.ndarray] = None
        # Pooled (batch, H, hidden) destination for the output layer's
        # input gradient (lazily sized on first backward).
        self._hidden_grad_buf: Optional[np.ndarray] = None

    def forward(self, shared: np.ndarray, start: int = 0) -> np.ndarray:
        """Eval forward of heads ``start..H-1``: ``(batch, in) -> (batch,
        H - start, out_max)``.

        Callers that only need a suffix of the head outputs (BDQ
        greedy-action selection needs just the advantage branches) skip
        the leading heads' share of both GEMMs. Records nothing for
        backward and leaves the bank's saved activations untouched, so it
        may be interleaved with training forwards.
        """
        if not 0 <= start < self.num_heads:
            raise ShapeError(
                f"{self.name}.forward start {start} out of range "
                f"[0, {self.num_heads})"
            )
        width = self.hidden.out_max
        h = (shared @ self.hidden.weight_2d[:, start * width:]).reshape(
            shared.shape[0], self.num_heads - start, width
        )
        h += self.hidden.bias[start:]
        np.maximum(h, 0.0, out=h)
        out = np.matmul(
            h.transpose(1, 0, 2), self.out.weight[:, start:, :].transpose(1, 0, 2)
        ).transpose(1, 0, 2)
        out += self.out.bias[start:]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop all heads through the last :meth:`forward_train`'s
        training rows, assigning every bank gradient (see
        :meth:`BatchedDense.backward`); returns the summed ``(batch, in)``
        input grad. ``grad`` may be modified in place (ragged masking).
        """
        # Route the output layer's input-grad matmul through a transposed
        # view of a pooled batch-major buffer: the result comes back as
        # contiguous (batch, H, hidden) memory, so every following
        # elementwise pass (and the hidden layer's flattening reshape)
        # runs on contiguous memory with no extra copy.
        shape = (grad.shape[0], self.num_heads, self.hidden.out_max)
        buf = self._hidden_grad_buf
        if buf is None or buf.shape != shape:
            buf = self._hidden_grad_buf = np.empty(shape)
        g = self.out.backward(grad, input_grad_out=buf.transpose(1, 0, 2))
        if not g.flags.c_contiguous:
            g = np.ascontiguousarray(g)
        if self._drop_mask is not None:
            # The stored mask is the combined relu&drop mask; one pass.
            g *= self._drop_mask
            if self._inv_keep is not None:
                g *= self._inv_keep
            else:
                g /= 1.0 - self.dropout
        elif self._relu_act is not None:
            g *= self._relu_act > 0
        else:
            raise ShapeError(f"{self.name}.backward called before forward")
        return self.hidden.backward(g)

    def forward_train(
        self, shared: np.ndarray, batch: int, tail_start: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The bank's one training forward, merged with an eval forward
        over row-concatenated input.

        Rows ``[:batch]`` of ``shared`` get every head in training mode:
        inverted dropout drawn (one ``rng.random`` of the hidden
        activation's shape) and applied mask-then-divide, the
        ``Dropout`` layer's op order, and what :meth:`backward` needs
        recorded. Rows ``[batch:]`` get the eval :meth:`forward` of heads
        ``tail_start..H-1``. Both halves share the hidden layer's GEMM
        over the union of rows — rows are independent through every op,
        so each half matches its separate-call result. Returns
        ``(train_out, tail_out)``.
        """
        rows = shared.shape[0]
        width = self.hidden.out_max
        split = tail_start * width
        # The eval-tail rows only ever read heads tail_start..H-1, so the
        # hidden GEMM is split by column block: the leading (value-head)
        # columns are computed for the training rows only. Both blocks
        # write straight into one (rows, H*width) array — a column slice
        # of a C-contiguous matrix is still a valid BLAS destination (the
        # leading dimension is just the full row stride) so both GEMMs
        # stay fast; the tail rows' value-head region is simply never
        # written or read.
        pre2d = np.empty((rows, self.num_heads * width))
        np.matmul(shared, self.hidden.weight_2d[:, split:], out=pre2d[:, split:])
        np.matmul(
            shared[:batch], self.hidden.weight_2d[:, :split], out=pre2d[:batch, :split]
        )
        pre = pre2d.reshape(rows, self.num_heads, width)
        # backward reads the hidden layer's recorded input; only the
        # training rows are ever backpropagated.
        self.hidden._input = shared[:batch]
        train = pre[:batch]
        tail = pre[batch:, tail_start:, :]
        train += self.hidden.bias
        tail += self.hidden.bias[tail_start:]
        if self.dropout > 0.0:
            # Dropout overwrites the rectified activation, so the ReLU
            # mask is captured eagerly. The mask stays boolean (an 8x
            # smaller array than a float scale).
            relu_mask = train > 0
            np.maximum(train, 0.0, out=train)
            keep = 1.0 - self.dropout
            mask = self._rng.random(train.shape) < keep
            train *= mask
            if self._inv_keep is not None:
                train *= self._inv_keep
            else:
                train /= keep
            # Backward applies relu-then-dropout masking as ONE combined
            # 0/1 mask: multiplying by the masks in either order (or at
            # once) is exact, so the combined pass is bitwise identical.
            mask &= relu_mask
            self._drop_mask = mask
        else:
            # The rectified activation itself encodes the mask (act > 0
            # exactly where pre > 0); backward derives it.
            np.maximum(train, 0.0, out=train)
            self._relu_act = train
        np.maximum(tail, 0.0, out=tail)
        train_out = self.out.forward(train)
        tail_out = np.matmul(
            tail.transpose(1, 0, 2),
            self.out.weight[:, tail_start:, :].transpose(1, 0, 2),
        ).transpose(1, 0, 2)
        tail_out += self.out.bias[tail_start:]
        return train_out, tail_out

    def rebind_storage(self) -> None:
        """Refresh both layers' views after their stack Parameters moved."""
        self.hidden.rebind_storage()
        self.out.rebind_storage()
        self._hidden_grad_buf = None

    def parameters(self) -> List[Parameter]:
        return self.hidden.parameters() + self.out.parameters()

    def stack_parameters(self) -> List[Parameter]:
        """Fused stacks of both layers (for fused optimizer updates)."""
        return self.hidden.stack_parameters() + self.out.stack_parameters()
