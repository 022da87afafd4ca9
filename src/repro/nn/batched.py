"""The fused BDQ head bank: :class:`HeadBank`, and the ReLU-dropout pair
its hidden layer shares with the trunk.

The BDQ topology evaluates many small, structurally identical heads over
one shared input: K state-value heads plus one advantage branch per action
dimension, each a hidden layer of ``hidden`` rectified units (with
dropout) and a linear output layer of ``n`` units. Looping over those
heads in Python issues one tiny GEMM per head per layer, the dominant cost
of ``BDQAgent.train_step``. A :class:`HeadBank` evaluates all of them in
two stacked layers instead:

- the hidden layer's weights are one ``(in, H, hidden)`` stack, whose
  flattened ``(in, H*hidden)`` view turns the shared input into a
  *single* GEMM (forward, weight gradient, and the summed-over-heads input
  gradient are each one ``@``);
- the output layer's weights are one ``(hidden, H, out_max)`` stack, each
  head reading its own hidden activation, so it runs as one batched
  ``np.matmul`` over the head axis.

Activations are batch-major ``(batch, H, width)`` so the flattened views
are contiguous. The bank owns no storage: it is handed its four stacks and
their four gradients as views (``BDQNetwork`` cuts them out of its flat
parameter arena). It has one eval forward (:meth:`HeadBank.forward`, of
every head or a suffix of them), one training forward
(:meth:`HeadBank.forward_train`) and one backward, which *assigns* every
gradient: one backward per optimizer step writes each exactly once, so no
``zero_grad`` pass is needed.

Ragged output widths (advantage branches with different action counts)
are zero-padded to the widest head. The padded weight columns start at
zero and receive zero gradient (the backward masks them), so they stay
exactly zero through any elementwise optimizer update.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError


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


class ReluDropout:
    """Inverted dropout after a ReLU, and the backward through both.

    The fused training layers (the BDQ trunk's hidden layers and a
    :class:`HeadBank`'s hidden layer) rectify in place, then
    :meth:`drop` the training rows: one ``rng.random`` draw of their
    shape, mask then divide by ``keep``, the ``Dropout`` layer's op
    order. Nothing else is kept for backward: the recorded activation is
    positive exactly where the unit was rectified positive and kept
    (``act > 0`` equals ``relu & kept`` for every input: a dropped unit
    is 0, and NaN, or a dropped infinity, fails the compare), so
    :meth:`backward` reads its 0/1 mask back from it.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        self.rate = rate
        self.keep = 1.0 - rate
        # Multiply by 1/keep instead of dividing when that is bitwise
        # exact (keep a power of two, e.g. the paper's dropout 0.5);
        # float64 division is several times slower than multiplication.
        self.inv_keep = exact_inverse(self.keep) if rate > 0.0 else None
        self._rng = rng

    def _scale(self, x: np.ndarray) -> None:
        if self.inv_keep is not None:
            x *= self.inv_keep
        else:
            x /= self.keep

    def drop(self, act: np.ndarray) -> None:
        """Drop units of the rectified training activation ``act`` in place."""
        if self.rate > 0.0:
            act *= self._rng.random(act.shape) < self.keep
            self._scale(act)

    def backward(self, grad: np.ndarray, act: np.ndarray) -> None:
        """Mask and scale ``grad`` in place, ``act`` being what :meth:`drop` left."""
        grad *= act > 0
        if self.rate > 0.0:
            self._scale(grad)


class HeadBank:
    """Fused evaluation of H single-hidden-layer heads over a shared input.

    Parameters
    ----------
    stacks:
        The four weight stacks, as C-contiguous views the caller owns
        (the bank's flattened views must alias them): the hidden
        layer's ``(in, H, hidden)`` weights and ``(H, hidden)`` biases,
        and the output layer's ``(hidden, H, out_max)`` weights and
        ``(H, out_max)`` biases. Padded output columns must be zero.
    grads:
        Four arrays of the same shapes that the backward writes.
    out_sizes:
        Each head's output width (``<= out_max``).
    """

    def __init__(
        self,
        stacks: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        out_sizes: Sequence[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        name: str = "head_bank",
    ):
        self.name = name
        self.hidden_w, self.hidden_b, self.out_w, self.out_b = stacks
        self.grads = tuple(grads)
        _, self.hidden_b_grad, self.out_w_grad, self.out_b_grad = self.grads
        in_features, self.num_heads, self.width = self.hidden_w.shape
        self.out_max = self.out_w.shape[2]
        # Flattened (in, H*hidden) views: the shared-input GEMM's operands.
        self.hidden_w_2d = self.hidden_w.reshape(in_features, -1)
        self.hidden_w_grad_2d = self.grads[0].reshape(in_features, -1)
        sizes = np.asarray(out_sizes, dtype=np.int64)
        if (sizes != self.out_max).any():
            valid = np.arange(self.out_max)[None, :] < sizes[:, None]
            self._valid: Optional[np.ndarray] = valid.astype(np.float64)
        else:
            self._valid = None
        self._dropout = ReluDropout(dropout, rng)
        # The training rows' shared input and hidden activation (after ReLU
        # and dropout): the backward's two layer inputs. It reads the
        # dropout mask back from the activation.
        self._input: Optional[np.ndarray] = None
        self._act: Optional[np.ndarray] = None
        # Pooled (batch, H, hidden) destination for the output layer's
        # input gradient (lazily sized on first backward).
        self._hidden_grad_buf: Optional[np.ndarray] = None

    def _out_layer(self, act: np.ndarray, start: int = 0) -> np.ndarray:
        """The output layer of heads ``start..H-1`` on their own hidden
        activations: ``(batch, H - start, hidden) -> (batch, H - start,
        out_max)``, one batched matmul over the head axis."""
        # (H, batch, hidden) @ (H, hidden, out) -> (H, batch, out), batch-major out.
        out = np.matmul(
            act.transpose(1, 0, 2), self.out_w[:, start:, :].transpose(1, 0, 2)
        ).transpose(1, 0, 2)
        out += self.out_b[start:]
        return out

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
        h = (shared @ self.hidden_w_2d[:, start * self.width:]).reshape(
            shared.shape[0], self.num_heads - start, self.width
        )
        h += self.hidden_b[start:]
        np.maximum(h, 0.0, out=h)
        return self._out_layer(h, start)

    def forward_train(
        self, shared: np.ndarray, batch: int, tail_start: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The bank's one training forward, merged with an eval forward
        over row-concatenated input.

        Rows ``[:batch]`` of ``shared`` get every head in training mode:
        inverted dropout drawn (one ``rng.random`` of the hidden
        activation's shape) and applied mask-then-divide, and what
        :meth:`backward` needs recorded. Rows ``[batch:]`` get the eval
        :meth:`forward` of heads ``tail_start..H-1``. Both halves share
        the hidden layer's GEMM over the union of rows — rows are
        independent through every op, so each half matches its
        separate-call result. Returns ``(train_out, tail_out)``.
        """
        rows = shared.shape[0]
        width = self.width
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
        np.matmul(shared, self.hidden_w_2d[:, split:], out=pre2d[:, split:])
        np.matmul(
            shared[:batch], self.hidden_w_2d[:, :split], out=pre2d[:batch, :split]
        )
        pre = pre2d.reshape(rows, self.num_heads, width)
        # Only the training rows are ever backpropagated.
        self._input = shared[:batch]
        train = pre[:batch]
        tail = pre[batch:, tail_start:, :]
        train += self.hidden_b
        tail += self.hidden_b[tail_start:]
        np.maximum(train, 0.0, out=train)
        self._dropout.drop(train)
        self._act = train
        np.maximum(tail, 0.0, out=tail)
        return self._out_layer(train), self._out_layer(tail, tail_start)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop all heads through the last :meth:`forward_train`'s
        training rows, assigning every bank gradient; returns the summed
        ``(batch, in)`` input grad.

        ``grad`` is ``(batch, H, out_max)`` and may be modified in place:
        a ragged head's padded columns are masked to zero, so padded
        weights never receive gradient.
        """
        act = self._act
        if act is None:
            raise ShapeError(f"{self.name}.backward called before forward")
        batch = act.shape[0]
        if grad.shape != (batch, self.num_heads, self.out_max):
            raise ShapeError(
                f"{self.name} expected grad shape "
                f"{(batch, self.num_heads, self.out_max)}, got {grad.shape}"
            )
        # The output layer: each head on its own hidden activation.
        if self._valid is not None:
            np.multiply(grad, self._valid, out=grad)
        np.sum(grad, axis=0, out=self.out_b_grad)
        grad_hm = grad.transpose(1, 0, 2)                    # (H, batch, out)
        np.matmul(act.transpose(1, 2, 0), grad_hm, out=self.out_w_grad.transpose(1, 0, 2))
        # The input-grad matmul writes through a transposed view of a
        # pooled batch-major buffer: the result is contiguous (batch, H,
        # hidden) memory, so every following elementwise pass (and the
        # hidden layer's flattening reshape) runs on contiguous memory
        # with no extra copy.
        shape = (batch, self.num_heads, self.width)
        g = self._hidden_grad_buf
        if g is None or g.shape != shape:
            g = self._hidden_grad_buf = np.empty(shape)
        np.matmul(grad_hm, self.out_w.transpose(1, 2, 0), out=g.transpose(1, 0, 2))
        self._dropout.backward(g, act)
        # The hidden layer: every head on the shared input, one GEMM each
        # for the weight gradient and the summed input gradient.
        np.sum(g, axis=0, out=self.hidden_b_grad)
        g_2d = g.reshape(batch, -1)
        np.matmul(self._input.T, g_2d, out=self.hidden_w_grad_2d)
        return g_2d @ self.hidden_w_2d.T
