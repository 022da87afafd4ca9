"""Layers: Dense, ReLU, Dropout, and the Sequential container.

Each layer implements ``forward(x, training)`` and ``backward(grad)``;
``backward`` accumulates parameter gradients into ``Parameter.grad`` and
returns the gradient with respect to the layer input, so networks can be
composed by hand: the Figure-1 :class:`~repro.nn.network.MLP` is one.
The BDQ network keeps its weights in one arena instead
(:mod:`repro.rl.bdq`) and uses only :class:`Parameter` from here.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import he_uniform


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return int(self.value.size)

    @property
    def nbytes(self) -> int:
        return int(self.value.nbytes)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []


class Dense(Layer):
    """A fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init: Callable[[int, int, np.random.Generator], np.ndarray] = he_uniform,
        name: str = "dense",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Dense features must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{name}.W", weight_init(in_features, out_features, rng))
        self.bias = Parameter(f"{name}.b", np.zeros(out_features))
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense expected input shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ShapeError("Dense.backward called before forward")
        self.weight.grad += self._input.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("ReLU.backward called before forward")
        return grad * self._mask


class Dropout(Layer):
    """Inverted dropout; identity when ``training`` is False.

    The paper adds dropout with rate 0.5 after every fully connected layer
    to prevent over-fitting (Section IV, Neural Network Parameters).
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = self._rng.random(x.shape) < keep
        return x * self._mask / keep

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask / (1.0 - self.rate)


class Sequential(Layer):
    """A chain of layers applied in order."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params
