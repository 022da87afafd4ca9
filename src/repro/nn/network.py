"""MLP container plus weight (de)serialisation helpers.

``MLP`` builds the standard hidden stack used throughout the paper:
Dense → ReLU → Dropout repeated, with a linear output layer. Weight
save/load uses ``.npz`` files so trained Twig agents can be checkpointed
and transferred between experiments (the transfer-learning experiments in
Figures 8 and 9 rely on this).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.ckpt.checkpoint import resolve_checkpoint_path
from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import glorot_uniform
from repro.nn.layers import Dense, Dropout, Layer, Parameter, ReLU, Sequential


class MLP(Sequential):
    """Multi-layer perceptron: hidden ReLU (+dropout) layers, linear output.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``[11, 512, 256, 18]``.
    rng:
        Random generator used for weight init and dropout masks.
    dropout:
        Dropout rate applied after each hidden activation (0 disables).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        name: str = "mlp",
    ):
        if len(sizes) < 2:
            raise ConfigurationError(f"MLP needs at least input and output sizes, got {sizes}")
        layers: List[Layer] = []
        for index in range(len(sizes) - 2):
            layers.append(
                Dense(sizes[index], sizes[index + 1], rng, name=f"{name}.hidden{index}")
            )
            layers.append(ReLU())
            if dropout > 0:
                layers.append(Dropout(dropout, rng))
        layers.append(
            Dense(sizes[-2], sizes[-1], rng, weight_init=glorot_uniform, name=f"{name}.out")
        )
        super().__init__(layers)
        self.sizes = list(sizes)

    @property
    def output_layer(self) -> Dense:
        """The final linear layer (reinitialised by transfer learning)."""
        last = self.layers[-1]
        assert isinstance(last, Dense)
        return last

    def reinitialize_output(self, rng: np.random.Generator) -> None:
        """Reinitialise the output layer with fresh random weights.

        This is the paper's transfer-learning operation (Section IV): keep
        the learned representation, discard the specialised last layer.
        """
        out = self.output_layer
        out.weight.value = glorot_uniform(out.in_features, out.out_features, rng)
        out.bias.value = np.zeros(out.out_features)


def parameter_bytes(parameters: Sequence[Parameter]) -> int:
    """Total storage of a parameter list, in bytes."""
    return sum(p.nbytes for p in parameters)


def copy_parameters(src: Sequence[Parameter], dst: Sequence[Parameter]) -> None:
    """Copy values from ``src`` into ``dst`` (used for target-network sync)."""
    if len(src) != len(dst):
        raise ShapeError(f"parameter count mismatch: {len(src)} vs {len(dst)}")
    for s, d in zip(src, dst):
        if s.value.shape != d.value.shape:
            raise ShapeError(f"shape mismatch for {s.name}: {s.value.shape} vs {d.value.shape}")
        d.value[...] = s.value


def save_weights(parameters: Sequence[Parameter], path: Union[str, Path]) -> None:
    """Save a parameter list to an ``.npz`` file keyed by position and name.

    Parameters may be views into a flat parameter arena (a
    :class:`~repro.rl.bdq.BDQNetwork`'s per-head weights are column blocks
    of its stacks): ``np.savez`` materialises each view, so the file holds
    one array per parameter, the format the per-head reference network
    writes too, and either loads the other's files.
    """
    arrays = {f"{i:04d}:{p.name}": p.value for i, p in enumerate(parameters)}
    # resolve_checkpoint_path applies np.savez's ".npz"-appending rule up
    # front so save and load agree on the on-disk name: np.savez("ckpt")
    # writes ckpt.npz, and without the shared normalisation np.load("ckpt")
    # would then fail to find it.
    np.savez(resolve_checkpoint_path(path), **arrays)


def load_weights(parameters: Sequence[Parameter], path: Union[str, Path]) -> None:
    """Load a parameter list saved with :func:`save_weights`."""
    with np.load(resolve_checkpoint_path(path)) as data:
        keys = sorted(data.files)
        if len(keys) != len(parameters):
            raise ShapeError(
                f"checkpoint has {len(keys)} arrays but model has {len(parameters)} parameters"
            )
        for key, param in zip(keys, parameters):
            value = data[key]
            if value.shape != param.value.shape:
                raise ShapeError(
                    f"checkpoint shape {value.shape} != parameter shape {param.value.shape}"
                )
            param.value[...] = value


def numerical_gradient(
    func,
    param: Parameter,
    epsilon: float = 1e-6,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Central-difference gradient of ``func()`` w.r.t. ``param.value``.

    Used only in tests to validate analytic backpropagation. When ``sample``
    is given, only that many randomly chosen entries are perturbed and the
    rest of the returned array is NaN.
    """
    value = param.value
    grad = np.full(value.shape, np.nan)
    indices = np.arange(value.size)
    if sample is not None and sample < value.size:
        if rng is None:
            rng = np.random.default_rng(0)
        indices = rng.choice(value.size, size=sample, replace=False)
    for index in indices:
        # Index through the original array, not a flattened alias: for
        # non-contiguous parameters (a BDQ head's column block of a
        # stack) reshape(-1) would silently copy and the perturbation
        # would never reach the network.
        idx = np.unravel_index(index, value.shape)
        original = value[idx]
        value[idx] = original + epsilon
        plus = func()
        value[idx] = original - epsilon
        minus = func()
        value[idx] = original
        grad[idx] = (plus - minus) / (2.0 * epsilon)
    return grad
