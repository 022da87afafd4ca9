"""Weight initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so that
every run of the library is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def _check_fan(fan_in: int, fan_out: int) -> None:
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigurationError(
            f"fan_in and fan_out must be positive, got ({fan_in}, {fan_out})"
        )


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation, suited to linear output layers."""
    _check_fan(fan_in, fan_out)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He uniform initialisation, suited to ReLU hidden layers."""
    _check_fan(fan_in, fan_out)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))

