"""Minimal numpy neural-network framework used by Twig's learning agent.

The paper trains its branching dueling Q-network with TensorFlow; no deep
learning framework is available offline, so this subpackage provides the
small set of pieces the models need: weight initialisers, the BDQ's fused
:class:`HeadBank` (``repro.rl.bdq`` cuts its stacks out of one parameter
arena), composable ``Dense``/``ReLU``/``Dropout`` layers and the
:class:`MLP` built from them (the Figure-1 PMC predictor), MSE/Huber
losses, SGD/Adam optimisers, and weight (de)serialisation.

Example
-------
>>> import numpy as np
>>> from repro.nn import MLP, Adam, mse_loss
>>> rng = np.random.default_rng(0)
>>> net = MLP([4, 16, 1], rng=rng)
>>> opt = Adam(net.parameters(), learning_rate=1e-2)
>>> x = rng.normal(size=(32, 4))
>>> y = x.sum(axis=1, keepdims=True)
>>> for _ in range(200):
...     pred = net.forward(x, training=True)
...     loss, grad = mse_loss(pred, y)
...     net.backward(grad)
...     opt.step()
...     opt.zero_grad()
"""

from repro.nn.batched import HeadBank
from repro.nn.initializers import glorot_uniform, he_uniform
from repro.nn.layers import Dense, Dropout, Layer, Parameter, ReLU, Sequential
from repro.nn.losses import huber_loss, mse_loss
from repro.nn.network import MLP, load_weights, save_weights
from repro.nn.optim import SGD, Adam, Optimizer

__all__ = [
    "Adam",
    "Dense",
    "Dropout",
    "HeadBank",
    "Layer",
    "MLP",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "glorot_uniform",
    "he_uniform",
    "huber_loss",
    "load_weights",
    "mse_loss",
    "save_weights",
]
