"""Minimal feedforward Q-network with hand-rolled backpropagation.

Architecture: input -> ReLU(24) -> ReLU(24) -> Linear(|actions|).  Plain
stochastic gradient descent; no framework.  Everything is numpy so batches
go through as matrices.

A network may also be a stack of m independent networks of one shape: each
weight then has shape (m, out, in) and each bias (m, out), and every pass
runs all m at once with stacked ``matmul``.  Slice i of a stacked pass gives
the same bits as the pass of network i alone (``tests/test_nn.py`` pins
this), so stacking the two base stations' networks changes no output.  The
training step takes stacks only; one network trains as a stack of one.

Each network or stack keeps its six arrays as views into one contiguous
float64 buffer, ``flat``, in layer order (w1, b1, w2, b2, w3, b3).  The
training step writes every gradient into a second buffer of the same
layout and takes its SGD step on the two buffers whole; a target network
has its own buffer, so a target sync is one copy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

HIDDEN = 24


class MlpParams:
    """Weights/biases of the three affine layers (two ReLU, one linear), one
    network or a stack of them along a leading axis.

    ``weights`` and ``biases`` are views into ``flat``; the constructor
    copies the arrays it is given into a new buffer.
    """

    def __init__(self, weights, biases) -> None:
        if len(weights) != 3 or len(biases) != 3:
            raise ValueError("expected exactly three layers")
        for w, b in zip(weights, biases):
            if w.shape[:-1] != b.shape:
                raise ValueError(f"weight/bias mismatch: {w.shape} vs {b.shape}")
        for w_out, w_in in zip(weights[1:], weights[:-1]):
            if w_out.shape[-1] != w_in.shape[-2]:
                raise ValueError("consecutive layer shapes do not chain")
        arrays = [a for layer in zip(weights, biases) for a in layer]
        flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
        self._bind(flat, [a.shape for a in arrays])

    def _bind(self, flat: np.ndarray, shapes) -> None:
        """View ``flat`` as the six arrays of ``shapes``, in layer order."""
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[start:start + size].reshape(shape))
            start += size
        self.flat, self._shapes = flat, list(shapes)
        self.weights, self.biases = views[0::2], views[1::2]
        # per layer, the views (w transposed, b as a row) the forward pass adds with
        self._affine = [
            (w.swapaxes(-1, -2), b[..., None, :])
            for w, b in zip(self.weights, self.biases)
        ]
        self._grad = None

    @classmethod
    def _on(cls, flat: np.ndarray, shapes) -> "MlpParams":
        """Parameters viewing ``flat`` itself, laid out as ``shapes``."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[-1],) + tuple(w.shape[-2] for w in self.weights)

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[-2]

    @property
    def stacked(self) -> bool:
        return self.weights[0].ndim == 3

    def copy(self) -> "MlpParams":
        return MlpParams._on(self.flat.copy(), self._shapes)

    def player(self, i: int) -> "MlpParams":
        """A copy of network i of a stack."""
        return MlpParams([w[i] for w in self.weights], [b[i] for b in self.biases])

    @classmethod
    def stack(cls, nets) -> "MlpParams":
        """One stacked copy of single networks of equal shape."""
        nets = list(nets)
        return cls(
            weights=[np.stack(ws) for ws in zip(*(p.weights for p in nets))],
            biases=[np.stack(bs) for bs in zip(*(p.biases for p in nets))],
        )

    def _as_stack(self) -> "MlpParams":
        """The network itself if stacked, else a stack of one sharing its buffer."""
        if self.stacked:
            return self
        return MlpParams._on(self.flat, [(1,) + s for s in self._shapes])

    def _gradient(self) -> "MlpParams":
        """The gradient buffer kept for these parameters, laid out like them."""
        if self._grad is None:
            self._grad = MlpParams._on(np.empty_like(self.flat), self._shapes)
        return self._grad


def init_mlp(n_inputs: int, n_outputs: int, rng: np.random.Generator) -> MlpParams:
    """He-initialized network with the fixed two-hidden-layer shape."""
    sizes = (n_inputs, HIDDEN, HIDDEN, n_outputs)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Both hidden layers' activations and the Q-values, for stacked params
    and a (m, B, n_inputs) batch per network.

    A hidden unit's ReLU passes its gradient exactly where its activation is
    positive, so the activations stand in for the pre-activations.
    """
    (w1t, b1), (w2t, b2), (w3t, b3) = params._affine
    h1 = x @ w1t
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ w2t
    h2 += b2
    np.maximum(h2, 0.0, out=h2)
    q = h2 @ w3t
    q += b3
    return h1, h2, q


def mlp_forward(params: MlpParams, obs) -> np.ndarray:
    """Q-value estimates for one observation per network: (n_inputs,) for a
    single network, (m, n_inputs) for a stack of m."""
    x = np.asarray(obs, dtype=float)
    w1 = params.weights[0]
    shape = w1.shape[:-2] + w1.shape[-1:]
    if x.shape != shape:
        raise ValueError(f"observation must have shape {shape}, got {x.shape}")
    q = _forward_cached(params._as_stack(), x.reshape(-1, 1, shape[-1]))[-1]
    return q.reshape(shape[:-1] + q.shape[-1:])


@lru_cache(maxsize=1)
def _row_starts(m: int, n: int, n_outputs: int) -> np.ndarray:
    """Flat index of each row's first Q-value in an (m, n, n_outputs) array.

    One shape is kept: the training step's batch length settles at its full
    size, and a cache per warm-up length would grow with the batch squared.
    """
    starts = np.arange(0, m * n * n_outputs, n_outputs).reshape(m, n)
    starts.setflags(write=False)
    return starts


def _td_gradients(params: MlpParams, x: np.ndarray, actions, targets):
    """Residuals Q(x, a) - target and their gradients, per network of a stack.

    ``x`` is (m, B, n_inputs), ``actions`` and ``targets`` are (m, B).  The
    gradients are those of 0.5 * mean(residual^2) over each network's batch,
    for every parameter; only the taken actions' output units carry a
    residual, and each action must lie in [0, n_outputs).  The gradients
    are written into ``params._gradient()``, which the next call overwrites,
    and returned as its weight and bias lists.
    """
    grad = params._gradient()
    _, w2, w3 = params.weights
    dw1, dw2, dw3 = grad.weights
    db1, db2, db3 = grad.biases
    h1, h2, q = _forward_cached(params, x)
    m, n = actions.shape
    taken = _row_starts(m, n, q.shape[-1]) + actions  # flat indices into q
    residual = q.take(taken) - targets

    dq = np.zeros_like(q)
    dq.put(taken, residual / n)
    np.matmul(dq.swapaxes(1, 2), h2, out=dw3)
    np.add.reduce(dq, axis=1, out=db3)
    dz2 = dq @ w3
    np.multiply(dz2, h2 > 0, out=dz2)
    np.matmul(dz2.swapaxes(1, 2), h1, out=dw2)
    np.add.reduce(dz2, axis=1, out=db2)
    dz1 = dz2 @ w2
    np.multiply(dz1, h1 > 0, out=dz1)
    np.matmul(dz1.swapaxes(1, 2), x, out=dw1)
    np.add.reduce(dz1, axis=1, out=db1)
    return residual, grad.weights, grad.biases


def mlp_backward(
    params: MlpParams, obs, action: int, target: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of 0.5 * (target - Q(obs, action))^2 for every parameter of
    a single network.

    The training step's batched pass on a batch of one.  Only the taken
    action's output unit carries a residual; gradients of the other output
    rows are zero.
    """
    x = np.asarray(obs, dtype=float)[None, None, :]
    _, gw, gb = _td_gradients(
        params._as_stack(), x, np.array([[action]]), np.array([[target]])
    )
    return [g[0] for g in gw], [g[0] for g in gb]


def dqn_train_step(
    main: MlpParams,
    target_net: MlpParams,
    x: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    nx: np.ndarray,
    lr: float,
    discount: float,
):
    """One SGD step on the mean squared temporal-difference loss, for each
    network of a stack of m.

    Network i trains on its own batch: row k is the transition (x[i, k],
    actions[i, k], rewards[i, k], nx[i, k]), with x and nx of shape
    (m, B, n_inputs) and actions and rewards of shape (m, B).  Targets are
    reward + discount * max_a' T(nx, a') computed through the frozen target
    network.  Returns the (m,) pre-step losses.
    """
    if actions.shape[-1] == 0:
        raise ValueError("batch must be non-empty")
    targets = _forward_cached(target_net, nx)[-1].max(axis=2)
    targets *= discount
    targets += rewards
    residual, _, _ = _td_gradients(main, x, actions, targets)
    loss = (residual**2).sum(axis=1) / (2 * actions.shape[1])
    # per element the same w - lr * dw as six separate updates
    grad = main._gradient()
    grad.flat *= lr
    main.flat -= grad.flat
    return loss


def target_sync(main: MlpParams, target_net: MlpParams) -> MlpParams:
    """Hard-copy the main network's parameters into the target network."""
    if main.layer_sizes != target_net.layer_sizes:
        raise ValueError("main and target network shapes differ")
    np.copyto(target_net.flat, main.flat)  # a count that differs raises too
    return target_net
