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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HIDDEN = 24


@dataclass
class MlpParams:
    """Weights/biases of the three affine layers (two ReLU, one linear), one
    network or a stack of them along a leading axis."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    # per layer, the views (w transposed, b as a row) the forward pass adds
    # with; in-place updates of the weights show through them
    _affine: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise ValueError("expected exactly three layers")
        for w, b in zip(self.weights, self.biases):
            if w.shape[:-1] != b.shape:
                raise ValueError(f"weight/bias mismatch: {w.shape} vs {b.shape}")
        for w_out, w_in in zip(self.weights[1:], self.weights[:-1]):
            if w_out.shape[-1] != w_in.shape[-2]:
                raise ValueError("consecutive layer shapes do not chain")
        self._affine = [
            (w.swapaxes(-1, -2), b[..., None, :])
            for w, b in zip(self.weights, self.biases)
        ]

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
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def player(self, i: int) -> "MlpParams":
        """A copy of network i of a stack."""
        return MlpParams(
            weights=[w[i].copy() for w in self.weights],
            biases=[b[i].copy() for b in self.biases],
        )

    @classmethod
    def stack(cls, nets) -> "MlpParams":
        """One stacked copy of single networks of equal shape."""
        nets = list(nets)
        return cls(
            weights=[np.stack(ws) for ws in zip(*(p.weights for p in nets))],
            biases=[np.stack(bs) for bs in zip(*(p.biases for p in nets))],
        )

    def _as_stack(self) -> "MlpParams":
        """The network itself if stacked, else a stack of one sharing its arrays."""
        if self.stacked:
            return self
        return MlpParams(
            weights=[w[None] for w in self.weights],
            biases=[b[None] for b in self.biases],
        )


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
    """Every layer's pre- and post-activation for stacked params and a
    (m, B, n_inputs) batch per network."""
    (w1t, b1), (w2t, b2), (w3t, b3) = params._affine
    z1 = x @ w1t + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2t + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3t + b3
    return z1, h1, z2, h2, q


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


def _td_gradients(params: MlpParams, x: np.ndarray, actions, targets):
    """Residuals Q(x, a) - target and their gradients, per network of a stack.

    ``x`` is (m, B, n_inputs), ``actions`` and ``targets`` are (m, B).  The
    gradients are those of 0.5 * mean(residual^2) over each network's batch,
    for every parameter; only the taken actions' output units carry a
    residual.
    """
    _, w2, w3 = params.weights
    z1, h1, z2, h2, q = _forward_cached(params, x)
    m, n = actions.shape
    at = (np.arange(m)[:, None], np.arange(n), actions)
    residual = q[at] - targets

    dq = np.zeros_like(q)
    dq[at] = residual / n
    dw3 = dq.swapaxes(1, 2) @ h2
    db3 = dq.sum(axis=1)
    dh2 = dq @ w3
    dz2 = dh2 * (z2 > 0)
    dw2 = dz2.swapaxes(1, 2) @ h1
    db2 = dz2.sum(axis=1)
    dh1 = dz2 @ w2
    dz1 = dh1 * (z1 > 0)
    dw1 = dz1.swapaxes(1, 2) @ x
    db1 = dz1.sum(axis=1)
    return residual, [dw1, dw2, dw3], [db1, db2, db3]


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
    next_q = _forward_cached(target_net, nx)[-1]
    targets = rewards + discount * next_q.max(axis=2)
    residual, gw, gb = _td_gradients(main, x, actions, targets)
    loss = (residual**2).sum(axis=1) / (2 * actions.shape[1])

    for w, dw in zip(main.weights, gw):
        w -= lr * dw
    for b, db in zip(main.biases, gb):
        b -= lr * db
    return loss


def target_sync(main: MlpParams, target_net: MlpParams) -> MlpParams:
    """Hard-copy the main network's parameters into the target network."""
    if main.layer_sizes != target_net.layer_sizes:
        raise ValueError("main and target network shapes differ")
    for tw, mw in zip(target_net.weights, main.weights):
        tw[...] = mw
    for tb, mb in zip(target_net.biases, main.biases):
        tb[...] = mb
    return target_net
