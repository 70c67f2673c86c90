"""Minimal feedforward Q-network with hand-rolled backpropagation.

Architecture: input -> ReLU(24) -> ReLU(24) -> Linear(|actions|).  Plain
stochastic gradient descent; no framework.  Everything is numpy so batches
go through as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIDDEN = 24


@dataclass
class MlpParams:
    """Weights/biases of the three affine layers (two ReLU, one linear)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise ValueError("expected exactly three layers")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"weight/bias mismatch: {w.shape} vs {b.shape}")
        for w_out, w_in in zip(self.weights[1:], self.weights[:-1]):
            if w_out.shape[1] != w_in.shape[0]:
                raise ValueError("consecutive layer shapes do not chain")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
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
    w1, w2, w3 = params.weights
    b1, b2, b3 = params.biases
    z1 = x @ w1.T + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2.T + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3.T + b3
    return z1, h1, z2, h2, q


def mlp_forward(params: MlpParams, obs) -> np.ndarray:
    """Q-value estimates for one observation vector."""
    x = np.asarray(obs, dtype=float)
    if x.shape != (params.layer_sizes[0],):
        raise ValueError(
            f"observation must have shape {(params.layer_sizes[0],)}, got {x.shape}"
        )
    return _forward_cached(params, x)[-1]


def mlp_forward_batch(params: MlpParams, batch_obs: np.ndarray) -> np.ndarray:
    """Q-values for a (B, n_inputs) batch of observations."""
    x = np.asarray(batch_obs, dtype=float)
    return _forward_cached(params, x)[-1]


def _td_gradients(params: MlpParams, x: np.ndarray, actions, targets):
    """Residuals Q(x, a) - target and their gradients, batch rows as samples.

    The gradients are those of 0.5 * mean(residual^2) for every parameter;
    only the taken actions' output units carry a residual.
    """
    _, w2, w3 = params.weights
    z1, h1, z2, h2, q = _forward_cached(params, x)
    n = x.shape[0]
    rows = np.arange(n)
    residual = q[rows, actions] - targets

    dq = np.zeros_like(q)
    dq[rows, actions] = residual / n
    dw3 = dq.T @ h2
    db3 = dq.sum(axis=0)
    dh2 = dq @ w3
    dz2 = dh2 * (z2 > 0)
    dw2 = dz2.T @ h1
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ w2
    dz1 = dh1 * (z1 > 0)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return residual, [dw1, dw2, dw3], [db1, db2, db3]


def mlp_backward(
    params: MlpParams, obs, action: int, target: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of 0.5 * (target - Q(obs, action))^2 for every parameter.

    The training step's batched pass on a batch of one.  Only the taken
    action's output unit carries a residual; gradients of the other output
    rows are zero.
    """
    x = np.asarray(obs, dtype=float)[None, :]
    _, gw, gb = _td_gradients(params, x, np.array([action]), np.array([target]))
    return gw, gb


def dqn_train_step(
    main: MlpParams,
    target_net: MlpParams,
    x: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    nx: np.ndarray,
    lr: float,
    discount: float,
) -> float:
    """One SGD step on the mean squared temporal-difference loss.

    Row k of the batch is the transition (x[k], actions[k], rewards[k],
    nx[k]).  Targets are reward + discount * max_a' T(nx, a') computed
    through the frozen target network.  Returns the pre-step loss.
    """
    if len(actions) == 0:
        raise ValueError("batch must be non-empty")
    next_q = mlp_forward_batch(target_net, nx)
    targets = rewards + discount * next_q.max(axis=1)
    residual, gw, gb = _td_gradients(main, x, actions, targets)
    loss = 0.5 * float(np.mean(residual**2))

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
