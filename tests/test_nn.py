import numpy as np
import pytest

from nomajam.learn.nn import (
    MlpParams,
    dqn_train_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_batch,
    target_sync,
)


def zero_params(n_in=4, n_out=6):
    p = init_mlp(n_in, n_out, np.random.default_rng(0))
    for w in p.weights:
        w[...] = 0.0
    for b in p.biases:
        b[...] = 0.0
    return p


def naive_forward(params, x):
    """Scalar-loop reference implementation."""
    h = list(x)
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * h[j]
            if layer < 2:
                acc = max(acc, 0.0)
            out.append(acc)
        h = out
    return np.array(h)


def test_shapes():
    p = init_mlp(4, 6, np.random.default_rng(1))
    assert p.layer_sizes == (4, 24, 24, 6)
    assert p.n_outputs == 6


def test_shape_validation():
    p = init_mlp(4, 6, np.random.default_rng(1))
    with pytest.raises(ValueError):
        MlpParams(weights=p.weights[:2], biases=p.biases[:2])
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros(5))


def test_zero_network_outputs_zero():
    p = zero_params()
    assert np.array_equal(mlp_forward(p, np.ones(4)), np.zeros(6))


def test_dead_hidden_layers_pass_final_bias():
    p = init_mlp(4, 6, np.random.default_rng(2))
    # strongly negative hidden biases kill both ReLU layers
    p.weights[0][...] = 0.0
    p.biases[0][...] = -5.0
    p.biases[1][...] = -5.0
    p.biases[2][...] = np.arange(6, dtype=float)
    out = mlp_forward(p, np.random.default_rng(3).uniform(0, 1, 4))
    assert np.array_equal(out, np.arange(6, dtype=float))


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = init_mlp(4, 6, rng)
        x = rng.normal(size=4)
        fast = mlp_forward(p, x)
        slow = naive_forward(p, x)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(5)
    p = init_mlp(4, 6, rng)
    xs = rng.normal(size=(8, 4))
    batch = mlp_forward_batch(p, xs)
    for k in range(8):
        assert np.allclose(batch[k], mlp_forward(p, xs[k]), rtol=1e-14)


def test_backward_zero_residual_means_zero_gradient():
    rng = np.random.default_rng(6)
    p = init_mlp(4, 6, rng)
    x = rng.uniform(0, 1, 4)
    q = mlp_forward(p, x)
    gw, gb = mlp_backward(p, x, 2, float(q[2]))
    assert all(np.allclose(g, 0.0) for g in gw)
    assert all(np.allclose(g, 0.0) for g in gb)


def test_backward_gradient_scales_with_residual():
    rng = np.random.default_rng(7)
    p = init_mlp(4, 6, rng)
    x = rng.uniform(0, 1, 4)
    q = mlp_forward(p, x)
    gw1, gb1 = mlp_backward(p, x, 1, float(q[1]) - 1.0)
    gw3, gb3 = mlp_backward(p, x, 1, float(q[1]) - 3.0)
    for a, b in zip(gw1 + gb1, gw3 + gb3):
        assert np.allclose(3.0 * a, b, rtol=1e-12)


def test_backward_untaken_output_rows_zero():
    rng = np.random.default_rng(8)
    p = init_mlp(4, 6, rng)
    x = rng.uniform(0, 1, 4)
    gw, _ = mlp_backward(p, x, 3, 1.23)
    rows = np.arange(6) != 3
    assert np.allclose(gw[2][rows], 0.0)


def check_gradients(p, x, action, target, h=1e-5, tol=1e-4):
    gw, gb = mlp_backward(p, x, action, target)

    def loss():
        q = mlp_forward(p, x)
        return 0.5 * (target - q[action]) ** 2

    for arrs, grads in ((p.weights, gw), (p.biases, gb)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = loss()
                flat[k] = keep - h
                dn = loss()
                flat[k] = keep
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(gflat[k]), 1.0)
                assert abs(fd - gflat[k]) / denom < tol, (fd, gflat[k])


def test_backward_matches_finite_differences_sample():
    rng = np.random.default_rng(9)
    for _ in range(3):
        p = init_mlp(4, 6, rng)
        x = rng.uniform(0.05, 0.95, 4)
        check_gradients(p, x, int(rng.integers(6)), float(rng.normal()))


def test_train_step_zero_discount_uses_raw_rewards():
    rng = np.random.default_rng(10)
    main = init_mlp(4, 6, rng)
    ref = main.copy()
    target_net = main.copy()
    obs = rng.uniform(0, 1, 4)
    nxt = rng.uniform(0, 1, 4)
    dqn_train_step(main, target_net, obs[None, :], np.array([1]), np.array([0.7]),
                   nxt[None, :], lr=0.01, discount=0.0)
    # manual single-sample step with the target equal to the raw reward
    gw, gb = mlp_backward(ref, obs, 1, 0.7)
    for w, rw, g in zip(main.weights, ref.weights, gw):
        assert np.allclose(w, rw - 0.01 * g, rtol=1e-12)
    for b, rb, g in zip(main.biases, ref.biases, gb):
        assert np.allclose(b, rb - 0.01 * g, rtol=1e-12)


def test_train_step_no_change_at_fixed_point():
    rng = np.random.default_rng(11)
    main = init_mlp(4, 6, rng)
    target_net = main.copy()
    obs = rng.uniform(0, 1, 4)
    nxt = rng.uniform(0, 1, 4)
    q = mlp_forward(main, obs)
    nq = mlp_forward(target_net, nxt)
    discount = 0.7
    reward = float(q[2] - discount * nq.max())  # makes target equal current Q
    before = main.copy()
    loss = dqn_train_step(main, target_net, obs[None, :], np.array([2]),
                          np.array([reward]), nxt[None, :], lr=0.05, discount=discount)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for w, rw in zip(main.weights, before.weights):
        assert np.array_equal(w, rw)


def test_train_step_loss_decreases_on_fixed_batch():
    rng = np.random.default_rng(12)
    main = init_mlp(4, 6, rng)
    target_net = main.copy()
    x, nx = rng.uniform(0, 1, (16, 4)), rng.uniform(0, 1, (16, 4))
    actions, rewards = rng.integers(6, size=16), rng.normal(size=16)
    # keep the target net frozen so the targets are fixed
    losses = [dqn_train_step(main, target_net, x, actions, rewards, nx,
                             lr=1e-3, discount=0.7)
              for _ in range(30)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_train_step_rejects_empty_batch():
    p = init_mlp(4, 6, np.random.default_rng(13))
    with pytest.raises(ValueError):
        dqn_train_step(p, p.copy(), np.empty((0, 4)), np.empty(0, dtype=int),
                       np.empty(0), np.empty((0, 4)), lr=0.1, discount=0.7)


def test_target_sync_copies_and_is_idempotent():
    rng = np.random.default_rng(14)
    main = init_mlp(4, 6, rng)
    target_net = init_mlp(4, 6, rng)
    out = target_sync(main, target_net)
    assert out is target_net
    xs = rng.uniform(0, 1, (5, 4))
    for x in xs:
        assert np.array_equal(mlp_forward(main, x), mlp_forward(target_net, x))
    snapshot = [w.copy() for w in target_net.weights]
    target_sync(main, target_net)
    for w, s in zip(target_net.weights, snapshot):
        assert np.array_equal(w, s)
    # copies, not views
    main.weights[0][0, 0] += 1.0
    assert target_net.weights[0][0, 0] != main.weights[0][0, 0]
