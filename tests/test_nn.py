import numpy as np
import pytest

from nomajam.learn.nn import (
    MlpParams,
    _forward_cached,
    dqn_train_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    target_sync,
)


def stack_of_one(rng, n_in=4, n_out=6):
    """A single network as the stack of one that the training step takes."""
    return MlpParams.stack([init_mlp(n_in, n_out, rng)])


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
    batch = _forward_cached(MlpParams.stack([p]), xs[None])[-1][0]
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
    main = stack_of_one(rng)
    ref = main.player(0)
    target_net = main.copy()
    obs = rng.uniform(0, 1, 4)
    nxt = rng.uniform(0, 1, 4)
    dqn_train_step(main, target_net, obs[None, None, :], np.array([[1]]),
                   np.array([[0.7]]), nxt[None, None, :], lr=0.01, discount=0.0)
    # manual single-sample step with the target equal to the raw reward
    gw, gb = mlp_backward(ref, obs, 1, 0.7)
    got = main.player(0)
    for w, rw, g in zip(got.weights, ref.weights, gw):
        assert np.allclose(w, rw - 0.01 * g, rtol=1e-12)
    for b, rb, g in zip(got.biases, ref.biases, gb):
        assert np.allclose(b, rb - 0.01 * g, rtol=1e-12)


def test_train_step_no_change_at_fixed_point():
    rng = np.random.default_rng(11)
    main = stack_of_one(rng)
    target_net = main.copy()
    obs = rng.uniform(0, 1, 4)
    nxt = rng.uniform(0, 1, 4)
    q = mlp_forward(main.player(0), obs)
    nq = mlp_forward(target_net.player(0), nxt)
    discount = 0.7
    reward = float(q[2] - discount * nq.max())  # makes target equal current Q
    before = main.copy()
    loss = dqn_train_step(main, target_net, obs[None, None, :], np.array([[2]]),
                          np.array([[reward]]), nxt[None, None, :], lr=0.05,
                          discount=discount)
    assert loss.shape == (1,)
    assert loss[0] == pytest.approx(0.0, abs=1e-20)
    for w, rw in zip(main.weights, before.weights):
        assert np.array_equal(w, rw)


def test_train_step_loss_decreases_on_fixed_batch():
    rng = np.random.default_rng(12)
    main = stack_of_one(rng)
    target_net = main.copy()
    x, nx = rng.uniform(0, 1, (1, 16, 4)), rng.uniform(0, 1, (1, 16, 4))
    actions, rewards = rng.integers(6, size=(1, 16)), rng.normal(size=(1, 16))
    # keep the target net frozen so the targets are fixed
    losses = [dqn_train_step(main, target_net, x, actions, rewards, nx,
                             lr=1e-3, discount=0.7)[0]
              for _ in range(30)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_train_step_rejects_empty_batch():
    p = stack_of_one(np.random.default_rng(13))
    with pytest.raises(ValueError):
        dqn_train_step(p, p.copy(), np.empty((1, 0, 4)), np.empty((1, 0), dtype=int),
                       np.empty((1, 0)), np.empty((1, 0, 4)), lr=0.1, discount=0.7)


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


def reference_pass(params, x, actions=None, targets=None):
    """One network's forward pass and TD gradients as plain 2-D numpy: the
    per-network formulas the stacked pass must reproduce bit for bit."""
    w1, w2, w3 = params.weights
    b1, b2, b3 = params.biases
    z1 = x @ w1.T + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2.T + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3.T + b3
    if actions is None:
        return q
    n = x.shape[0]
    rows = np.arange(n)
    residual = q[rows, actions] - targets
    dq = np.zeros_like(q)
    dq[rows, actions] = residual / n
    dz2 = (dq @ w3) * (z2 > 0)
    dz1 = (dz2 @ w2) * (z1 > 0)
    grads = [dz1.T @ x, dz2.T @ h1, dq.T @ h2,
             dz1.sum(axis=0), dz2.sum(axis=0), dq.sum(axis=0)]
    return q, residual, grads


def stacked_pair(rng, n_out=15):
    nets = [init_mlp(4, n_out, rng) for _ in range(2)]
    # nonzero biases, so the bias broadcast is exercised too
    for net in nets:
        for b in net.biases:
            b[...] = rng.normal(scale=0.1, size=b.shape)
    return nets, MlpParams.stack(nets)


def test_stack_and_player_round_trip():
    nets, stack = stacked_pair(np.random.default_rng(15))
    assert stack.stacked and not nets[0].stacked
    assert stack.layer_sizes == (4, 24, 24, 15) and stack.n_outputs == 15
    for i, net in enumerate(nets):
        got = stack.player(i)
        for g, w in zip(got.weights + got.biases, net.weights + net.biases):
            assert np.array_equal(g, w)
    stack.weights[0][1, 0, 0] += 1.0  # stacking copies
    assert nets[1].weights[0][0, 0] != stack.weights[0][1, 0, 0]


@pytest.mark.parametrize("batch", [1, 2, 17, 32])
def test_stacked_pass_is_bit_equal_per_network(batch):
    # stacked matmul must give each slice the bits of its own 2-D pass; the
    # stacked BS pair's outputs equal two separate networks' only because of
    # this, so a numpy or BLAS change that breaks it fails here first
    from nomajam.learn.nn import _td_gradients

    rng = np.random.default_rng(16 + batch)
    nets, stack = stacked_pair(rng)
    x = rng.uniform(0.0, 1.0, (2, batch, 4))
    actions = rng.integers(15, size=(2, batch))
    targets = rng.normal(size=(2, batch))
    q = _forward_cached(stack, x)[-1]
    residual, gw, gb = _td_gradients(stack, x, actions, targets)
    for i, net in enumerate(nets):
        want_q, want_res, want_grads = reference_pass(net, x[i], actions[i], targets[i])
        assert np.array_equal(q[i], want_q)
        assert np.array_equal(residual[i], want_res)
        for got, want in zip(gw + gb, want_grads):
            assert np.array_equal(got[i], want)


@pytest.mark.parametrize("batch", [1, 2, 17, 32])
def test_stacked_train_step_is_bit_equal_per_network(batch):
    rng = np.random.default_rng(36 + batch)
    nets, stack = stacked_pair(rng)
    targets_nets, target_stack = stacked_pair(rng)
    x, nx = rng.uniform(0.0, 1.0, (2, 2, batch, 4))
    actions = rng.integers(15, size=(2, batch))
    rewards = rng.normal(size=(2, batch))
    losses = dqn_train_step(stack, target_stack, x, actions, rewards, nx, 0.1, 0.7)
    for i, (net, tnet) in enumerate(zip(nets, targets_nets)):
        y = rewards[i] + 0.7 * reference_pass(tnet, nx[i]).max(axis=1)
        _, res, (dw1, dw2, dw3, db1, db2, db3) = reference_pass(net, x[i], actions[i], y)
        assert losses[i] == 0.5 * float(np.mean(res**2))
        got = stack.player(i)
        for g, w, d in zip(got.weights + got.biases, net.weights + net.biases,
                           (dw1, dw2, dw3, db1, db2, db3)):
            assert np.array_equal(g, w - 0.1 * d)


def test_stacked_act_equals_single_observation_pass():
    # act runs the pair as a stacked batch of one; the 1-D product of one
    # observation through one network must come out bit for bit the same
    rng = np.random.default_rng(50)
    for _ in range(50):
        nets, stack = stacked_pair(rng)
        obs = rng.integers(0, 8, size=(2, 4)) / 7
        q = mlp_forward(stack, obs)
        for i, net in enumerate(nets):
            assert np.array_equal(q[i], reference_pass(net, obs[i]))
            assert np.array_equal(q[i], mlp_forward(net, obs[i]))


def test_arrays_are_views_of_one_flat_buffer_in_layer_order():
    # single networks and stacks alike: w1, b1, w2, b2, w3, b3 back to back
    rng = np.random.default_rng(60)
    nets, stack = stacked_pair(rng)
    for p in (nets[0], stack, stack.copy(), stack.player(1)):
        arrays = [a for layer in zip(p.weights, p.biases) for a in layer]
        assert p.flat.flags.c_contiguous and p.flat.dtype == np.float64
        assert np.array_equal(p.flat, np.concatenate([a.ravel() for a in arrays]))
        for a in arrays:
            assert a.base is p.flat
        p.flat[:] = 0.0  # writes through the flat buffer show in every array
        assert all(not a.any() for a in arrays)


def test_consecutive_flat_steps_equal_six_reference_updates_each():
    # one stack trains through batch lengths that change as in warm-up, so
    # the kept gradient buffer and row indices are rewritten every step;
    # each step must equal w - lr * dw for all six arrays of each network
    rng = np.random.default_rng(61)
    nets, stack = stacked_pair(rng)
    tnets, tstack = stacked_pair(rng)
    for batch in (1, 2, 17, 32, 32, 17, 1):
        x, nx = rng.uniform(0.0, 1.0, (2, 2, batch, 4))
        actions = rng.integers(15, size=(2, batch))
        rewards = rng.normal(size=(2, batch))
        dqn_train_step(stack, tstack, x, actions, rewards, nx, 0.1, 0.7)
        for i, (net, tnet) in enumerate(zip(nets, tnets)):
            y = rewards[i] + 0.7 * reference_pass(tnet, nx[i]).max(axis=1)
            grads = reference_pass(net, x[i], actions[i], y)[2]
            for a, d in zip(net.weights + net.biases, grads):
                a[...] = a - 0.1 * d
            got = stack.player(i)
            for g, w in zip(got.weights + got.biases, net.weights + net.biases):
                assert np.array_equal(g, w)


def test_target_is_untouched_until_sync_and_sync_copies_exactly():
    rng = np.random.default_rng(62)
    _, main = stacked_pair(rng)
    target_net = main.copy()
    frozen = target_net.flat.copy()
    x, nx = rng.uniform(0.0, 1.0, (2, 2, 8, 4))
    for _ in range(3):
        dqn_train_step(main, target_net, x, rng.integers(15, size=(2, 8)),
                       rng.normal(size=(2, 8)), nx, 0.1, 0.7)
        assert np.array_equal(target_net.flat, frozen)
    assert not np.array_equal(main.flat, frozen)
    assert target_sync(main, target_net) is target_net
    assert np.array_equal(target_net.flat, main.flat)
    assert not np.shares_memory(target_net.flat, main.flat)
    with pytest.raises(ValueError):
        target_sync(main, main.player(0))


def test_player_returns_an_independent_copy():
    # hot boot hands player 0's network to a new pair; it must not follow
    # the stack it came from, nor write into it
    _, stack = stacked_pair(np.random.default_rng(63))
    before = stack.flat.copy()
    net = stack.player(0)
    assert not np.shares_memory(net.flat, stack.flat)
    kept = net.flat.copy()
    stack.flat += 1.0
    assert np.array_equal(net.flat, kept)
    net.flat[:] = 0.0
    assert np.array_equal(stack.flat, before + 1.0)
