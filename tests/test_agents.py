import numpy as np
import pytest

from nomajam.learn.agents import (
    DqnAgent,
    EpsSchedule,
    QTable,
    TabularAgent,
    encode_observation,
    observation_for,
    quantize_sinr,
    select_action,
    sinr_thresholds,
)
from nomajam.learn.nn import MlpParams, dqn_train_step, init_mlp, mlp_forward
from nomajam.rates import selfish_reward


def test_quantize_clamps():
    assert quantize_sinr(1e-9, 8, -20.0, 30.0) == 0
    assert quantize_sinr(0.0, 8, -20.0, 30.0) == 0
    assert quantize_sinr(1e9, 8, -20.0, 30.0) == 7


def test_quantize_bin_midpoints():
    levels, lo, hi = 8, -20.0, 30.0
    width = (hi - lo) / levels
    for k in range(levels):
        mid_db = lo + (k + 0.5) * width
        sinr = 10.0 ** (mid_db / 10.0)
        assert quantize_sinr(sinr, levels, lo, hi) == k


def threshold_configs():
    """The default quantizer, one whose lowest levels all start at the
    smallest subnormal, and 10 seeded (levels, lo_db, hi_db), one of them
    with levels above the largest float (an infinite threshold)."""
    rng = np.random.default_rng(2024)
    yield 8, -20.0, 30.0
    yield 4, -3300.0, -3200.0
    for _ in range(10):
        lo = float(rng.uniform(-3600.0, 3300.0))
        yield int(rng.integers(2, 40)), lo, lo + float(10.0 ** rng.uniform(-3.0, 3.7))


def test_sinr_thresholds_count_the_levels_of_quantize_sinr():
    # searchsorted over the thresholds is quantize_sinr on every float probed:
    # 200 ulps either side of each threshold, log-uniform SINRs, and the ends
    # of the float range
    rng = np.random.default_rng(7)
    spread = np.arange(-200, 201)
    sinrs = np.concatenate((
        10.0 ** rng.uniform(-6.0, 10.0, size=10_000),
        [0.0, 5e-324, 1e-300, 1e300, np.finfo(float).max],
    ))
    for levels, lo, hi in threshold_configs():
        t = sinr_thresholds(levels, lo, hi)
        assert t.shape == (levels - 1,) and not t.flags.writeable
        assert np.all(t[:-1] <= t[1:]) and t.min() > 0
        bits = t[np.isfinite(t)].view(np.int64)[:, None] + spread
        probes = np.concatenate((sinrs, bits[bits >= 0].view(float)))
        found = np.searchsorted(t, probes, side="right").tolist()
        want = [quantize_sinr(x, levels, lo, hi) for x in probes.tolist()]
        assert found == want, (levels, lo, hi)


def test_quantize_rejects_single_level():
    with pytest.raises(ValueError):
        quantize_sinr(1.0, 1, -20.0, 30.0)


def test_observation_ordering():
    q = (1, 2, 3, 4)
    assert observation_for(1, q) == (1, 2, 3, 4)
    assert observation_for(2, q) == (3, 4, 1, 2)
    with pytest.raises(ValueError):
        observation_for(3, q)


def test_encode_observation_mixed_radix():
    assert encode_observation((0, 0, 0, 0), 8) == 0
    assert encode_observation((1, 2, 3, 4), 8) == ((1 * 8 + 2) * 8 + 3) * 8 + 4
    assert encode_observation((7, 7, 7, 7), 8) == 8**4 - 1
    with pytest.raises(ValueError):
        encode_observation((8, 0, 0, 0), 8)


def test_select_action_greedy():
    rng = np.random.default_rng(0)
    q = np.array([0.1, 3.0, 2.0, 3.0])
    # ties break to the lowest index
    for _ in range(20):
        assert select_action(q, eps=0.0, rng=rng) == 1


def test_select_action_full_exploration_never_greedy():
    rng = np.random.default_rng(1)
    q = np.array([5.0, 1.0, 1.0, 1.0])
    picks = [select_action(q, 1.0, rng) for _ in range(5000)]
    assert 0 not in picks


def test_select_action_distribution():
    rng = np.random.default_rng(2)
    q = np.array([5.0, 1.0, 2.0, 3.0])
    n = 100_000
    counts = np.bincount([select_action(q, 0.3, rng) for _ in range(n)],
                         minlength=4)
    expected = np.array([0.7, 0.1, 0.1, 0.1]) * n
    sigma = np.sqrt(expected * (1 - expected / n))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_select_action_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        select_action(np.array([1.0]), 0.5, rng)
    with pytest.raises(ValueError):
        select_action(np.array([1.0, 2.0]), 1.5, rng)


def test_ql_update_alpha_zero_is_identity():
    t = QTable(4, 3, alpha=0.0, discount=0.7)
    t.table[...] = 1.5
    t.update(0, 1, 10.0, 2)
    assert np.all(t.table == 1.5)


def test_ql_update_alpha_one_zero_discount_writes_reward():
    t = QTable(4, 3, alpha=1.0, discount=0.0)
    t.update(1, 2, 4.25, 3)
    assert t.table[1, 2] == 4.25


def test_ql_update_hand_computed_value():
    t = QTable(2, 2, alpha=0.5, discount=0.7)
    t.table[0, 0] = 1.0
    t.table[1, :] = [0.0, 3.0]
    t.update(0, 0, 2.0, 1)
    # 0.5*1 + 0.5*(2 + 0.7*3) = 2.55, exactly
    assert t.table[0, 0] == 2.55


def test_q_values_bounded_and_match_value_iteration():
    # deterministic 2-state MDP: the next state equals the chosen action
    rewards = np.array([[1.0, -0.5], [0.25, 2.0]])
    discount = 0.7
    q_star = np.zeros((2, 2))
    for _ in range(500):
        v = q_star.max(axis=1)
        q_star = rewards + discount * v[None, :]
    r_max = np.abs(rewards).max()
    assert np.all(np.abs(q_star) <= r_max / (1 - discount) + 1e-9)

    table = QTable(2, 2, alpha=0.02, discount=discount)
    rng = np.random.default_rng(4)
    state = 0
    for _ in range(200_000):
        action = int(rng.integers(2))
        table.update(state, action, rewards[state, action], action)
        state = action
    assert np.all(np.abs(table.table) <= r_max / (1 - discount) + 1e-9)
    assert np.allclose(table.table, q_star, atol=0.05 * r_max / (1 - discount))


def test_selfish_reward_cases():
    rates = [2.0, 2.0, 0.1, 0.1]
    assert selfish_reward(rates, 1, p_j=2.0, r0=1.0, gamma=0.5, z=0.01) == pytest.approx(5.0)
    # own weak user failing scales by z
    rates2 = [0.5, 4.0, 9.9, 9.9]
    assert selfish_reward(rates2, 1, 2.0, 1.0, 0.5, 0.01) == pytest.approx(0.01 * 5.5)


def test_selfish_reward_ignores_other_cell():
    rng = np.random.default_rng(5)
    own = [1.5, 2.5]
    for _ in range(20):
        other = rng.uniform(0, 9, size=2)
        a = selfish_reward([*own, *other], 1, 1.0, 1.0, 0.5, 0.01)
        b = selfish_reward([*own, 0.0, 0.0], 1, 1.0, 1.0, 0.5, 0.01)
        assert a == b
        c = selfish_reward([*other, *own], 2, 1.0, 1.0, 0.5, 0.01)
        assert c == a


def make_tab(seeds=(0,), **kw):
    return TabularAgent(6, 8, 4, alpha=0.2, discount=0.7,
                        eps=EpsSchedule(0.9, 0.998, 0.05), seeds=seeds, **kw)


def make_dqn(seeds=(0, 1), **kw):
    return DqnAgent(6, 8, lr=0.1, discount=0.7,
                    eps=EpsSchedule(0.9, 0.998, 0.05), seeds=seeds, **kw)


def test_identical_rewards_give_identical_trajectories():
    # the selfish and unselfish schemes share all machinery; with equal
    # rewards two same-seeded players follow the same trajectory, in one
    # stack or in two
    a = make_tab(seeds=(42, 42))
    b = make_tab(seeds=(42,))
    rng = np.random.default_rng(6)
    obs = (0, 0, 0, 0)
    for _ in range(500):
        act_a = a.act((obs, obs))
        act_b = b.act((obs,))
        assert act_a == act_b * 2
        nxt = tuple(rng.integers(0, 8, size=4))
        r = float(rng.normal())
        a.learn(act_a, (r, r), (nxt, nxt))
        b.learn(act_b, (r,), (nxt,))
        obs = nxt
    # player i's state s is row i * n_states + s of the one table
    pair = a.table.table.reshape(2, a.n_states, -1)
    assert np.array_equal(pair[0], b.table.table)
    assert np.array_equal(pair[1], b.table.table)
    assert a.eps == b.eps


def test_eps_decays_to_floor():
    a = make_tab()
    obs = ((0, 0, 0, 0),)
    for _ in range(3000):
        a.learn(a.act(obs), (0.0,), obs)
    assert a.eps == pytest.approx(0.05)


def test_dqn_sync_count():
    a = make_dqn(sync_period=100)
    obs = ((1, 1, 1, 1), (1, 1, 1, 1))
    for _ in range(550):
        a.act(obs)
        a.learn((0, 0), (0.1, 0.1), obs)
    assert a.sync_count == 5


def test_dqn_target_takes_the_main_weights_only_at_a_sync():
    a = make_dqn(sync_period=3, batch_size=4)
    # both observation rings are halves of one ring, so one gather reads both
    assert a.obs_buf.base is a.next_obs_buf.base
    synced = a.params.flat.copy()
    rng = np.random.default_rng(9)
    obs = ((1, 2, 3, 4), (4, 3, 2, 1))
    for slot in range(1, 8):
        nxt = tuple(tuple(int(v) for v in rng.integers(0, 8, size=4)) for _ in range(2))
        a.learn(a.act(obs), tuple(rng.normal(size=2).tolist()), nxt)
        obs = nxt
        if slot % 3 == 0:
            synced = a.params.flat.copy()
        assert np.array_equal(a.target.flat, synced)
    assert not np.array_equal(a.params.flat, synced)


def test_dqn_stops_on_a_non_finite_loss():
    # a diverged network used to train on, NaN weights and all, to the end of
    # the run; the first transition is the whole batch, so its loss is inf
    a = make_dqn()
    obs = ((1, 1, 1, 1), (1, 1, 1, 1))
    a.act(obs)
    with np.errstate(all="ignore"), pytest.raises(
        FloatingPointError, match="slot 0: player 2's training loss is inf"
    ):
        a.learn((0, 0), (0.1, 1e300), obs)


def test_dqn_rejects_mismatched_boot_weights():
    wrong = init_mlp(4, 9, np.random.default_rng(7))
    with pytest.raises(ValueError):
        make_dqn(init_params=wrong)


def test_dqn_boot_weights_start_every_player():
    boot = init_mlp(4, 6, np.random.default_rng(7))
    agent = make_dqn(init_params=boot)
    for i in range(2):
        for got, want in zip(agent.params.player(i).weights, boot.weights):
            assert np.array_equal(got, want)
    # copies, not views of the boot network
    agent.params.weights[0][0, 0, 0] += 1.0
    assert boot.weights[0][0, 0] != agent.params.weights[0][0, 0, 0]


def test_tabular_learn_updates_encoded_states():
    a = make_tab(seeds=(0, 1))
    a.act(((1, 2, 3, 4), (0, 0, 0, 1)))
    a.learn((2, 5), (1.0, -1.0), ((4, 3, 2, 1), (1, 0, 0, 0)))
    s = encode_observation((1, 2, 3, 4), 8)
    assert a.table.table[s, 2] == 0.2 * (1.0 + 0.0)
    assert a.table.table[a.n_states + 1, 5] == 0.2 * (-1.0 + 0.0)
    assert np.count_nonzero(a.table.table) == 2


def test_tabular_act_reuses_learned_next_state(monkeypatch):
    # each observation is encoded once: act keeps the states for learn, and
    # the next act is handed learn's next observation object
    import nomajam.learn.agents as agents

    calls = []
    encode = agents.encode_observation
    monkeypatch.setattr(agents, "encode_observation",
                        lambda obs, levels: calls.append(obs) or encode(obs, levels))
    a = make_tab(seeds=(0, 1))
    obs = ((0, 0, 0, 0), (0, 0, 0, 0))
    for t in range(5):
        nxt = ((t, 1, 2, 3), (3, 2, 1, t))
        a.learn(a.act(obs), (1.0, 2.0), nxt)
        obs = nxt
    assert len(calls) == 2 * 6
    # a player's row is looked up, not encoded again, when an observation
    # repeats, even as a new tuple of equal values
    for t in range(10):
        nxt = ((t % 5, 1, 2, 3), (3, 2, 1, t % 5))
        a.learn(a.act(tuple(map(tuple, obs))), (1.0, 2.0), nxt)
        obs = nxt
    assert len(calls) == 2 * 6


def test_dqn_replay_ring_matches_deque_reference():
    # 12 slots through a ring of 5 wrap it twice; the reference runs each
    # player alone: its network, a bounded deque and its own stream, drawn
    # in the same order (act's exploration, then the replay positions)
    from collections import deque

    seeds = (3, 4)
    agent = make_dqn(seeds=seeds, replay_capacity=5, batch_size=4, sync_period=3)
    rngs = [np.random.default_rng(s) for s in seeds]  # weights, then draws
    # each player's networks as a stack of one, the form the training step takes
    params = [MlpParams.stack([init_mlp(4, 6, rng)]) for rng in rngs]
    targets = [p.copy() for p in params]
    memories = [deque(maxlen=5) for _ in seeds]
    eps = 0.9
    data = np.random.default_rng(10)
    obs = tuple(tuple(int(v) for v in data.integers(0, 8, size=4)) for _ in seeds)
    for step in range(1, 13):
        nxt = tuple(tuple(int(v) for v in data.integers(0, 8, size=4)) for _ in seeds)
        rewards = tuple(float(r) for r in data.normal(size=2))
        actions = agent.act(obs)
        agent.learn(actions, rewards, nxt)

        for i, (rng, memory) in enumerate(zip(rngs, memories)):
            x = np.array(obs[i]) / 7
            q = mlp_forward(params[i], x[None])[0]
            assert actions[i] == select_action(q, eps, rng)
            memory.append((x, actions[i], rewards[i] * 0.025, np.array(nxt[i]) / 7))
            idx = rng.integers(len(memory), size=min(4, len(memory)))
            batch = [memory[int(k)] for k in idx]
            dqn_train_step(
                params[i], targets[i],
                np.stack([t[0] for t in batch])[None], np.array([[t[1] for t in batch]]),
                np.array([[t[2] for t in batch]]), np.stack([t[3] for t in batch])[None],
                lr=0.1, discount=0.7,
            )
            if step % 3 == 0:
                targets[i] = params[i].copy()
        eps = max(0.05, eps * 0.998)
        obs = nxt
    assert agent.slot == 12
    for i in range(2):
        got, want = agent.params.player(i), params[i].player(0)
        for g, w in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(g, w)
