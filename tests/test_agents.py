import numpy as np
import pytest

from nomajam.learn.agents import (
    DqnAgent,
    EpsSchedule,
    QTable,
    TabularAgent,
    encode_observation,
    hot_boot,
    load_checkpoint,
    observation_for,
    ql_update,
    quantize_sinr,
    save_checkpoint,
    select_action,
)
from nomajam.learn.nn import Transition, mlp_forward
from nomajam.rates import selfish_reward


def test_quantize_clamps():
    assert quantize_sinr(1e-9, levels=8) == 0
    assert quantize_sinr(0.0, levels=8) == 0
    assert quantize_sinr(1e9, levels=8) == 7


def test_quantize_bin_midpoints():
    levels, lo, hi = 8, -20.0, 30.0
    width = (hi - lo) / levels
    for k in range(levels):
        mid_db = lo + (k + 0.5) * width
        sinr = 10.0 ** (mid_db / 10.0)
        assert quantize_sinr(sinr, levels, lo, hi) == k


def test_quantize_rejects_single_level():
    with pytest.raises(ValueError):
        quantize_sinr(1.0, levels=1)


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


def test_ql_update_transition_wrapper():
    t = QTable(8**4, 5, alpha=0.5, discount=0.7)
    tr = Transition((1, 2, 3, 4), 2, 1.0, (4, 3, 2, 1))
    out = ql_update(t, tr, levels=8)
    assert out is t
    s = encode_observation((1, 2, 3, 4), 8)
    assert t.table[s, 2] == 0.5 * (1.0 + 0.0)


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


def make_tab(seed=0, **kw):
    return TabularAgent(6, 8, alpha=0.2, discount=0.7,
                        eps=EpsSchedule(0.9, 0.998, 0.05), seed=seed, **kw)


def make_dqn(seed=0, **kw):
    kw.setdefault("replay", True)
    return DqnAgent(6, 8, lr=0.1, discount=0.7,
                    eps=EpsSchedule(0.9, 0.998, 0.05), seed=seed, **kw)


def test_identical_rewards_give_identical_trajectories():
    # the selfish and unselfish schemes share all machinery; with equal
    # rewards two same-seeded agents follow the same trajectory
    a = make_tab(seed=42)
    b = make_tab(seed=42)
    rng = np.random.default_rng(6)
    obs = (0, 0, 0, 0)
    for _ in range(500):
        act_a = a.act(obs)
        act_b = b.act(obs)
        assert act_a == act_b
        nxt = tuple(rng.integers(0, 8, size=4))
        r = float(rng.normal())
        a.learn(obs, act_a, r, nxt)
        b.learn(obs, act_b, r, nxt)
        obs = nxt
    assert np.array_equal(a.table.table, b.table.table)
    assert a.eps == b.eps


def test_eps_decays_to_floor():
    a = make_tab()
    for _ in range(3000):
        a.learn((0, 0, 0, 0), 0, 0.0, (0, 0, 0, 0))
    assert a.eps == pytest.approx(0.05)


def test_dqn_sync_count():
    a = make_dqn(sync_period=100)
    obs = (1, 1, 1, 1)
    for _ in range(550):
        a.learn(obs, 0, 0.1, obs)
    assert a.sync_count == 5


def test_dqn_rejects_mismatched_boot_weights():
    from nomajam.learn.nn import init_mlp

    wrong = init_mlp(4, 9, np.random.default_rng(7))
    with pytest.raises(ValueError):
        make_dqn(init_params=wrong)


def test_checkpoint_roundtrip_tabular(tmp_path):
    a = make_tab(seed=1)
    rng = np.random.default_rng(8)
    obs = (0, 0, 0, 0)
    for _ in range(200):
        act = a.act(obs)
        nxt = tuple(rng.integers(0, 8, size=4))
        a.learn(obs, act, float(rng.normal()), nxt)
        obs = nxt
    path = tmp_path / "tab.json"
    save_checkpoint(a, path)
    b = make_tab(seed=99)
    load_checkpoint(b, path)
    assert np.array_equal(a.table.table, b.table.table)
    assert a.eps == b.eps


def test_checkpoint_roundtrip_dqn(tmp_path):
    a = make_dqn(seed=1)
    rng = np.random.default_rng(9)
    obs = (3, 3, 3, 3)
    for _ in range(50):
        act = a.act(obs)
        a.learn(obs, act, float(rng.normal()), obs)
    path = tmp_path / "dqn.json"
    save_checkpoint(a, path)
    b = make_dqn(seed=77)
    load_checkpoint(b, path)
    x = np.full(4, 0.5)
    assert np.array_equal(mlp_forward(a.params, x), mlp_forward(b.params, x))
    assert a.eps == b.eps


def test_checkpoint_kind_mismatch(tmp_path):
    a = make_tab()
    path = tmp_path / "tab.json"
    save_checkpoint(a, path)
    with pytest.raises(ValueError):
        load_checkpoint(make_dqn(), path)


class _ToyEnv:
    """Two-action coordination environment with a fixed optimum."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.obs = (0, 0, 0, 0)

    def reset(self):
        return self.obs, observation_for(2, self.obs)

    def step(self, a1, a2):
        r = 1.0 if (a1, a2) == (2, 2) else 0.0
        q = tuple(self.rng.integers(0, 2, size=4))
        return q, observation_for(2, q), r, r, None


def test_hot_boot_validation_and_shapes():
    with pytest.raises(ValueError):
        hot_boot(0, lambda i: _ToyEnv(i), 10, lambda env: (make_dqn(), make_dqn()))
    with pytest.raises(ValueError):
        hot_boot(1, lambda i: _ToyEnv(i), 0, lambda env: (make_dqn(), make_dqn()))
    logged = []
    params = hot_boot(
        2,
        lambda i: _ToyEnv(i),
        30,
        lambda env: (make_dqn(seed=5), make_dqn(seed=6)),
        log=lambda i, loss: logged.append((i, loss)),
    )
    fresh = make_dqn(seed=7).params
    assert params.layer_sizes == fresh.layer_sizes
    assert [i for i, _ in logged] == [0, 1]
