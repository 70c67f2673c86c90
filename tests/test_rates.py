import itertools

import numpy as np
import pytest

from nomajam.rates import (
    StrategyProfile,
    bs_utility,
    jammer_utility,
    objective_p2,
    qos_binding_split,
    rate_rows,
    link_terms,
    rates_from_sinr,
    selfish_reward,
    sinrs,
)

from conftest import make_channel, rates4


def test_profile_rejects_negative_power():
    with pytest.raises(ValueError):
        StrategyProfile(p1=-1.0, p2=1.0, p3=1.0, p4=1.0)


def test_sinr_all_zero_powers():
    ch = make_channel(np.random.default_rng(0).exponential(1.0, (4, 3)))
    assert sinrs(link_terms(ch, 0.0, 0.0, 0.0, 0.0), 0.0) == [0.0] * 4


def test_sinr_strong_user_formula():
    # p2 = 2 with unit own gain and unit jam gain under p_j = 1 gives SINR2 = 1
    g = np.random.default_rng(1).exponential(1.0, (4, 3))
    g[1, 0] = 1.0
    g[1, 2] = 1.0
    ch = make_channel(g)
    assert sinrs(link_terms(ch, 3.0, 2.0, 4.0, 5.0), 1.0)[1] == pytest.approx(1.0, rel=1e-15)


def test_sinr_weak_user_formula():
    # own-cell SIC interference only: 3*1 / (1 + 1*1) = 3/2
    g = np.zeros((4, 3))
    g[0, 0] = 1.0
    ch = make_channel(g)
    assert sinrs(link_terms(ch, 3.0, 1.0, 7.0, 2.0), 0.0)[0] == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize("sinr,rate", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
def test_rates_from_sinr(sinr, rate):
    assert rates_from_sinr([sinr])[0] == pytest.approx(rate, abs=1e-15)


def test_objective_indicator():
    assert objective_p2([2.0, 2.0, 2.0, 2.0], r0=1.0) == 8.0
    assert objective_p2([0.5, 2.0, 2.0, 2.0], r0=1.0) == 0.0
    # the threshold is inclusive
    assert objective_p2([1.0, 1.0, 1.0, 1.0], r0=1.0) == 4.0


def test_bs_utility_indicator_cases():
    rates = [1.0, 1.0, 1.0, 1.0]
    assert bs_utility(rates, p_j=2.0, r0=1.0, gamma=0.5, z=0.01) == pytest.approx(5.0)
    # same base value (sum 4 plus cost 1), cell 1 failing scales it by z
    failing = [0.5, 1.5, 1.0, 1.0]
    assert bs_utility(failing, 2.0, 1.0, 0.5, 0.01) == pytest.approx(0.05)
    # both cells failing scale by z squared
    both = [0.5, 1.5, 0.5, 1.5]
    assert bs_utility(both, 2.0, 1.0, 0.5, 0.01) == pytest.approx(0.0005)


def test_jammer_utility_values():
    assert jammer_utility([1.0, 1.0, 1.0, 1.0], p_j=2.0, gamma=0.5) == pytest.approx(-5.0)
    assert jammer_utility([0.0, 0.0, 0.0, 0.0], p_j=0.0, gamma=0.5) == 0.0


def test_jammer_utility_is_negated_unconditioned_bs_utility():
    # when both cells meet QoS the indicators are 1 and the identity is exact
    rng = np.random.default_rng(3)
    for _ in range(50):
        rates = rng.uniform(1.0, 5.0, size=4)
        pj = rng.uniform(0, 20)
        assert jammer_utility(rates, pj, 0.5) == pytest.approx(
            -bs_utility(rates, pj, r0=1.0, gamma=0.5, z=0.01), rel=1e-14
        )


def test_objective_equals_utility_without_cost_when_qos_met():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rates = rng.uniform(1.0, 6.0, size=4)
        assert objective_p2(rates, 1.0) == pytest.approx(
            bs_utility(rates, p_j=3.0, r0=1.0, gamma=0.0, z=0.01), rel=1e-14
        )


def test_sinr_decreasing_in_jammer_power():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = rng.exponential(1.0, (4, 3))
        ch = make_channel(g)
        p = rng.uniform(0.5, 20, size=4)
        pj1, pj2 = sorted(rng.uniform(0, 20, size=2))
        if pj1 == pj2:
            continue
        lo = np.array(sinrs(link_terms(ch, *p), pj2))
        hi = np.array(sinrs(link_terms(ch, *p), pj1))
        assert np.all(lo < hi)


def test_strong_users_ignore_other_cell_and_weak_powers():
    rng = np.random.default_rng(6)
    g = rng.exponential(1.0, (4, 3))
    ch = make_channel(g)
    s0 = sinrs(link_terms(ch, 5.0, 3.0, 6.0, 2.0), 4.0)
    s1 = sinrs(link_terms(ch, 9.0, 3.0, 1.0, 2.0), 4.0)
    assert s0[1] == s1[1]
    assert s0[3] == s1[3]


def test_rates_match_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    from slot_model import DIGITS, model_links, model_sinrs

    rng = np.random.default_rng(7)
    for _ in range(25):
        g = rng.exponential(1.0, (4, 3)) * rng.uniform(0.01, 1000)
        ch = make_channel(g)
        p = rng.uniform(0, 30, size=5)
        fast = rates_from_sinr(sinrs(link_terms(ch, *p[:4]), p[4]))
        with mp.workdps(DIGITS):
            gm = [[mp.mpf(x) for x in row] for row in g]
            p1, p2, p3, p4, pj = (mp.mpf(x) for x in p)
            sinr = model_sinrs(model_links(gm, p1, p2, p3, p4), pj)
            ref = [float(mp.log(1 + s) / mp.log(2)) for s in sinr]
        for a, b in zip(fast, ref):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)



@pytest.mark.parametrize("cell", [0, 3, -1])
def test_selfish_reward_rejects_unknown_cell(cell):
    with pytest.raises(ValueError, match=f"own_cell must be 1 or 2, got {cell}"):
        selfish_reward([1.0, 1.0, 1.0, 1.0], cell, 0.0, 0.5, 0.5, 0.01)


# The scores of one (4,) rate array by numpy's sum and min and an if per
# indicator: the references the scorers are compared with bit for bit.
def objective(r, r0):
    return float(r.sum()) if float(r.min()) >= r0 else 0.0


def utility(r, p_j, r0, gamma, z):
    i1 = 1.0 if float(r[:2].min()) >= r0 else z
    i2 = 1.0 if float(r[2:].min()) >= r0 else z
    return float(i1 * i2 * (float(r.sum()) + gamma * p_j))


def selfish(r, cell, p_j, r0, gamma, z):
    own = r[0:2] if cell == 1 else r[2:4]
    return (1.0 if float(own.min()) >= r0 else z) * (float(own.sum()) + gamma * p_j)


def jammer(r, p_j, gamma):
    return -(float(r.sum()) + gamma * p_j)


@pytest.mark.simd
def test_plain_float_scores_equal_the_array_formulas():
    # The scores add four Python floats in numpy's order
    rng = np.random.default_rng(11)
    r0 = 0.9
    for k in range(10_000):
        r = rng.exponential(2.0, 4) * rng.choice([1e-6, 1.0, 30.0])
        r[rng.random(4) < 0.2] = r0  # rates exactly at the threshold
        p_j = 0.0 if k % 5 == 0 else rng.uniform(0, 20)
        z = 0.0 if k % 7 == 0 else rng.uniform(0, 1)
        gamma = rng.uniform(0, 2)
        rates = r.tolist()
        for got, want in (
            (objective_p2(rates, r0), objective(r, r0)),
            (bs_utility(rates, p_j, r0, gamma, z), utility(r, p_j, r0, gamma, z)),
            (selfish_reward(rates, 1, p_j, r0, gamma, z),
             selfish(r, 1, p_j, r0, gamma, z)),
            (selfish_reward(rates, 2, p_j, r0, gamma, z),
             selfish(r, 2, p_j, r0, gamma, z)),
            (jammer_utility(rates, p_j, gamma), jammer(r, p_j, gamma)),
        ):
            assert type(got) is float
            assert got == want and got.hex() == want.hex(), (k, rates, got, want)


def hexes(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


@pytest.mark.simd
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rate_rows_equal_scalar_rates_bit_for_bit(seed):
    # random allocations with zero weak powers, p_j = 0 and p_j = p_j_max
    # among them; every row equals rates4 of its allocation, in the batch and
    # as a batch of one, and every scorer on the rate columns equals its
    # plain-float calls and the references above, the sign of zero included
    rng = np.random.default_rng(seed)
    ch = make_channel(rng.exponential(1.0, (4, 3)) * rng.choice([1e-3, 1.0, 1e3]))
    n = 200
    allocs = rng.uniform(0.0, 40.0, (n, 4))
    allocs[rng.random(n) < 0.2, 0] = 0.0
    allocs[rng.random(n) < 0.2, 2] = 0.0
    p_j = rng.uniform(0.0, 20.0, n)
    p_j[::5] = 0.0
    p_j[1::5] = 20.0
    r0 = 0.9
    rows = rate_rows(ch, allocs, p_j)
    assert rows.shape == (n, 4)
    for k in range(n):
        alloc, pj = allocs[k].tolist(), float(p_j[k])
        want = rates4(ch, *alloc, pj)
        assert hexes(rows[k]) == hexes(want), k
        assert hexes(rate_rows(ch, [alloc], [pj])[0]) == hexes(want), k
    # some rates exactly at r0; r0 = 0 meets every QoS threshold, so each
    # indicator takes both values
    rows[rng.random((n, 4)) < 0.2] = r0
    pjs = p_j.tolist()
    for t, gamma, z in itertools.product((r0, 0.0), (0.0, 0.5), (0.0, -0.0, 0.01, 1.0)):
        scored = (
            (lambda r, pj: objective_p2(r, t), lambda r, pj: objective(r, t)),
            (lambda r, pj: bs_utility(r, pj, t, gamma, z),
             lambda r, pj: utility(r, pj, t, gamma, z)),
            (lambda r, pj: selfish_reward(r, 1, pj, t, gamma, z),
             lambda r, pj: selfish(r, 1, pj, t, gamma, z)),
            (lambda r, pj: selfish_reward(r, 2, pj, t, gamma, z),
             lambda r, pj: selfish(r, 2, pj, t, gamma, z)),
            (lambda r, pj: jammer_utility(r, pj, gamma), lambda r, pj: jammer(r, pj, gamma)),
        )
        for score, reference in scored:
            want = [score(r, pj) for r, pj in zip(rows.tolist(), pjs)]
            assert all(type(w) is float for w in want)
            assert hexes(want) == hexes(reference(r, pj) for r, pj in zip(rows, pjs))
            assert hexes(score(rows.T, p_j)) == hexes(want), (t, gamma, z)
    with pytest.raises(ValueError, match="own_cell must be 1 or 2, got 3"):
        selfish_reward(rows.T, 3, p_j, r0, 0.5, 0.01)


def test_binding_split_arrays_equal_scalar_calls():
    # feasible and infeasible entries alike: each array entry is the scalar
    # answer, inf included
    rng = np.random.default_rng(4)
    ch = make_channel(rng.exponential(1.0, (4, 3)))
    t1, t2 = rng.uniform(0.0, 40.0, (2, 300))
    p_j = rng.uniform(0.0, 20.0, 300)
    p_j[::7] = 0.0
    for cell in (1, 2):
        got = qos_binding_split(ch, t1, t2, p_j, 0.9, cell)
        want = [qos_binding_split(ch, a, b, c, 0.9, cell)
                for a, b, c in zip(t1.tolist(), t2.tolist(), p_j.tolist())]
        assert hexes(got) == hexes(want)
        assert 0 < np.isinf(got).sum() < len(want)
