import numpy as np
import pytest

from nomajam.rates import (
    StrategyProfile,
    bs_utility,
    jammer_utility,
    objective_p2,
    rates_from_sinr,
    sinr_vector,
)

from conftest import make_channel


def test_profile_rejects_negative_power():
    with pytest.raises(ValueError):
        StrategyProfile(p1=-1.0, p2=1.0, p3=1.0, p4=1.0)


def test_sinr_all_zero_powers():
    ch = make_channel(np.random.default_rng(0).exponential(1.0, (4, 3)))
    prof = StrategyProfile(0.0, 0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(sinr_vector(ch, prof), np.zeros(4))


def test_sinr_strong_user_formula():
    # p2 = 2 with unit own gain and unit jam gain under p_j = 1 gives SINR2 = 1
    g = np.random.default_rng(1).exponential(1.0, (4, 3))
    g[1, 0] = 1.0
    g[1, 2] = 1.0
    ch = make_channel(g)
    prof = StrategyProfile(p1=3.0, p2=2.0, p3=4.0, p4=5.0, p_j=1.0)
    assert sinr_vector(ch, prof)[1] == pytest.approx(1.0, rel=1e-15)


def test_sinr_weak_user_formula():
    # own-cell SIC interference only: 3*1 / (1 + 1*1) = 3/2
    g = np.zeros((4, 3))
    g[0, 0] = 1.0
    ch = make_channel(g)
    prof = StrategyProfile(p1=3.0, p2=1.0, p3=7.0, p4=2.0, p_j=0.0)
    assert sinr_vector(ch, prof)[0] == pytest.approx(1.5, rel=1e-15)


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
        lo = sinr_vector(ch, StrategyProfile(*p, p_j=pj2))
        hi = sinr_vector(ch, StrategyProfile(*p, p_j=pj1))
        assert np.all(lo < hi)


def test_strong_users_ignore_other_cell_and_weak_powers():
    rng = np.random.default_rng(6)
    g = rng.exponential(1.0, (4, 3))
    ch = make_channel(g)
    base = StrategyProfile(p1=5.0, p2=3.0, p3=6.0, p4=2.0, p_j=4.0)
    moved = StrategyProfile(p1=9.0, p2=3.0, p3=1.0, p4=2.0, p_j=4.0)
    s0 = sinr_vector(ch, base)
    s1 = sinr_vector(ch, moved)
    assert s0[1] == s1[1]
    assert s0[3] == s1[3]


def test_rates_match_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = rng.exponential(1.0, (4, 3)) * rng.uniform(0.01, 1000)
        ch = make_channel(g)
        p = rng.uniform(0, 30, size=5)
        prof = StrategyProfile(*p)
        fast = rates_from_sinr(sinr_vector(ch, prof))
        gm = [[mp.mpf(x) for x in row] for row in g]
        p1, p2, p3, p4, pj = (mp.mpf(x) for x in p)
        sinr = [
            p1 * gm[0][0] / (1 + p2 * gm[0][0] + (p3 + p4) * gm[0][1] + pj * gm[0][2]),
            p2 * gm[1][0] / (1 + pj * gm[1][2]),
            p3 * gm[2][1] / (1 + p4 * gm[2][1] + (p1 + p2) * gm[2][0] + pj * gm[2][2]),
            p4 * gm[3][1] / (1 + pj * gm[3][2]),
        ]
        ref = [float(mp.log(1 + s) / mp.log(2)) for s in sinr]
        for a, b in zip(fast, ref):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

