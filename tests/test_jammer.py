import math

import numpy as np
import pytest

from nomajam.channel import draw_channels
from nomajam.jammer import (
    JammerAgent,
    JammerConfig,
    best_response,
    concavity_probe,
    jammer_utility_curve,
)
from nomajam.rates import (
    StrategyProfile,
    jammer_utility,
    link_terms,
    rates_from_sinr,
    sinr_vector,
    sum_rate,
)

from conftest import make_channel


def random_allocs(rng, p_bs_max=40.0):
    t1, t2 = rng.uniform(5, p_bs_max, size=2)
    f1, f2 = rng.uniform(0.2, 0.8, size=2)
    return (f1 * t1, (1 - f1) * t1), (f2 * t2, (1 - f2) * t2)


def test_config_validation():
    with pytest.raises(ValueError):
        JammerConfig(p_j_max=0.0)
    with pytest.raises(ValueError):
        JammerConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        JammerConfig(grid_levels=1)
    # golden-section search never ends with a tolerance below float resolution
    for tol in (0.0, -1.0, 1e-20):
        with pytest.raises(ValueError, match="search_tolerance"):
            JammerConfig(search_tolerance=tol)


def test_zero_cost_jams_at_full_power(geom):
    cfg = JammerConfig(gamma=0.0)
    for seed in range(5):
        ch = draw_channels(geom, seed)
        br = best_response(ch, (20.0, 10.0), (15.0, 10.0), cfg)
        assert br.p_j_star == pytest.approx(cfg.p_j_max)
        assert not br.interior


def test_prohibitive_cost_never_jams(geom):
    # a cost above the initial marginal rate destruction dominates everywhere
    # (the rate drop is concave in jamming power, so its slope is largest at 0)
    ch = draw_channels(geom, 3)
    terms = link_terms(ch, 20.0, 10.0, 15.0, 10.0)
    marginal = sum(s * g / (d * (d + s) * np.log(2)) for s, d, g in terms)
    cfg = JammerConfig(gamma=1.1 * marginal)
    br = best_response(ch, (20.0, 10.0), (15.0, 10.0), cfg)
    assert br.p_j_star == 0.0
    assert not br.interior


def test_best_response_matches_dense_grid(geom, jcfg):
    rng = np.random.default_rng(11)
    pj_grid = np.linspace(0.0, jcfg.p_j_max, 100_001)
    for seed in range(10):
        ch = draw_channels(geom, seed)
        a1, a2 = random_allocs(rng)
        br = best_response(ch, a1, a2, jcfg)
        curve = jammer_utility_curve(ch, a1, a2, jcfg.gamma, pj_grid)
        k = int(np.argmax(curve))
        assert abs(br.p_j_star - pj_grid[k]) <= pj_grid[1] + 1e-12
        # global-optimality certificate at grid resolution
        assert br.u_at_star >= curve.max() - 1e-9


def test_best_response_u_value_consistent(geom, jcfg):
    ch = draw_channels(geom, 5)
    a1, a2 = (22.0, 11.0), (18.0, 9.0)
    br = best_response(ch, a1, a2, jcfg)
    rates = rates_from_sinr(sinr_vector(ch, StrategyProfile(*a1, *a2, p_j=br.p_j_star)))
    assert br.u_at_star == pytest.approx(
        jammer_utility(rates, br.p_j_star, jcfg.gamma), rel=1e-12
    )


def test_best_response_bounds_and_determinism(geom, jcfg):
    rng = np.random.default_rng(12)
    for seed in range(10):
        ch = draw_channels(geom, seed)
        a1, a2 = random_allocs(rng)
        br1 = best_response(ch, a1, a2, jcfg)
        br2 = best_response(ch, a1, a2, jcfg)
        assert 0.0 <= br1.p_j_star <= jcfg.p_j_max
        assert br1 == br2


def test_raising_cost_never_raises_power(geom):
    rng = np.random.default_rng(13)
    for seed in range(8):
        ch = draw_channels(geom, seed)
        a1, a2 = random_allocs(rng)
        stars = [
            best_response(ch, a1, a2, JammerConfig(gamma=g)).p_j_star
            for g in (0.0, 0.1, 0.3, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(stars, stars[1:]))


def test_probe_rejects_few_points(channel, jcfg):
    with pytest.raises(ValueError):
        concavity_probe(channel, (10.0, 5.0), (10.0, 5.0), jcfg, n_points=5)


def test_probe_zero_cost_unimodal(geom):
    ch = draw_channels(geom, 2)
    rep = concavity_probe(ch, (20.0, 10.0), (15.0, 10.0), JammerConfig(gamma=0.0))
    assert rep.unimodal


def test_probe_affine_when_jammer_unheard():
    g = np.random.default_rng(14).exponential(1.0, (4, 3))
    g[:, 2] = 0.0
    ch = make_channel(g)
    rep = concavity_probe(ch, (10.0, 5.0), (10.0, 5.0), JammerConfig())
    assert rep.unimodal
    assert rep.sign_changes == 0


def test_probe_random_realizations_unimodal(geom, jcfg):
    rng = np.random.default_rng(15)
    hits = 0
    total = 60
    for seed in range(total):
        ch = draw_channels(geom, seed)
        a1, a2 = random_allocs(rng)
        hits += concavity_probe(ch, a1, a2, jcfg).unimodal
    assert hits >= 0.95 * total


def test_probe_unimodal_on_every_random_profile(geom):
    # best_response brackets the argmax of its 65-point sweep with no fallback;
    # that is sound because the utility is concave in the jamming power
    rng = np.random.default_rng(16)
    channels = [draw_channels(geom, seed) for seed in range(40)]
    gammas = (0.0, 0.5, 50.0)
    failures = []
    for i in range(2000):
        ch = channels[i % len(channels)]
        p = rng.uniform(0.0, 40.0, size=4)
        if i % 5 == 1:
            p[0] = 0.0
        elif i % 5 == 2:
            p[2] = 0.0
        gamma = gammas[i % 3] if i % 4 else float(rng.uniform(0.0, 5.0))
        a1, a2 = tuple(p[:2]), tuple(p[2:])
        rep = concavity_probe(ch, a1, a2, JammerConfig(gamma=gamma), n_points=65)
        if not rep.unimodal:
            failures.append((i, p.tolist(), gamma))
    assert failures == []


def reference_utility_curve(terms, gamma, pj):
    """The sweep as first written: one np.log2 pass per user, in user order."""
    total = 0.0
    for s, d, g in terms:
        total += np.log2(1.0 + s / (d + pj * g))
    return -(total + gamma * pj)


def reference_best_response(ch, alloc1, alloc2, cfg):
    """The follower as first written: a grid per call, the per-user sweep, and
    golden-section search on a sum_rate closure."""
    terms = link_terms(ch, *alloc1, *alloc2)

    def u(p_j):
        return -(sum_rate(terms, p_j) + cfg.gamma * p_j)

    probe_pj = np.linspace(0.0, cfg.p_j_max, 65)
    k = int(np.argmax(reference_utility_curve(terms, cfg.gamma, probe_pj)))
    a, b = probe_pj[max(0, k - 1)], probe_pj[min(64, k + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - (b - a) * invphi, a + (b - a) * invphi
    fc, fd = u(c), u(d)
    while (b - a) > cfg.search_tolerance:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = u(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = u(d)
    candidates = [0.0, float(0.5 * (a + b)), cfg.p_j_max]
    values = [u(x) for x in candidates]
    best = max(range(3), key=lambda i: (values[i], candidates[i]))
    p_star, tol = candidates[best], cfg.search_tolerance
    return p_star, bool(tol < p_star < cfg.p_j_max - tol), float(values[best])


def test_best_response_equals_reference_bit_for_bit(geom):
    rng = np.random.default_rng(17)
    channels = [draw_channels(geom, seed) for seed in range(40)]
    configs = [
        JammerConfig(p_j_max=p_j_max, gamma=gamma)
        for p_j_max in (1e-3, 20.0, 1e6)
        for gamma in (0.0, 0.5, 50.0)
    ]
    sweep = {cfg: np.linspace(0.0, cfg.p_j_max, 201) for cfg in configs}
    for i in range(2000):
        ch, cfg = channels[i % len(channels)], configs[i % len(configs)]
        p = rng.uniform(0.0, 40.0, size=4)
        if i % 5 == 1:
            p[0] = 0.0
        elif i % 5 == 2:
            p[2] = 0.0
        # numpy scalars (as the game passes) and plain floats alike
        powers = tuple(p) if i % 2 else tuple(p.tolist())
        a1, a2 = powers[:2], powers[2:]
        br = best_response(ch, a1, a2, cfg)
        assert (br.p_j_star, br.interior, br.u_at_star) == reference_best_response(
            ch, a1, a2, cfg
        ), (i, p.tolist(), cfg)
        assert type(br.p_j_star) is float and type(br.u_at_star) is float
        curve = jammer_utility_curve(ch, a1, a2, cfg.gamma, sweep[cfg])
        reference = reference_utility_curve(
            link_terms(ch, *powers), cfg.gamma, sweep[cfg]
        )
        assert np.array_equal(curve, reference), (i, p.tolist(), cfg)


def test_probe_grid_is_read_only():
    cfg = JammerConfig(p_j_max=7.0)
    assert np.array_equal(cfg.probe_grid, np.linspace(0.0, 7.0, 65))
    assert not cfg.probe_grid.flags.writeable
    with pytest.raises(ValueError):
        cfg.probe_grid[1] = 1.0


def test_jql_greedy_when_no_exploration(jcfg):
    agent = JammerAgent(jcfg, p_bs_max=40.0, seed=0, eps_start=0.0, eps_floor=0.0)
    state = agent.observe_powers(20.0, 20.0)
    agent.table.table[state, 4] = 10.0
    assert agent.step(state, None) == agent.actions[4]


def test_jql_full_exploration_uniform_over_non_greedy(jcfg):
    agent = JammerAgent(jcfg, p_bs_max=40.0, seed=1, eps_start=1.0, eps_decay=1.0)
    state = 0
    n = 20_000
    counts = np.zeros(len(agent.actions))
    for _ in range(n):
        p = agent.step(state, None)
        counts[agent.actions.index(p)] += 1
    # greedy (index 0 on an all-zero table) is never taken; the rest uniform
    assert counts[0] == 0
    expected = n / (len(agent.actions) - 1)
    sigma = np.sqrt(n * (1 / 10) * (9 / 10))
    assert np.all(np.abs(counts[1:] - expected) < 4 * sigma)


def test_jql_converges_to_best_response(geom, jcfg):
    # stationary channel and fixed BS powers: the learned power should sit
    # within one action-grid step of the exact follower optimum
    ch = draw_channels(geom, 21)
    a1, a2 = (25.0, 10.0), (20.0, 13.0)
    br = best_response(ch, a1, a2, jcfg)
    agent = JammerAgent(jcfg, p_bs_max=40.0, seed=2, eps_decay=0.9995)
    state = agent.observe_powers(a1[0] + a1[1], a2[0] + a2[1])
    reward = None
    chosen = []
    for _ in range(10_000):
        pj = agent.step(state, reward)
        rates = rates_from_sinr(sinr_vector(ch, StrategyProfile(*a1, *a2, p_j=pj)))
        reward = jammer_utility(rates, pj, jcfg.gamma)
        chosen.append(pj)
    grid_step = jcfg.p_j_max / jcfg.grid_levels
    assert abs(np.mean(chosen[-1000:]) - br.p_j_star) <= grid_step
