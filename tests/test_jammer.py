import math
import tracemalloc
from math import log2

import numpy as np
import pytest

from nomajam import jammer
from nomajam.channel import draw_channels
from nomajam.harness import CSV_HEADER, ExperimentConfig, TwoCellEnv
from nomajam.game import StrategyGrid
from nomajam.jammer import (
    BLOCK,
    JammerConfig,
    best_response,
    best_responses,
    concavity_probe,
    jammer_utility_curve,
)
from nomajam.learn.agents import EpsSchedule, TabularAgent, encode_observation
from nomajam.rates import (
    jammer_utility,
    link_terms,
    rates_from_sinr,
    sinrs,
    sum_rate_curve,
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


@pytest.mark.parametrize("field", ["p_j_max", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_nonfinite(field, value):
    # NaN passes a bare `<= 0` or `< 0` check, and best_response then
    # answered p_j_star = 0.0 without complaint
    with pytest.raises(ValueError, match=f"^{field} must .* finite"):
        JammerConfig(**{field: value})


def test_zero_cost_jams_at_full_power(geom):
    cfg = JammerConfig(gamma=0.0)
    for seed in range(5):
        ch = draw_channels(geom, seed)
        br = best_response(ch, (20.0, 10.0), (15.0, 10.0), cfg)
        assert br.p_j_star == cfg.p_j_max


def test_prohibitive_cost_never_jams(geom):
    # a cost above the initial marginal rate destruction dominates everywhere
    # (the rate drop is concave in jamming power, so its slope is largest at 0)
    ch = draw_channels(geom, 3)
    terms = link_terms(ch, 20.0, 10.0, 15.0, 10.0)
    marginal = sum(s * g / (d * (d + s) * np.log(2)) for s, d, g in terms)
    cfg = JammerConfig(gamma=1.1 * marginal)
    br = best_response(ch, (20.0, 10.0), (15.0, 10.0), cfg)
    assert br.p_j_star == 0.0


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
        u_star = jammer_utility_curve(ch, a1, a2, jcfg.gamma, np.array([br.p_j_star]))
        assert u_star[0] >= curve.max() - 1e-9


def test_best_response_u_value_consistent(geom, jcfg):
    ch = draw_channels(geom, 5)
    a1, a2 = (22.0, 11.0), (18.0, 9.0)
    br = best_response(ch, a1, a2, jcfg)
    rates = rates_from_sinr(sinrs(link_terms(ch, *a1, *a2), br.p_j_star))
    u_star = jammer_utility_curve(ch, a1, a2, jcfg.gamma, np.array([br.p_j_star]))
    assert u_star[0] == pytest.approx(
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


def test_best_response_bounded_at_huge_power_budget(geom):
    # the search stops at 1e-12 * p_j_max once that is above 1e-5, so it
    # ends even where 1e-5 is below the bracket ends' resolution
    ch = draw_channels(geom, 0)
    for gamma in (0.0, 1e-9, 0.5):
        cfg = JammerConfig(p_j_max=1e13, gamma=gamma)
        p_star = best_response(ch, (20.0, 10.0), (15.0, 10.0), cfg).p_j_star
        assert 0.0 <= p_star <= 1e13


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


def sum_rate(terms, p_j: float) -> float:
    """Sum rate from ``link_terms`` at a scalar jamming power, added in user order.

    ``jammer.best_responses`` unrolls this sum in its search.
    """
    total = 0.0
    for s, d, g in terms:
        total += log2(1.0 + s / (d + p_j * g))
    return total


def reference_best_response(ch, alloc1, alloc2, cfg):
    """The follower as first written: a grid per call, the per-user sweep, and
    golden-section search on a sum_rate closure, stopping at a bracket of
    1e-5 or 1e-12 * p_j_max, whichever is wider."""
    terms = link_terms(ch, *alloc1, *alloc2)
    tol = max(1e-5, 1e-12 * cfg.p_j_max)

    def u(p_j):
        return -(sum_rate(terms, p_j) + cfg.gamma * p_j)

    probe_pj = np.linspace(0.0, cfg.p_j_max, 65)
    k = int(np.argmax(reference_utility_curve(terms, cfg.gamma, probe_pj)))
    a, b = probe_pj[max(0, k - 1)], probe_pj[min(64, k + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - (b - a) * invphi, a + (b - a) * invphi
    fc, fd = u(c), u(d)
    while (b - a) > tol:
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
    return candidates[best]


def test_best_response_equals_reference_bit_for_bit(geom):
    rng = np.random.default_rng(17)
    channels = [draw_channels(geom, seed) for seed in range(40)]
    configs = [
        JammerConfig(p_j_max=p_j_max, gamma=gamma)
        for p_j_max in (1e-3, 20.0, 1e6, 1e13)
        for gamma in (0.0, 0.5, 50.0)
    ]
    sweep = {cfg: np.linspace(0.0, cfg.p_j_max, 201) for cfg in configs}
    blocks = {cfg: [] for cfg in configs}
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
        assert br.p_j_star == reference_best_response(ch, a1, a2, cfg), (
            i, p.tolist(), cfg
        )
        assert type(br.p_j_star) is float
        curve = jammer_utility_curve(ch, a1, a2, cfg.gamma, sweep[cfg])
        terms = link_terms(ch, *powers)
        reference = reference_utility_curve(terms, cfg.gamma, sweep[cfg])
        assert np.array_equal(curve, reference), (i, p.tolist(), cfg)
        blocks[cfg].append(terms)
    # one sum_rate_curve call over many allocations, as best_responses'
    # flat (n, 12) rows, equals the reference row by row
    for cfg, block in blocks.items():
        rows = [sum(terms, ()) for terms in block]
        curves = -(sum_rate_curve(rows, sweep[cfg]) + cfg.gamma * sweep[cfg])
        assert curves.shape == (len(block), 201)
        for k, (curve, terms) in enumerate(zip(curves, block)):
            reference = reference_utility_curve(terms, cfg.gamma, sweep[cfg])
            assert np.array_equal(curve, reference), (k, cfg)


def grid8_allocs():
    """Every joint profile of grid 8, as (p1, p2, p3, p4) tuples."""
    actions = StrategyGrid.build(8, 40.0).actions
    return [a1 + a2 for a1 in actions for a2 in actions]


FOLLOWER_CONFIGS = ((0, JammerConfig()), (3, JammerConfig(p_j_max=1e6, gamma=50.0)))


def test_best_responses_rows_equal_batches_of_one(geom):
    # every joint profile of grid 8: each row of a batch equals a batch of
    # one, bit for bit, whatever the row order and wherever the block
    # boundaries fall
    allocs = grid8_allocs()
    assert len(allocs) == 784 and len(allocs) % BLOCK
    for seed, cfg in FOLLOWER_CONFIGS:
        ch = draw_channels(geom, seed)
        alone = [best_responses(ch, [a], cfg)[0] for a in allocs]
        assert alone == [best_response(ch, a[:2], a[2:], cfg).p_j_star for a in allocs]
        assert all(type(p) is float for p in alone)
        assert best_responses(ch, allocs, cfg) == alone
        assert best_responses(ch, allocs[::-1], cfg) == alone[::-1]
        shift = BLOCK // 2 + 3
        assert best_responses(ch, allocs[shift:], cfg) == alone[shift:]
    assert best_responses(ch, [], cfg) == []


def test_best_responses_do_not_depend_on_the_block_size(geom, monkeypatch):
    # the same answers whatever the block size, from a list or an array of
    # the allocations
    allocs = grid8_allocs()
    for seed, cfg in FOLLOWER_CONFIGS:
        ch = draw_channels(geom, seed)
        want = best_responses(ch, allocs, cfg)
        for size in (1, 7, 64, 1000):
            monkeypatch.setattr(jammer, "BLOCK", size)
            for given in (allocs, np.array(allocs)):
                assert best_responses(ch, given, cfg) == want, (size, type(given))
            monkeypatch.undo()


def test_best_responses_read_one_block_at_a_time(geom, jcfg):
    # the working memory is one block's, whatever the number of allocations:
    # past one block, the peak grows by no more than each answer's float and
    # list slot (32 B), with room to spare
    ch = draw_channels(geom, 0)
    allocs = [(1.0 + k % 5, 2.0, 3.0, 4.0 + k % 3) for k in range(8 * BLOCK)]
    best_responses(ch, allocs[:1], jcfg)

    def peak(n):
        lanes = np.array(allocs[:n])
        tracemalloc.start()
        try:
            best_responses(ch, lanes, jcfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * BLOCK) - peak(BLOCK) <= 64 * 7 * BLOCK


def test_best_responses_rejects_a_negative_lane(geom, jcfg):
    ch = draw_channels(geom, 0)
    allocs = [(1.0, 2.0, 3.0, 4.0)] * (BLOCK + 1) + [(1.0, 2.0, -3.0, 4.0)]
    with pytest.raises(ValueError, match="non-negative"):
        best_responses(ch, allocs, jcfg)


NON_FINITE = {
    # a negative power gave jammer_utility_curve and concavity_probe a
    # finite curve, or at -50 a NaN one with a numpy warning
    "negative": (-1.0, 1.0, 1.0, 1.0),
    "-50": (-50.0, 1.0, 1.0, 1.0),
    "nan": (math.nan, 1.0, 1.0, 1.0),
    "+inf": (math.inf, 1.0, 1.0, 1.0),
    "-inf": (1.0, 1.0, -math.inf, 1.0),
    # each power is finite, but p1 + p2 overflows UE3's interference term
    "overflowing pair": (1e308, 1e308, 1.0, 1.0),
}
FOLLOWER_CALLS = {
    "best_responses": lambda ch, p, cfg: best_responses(ch, [p], cfg),
    "best_response": lambda ch, p, cfg: best_response(ch, p[:2], p[2:], cfg),
    "jammer_utility_curve": lambda ch, p, cfg: jammer_utility_curve(
        ch, p[:2], p[2:], cfg.gamma, cfg.probe_grid),
    "concavity_probe": lambda ch, p, cfg: concavity_probe(ch, p[:2], p[2:], cfg),
}


@pytest.mark.parametrize("call", FOLLOWER_CALLS)
@pytest.mark.parametrize("alloc", NON_FINITE.values(), ids=NON_FINITE)
def test_follower_rejects_a_non_finite_allocation(geom, jcfg, call, alloc):
    # NaN passes a bare `< 0` check; unchecked, a NaN or infinite power gets
    # a quiet answer (0.0 or p_j_max) and a NaN utility curve reads unimodal
    ch = draw_channels(geom, 0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        FOLLOWER_CALLS[call](ch, alloc, jcfg)


def test_probe_grid_is_read_only():
    cfg = JammerConfig(p_j_max=7.0)
    assert np.array_equal(cfg.probe_grid, np.linspace(0.0, 7.0, 65))
    assert not cfg.probe_grid.flags.writeable
    with pytest.raises(ValueError):
        cfg.probe_grid[1] = 1.0


def test_jql_greedy_when_no_exploration():
    # the learning jammer observes the previous slot's BS totals binned to
    # jammer_grid_levels + 1 levels, and its action k jams at k * p_j_max / L
    cfg = ExperimentConfig(eps_start=0.0, eps_floor=0.0, jammer_grid_levels=10)
    env = TwoCellEnv(cfg, seed=0)
    a1, a2 = env.grid.index[2, 1], env.grid.index[3, 3]  # totals 20 and 40
    env.jammer.table.table[encode_observation((5, 10), 11), 4] = 10.0
    p_j = CSV_HEADER.index("p_j")
    assert env.step(a1, a2)[-1][p_j] == 0.0  # greedy on the all-zero start (0, 0)
    assert env.step(a1, a2)[-1][p_j] == 4 * cfg.p_j_max / 10


def test_jql_converges_to_best_response(geom, jcfg):
    # stationary channel and fixed BS powers: the learned power should sit
    # within one action-grid step of the exact follower optimum
    ch = draw_channels(geom, 21)
    a1, a2 = (25.0, 10.0), (20.0, 13.0)
    br = best_response(ch, a1, a2, jcfg)
    levels = 10
    agent = TabularAgent(
        levels + 1, levels + 1, 2, alpha=0.2, discount=0.7,
        eps=EpsSchedule(0.9, 0.9995, 0.05), seeds=(2,),
    )
    obs = ((9, 8),)  # totals 35 and 33 of 40, binned to 10 levels
    chosen = []
    for _ in range(10_000):
        (k,) = agent.act(obs)
        pj = k * jcfg.p_j_max / levels
        rates = rates_from_sinr(sinrs(link_terms(ch, *a1, *a2), pj))
        agent.learn((k,), (jammer_utility(rates, pj, jcfg.gamma),), obs)
        chosen.append(pj)
    assert abs(np.mean(chosen[-1000:]) - br.p_j_star) <= jcfg.p_j_max / levels
