import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from nomajam import game
from nomajam.channel import ChannelRealization, draw_channels
from nomajam.game import (
    TABLE_BYTES_PER_PROFILE,
    FixedPointFailure,
    GridEvaluator,
    StrategyGrid,
    brute_force_ne,
    deviation_margins,
    find_ne_l1,
    find_ne_l2,
    find_ne_l3,
    leader_slopes_numeric,
    monotonicity_check,
    mood_classify,
    pareto_ne_l1,
    qos_binding_split,
    _full_power_root,
    _full_power_slope_factor,
    _stackelberg_fixed_point,
    _binding_profile,
)
from nomajam.harness import ExperimentConfig, channel_for_seed
from nomajam.jammer import JammerConfig, best_response
from nomajam.rates import StrategyProfile, rates_from_sinr, sinr_vector

from conftest import make_channel

R0 = 0.9
GAMMA = 0.5
Z = 0.01


def mirror_channel(ch: ChannelRealization) -> ChannelRealization:
    """Swap the two cells: users (1,2)<->(3,4) and sources BS1<->BS2."""
    g = ch.gains
    perm_users = [2, 3, 0, 1]
    perm_sources = [1, 0, 2]
    return ChannelRealization(g[np.ix_(perm_users, perm_sources)], seed=ch.seed)


def first_seed_with_mood(geom, grid, jcfg, want, r0=R0, limit=60):
    for seed in range(limit):
        ch = draw_channels(geom, seed)
        if mood_classify(ch, grid, jcfg, r0).mood == want:
            return seed, ch
    pytest.skip(f"no mood-{want} realization within {limit} seeds")


def first_seed_with_l1(geom, grid, jcfg, limit=60):
    """A realization whose all-QoS equilibria survive at grid resolution.

    Mood 1 is decided with continuous binding splits, so a coarse grid can
    legitimately have no QoS-satisfying equilibrium; scan until one exists.
    """
    for seed in range(limit):
        ch = draw_channels(geom, seed)
        mood = mood_classify(ch, grid, jcfg, R0)
        if mood.mood != 1:
            continue
        certs = find_ne_l1(ch, grid, jcfg, R0, GAMMA, Z, mood_report=mood)
        if certs:
            return seed, ch, certs
    pytest.skip(f"no grid-level all-QoS equilibrium within {limit} seeds")


def test_grid_actions_small():
    grid = StrategyGrid.build(4, 40.0)
    assert grid.actions == (
        (10.0, 10.0), (10.0, 20.0), (10.0, 30.0),
        (20.0, 10.0), (20.0, 20.0), (30.0, 10.0),
    )
    assert grid.totals == (20.0, 30.0, 40.0)
    assert len(set(grid.actions)) == len(grid.actions)


@pytest.mark.parametrize("p_bs_max", [1.0, 7.3, 13.0, 40.0])
def test_grid_levels_index_actions_and_totals(p_bs_max):
    for levels in range(2, 17):
        grid = StrategyGrid.build(levels, p_bs_max)
        step = grid.step
        assert grid.totals == tuple(k * step for k in range(2, levels + 1))
        assert len(set(grid.totals)) == levels - 1
        for k, (w, s) in enumerate(grid.action_levels):
            assert grid.index[w, s] == k
            assert grid.actions[k] == (w * step, s * step)
            total = grid.actions[k][0] + grid.actions[k][1]
            assert abs(total - grid.totals[w + s - 2]) <= 1e-9 * p_bs_max
        assert len(grid.index) == len(grid.actions) == levels * (levels - 1) // 2


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        StrategyGrid.build(0, 40.0)
    with pytest.raises(ValueError):
        StrategyGrid.build(1, 40.0)  # no room for two positive powers
    with pytest.raises(ValueError):
        StrategyGrid.build(4, -1.0)


def test_binding_split_zero_threshold(channel):
    assert qos_binding_split(channel, 20.0, 20.0, 3.0, r0=0.0, cell=1) == 0.0


def test_binding_split_substitution(channel):
    # substituting the returned weak power back reproduces the threshold rate
    for cell in (1, 2):
        p_weak = qos_binding_split(channel, 30.0, 25.0, 4.0, R0, cell)
        if not math.isfinite(p_weak):
            continue
        if cell == 1:
            prof = StrategyProfile(p_weak, 30.0 - p_weak, 12.0, 13.0, 4.0)
            rate = rates_from_sinr(sinr_vector(channel, prof))[0]
        else:
            prof = StrategyProfile(15.0, 15.0, p_weak, 25.0 - p_weak, 4.0)
            rate = rates_from_sinr(sinr_vector(channel, prof))[2]
        assert rate == pytest.approx(R0, abs=1e-10)


def test_binding_split_matches_bisection(geom):
    rng = np.random.default_rng(31)
    for seed in range(10):
        ch = draw_channels(geom, seed)
        t1, t2 = rng.uniform(10, 40, size=2)
        pj = rng.uniform(0, 20)
        closed = qos_binding_split(ch, t1, t2, pj, R0, cell=1)
        if not math.isfinite(closed):
            continue

        def rate1(p1):
            prof = StrategyProfile(p1, t1 - p1, 0.6 * t2, 0.4 * t2, pj)
            return rates_from_sinr(sinr_vector(ch, prof))[0]

        lo, hi = 0.0, t1
        if rate1(hi) < R0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rate1(mid) < R0:
                lo = mid
            else:
                hi = mid
        assert closed == pytest.approx(0.5 * (lo + hi), abs=1e-8 * t1)


def test_binding_split_infeasible_marker():
    # vanishing own gain relative to interference pushes the binding power
    # past the budget
    g = np.full((4, 3), 1e-6)
    g[0, 0] = 1e-6
    g[0, 1] = 10.0
    ch = make_channel(g)
    assert qos_binding_split(ch, 10.0, 40.0, 0.0, 1.0, cell=1) == math.inf


def test_mood_interference_free_easy_qos():
    g = np.zeros((4, 3))
    for i, src in ((0, 0), (1, 0), (2, 1), (3, 1)):
        g[i, src] = 5.0
    ch = make_channel(g)
    grid = StrategyGrid.build(4, 40.0)
    report = mood_classify(ch, grid, JammerConfig(), r0=0.1)
    assert report.mood == 1
    assert (40.0, 40.0) in report.ps_set


def test_mood_impossible_qos(channel):
    grid = StrategyGrid.build(4, 40.0)
    # beyond the best single-user rate at full power
    r0 = float(np.log2(1 + 40.0 * channel.gains.max())) + 1.0
    report = mood_classify(channel, grid, JammerConfig(), r0=r0)
    assert report.mood == 2
    assert report.ps_set == ()


def test_mood_agrees_with_split_grid_search(geom, jcfg):
    # conservative oracle: scan a dense split grid with the exact follower
    # response at every point; anything it finds feasible must be in the
    # feasible set, and every feasible pair must verify directly
    grid = StrategyGrid.build(4, 40.0)
    ch = draw_channels(geom, 9)
    report = mood_classify(ch, grid, jcfg, R0)
    ps = set(report.ps_set)
    for t1 in grid.totals:
        for t2 in grid.totals:
            oracle_feasible = False
            for f1 in np.linspace(0.05, 0.95, 19):
                for f2 in np.linspace(0.05, 0.95, 19):
                    prof = StrategyProfile(f1 * t1, (1 - f1) * t1,
                                           f2 * t2, (1 - f2) * t2)
                    br = best_response(ch, (prof.p1, prof.p2),
                                       (prof.p3, prof.p4), jcfg)
                    check = StrategyProfile(prof.p1, prof.p2, prof.p3, prof.p4,
                                            br.p_j_star)
                    if float(rates_from_sinr(sinr_vector(ch, check)).min()) >= R0:
                        oracle_feasible = True
                        break
                if oracle_feasible:
                    break
            if oracle_feasible:
                assert (t1, t2) in ps
    for (t1, t2) in ps:
        sol = _stackelberg_fixed_point(
            ch, jcfg, lambda pj: _binding_profile(ch, t1, t2, pj, R0)
        )
        assert not isinstance(sol, FixedPointFailure)
        prof, br = sol
        rates = rates_from_sinr(sinr_vector(ch, prof))
        assert rates[0] == pytest.approx(R0, abs=1e-7)
        assert rates[2] == pytest.approx(R0, abs=1e-7)
        assert rates[1] >= R0 - 1e-9 and rates[3] >= R0 - 1e-9
        assert prof.p_j == pytest.approx(br.p_j_star)


def damped_fixed_point(ch, jcfg, profile_of_pj):
    """The damped iteration (weight 0.5) the secant fixed point replaced.

    Kept as the reference; it returns the same failure type so that it can
    stand in for ``_stackelberg_fixed_point`` inside ``analysis_report``.
    """
    tol = 1e-6 * jcfg.p_j_max
    pj = 0.0
    for _ in range(100):
        prof = profile_of_pj(pj)
        if prof is None:
            return FixedPointFailure("undefined_profile", pj)
        br = best_response(ch, (prof.p1, prof.p2), (prof.p3, prof.p4), jcfg)
        nxt = 0.5 * pj + 0.5 * br.p_j_star
        if abs(nxt - pj) <= tol:
            prof = profile_of_pj(br.p_j_star)
            if prof is None:
                return FixedPointFailure("undefined_profile", br.p_j_star)
            return StrategyProfile(
                p1=prof.p1, p2=prof.p2, p3=prof.p3, p4=prof.p4, p_j=br.p_j_star
            ), br
        pj = nxt
    return FixedPointFailure("no_convergence", pj)


def test_fixed_point_agrees_with_damped_reference(geom, jcfg):
    # every total-power pair mood_classify asks about at grid levels 4 and 6,
    # plus random pairs, over realizations not used elsewhere: both methods
    # fail on the same pairs for the same reason, and converged jamming
    # powers agree to the stopping tolerance
    rng = np.random.default_rng(2024)
    grid_pairs = [
        pair
        for levels in (4, 6)
        for pair in product(StrategyGrid.build(levels, 40.0).totals, repeat=2)
    ]
    checked = converged = 0
    for seed in range(40, 60):
        ch = draw_channels(geom, seed)
        pairs = grid_pairs + [tuple(rng.uniform(0.5, 40.0, size=2)) for _ in range(20)]
        for t1, t2 in pairs:
            def prof_of(pj):
                return _binding_profile(ch, t1, t2, pj, R0)

            got = _stackelberg_fixed_point(ch, jcfg, prof_of)
            ref = damped_fixed_point(ch, jcfg, prof_of)
            checked += 1
            assert isinstance(got, FixedPointFailure) == isinstance(ref, FixedPointFailure)
            if isinstance(ref, FixedPointFailure):
                assert got.reason == ref.reason
                continue
            converged += 1
            assert abs(got[0].p_j - ref[0].p_j) <= 2e-6 * jcfg.p_j_max
            assert got[0].p_j == got[1].p_j_star
    assert checked >= 1000
    assert converged >= 600


@pytest.mark.parametrize("levels,seeds", [(4, (0, 11, 22)), (6, (1, 12, 15))])
def test_analysis_report_unchanged_under_damped_reference(monkeypatch, levels, seeds):
    # seeds 11 and 22 at grid 4 and 11 and 15 at grid 6 are mood 2
    cfg = ExperimentConfig(scheme="NE-ANALYSIS", grid_levels=levels, seeds=seeds)
    grid, jcfg = cfg.grid(), cfg.jammer_config()
    args = (grid, jcfg, cfg.r0, cfg.gamma, cfg.z, cfg.eps_ne)
    for seed in seeds:
        ch = channel_for_seed(cfg, seed)
        want = game.analysis_report(ch, *args)
        with monkeypatch.context() as m:
            m.setattr(game, "_stackelberg_fixed_point", damped_fixed_point)
            assert game.analysis_report(ch, *args) == want


def test_fixed_point_undefined_profile_reports_where(jcfg):
    ch = make_channel(np.full((4, 3), 5.0))
    loud = StrategyProfile(20.0, 20.0, 20.0, 20.0)
    assert _stackelberg_fixed_point(ch, jcfg, lambda pj: None) == FixedPointFailure(
        "undefined_profile", 0.0
    )
    # defined at pj = 0 only: the iteration stops at its first step,
    # the jammer's response to that profile
    first = best_response(ch, (20.0, 20.0), (20.0, 20.0), jcfg).p_j_star
    assert first > 0.0
    out = _stackelberg_fixed_point(ch, jcfg, lambda pj: loud if pj == 0.0 else None)
    assert out == FixedPointFailure("undefined_profile", first)


def test_fixed_point_no_convergence_without_root(jcfg):
    # h(pj) = BR(profile(pj)) - pj jumps from positive to negative at pj = 3
    # with no root: the jammer answers the loud profile with about 4.6 and
    # the silent one with 0
    ch = make_channel(np.full((4, 3), 5.0))
    loud = StrategyProfile(20.0, 20.0, 20.0, 20.0)
    silent = StrategyProfile(0.0, 0.0, 0.0, 0.0)
    assert best_response(ch, (20.0, 20.0), (20.0, 20.0), jcfg).p_j_star > 3.0
    assert best_response(ch, (0.0, 0.0), (0.0, 0.0), jcfg).p_j_star == 0.0
    asked = []

    def prof_of(pj):
        asked.append(pj)
        return loud if pj < 3.0 else silent

    out = _stackelberg_fixed_point(ch, jcfg, prof_of)
    assert out == FixedPointFailure("no_convergence", asked[-1])
    assert len(asked) == 100
    assert 0.0 <= out.p_j <= jcfg.p_j_max


def test_brute_force_single_action_grid(channel, jcfg):
    grid = StrategyGrid.build(2, 40.0)
    assert len(grid.actions) == 1
    out = brute_force_ne(channel, grid, jcfg, R0, GAMMA, Z)
    assert len(out) == 1


def test_brute_force_excludes_improvable(geom, jcfg):
    grid = StrategyGrid.build(4, 40.0)
    ch = draw_channels(geom, 9)
    ev = GridEvaluator(ch, grid, jcfg, R0, GAMMA, Z)
    ne = brute_force_ne(ch, grid, jcfg, R0, GAMMA, Z, evaluator=ev)
    keys = {p.as_tuple()[:4] for p in ne}
    u = ev.u_matrix()
    n = len(grid.actions)
    for i in range(n):
        for j in range(n):
            prof = ev.profile(i, j)
            improvable = (
                max(np.delete(u[:, j], i).max(), np.delete(u[i, :], j).max())
                > u[i, j] + 1e-9
            )
            assert improvable == (prof.as_tuple()[:4] not in keys)


def delete_margins(u):
    """The per-profile np.delete formula the top-two margins replaced, kept as the reference."""
    n = u.shape[0]
    out = np.empty_like(u)
    for i in range(n):
        for j in range(n):
            if n == 1:
                out[i, j] = math.inf
                continue
            col = np.delete(u[:, j], i)
            row = np.delete(u[i, :], j)
            out[i, j] = u[i, j] - max(col.max(), row.max())
    return out


def test_deviation_margins_match_delete_reference():
    rng = np.random.default_rng(5)
    cases = [
        np.array([[3.0]]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[2.0, 0.5], [2.0, -1.0]]),  # tied column maximum
        np.array([[5.0, 1.0, 5.0], [0.0, 2.0, 3.0], [5.0, 4.0, 4.0]]),  # tied rows and columns
        np.zeros((4, 4)),
    ]
    cases += [rng.integers(0, 3, size=(n, n)).astype(float) for n in range(2, 9)]
    cases += [rng.normal(size=(n, n)) for n in (1, 2, 3, 15, 28)]
    for u in cases:
        assert np.array_equal(deviation_margins(u), delete_margins(u)), u


def test_grid_table_stays_within_its_byte_bound(geom, jcfg):
    # the figure behind the NE-ANALYSIS grid bound in config validation;
    # 256 KiB covers the follower's fixed working memory
    ch = draw_channels(geom, 0)
    # a first table builds the follower's per-config sweep grid outside the trace
    GridEvaluator(ch, StrategyGrid.build(3, 40.0), jcfg, R0, GAMMA, Z).u_matrix()
    grid = StrategyGrid.build(8, 40.0)
    ev = GridEvaluator(ch, grid, jcfg, R0, GAMMA, Z)
    tracemalloc.start()
    try:
        ev.u_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(grid.actions)
    assert peak <= TABLE_BYTES_PER_PROFILE * n * n + 256 * 1024


def test_mood_ps_pairs_distinct_at_grid_levels_7():
    # 7 levels of 40 give ulp-apart sums such as 28.57142857142857 and
    # 28.571428571428573 for the same total level
    cfg = ExperimentConfig(scheme="NE-ANALYSIS", grid_levels=7)
    grid = cfg.grid()
    mood = mood_classify(channel_for_seed(cfg, 0), grid, cfg.jammer_config(), cfg.r0)
    assert len(mood.ps_set) > 1
    tol = 1e-9 * grid.p_bs_max
    for a, b in combinations(mood.ps_set, 2):
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) > tol
    assert mood.ps_set == tuple(
        (k1 * grid.step, k2 * grid.step) for k1, k2 in mood.ps_levels
    )


def test_analytic_ne_l1_confirmed_by_brute_force(geom, jcfg):
    grid = StrategyGrid.build(4, 40.0)
    seed, ch, certs = first_seed_with_l1(geom, grid, jcfg)
    bf = {p.as_tuple() for p in brute_force_ne(ch, grid, jcfg, R0, GAMMA, Z)}
    for c in certs:
        assert c.profile.as_tuple() in bf
        assert c.deviation_margin >= -1e-9
        # every certified profile meets QoS for all four users
        assert float(rates_from_sinr(sinr_vector(ch, c.profile)).min()) >= R0 - 1e-9


def test_certificates_use_follower_best_response(geom, jcfg):
    grid = StrategyGrid.build(4, 40.0)
    seed, ch, certs = first_seed_with_l1(geom, grid, jcfg)
    for c in certs:
        br = best_response(
            ch, (c.profile.p1, c.profile.p2), (c.profile.p3, c.profile.p4), jcfg
        )
        assert c.profile.p_j == pytest.approx(br.p_j_star)


def test_ne_l1_symmetric_network():
    # mirror-symmetric gains: the equilibrium set is closed under swapping
    # the two cells
    g = np.array([
        [20.0, 3.0, 1.0],
        [300.0, 2.0, 0.5],
        [3.0, 20.0, 1.0],
        [2.0, 300.0, 0.5],
    ])
    ch = make_channel(g)
    assert np.array_equal(mirror_channel(ch).gains, ch.gains)
    grid = StrategyGrid.build(4, 40.0)
    jcfg = JammerConfig()
    certs = find_ne_l1(ch, grid, jcfg, R0, GAMMA, Z)
    pairs = {((c.profile.p1, c.profile.p2), (c.profile.p3, c.profile.p4))
             for c in certs}
    assert pairs == {(a2, a1) for a1, a2 in pairs}


def test_pareto_singleton_and_dominance(geom, jcfg):
    grid = StrategyGrid.build(4, 40.0)
    seed, ch, certs = first_seed_with_l1(geom, grid, jcfg)
    sel = pareto_ne_l1(certs)
    assert sel.certificate.pareto
    # weakly dominates every certified equilibrium, and equals the argmax
    assert all(sel.certificate.utility >= c.utility - 1e-12 for c in certs)
    assert sel.certificate.utility == max(c.utility for c in certs)
    only = pareto_ne_l1([certs[0]])
    assert only.certificate is certs[0] and not only.tie


def test_pareto_rejects_empty():
    with pytest.raises(ValueError):
        pareto_ne_l1([])


def test_pareto_never_dominated_by_brute_force(geom, jcfg):
    grid = StrategyGrid.build(4, 40.0)
    seed, ch, _ = first_seed_with_l1(geom, grid, jcfg)
    ev = GridEvaluator(ch, grid, jcfg, R0, GAMMA, Z)
    certs = find_ne_l1(ch, grid, jcfg, R0, GAMMA, Z, evaluator=ev)
    best = pareto_ne_l1(certs).certificate
    bf = brute_force_ne(ch, grid, jcfg, R0, GAMMA, Z, evaluator=ev)
    u = ev.u_matrix()
    n = len(grid.actions)
    bf_utils = [
        u[i, j]
        for i in range(n)
        for j in range(n)
        if ev.profile(i, j).as_tuple() in {p.as_tuple() for p in bf}
        and ev.profile(i, j).as_tuple()[:4] != best.profile.as_tuple()[:4]
        and float(rates_from_sinr(sinr_vector(ch, ev.profile(i, j))).min()) >= R0 - 1e-9
    ]
    assert all(best.utility >= v - 1e-9 for v in bf_utils)


def _mood2_with_l2(geom, jcfg, limit=80):
    grid = StrategyGrid.build(4, 40.0)
    for seed in range(limit):
        ch = draw_channels(geom, seed)
        mood = mood_classify(ch, grid, jcfg, R0)
        if mood.mood != 2:
            continue
        l2, pne2 = find_ne_l2(ch, grid, jcfg, R0, GAMMA, Z, mood_report=mood)
        if l2:
            return ch, grid, mood, l2, pne2
    pytest.skip("no mood-2 realization with one-cell-infeasible equilibria found")


def test_ne_l2_structure_and_brute_force(geom, jcfg):
    ch, grid, mood, l2, pne2 = _mood2_with_l2(geom, jcfg)
    bf = {p.as_tuple() for p in brute_force_ne(ch, grid, jcfg, R0, GAMMA, Z)}
    for c in l2:
        assert c.profile.p_bs2 == pytest.approx(grid.p_bs_max)
        rates = rates_from_sinr(sinr_vector(ch, c.profile))
        assert rates[0] < R0  # cell 1 is the write-off side
        assert rates[2] >= R0 - 1e-9 and rates[3] >= R0 - 1e-9
        assert c.profile.as_tuple() in bf
    assert pne2 is not None and pne2.pareto


def test_ne_l2_slope_root(geom, jcfg):
    ch, grid, mood, l2, pne2 = _mood2_with_l2(geom, jcfg)
    x_bar = _full_power_root(ch, grid, jcfg, R0, full_cell=2)
    assert 0.0 <= x_bar <= grid.p_bs_max

    def write_off_profile(pj):
        p3 = qos_binding_split(ch, x_bar, grid.p_bs_max, pj, R0, cell=2)
        if not math.isfinite(p3):
            return None
        return StrategyProfile(0.0, x_bar, p3, grid.p_bs_max - p3, pj)

    # at an interior root the slope factor crosses zero
    if 1e-3 < x_bar < grid.p_bs_max - 1e-3:
        sol = _stackelberg_fixed_point(ch, jcfg, write_off_profile)
        if not isinstance(sol, FixedPointFailure):
            f = _full_power_slope_factor(
                ch, 2, x_bar, grid.p_bs_max, sol[0].p_j, R0
            )
            assert abs(f) < 1e-3 * max(1.0, abs(
                _full_power_slope_factor(ch, 2, 0.0, grid.p_bs_max, sol[0].p_j, R0)
            ))
    # the selected point is the certificate nearest the root
    dists = [abs(c.profile.p_bs1 - x_bar) for c in l2]
    assert abs(pne2.profile.p_bs1 - x_bar) == pytest.approx(min(dists))


def test_full_power_cell_prefers_max_total(geom, jcfg):
    # along the one-cell-infeasible equilibria, the feasible cell never
    # prefers a lower total than the budget
    ch, grid, mood, l2, pne2 = _mood2_with_l2(geom, jcfg)
    ev = GridEvaluator(ch, grid, jcfg, R0, GAMMA, Z)
    c = l2[0]
    best_per_total = {}
    for j, a2 in enumerate(grid.actions):
        u = ev.entry(c.a1_index, j)[2]
        t = a2[0] + a2[1]
        best_per_total[t] = max(best_per_total.get(t, -np.inf), u)
    totals = sorted(best_per_total)
    assert best_per_total[totals[-1]] >= max(best_per_total.values()) - 1e-9


def test_ne_l3_mirrors_ne_l2(geom, jcfg):
    ch, grid, mood, l2, pne2 = _mood2_with_l2(geom, jcfg)
    mirrored = mirror_channel(ch)
    l3, pne3 = find_ne_l3(mirrored, grid, jcfg, R0, GAMMA, Z)
    got = {
        ((c.profile.p3, c.profile.p4), (c.profile.p1, c.profile.p2))
        for c in l3
    }
    want = {
        ((c.profile.p1, c.profile.p2), (c.profile.p3, c.profile.p4))
        for c in l2
    }
    assert got == want
    assert pne3 is not None
    assert (pne3.profile.p3, pne3.profile.p4) == (pne2.profile.p1, pne2.profile.p2)


def test_finders_respect_mood_gate(geom, jcfg):
    grid = StrategyGrid.build(4, 40.0)
    seed, ch = first_seed_with_mood(geom, grid, jcfg, want=1)
    l2, pne2 = find_ne_l2(ch, grid, jcfg, R0, GAMMA, Z)
    l3, pne3 = find_ne_l3(ch, grid, jcfg, R0, GAMMA, Z)
    assert l2 == [] and pne2 is None
    assert l3 == [] and pne3 is None
    seed2, ch2 = first_seed_with_mood(geom, grid, jcfg, want=2)
    assert find_ne_l1(ch2, grid, jcfg, R0, GAMMA, Z) == []


def test_leader_slopes_numeric_on_feasible_set(geom, jcfg):
    # the finite-difference slopes find_ne_l1 relies on exist and are finite
    # at every feasible total-power pair
    grid = StrategyGrid.build(4, 40.0)
    seed, ch = first_seed_with_mood(geom, grid, jcfg, want=1)
    mood = mood_classify(ch, grid, jcfg, R0)
    for t1, t2 in mood.ps_set:
        sol = _stackelberg_fixed_point(
            ch, jcfg, lambda pj: _binding_profile(ch, t1, t2, pj, R0)
        )
        assert not isinstance(sol, FixedPointFailure)
        numeric = leader_slopes_numeric(ch, t1, t2, sol[0].p_j, R0, GAMMA)
        assert numeric is not None
        assert all(np.isfinite(v) for v in numeric)


def test_monotonicity_zero_interference():
    # no cross-cell and no jammer coupling: the shared utility strictly
    # falls as weak-user power rises wherever indicators are constant
    g = np.zeros((4, 3))
    for i, src in ((0, 0), (1, 0), (2, 1), (3, 1)):
        g[i, src] = 8.0
    ch = make_channel(g)
    rep = monotonicity_check(ch, JammerConfig(), R0, GAMMA, Z, 40.0,
                             n_samples=60, seed=1)
    assert rep.slope_checked > 0
    assert rep.slope_violations == 0


def test_monotonicity_constant_utility_all_zero_gains():
    ch = make_channel(np.zeros((4, 3)))
    rep = monotonicity_check(ch, JammerConfig(), R0, GAMMA, Z, 40.0,
                             n_samples=40, seed=2)
    assert rep.slope_violations == 0
    assert rep.curvature_violations == 0


def test_monotonicity_random_realization_reported(channel, jcfg):
    rep = monotonicity_check(channel, jcfg, R0, GAMMA, Z, 40.0,
                             n_samples=50, seed=3)
    assert rep.slope_checked + rep.skipped > 0
    # structural claims should hold on the overwhelming majority of samples
    if rep.slope_checked:
        assert rep.slope_violations <= 0.1 * rep.slope_checked
    if rep.curvature_checked:
        assert rep.curvature_violations <= 0.1 * rep.curvature_checked
