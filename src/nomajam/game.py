"""Nash equilibria of the two-BS leaders' game on a quantized power grid.

The jammer is folded in as its best-response function, so a "profile" here
is a pair of BS actions; its jamming power is always the follower optimum.
Analytic finders classify equilibria by regime (all-QoS-feasible or not)
and every certificate carries independent no-deviation evidence at grid
resolution.  Because continuous-strategy equilibria can fall between grid
points, every certificate is explicitly grid-relative.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

from .channel import CELLS, SRC_JAM, ChannelRealization
from .jammer import BLOCK, JammerConfig, best_responses, concavity_probe
from .rates import (
    StrategyProfile,
    bs_utility,
    link_terms,
    qos_binding_split,
    rate_rows,
    sum_rate,
)

EPS_NE = 1e-9

NE_L1, NE_L2, NE_L3 = "NE_L1", "NE_L2", "NE_L3"


@dataclass(frozen=True)
class StrategyGrid:
    """Per-BS action set: (weak, strong) power pairs on an integer level lattice.

    A power level is a multiple of step = p_bs_max / L.  Action k is the
    level pair ``action_levels[k]`` = (w, s) with w, s >= 1 and w + s <= L,
    and its powers are (w * step, s * step).  Pairs are in lexicographic
    order, so grid indices break ties deterministically; ``index`` maps a
    level pair back to its action.
    """

    levels: int
    p_bs_max: float
    actions: tuple[tuple[float, float], ...]
    action_levels: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, levels: int, p_bs_max: float) -> "StrategyGrid":
        if levels < 1:
            raise ValueError("levels must be at least 1")
        if not (p_bs_max > 0 and math.isfinite(p_bs_max)):
            raise ValueError(f"p_bs_max must be positive and finite, got {p_bs_max}")
        step = p_bs_max / levels
        pairs = tuple(
            (w, s) for w in range(1, levels) for s in range(1, levels + 1 - w)
        )
        if not pairs:
            # L = 1 leaves no room for two positive powers; L >= 2 always does.
            raise ValueError(f"no feasible actions with {levels} levels")
        actions = tuple((w * step, s * step) for w, s in pairs)
        return cls(levels=levels, p_bs_max=p_bs_max, actions=actions, action_levels=pairs)

    @property
    def step(self) -> float:
        return self.p_bs_max / self.levels

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return {pair: k for k, pair in enumerate(self.action_levels)}


@dataclass
class NeCertificate:
    """An equilibrium candidate plus its no-deviation evidence.

    ``deviation_margin`` is the smallest utility loss over all unilateral
    grid deviations (non-negative up to tolerance for a certified point).
    """

    profile: StrategyProfile
    ne_class: str
    mood: int
    utility: float
    deviation_margin: float
    a1_index: int
    a2_index: int
    pareto: bool = False

    def to_dict(self) -> dict:
        p = self.profile
        return {
            "p1": p.p1, "p2": p.p2, "p3": p.p3, "p4": p.p4, "p_j": p.p_j,
            "class": self.ne_class, "mood": self.mood, "utility": self.utility,
            "deviation_margin": self.deviation_margin, "pareto": self.pareto,
            "a1_index": self.a1_index, "a2_index": self.a2_index,
        }


@dataclass(frozen=True)
class MoodReport:
    """The mood and the feasible total-power pairs, as powers and as total levels."""

    mood: int
    ps_set: tuple[tuple[float, float], ...]
    ps_levels: tuple[tuple[int, int], ...]


def _binding_allocs(
    ch: ChannelRealization,
    p_bs1: np.ndarray,
    p_bs2: np.ndarray,
    p_j: np.ndarray,
    r0: float,
    cells: tuple[int, ...] = (1, 2),
) -> tuple[np.ndarray, np.ndarray]:
    """Allocations with the weak user of each listed cell at its QoS-binding power.

    The totals and p_j are equal-length arrays, one entry per allocation.
    Each cell not listed puts its whole total on its strong user.  Returns
    the (N, 4) allocations (p1, p2, p3, p4) and the mask of defined entries:
    an entry is undefined when a listed cell's binding power exceeds its
    total (``qos_binding_split``'s inf) or leaves its strong user negative
    power.
    """
    zero = np.zeros_like(p_j)
    p1 = qos_binding_split(ch, p_bs1, p_bs2, p_j, r0, cell=1) if 1 in cells else zero
    p3 = qos_binding_split(ch, p_bs1, p_bs2, p_j, r0, cell=2) if 2 in cells else zero
    p2, p4 = p_bs1 - p1, p_bs2 - p3
    ok = np.isfinite(p1) & np.isfinite(p3) & ~((p2 < 0) | (p4 < 0))
    return np.stack((p1, p2, p3, p4), axis=1), ok


def _rtsafe(marginal, c, hi, s, ds, stop) -> np.ndarray:
    """Each lane's root in (0, hi] of S(p) = c, for an S that falls in p.

    A lane starts at 0, where S = ``s`` > c with slope ``ds``, and S(hi) < c;
    ``marginal(x)`` returns S and dS/dp at the lanes' powers x.  The lanes
    run in lockstep through Numerical Recipes' ``rtsafe`` (§9.4): Newton
    steps on G = 1 - c / S, which flattens a 1/p^2 fall of S, each replaced
    by a bisection of the bracket where it leaves the bracket or is not half
    the step before last.  A lane stops at its first step below ``stop`` or
    where S = c exactly, and its bits do not depend on the batch.  The loop
    uses only +, -, * and /.
    """
    lo = x = np.zeros_like(hi)
    step = step_old = hi
    live = np.ones(len(hi), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            newton = x - (s - c) * s / (c * ds)
            half = 0.5 * (hi - lo)
            mid = lo + half
            take = (np.abs(newton - mid) <= half) & (np.abs(newton - x) <= 0.5 * step_old)
            nxt = np.where(take, newton, mid)
            step_old, step = step, np.abs(nxt - x)
            x = np.where(live, nxt, x)
            live &= step >= stop
            if not live.any():
                return x
            s, ds = marginal(x)
            above = s > c
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
            live &= s != c


def _stackelberg_fixed_points(
    ch: ChannelRealization,
    jcfg: JammerConfig,
    totals,
    r0: float,
    cells: tuple[int, ...] = (1, 2),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Stackelberg fixed point of the binding allocation at each total pair.

    Each (p_bs1, p_bs2) lane's jamming power p that the jammer's best response
    to the lane's binding allocation (``_binding_allocs``) returns.  Returns
    the (N, 4) allocations at their fixed points, the jamming powers and the
    mask of lanes that have one (entries off it are undefined).

    The allocation is affine in p: a listed cell's weak user takes
    (t - 1)(A + p g_j) / (g_own t), t = 2^r0, with A its denominator when the
    strong user has the cell's whole total, and the strong user the rest; a
    lane is defined on [0, p_hi], until a strong user's power runs out.  The
    jammer's utility is concave in p, so its best response is where
    F(p) = S(p) - gamma ln 2, S = sum_i s_i g_i / ((d_i + p g_i)(d_i + s_i + p g_i))
    crosses 0, and the fixed point is the root of F with the s_i and d_i of
    the allocation at p.  F falls in p: a listed weak user's SINR is pinned
    at t - 1 and its d + s is A, so its term is (t - 1) g_j / (A + p g_j); a
    strong user's term (d = 1) rises in s and falls in p, and s falls in p;
    an unlisted weak user has s = 0.  So p* = 0 where F(0) <= 0, p_j_max
    where the lane is defined there and F(p_j_max) >= 0, none where
    F(p_hi) > 0 with p_hi < p_j_max, and otherwise the one root in (0, p_hi],
    which ``_rtsafe`` finds to within 1e-12 * p_j_max.

    No follower is called.  With gamma = 0, F = S > 0 below p_hi, so a lane
    with F(p_hi) <= 0 ends at p_hi.  ``marginal`` sees only +, -, * and /,
    so the bits do not depend on numpy's SIMD level.
    """
    t1, t2 = np.array(totals, dtype=float).reshape(-1, 2).T
    pmax = jcfg.p_j_max
    a0, ok = _binding_allocs(ch, t1, t2, np.zeros_like(t1), r0, cells)
    a0[~ok] = 0.0  # keep undefined lanes finite; the mask drops them
    terms = link_terms(ch, *a0.T)
    g, t = ch.gain_rows, 2.0 ** r0
    # Per cell: the weak user's A and the strong user's signal at p = 0 for
    # each lane, the weak power's slope k, then the weak user's (t - 1) g_j
    # (0 for a cell not listed) and g_j, and the strong user's g_j, signal
    # slope and two products of those.
    rows = []
    for cell, (weak, strong, own, _) in CELLS.items():
        (s_w, d_w, gj_w), (s_s, _, gj_s) = terms[weak], terms[strong]
        k = (t - 1.0) * gj_w / (g[weak][own] * t) if cell in cells else 0.0
        ds = -k * g[strong][own]
        rows.append((d_w + s_w, s_s, k, (t - 1.0) * gj_w if cell in cells else 0.0,
                     gj_w, gj_s, ds, gj_s * ds, gj_s + ds))
    big_a, s0, k, *cols = (np.array(col, dtype=float) for col in zip(*rows))
    tw, gw, gs, ds, gs_ds, gs_plus = (v[:, None] for v in cols)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = a0[:, [CELLS[c][1] for c in CELLS]].T / k[:, None]
    p_hi = np.minimum(np.where(k[:, None] > 0, reach, pmax).min(axis=0), pmax)

    def marginal(p, a, s0):
        """S and dS/dp at jamming power p, for lanes with weak-user A ``a`` and
        strong-user signal ``s0`` at p = 0 ((2, m) arrays)."""
        den = a + p * gw
        w = tw / den
        s = s0 + p * ds
        e = 1.0 + p * gs
        f = e + s
        ef = e * f
        u = gs * s / ef
        du = (gs_ds - u * (gs * f + e * gs_plus)) / ef - w * gw / den
        return (w[0] + u[0]) + (w[1] + u[1]), du[0] + du[1]

    c = jcfg.gamma * math.log(2.0)
    s_lo, ds_lo = marginal(0.0, big_a, s0)
    s_hi, _ = marginal(p_hi, big_a, s0)
    pj = np.where(s_lo <= c, 0.0, p_hi)
    ok &= (s_lo <= c) | (s_hi <= c) | (p_hi == pmax)
    lanes = np.flatnonzero(ok & (s_lo > c) & (s_hi < c))
    if c > 0 and len(lanes):
        pj[lanes] = _rtsafe(
            partial(marginal, a=big_a[:, lanes], s0=s0[:, lanes]),
            c, p_hi[lanes], s_lo[lanes], ds_lo[lanes], 1e-12 * pmax,
        )
    alloc, defined = _binding_allocs(ch, t1, t2, pj, r0, cells)
    defined &= ok
    return alloc, np.where(defined, pj, math.nan), defined


def mood_classify(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
) -> MoodReport:
    """Mood 1 with the feasible total-power set, or Mood 2 when it is empty.

    A total-power pair belongs to the feasible set when, with both weak
    users at their QoS-binding split and the jammer best-responding, the
    strong users also meet QoS and both splits leave strictly positive
    strong-user power.
    """
    levels = np.arange(2, grid.levels + 1)
    pairs = np.column_stack((np.repeat(levels, len(levels)), np.tile(levels, len(levels))))
    alloc, pj, ok = _stackelberg_fixed_points(ch, jcfg, pairs * grid.step, r0)
    kept = ok & (alloc[:, 1] > 0) & (alloc[:, 3] > 0)
    r = rate_rows(ch, alloc[kept], pj[kept])
    qtol = 1e-9 * max(1.0, r0)
    met = (r[:, 1] >= r0 - qtol) & (r[:, 3] >= r0 - qtol)
    ps = [tuple(pair) for pair in pairs[kept][met].tolist()]
    return MoodReport(
        mood=1 if ps else 2,
        ps_set=tuple((k1 * grid.step, k2 * grid.step) for k1, k2 in ps),
        ps_levels=tuple(ps),
    )


def deviation_margins(u: np.ndarray) -> np.ndarray:
    """u[i, j] minus the best unilateral deviation from (i, j), for every profile.

    Leader 1 deviates along column j and leader 2 along row i.  The best
    value in column j other than row i is the column's largest, or its
    second largest when row i holds the largest (argmax, the first of tied
    maxima); rows likewise.  A 1 x 1 game has no deviation: its margin is inf.
    """
    n = u.shape[0]
    if n == 1:
        return np.full((1, 1), math.inf)
    idx = np.arange(n)
    col = np.sort(u, axis=0)
    col_best = np.where(idx[:, None] == u.argmax(axis=0), col[-2], col[-1])
    row = np.sort(u, axis=1)
    row_best = np.where(
        idx == u.argmax(axis=1)[:, None], row[:, -2:-1], row[:, -1:]
    )
    return u - np.maximum(col_best, row_best)


# Peak bytes per joint profile while GridEvaluator fills its table (tracemalloc,
# grid_levels 16): seven float64 columns plus the margin pass's temporaries.
TABLE_BYTES_PER_PROFILE = 114


class GridEvaluator:
    """One table of every joint grid profile's jammer response, rates, utility and margin.

    The first call to ``u_matrix`` (every other method makes it) solves the
    follower at all n^2 profiles and fills the table; nothing is solved
    later.  Each block of ``BLOCK`` row-major profiles is one (B, 4) array,
    indexed out of the (n, 2) action array, that ``best_responses`` solves in
    one block and ``rate_rows`` reads.
    """

    def __init__(
        self,
        ch: ChannelRealization,
        grid: StrategyGrid,
        jcfg: JammerConfig,
        r0: float,
        gamma: float,
        z: float,
    ) -> None:
        self.ch = ch
        self.grid = grid
        self.jcfg = jcfg
        self.r0 = r0
        self.gamma = gamma
        self.z = z
        # table[i, j] = (p_j_star, r1, r2, r3, r4, utility, deviation margin)
        self._table: np.ndarray | None = None

    def u_matrix(self) -> np.ndarray:
        if self._table is None:
            actions = np.array(self.grid.actions)
            n = len(actions)
            table = np.empty((n, n, 7))
            rows = table.reshape(n * n, 7)
            # Row-major profiles, one follower block at a time.
            for start in range(0, n * n, BLOCK):
                k = np.arange(start, min(start + BLOCK, n * n))
                block = np.concatenate((actions[k // n], actions[k % n]), axis=1)
                pj = np.array(best_responses(self.ch, block, self.jcfg))
                r = rate_rows(self.ch, block, pj)
                filled = rows[start:start + len(block)]
                filled[:, 0] = pj
                filled[:, 1:5] = r
                filled[:, 5] = bs_utility(r.T, pj, self.r0, self.gamma, self.z)
            table[:, :, 6] = deviation_margins(table[:, :, 5])
            self._table = table
        return self._table[:, :, 5]

    def margin_matrix(self) -> np.ndarray:
        self.u_matrix()
        return self._table[:, :, 6]

    def profile(self, i: int, j: int) -> StrategyProfile:
        a1, a2 = self.grid.actions[i], self.grid.actions[j]
        self.u_matrix()
        return StrategyProfile(
            p1=a1[0], p2=a1[1], p3=a2[0], p4=a2[1], p_j=float(self._table[i, j, 0])
        )

    def certificates(
        self, pairs: np.ndarray, ne_class: str, mood: int, eps_ne: float
    ) -> list[NeCertificate]:
        """A certificate for each (i, j) row of ``pairs`` that no unilateral
        grid deviation improves by more than eps_ne, in the rows' order."""
        pairs = pairs[self.margin_matrix()[pairs[:, 0], pairs[:, 1]] >= -eps_ne]
        u, margin = self._table[pairs[:, 0], pairs[:, 1], 5:].T.tolist()
        return [
            NeCertificate(profile=self.profile(i, j), ne_class=ne_class, mood=mood,
                          utility=uk, deviation_margin=mk, a1_index=i, a2_index=j)
            for (i, j), uk, mk in zip(pairs.tolist(), u, margin)
        ]


def brute_force_ne(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float = 0.01,
    eps_ne: float = EPS_NE,
    evaluator: GridEvaluator | None = None,
) -> list[StrategyProfile]:
    """All joint grid profiles no unilateral deviation improves beyond eps_ne.

    The jammer re-best-responds after every deviation (each profile's
    utility already embeds the follower optimum).  Independent oracle for
    the analytic finders; deterministic grid-index (row-major) ordering.
    """
    ev = evaluator or GridEvaluator(ch, grid, jcfg, r0, gamma, z)
    margins = ev.margin_matrix()
    return [ev.profile(i, j) for i, j in np.argwhere(margins >= -eps_ne).tolist()]


def leader_slopes(
    ch: ChannelRealization,
    p_bs1: np.ndarray,
    p_bs2: np.ndarray,
    p_j: np.ndarray,
    r0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Slopes of the leader utility in each total power, in closed form.

    Along QoS-binding splits with the jammer power held fixed, both weak
    users stay at r0, so only the strong users' rates move.  With t = 2^r0,
    BS c's slope is (m_c - m_o * (t - 1) * g[w_o][c] / g[w_o][o]) / t: m_k
    is strong user k's marginal rate in its own power, o the other cell and
    w_o its weak user, whose binding power rises with P_c by
    (t - 1) * g[w_o][c] / (g[w_o][o] * t) (``qos_binding_split``'s
    derivative).  The totals and p_j are equal-length 1-D arrays; returns
    the two arrays of slopes, NaN where the allocation is undefined, from
    one ``_binding_allocs`` pass.
    """
    x1, x2, pj = np.array([p_bs1, p_bs2, p_j], dtype=float)
    p, ok = _binding_allocs(ch, x1, x2, pj, r0)
    g = ch.gain_rows
    terms, pj = link_terms(ch, *p[ok].T), pj[ok]
    t = 2.0 ** r0
    m = {}
    for cell, (_, strong, own, _) in CELLS.items():
        s, d, g_jam = terms[strong]
        m[cell] = g[strong][own] / ((d + pj * g_jam + s) * math.log(2.0))
    slopes = np.full((2, len(ok)), math.nan)
    for cell, (_, _, own, other) in CELLS.items():
        w_o = CELLS[3 - cell][0]
        slopes[cell - 1, ok] = (
            m[cell] - m[3 - cell] * (t - 1.0) * g[w_o][own] / g[w_o][other]
        ) / t
    return slopes[0], slopes[1]


def find_ne_l1(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float = 0.01,
    eps_ne: float = EPS_NE,
    mood_report: MoodReport | None = None,
    evaluator: GridEvaluator | None = None,
) -> list[NeCertificate]:
    """Equilibria of the all-QoS-feasible regime, certified on the grid.

    Candidates carry their totals in the feasible set, weak users at the
    lowest admissible grid split, and leader-utility slopes that are either
    non-negative or blocked by a QoS-binding strong user; each one must also
    pass the independent no-deviation check, which is tested before the
    slopes.
    """
    mood = mood_report or mood_classify(ch, grid, jcfg, r0)
    if mood.mood != 1:
        return []
    ev = evaluator or GridEvaluator(ch, grid, jcfg, r0, gamma, z)
    ev.u_matrix()
    table = ev._table
    L, n = grid.levels, len(grid.actions)
    w, s = np.array(grid.action_levels).T
    k = w + s
    qtol = 1e-9 * max(1.0, r0)
    meet = table[:, :, 1:5] >= r0 - qtol
    feasible = np.zeros((L + 1, L + 1), dtype=bool)
    feasible[tuple(np.array(mood.ps_levels, dtype=int).reshape(-1, 2).T)] = True

    def lowest_split(met: np.ndarray) -> np.ndarray:
        """Whether each [own action, other action] has its weak user at the
        least level of its total whose weak user meets QoS (``met``)."""
        own, other = np.nonzero(met)
        least = np.full((L + 1, n), L)
        np.minimum.at(least, (k[own], other), w[own])
        return w[:, None] == least[k[:, None], np.arange(n)]

    # the deviation margin first: only its survivors need slopes
    ij = np.argwhere(
        feasible[k[:, None], k] & meet.all(axis=2) & lowest_split(meet[:, :, 0])
        & lowest_split(meet[:, :, 2].T).T & (table[:, :, 6] >= -eps_ne)
    )
    i, j = ij.T
    pj = table[i, j, 0]
    totals = np.array(grid.actions).sum(axis=1)
    d1, d2 = leader_slopes(ch, totals[i], totals[j], pj, r0)
    # NaN slopes come in pairs, where the binding allocation is undefined: both
    # sign tests fail and the binding test decides; fmax scales as max() did.
    stol = 1e-9 * np.fmax(np.fmax(1.0, np.abs(d1)), np.abs(d2))

    def binding_strong(cell: int, level: np.ndarray) -> np.ndarray:
        """Whether the cell's strong user's QoS binds at grid resolution: one
        level less power (same jamming) breaks it, or it is at level 1."""
        p = (level - 1) * grid.step
        rows = np.stack((np.zeros_like(p), p, np.zeros_like(p), p), axis=1)
        return (level == 1) | (rate_rows(ch, rows, pj)[:, CELLS[cell][1]] < r0)

    ok = ((d1 >= -stol) | binding_strong(1, s[i])) & ((d2 >= -stol) | binding_strong(2, s[j]))
    return ev.certificates(ij[ok], NE_L1, 1, eps_ne)


@dataclass(frozen=True)
class ParetoSelection:
    certificate: NeCertificate
    tie: bool


def pareto_ne_l1(
    ne_set: list[NeCertificate], tie_eps: float = 1e-9
) -> ParetoSelection:
    """The utility-maximizing equilibrium; ties flagged, first-in-grid wins.

    With a shared utility the maximizer weakly dominates every other
    certified equilibrium by construction.  Grid resolution can legitimately
    create near-ties, which are reported rather than hidden.
    """
    if not ne_set:
        raise ValueError("ne_set must be non-empty")
    best_u = max(c.utility for c in ne_set)
    scale = max(1.0, abs(best_u))
    tied = [c for c in ne_set if best_u - c.utility <= tie_eps * scale]
    winner = tied[0]
    winner.pareto = True
    return ParetoSelection(certificate=winner, tie=len(tied) > 1)


def _full_power_slope_factor(
    ch: ChannelRealization,
    full_cell: int,
    p_bs_fail: float | np.ndarray,
    p_bs_max: float,
    p_j: float | np.ndarray,
    r0: float,
) -> float | np.ndarray:
    """Sign-carrying factor of the failing leader's utility slope.

    In the regime where one cell cannot meet QoS and the other transmits at
    full power, the failing cell's scaled utility is concave in its total
    power and this linear factor carries the slope's sign.  The failing
    total and p_j may be equal-length arrays, each entry the scalar's bits.
    """
    weak, _, own, other = CELLS[full_cell]
    g = ch.gain_rows[weak]
    g_own, g_cross, g_jam = g[own], g[other], g[SRC_JAM]
    t = 2.0 ** r0
    return (
        p_bs_max / t
        - 2.0 * (g_cross / g_own) * p_bs_fail
        - (1.0 + p_j * g_jam) / g_own
    )


def _full_power_root(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    full_cell: int,
) -> float:
    """Failing-cell total power zeroing the slope factor, by bisection.

    The profile behind each evaluation puts the failing cell's whole total
    on its strong user and the full-power cell at its QoS-binding split;
    the jammer is at the self-consistent best response.  Totals where that
    profile is undefined are skipped.  Without a sign change the better
    endpoint is returned.
    """
    pmax = grid.p_bs_max

    def totals(x: float) -> tuple[float, float]:
        return (x, pmax) if full_cell == 2 else (pmax, x)

    def factors(xs) -> list[float | None]:
        """The slope factor at each failing-cell total, None where undefined."""
        _, pj, ok = _stackelberg_fixed_points(ch, jcfg, [totals(x) for x in xs], r0,
                                              (full_cell,))
        return [_full_power_slope_factor(ch, full_cell, x, pmax, p, r0) if defined else None
                for x, p, defined in zip(xs, pj.tolist(), ok.tolist())]

    xs = np.linspace(0.0, pmax, 33).tolist()
    vals = factors(xs)
    bracket = None
    for (xa, va), (xb, vb) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if va is None or vb is None:
            continue
        if va == 0.0:
            return xa
        if va * vb < 0:
            bracket = (xa, xb, va)
            break
    if bracket is None:
        finite = [(abs(v), x) for x, v in zip(xs, vals) if v is not None]
        return min(finite)[1] if finite else 0.0
    lo, hi, v_lo = bracket
    tol = 1e-6 * pmax
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v_mid = factors([mid])[0]
        if v_mid is None:
            break
        if (v_mid > 0) == (v_lo > 0):
            lo, v_lo = mid, v_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _find_ne_full_power(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float = 0.01,
    eps_ne: float = EPS_NE,
    mood_report: MoodReport | None = None,
    evaluator: GridEvaluator | None = None,
    *,
    full_cell: int,
) -> tuple[list[NeCertificate], NeCertificate | None]:
    """Equilibria where the other cell cannot meet QoS and BS ``full_cell``
    runs at full power; the Pareto pick is the second item."""
    mood = mood_report or mood_classify(ch, grid, jcfg, r0)
    if mood.mood != 2:
        return [], None
    ev = evaluator or GridEvaluator(ch, grid, jcfg, r0, gamma, z)
    ev.u_matrix()
    ne_class = NE_L2 if full_cell == 2 else NE_L3
    weak_full, strong_full, _, _ = CELLS[full_cell]
    weak_fail = CELLS[3 - full_cell][0]
    qtol = 1e-9 * max(1.0, r0)
    L = grid.levels
    # The full cell spends its whole budget; the failing cell's weak user is
    # at the lowest level (its rate is a write-off, so power there only
    # drains the shared sum rate).  ``lower`` holds the full cell's actions
    # with one weak level less at the same total, for w = 2..L-1.
    full = np.array([grid.index[w, L - w] for w in range(1, L)])
    fail = np.array([grid.index[1, s] for s in range(1, L)])
    lower = np.array([grid.index[w - 1, L - w + 1] for w in range(2, L)], dtype=int)
    # The table as [failing cell's action, full cell's action].
    table = ev._table if full_cell == 2 else ev._table.transpose(1, 0, 2)
    met = table[np.ix_(fail, full)][:, :, 1:5] >= r0 - qtol
    mask = met[:, :, weak_full] & met[:, :, strong_full] & ~met[:, :, weak_fail]
    # Full cell's weak user at the lowest admissible split: one level less
    # (same total) must break its QoS.
    mask[:, 1:] &= ~(table[np.ix_(fail, lower)][:, :, 1 + weak_full] >= r0 - qtol)
    rows, cols = (fail, full) if full_cell == 2 else (full, fail)
    a, b = np.argwhere(mask if full_cell == 2 else mask.T).T
    i, j = rows[a], cols[b]
    pj = ev._table[i, j, 0]
    t_fail = np.array(grid.actions).sum(axis=1)[i if full_cell == 2 else j]
    # The failing cell can not reach QoS even with its whole budget on the
    # weak user.
    best_case = np.zeros((len(pj), 4))
    best_case[:, weak_fail], best_case[:, strong_full] = t_fail, grid.p_bs_max
    slope = _full_power_slope_factor(ch, full_cell, t_fail, grid.p_bs_max, pj, r0)
    ok = ~(rate_rows(ch, best_case, pj)[:, weak_fail] >= r0) & ~(
        slope < -1e-9 * np.maximum(1.0, np.abs(slope)))
    certs = ev.certificates(np.stack((i, j), axis=1)[ok], ne_class, 2, eps_ne)
    if not certs:
        return [], None
    x_bar = _full_power_root(ch, grid, jcfg, r0, full_cell)

    def fail_total(c: NeCertificate) -> float:
        return c.profile.p_bs1 if full_cell == 2 else c.profile.p_bs2

    pne = min(certs, key=lambda c: (abs(fail_total(c) - x_bar), c.a1_index, c.a2_index))
    pne.pareto = True
    return certs, pne


# Equilibria where cell 1 cannot meet QoS and BS2 runs at full power, and
# the mirror image with the cells swapped.
find_ne_l2 = partial(_find_ne_full_power, full_cell=2)
find_ne_l3 = partial(_find_ne_full_power, full_cell=1)


@dataclass
class MonotonicityReport:
    slope_checked: int = 0
    slope_violations: int = 0
    curvature_checked: int = 0
    curvature_violations: int = 0
    skipped: int = 0


def monotonicity_check(
    ch: ChannelRealization,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float,
    p_bs_max: float,
    n_samples: int = 100,
    seed: int = 0,
) -> MonotonicityReport:
    """Finite-difference audit of the leaders' structural utility claims.

    Checks that the shared utility falls as either weak user's power grows
    (at fixed totals, constant QoS indicators) and that the exponentially
    scaled utility is concave in each total power along binding splits.
    """
    rng = np.random.default_rng(seed)
    rep = MonotonicityReport()
    h = 1e-4 * p_bs_max

    # Each sample's two totals, then its two weak-user shares, in one draw.
    draw = rng.uniform((0.2, 0.2, 0.1, 0.1), (1.0, 1.0, 0.9, 0.9), size=(n_samples, 4))
    t = draw[:, :2] * p_bs_max
    w = draw[:, 2:] * t
    bases = np.stack((w[:, 0], t[:, 0] - w[:, 0], w[:, 1], t[:, 1] - w[:, 1]), axis=1)
    pj_base = np.array(best_responses(ch, bases, jcfg))
    # Each weak user takes h from (and gives h to) its cell's strong user:
    # one rate pass over the up and down profiles of both cells.
    moved = []
    for weak, strong, _, _ in CELLS.values():
        for dw in (h, -h):
            p = bases.copy()
            p[:, weak] += dw
            p[:, strong] -= dw
            moved.append(p)
    p = np.concatenate(moved)
    pjs = np.tile(pj_base, len(moved))
    r = rate_rows(ch, p, pjs)
    u = bs_utility(r.T, pjs, r0, gamma, z).reshape(-1, 2, n_samples)
    flags = np.stack((np.minimum(r[:, 0], r[:, 1]) >= r0,
                      np.minimum(r[:, 2], r[:, 3]) >= r0)).reshape(2, -1, 2, n_samples)
    u_up, u_dn = u[:, 0], u[:, 1]
    same = (flags[:, :, 0] == flags[:, :, 1]).all(axis=0)
    rep.skipped += int((~same).sum())
    rep.slope_checked += int(same.sum())
    rep.slope_violations += int(
        (same & (u_up - u_dn > 1e-9 * np.maximum(1.0, np.abs(u_up)))).sum()
    )

    if any(ch.gain_rows[weak][own] <= 0 for weak, _, own, _ in CELLS.values()):
        # binding splits are undefined without the weak users' own gains
        rep.skipped += 2 * n_samples
        return rep
    hh = 1e-3 * p_bs_max
    totals = rng.uniform(0.3, 0.95, size=(n_samples, 2)) * p_bs_max
    _, pj, found = _stackelberg_fixed_points(ch, jcfg, totals, r0)
    rep.skipped += int((~found).sum())
    # Three points along each total of each sample with a fixed point, (t1 - hh,
    # t1, t1 + hh) then (t2 - hh, t2, t2 + hh); one binding pass and one rate
    # pass for all of them.
    t1, t2, pj = totals[found, 0, None], totals[found, 1, None], pj[found, None]
    dx = np.array([-hh, 0.0, hh])
    x1 = np.hstack((t1 + dx, np.repeat(t1, 3, axis=1))).ravel()
    x2 = np.hstack((np.repeat(t2, 3, axis=1), t2 + dx)).ravel()
    pj = np.repeat(pj, 6)
    p, ok = _binding_allocs(ch, x1, x2, pj, r0)
    r = rate_rows(ch, p[ok], pj[ok])
    u = sum_rate(r.T) + gamma * pj[ok]
    # The indicator-free leader utility, scaled exponentially by Python's
    # ``**``: np.power's bits change with numpy's SIMD level.  A triple with
    # a utility of 1023 or more is skipped: 2 ** u overflows from 1024 on, and
    # the second difference's 2 * 2 ** u from 1023 on.
    fits = ~(u >= 1023.0)
    ok[ok] = fits
    scaled = np.zeros(len(ok))
    scaled[ok] = [2.0 ** v for v in u[fits].tolist()]
    defined = ok.reshape(-1, 3).all(axis=1)
    lo, mid, hi = scaled.reshape(-1, 3)[defined].T
    rep.skipped += int((~defined).sum())
    rep.curvature_checked += int(defined.sum())
    rep.curvature_violations += int(
        (lo - 2.0 * mid + hi > 1e-7 * np.maximum(1.0, np.abs(mid))).sum()
    )
    return rep


def analysis_report(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float = 0.01,
    eps_ne: float = EPS_NE,
) -> dict:
    """JSON-ready equilibrium analysis of one channel realization."""
    ev = GridEvaluator(ch, grid, jcfg, r0, gamma, z)
    mood = mood_classify(ch, grid, jcfg, r0)
    bf = brute_force_ne(ch, grid, jcfg, r0, gamma, z, eps_ne, evaluator=ev)
    # Each finder is empty outside its own mood.
    l1 = find_ne_l1(ch, grid, jcfg, r0, gamma, z, eps_ne, mood, ev)
    l2, pne2 = find_ne_l2(ch, grid, jcfg, r0, gamma, z, eps_ne, mood, ev)
    l3, pne3 = find_ne_l3(ch, grid, jcfg, r0, gamma, z, eps_ne, mood, ev)
    sel = pareto_ne_l1(l1) if l1 else None
    bf_keys = {p.as_tuple()[:4] for p in bf}
    analytic = l1 + l2 + l3
    unimodal = [
        concavity_probe(ch, (p.p1, p.p2), (p.p3, p.p4), jcfg).unimodal for p in bf
    ]
    mono = monotonicity_check(
        ch, jcfg, r0, gamma, z, grid.p_bs_max, n_samples=50, seed=ch.seed
    )
    return {
        "seed": ch.seed,
        "grid_levels": grid.levels,
        "p_bs_max": grid.p_bs_max,
        "r0": r0,
        "gamma": gamma,
        "z": z,
        "mood": mood.mood,
        "ps_pairs": [list(p) for p in mood.ps_set],
        "brute_force": [asdict(p) for p in bf],
        "ne_l1": [c.to_dict() for c in l1],
        "pareto_l1": {**sel.certificate.to_dict(), "tie": sel.tie} if sel else None,
        "ne_l2": [c.to_dict() for c in l2],
        "ne_l3": [c.to_dict() for c in l3],
        "pne_l2": pne2.to_dict() if pne2 else None,
        "pne_l3": pne3.to_dict() if pne3 else None,
        "verification": {
            "analytic_subset_of_brute_force": all(
                c.profile.as_tuple()[:4] in bf_keys for c in analytic
            ),
            "n_analytic": len(analytic),
            "n_brute_force": len(bf),
            "jammer_unimodal_at_ne": sum(unimodal),
            "jammer_probed_at_ne": len(unimodal),
            "monotonicity": asdict(mono),
        },
    }
