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
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .channel import SRC_BS1, SRC_BS2, SRC_JAM, ChannelRealization
from .jammer import BestResponse, JammerConfig, best_response, concavity_probe
from .rates import StrategyProfile, _rates4, bs_utility, qos_binding_split

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
        if p_bs_max <= 0:
            raise ValueError("p_bs_max must be positive")
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

    @property
    def totals(self) -> tuple[float, ...]:
        """Total power k * step of each total level k = 2..L."""
        return tuple(k * self.step for k in range(2, self.levels + 1))


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


def _binding_profile(
    ch: ChannelRealization, p_bs1: float, p_bs2: float, p_j: float, r0: float
) -> StrategyProfile | None:
    """Profile with both weak users at their QoS-binding power, or None."""
    p1 = qos_binding_split(ch, p_bs1, p_bs2, p_j, r0, cell=1)
    p3 = qos_binding_split(ch, p_bs1, p_bs2, p_j, r0, cell=2)
    if not (math.isfinite(p1) and math.isfinite(p3)):
        return None
    p2, p4 = p_bs1 - p1, p_bs2 - p3
    if p2 < 0 or p4 < 0:
        return None
    return StrategyProfile(p1=p1, p2=p2, p3=p3, p4=p4, p_j=p_j)


@dataclass(frozen=True)
class FixedPointFailure:
    """Why ``_stackelberg_fixed_point`` gave up, and the jamming power it stopped at.

    ``reason`` is ``"undefined_profile"`` when ``profile_of_pj(p_j)`` returned
    None, or ``"no_convergence"`` when the evaluation budget ran out.
    """

    reason: str
    p_j: float


def _stackelberg_fixed_point(
    ch: ChannelRealization,
    jcfg: JammerConfig,
    profile_of_pj,
) -> tuple[StrategyProfile, BestResponse] | FixedPointFailure:
    """Self-consistent (profile, jammer response) for a pj-dependent profile.

    ``profile_of_pj(pj)`` builds the BS profile given the jamming power, and
    the jammer then best-responds to that profile.  The root of
    h(pj) = BR(profile_of_pj(pj)).p_j_star - pj is found by a secant
    iteration: h is evaluated at pj = 0, the first step goes to
    BR(profile_of_pj(0)), and every later step is the secant through the last
    two evaluations.  When the secant step leaves [0, p_j_max], or the two
    values of h are equal, the damped step pj + h(pj) / 2 is taken instead.
    The iteration stops when |h(pj)| <= 2e-6 * p_j_max and returns
    ``profile_of_pj(br.p_j_star)`` with ``p_j = br.p_j_star``, together with
    ``br``.  It gives up with a ``FixedPointFailure``: ``undefined_profile``
    when ``profile_of_pj`` returns None, ``no_convergence`` after 100
    evaluations of h.
    """
    tol = 2e-6 * jcfg.p_j_max
    x_prev = h_prev = None
    x = 0.0
    for _ in range(100):
        prof = profile_of_pj(x)
        if prof is None:
            return FixedPointFailure("undefined_profile", x)
        br = best_response(ch, (prof.p1, prof.p2), (prof.p3, prof.p4), jcfg)
        h = br.p_j_star - x
        if abs(h) <= tol:
            prof = profile_of_pj(br.p_j_star)
            if prof is None:
                return FixedPointFailure("undefined_profile", br.p_j_star)
            return StrategyProfile(
                p1=prof.p1, p2=prof.p2, p3=prof.p3, p4=prof.p4, p_j=br.p_j_star
            ), br
        if h_prev is None:
            nxt = br.p_j_star
        elif h == h_prev:
            nxt = x + 0.5 * h
        else:
            nxt = x - h * (x - x_prev) / (h - h_prev)
            if not 0.0 <= nxt <= jcfg.p_j_max:
                nxt = x + 0.5 * h
        x_prev, h_prev, x = x, h, nxt
    return FixedPointFailure("no_convergence", x_prev)


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
    ps: list[tuple[int, int]] = []
    total_levels = range(2, grid.levels + 1)
    for k1, k2 in product(total_levels, total_levels):
        p_bs1, p_bs2 = k1 * grid.step, k2 * grid.step
        sol = _stackelberg_fixed_point(
            ch, jcfg, lambda pj: _binding_profile(ch, p_bs1, p_bs2, pj, r0)
        )
        if isinstance(sol, FixedPointFailure):
            continue
        prof, _ = sol
        if prof.p2 <= 0 or prof.p4 <= 0:
            continue
        r = _rates4(ch, *prof.as_tuple())
        qtol = 1e-9 * max(1.0, r0)
        if r[1] >= r0 - qtol and r[3] >= r0 - qtol:
            ps.append((k1, k2))
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
    follower at all n^2 profiles and fills the table; nothing is solved later.
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
            actions = self.grid.actions
            table = np.empty((len(actions), len(actions), 7))
            for i, a1 in enumerate(actions):
                for j, a2 in enumerate(actions):
                    pj = best_response(self.ch, a1, a2, self.jcfg).p_j_star
                    r = _rates4(self.ch, a1[0], a1[1], a2[0], a2[1], pj)
                    u = bs_utility(r, pj, self.r0, self.gamma, self.z)
                    table[i, j, :6] = (pj, *r, u)
            table[:, :, 6] = deviation_margins(table[:, :, 5])
            self._table = table
        return self._table[:, :, 5]

    def margin_matrix(self) -> np.ndarray:
        self.u_matrix()
        return self._table[:, :, 6]

    def entry(self, i: int, j: int) -> tuple[float, tuple, float]:
        """(p_j_star, rates, shared BS utility) for action indices (i, j)."""
        self.u_matrix()
        pj, *r, u, _ = self._table[i, j].tolist()
        return pj, tuple(r), u

    def deviation_margin(self, i: int, j: int) -> float:
        """Smallest utility loss over all unilateral grid deviations."""
        return float(self.margin_matrix()[i, j])

    def profile(self, i: int, j: int) -> StrategyProfile:
        a1, a2 = self.grid.actions[i], self.grid.actions[j]
        return StrategyProfile(
            p1=a1[0], p2=a1[1], p3=a2[0], p4=a2[1], p_j=self.entry(i, j)[0]
        )


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


def _slope_u_binding(
    ch: ChannelRealization,
    p_bs1: float,
    p_bs2: float,
    p_j: float,
    r0: float,
    gamma: float,
) -> float | None:
    """Indicator-free leader utility at binding splits with the jammer fixed."""
    prof = _binding_profile(ch, p_bs1, p_bs2, p_j, r0)
    if prof is None:
        return None
    r = _rates4(ch, *prof.as_tuple())
    return r[0] + r[1] + r[2] + r[3] + gamma * p_j


def leader_slopes_numeric(
    ch: ChannelRealization,
    p_bs1: float,
    p_bs2: float,
    p_j: float,
    r0: float,
    gamma: float,
) -> tuple[float, float] | None:
    """Central-difference slopes of the leader utility in each total power.

    The utility is evaluated at QoS-binding splits with the jammer power
    held fixed.  slope of 2^U and of U share their sign (monotone
    transform), so the plain utility is differenced for better conditioning.
    """
    h = 1e-5 * max(p_bs1, p_bs2, 1.0)

    def diff(dx1: float, dx2: float) -> float | None:
        up = _slope_u_binding(ch, p_bs1 + dx1, p_bs2 + dx2, p_j, r0, gamma)
        dn = _slope_u_binding(ch, p_bs1 - dx1, p_bs2 - dx2, p_j, r0, gamma)
        center = _slope_u_binding(ch, p_bs1, p_bs2, p_j, r0, gamma)
        if center is None:
            return None
        if up is None and dn is None:
            return None
        if up is None:
            return (center - dn) / h
        if dn is None:
            return (up - center) / h
        return (up - dn) / (2.0 * h)

    s1 = diff(h, 0.0)
    s2 = diff(0.0, h)
    if s1 is None or s2 is None:
        return None
    return s1, s2


def _grid_binding_strong(ev: GridEvaluator, p_j: float, strong_user: int, level: int) -> bool:
    """Whether the strong user's QoS is binding at grid resolution.

    True when one grid level less strong-user power (same jamming) would
    break its QoS, or when the strong user is at the lowest level.
    """
    if level == 1:
        return True
    p = (level - 1) * ev.grid.step
    return _rates4(ev.ch, 0.0, p, 0.0, p, p_j)[2 * strong_user - 1] < ev.r0


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
    non-negative or blocked by a QoS-binding strong user; each one is then
    confirmed by the independent no-deviation check.
    """
    mood = mood_report or mood_classify(ch, grid, jcfg, r0)
    if mood.mood != 1:
        return []
    ev = evaluator or GridEvaluator(ch, grid, jcfg, r0, gamma, z)
    ps_levels = set(mood.ps_levels)
    qtol = 1e-9 * max(1.0, r0)
    certs: list[NeCertificate] = []
    for i, (w1, s1) in enumerate(grid.action_levels):
        for j, (w2, s2) in enumerate(grid.action_levels):
            k1, k2 = w1 + s1, w2 + s2
            if (k1, k2) not in ps_levels:
                continue
            pj, r, u = ev.entry(i, j)
            if min(r) < r0 - qtol:
                continue
            # Weak users at the lowest grid split that still meets QoS.
            if any(
                ev.entry(grid.index[w, k1 - w], j)[1][0] >= r0 - qtol
                for w in range(1, w1)
            ) or any(
                ev.entry(i, grid.index[w, k2 - w])[1][2] >= r0 - qtol
                for w in range(1, w2)
            ):
                continue
            a1, a2 = grid.actions[i], grid.actions[j]
            slopes = leader_slopes_numeric(
                ch, a1[0] + a1[1], a2[0] + a2[1], pj, r0, gamma
            )
            if slopes is None:
                continue
            d1, d2 = slopes
            stol = 1e-9 * max(1.0, abs(d1), abs(d2))
            ok1 = d1 >= -stol or _grid_binding_strong(ev, pj, 1, s1)
            ok2 = d2 >= -stol or _grid_binding_strong(ev, pj, 2, s2)
            if not (ok1 and ok2):
                continue
            margin = ev.deviation_margin(i, j)
            if margin < -eps_ne:
                continue
            certs.append(
                NeCertificate(
                    profile=ev.profile(i, j),
                    ne_class=NE_L1,
                    mood=1,
                    utility=u,
                    deviation_margin=margin,
                    a1_index=i,
                    a2_index=j,
                )
            )
    return certs


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
    p_bs_fail: float,
    p_bs_max: float,
    p_j: float,
    r0: float,
) -> float:
    """Sign-carrying factor of the failing leader's utility slope.

    In the regime where one cell cannot meet QoS and the other transmits at
    full power, the failing cell's scaled utility is concave in its total
    power and this linear factor carries the slope's sign.
    """
    g = ch.gains
    t = 2.0 ** r0
    if full_cell == 2:
        g_own, g_cross, g_jam = g[2, SRC_BS2], g[2, SRC_BS1], g[2, SRC_JAM]
    else:
        g_own, g_cross, g_jam = g[0, SRC_BS1], g[0, SRC_BS2], g[0, SRC_JAM]
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
    the jammer is at the self-consistent best response.  Without a sign
    change the better endpoint is returned.
    """
    pmax = grid.p_bs_max

    def factor(x: float) -> float | None:
        def prof_of(pj: float) -> StrategyProfile | None:
            if full_cell == 2:
                p3 = qos_binding_split(ch, x, pmax, pj, r0, cell=2)
                if not math.isfinite(p3):
                    return None
                return StrategyProfile(p1=0.0, p2=x, p3=p3, p4=pmax - p3, p_j=pj)
            p1 = qos_binding_split(ch, pmax, x, pj, r0, cell=1)
            if not math.isfinite(p1):
                return None
            return StrategyProfile(p1=p1, p2=pmax - p1, p3=0.0, p4=x, p_j=pj)

        sol = _stackelberg_fixed_point(ch, jcfg, prof_of)
        if isinstance(sol, FixedPointFailure):
            return None
        return _full_power_slope_factor(ch, full_cell, x, pmax, sol[0].p_j, r0)

    xs = np.linspace(0.0, pmax, 33)
    vals = [factor(x) for x in xs]
    bracket = None
    for (xa, va), (xb, vb) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if va is None or vb is None:
            continue
        if va == 0.0:
            return float(xa)
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
        v_mid = factor(mid)
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
    z: float,
    eps_ne: float,
    full_cell: int,
    mood_report: MoodReport | None,
    evaluator: GridEvaluator | None,
) -> tuple[list[NeCertificate], NeCertificate | None]:
    """Shared core of the two one-cell-infeasible equilibrium finders."""
    mood = mood_report or mood_classify(ch, grid, jcfg, r0)
    if mood.mood != 2:
        return [], None
    ev = evaluator or GridEvaluator(ch, grid, jcfg, r0, gamma, z)
    ne_class = NE_L2 if full_cell == 2 else NE_L3
    fail_cell = 1 if full_cell == 2 else 2
    weak_fail, weak_full = (0, 2) if full_cell == 2 else (2, 0)
    strong_full = weak_full + 1
    qtol = 1e-9 * max(1.0, r0)
    L = grid.levels
    # The full cell spends its whole budget; the failing cell's weak user is
    # at the lowest level (its rate is a write-off, so power there only
    # drains the shared sum rate).
    full = [grid.index[w, L - w] for w in range(1, L)]
    fail = [grid.index[1, s] for s in range(1, L)]
    rows, cols = (fail, full) if full_cell == 2 else (full, fail)
    certs: list[NeCertificate] = []
    for i in rows:
        for j in cols:
            k_full, k_fail = (j, i) if full_cell == 2 else (i, j)
            pj, r, u = ev.entry(i, j)
            if not (r[weak_full] >= r0 - qtol and r[strong_full] >= r0 - qtol):
                continue
            if r[weak_fail] >= r0 - qtol:
                continue
            # The failing cell can not reach QoS even with its whole budget
            # on the weak user.
            a_fail = grid.actions[k_fail]
            t_fail = a_fail[0] + a_fail[1]
            if fail_cell == 1:
                best_case = (t_fail, 0.0, 0.0, grid.p_bs_max)
            else:
                best_case = (0.0, grid.p_bs_max, t_fail, 0.0)
            if _rates4(ch, *best_case, pj)[weak_fail] >= r0:
                continue
            # Full cell's weak user at the lowest admissible split: one level
            # less (same total) must break its QoS.
            w_full = grid.action_levels[k_full][0]
            if w_full > 1:
                k = grid.index[w_full - 1, L - w_full + 1]
                r_alt = ev.entry(i, k)[1] if full_cell == 2 else ev.entry(k, j)[1]
                if r_alt[weak_full] >= r0 - qtol:
                    continue
            slope = _full_power_slope_factor(
                ch, full_cell, t_fail, grid.p_bs_max, pj, r0
            )
            if slope < -1e-9 * max(1.0, abs(slope)):
                continue
            margin = ev.deviation_margin(i, j)
            if margin < -eps_ne:
                continue
            certs.append(
                NeCertificate(
                    profile=ev.profile(i, j),
                    ne_class=ne_class,
                    mood=2,
                    utility=u,
                    deviation_margin=margin,
                    a1_index=i,
                    a2_index=j,
                )
            )
    if not certs:
        return [], None
    x_bar = _full_power_root(ch, grid, jcfg, r0, full_cell)

    def fail_total(c: NeCertificate) -> float:
        return c.profile.p_bs1 if full_cell == 2 else c.profile.p_bs2

    pne = min(certs, key=lambda c: (abs(fail_total(c) - x_bar), c.a1_index, c.a2_index))
    pne.pareto = True
    return certs, pne


def find_ne_l2(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float = 0.01,
    eps_ne: float = EPS_NE,
    mood_report: MoodReport | None = None,
    evaluator: GridEvaluator | None = None,
) -> tuple[list[NeCertificate], NeCertificate | None]:
    """Equilibria where cell 1 cannot meet QoS and BS2 runs at full power."""
    return _find_ne_full_power(
        ch, grid, jcfg, r0, gamma, z, eps_ne, 2, mood_report, evaluator
    )


def find_ne_l3(
    ch: ChannelRealization,
    grid: StrategyGrid,
    jcfg: JammerConfig,
    r0: float,
    gamma: float,
    z: float = 0.01,
    eps_ne: float = EPS_NE,
    mood_report: MoodReport | None = None,
    evaluator: GridEvaluator | None = None,
) -> tuple[list[NeCertificate], NeCertificate | None]:
    """Mirror image of find_ne_l2 with the cells swapped."""
    return _find_ne_full_power(
        ch, grid, jcfg, r0, gamma, z, eps_ne, 1, mood_report, evaluator
    )


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

    def utility(prof: StrategyProfile) -> tuple[float, tuple[bool, bool]]:
        r = _rates4(ch, *prof.as_tuple())
        flags = (min(r[0], r[1]) >= r0, min(r[2], r[3]) >= r0)
        u = bs_utility(r, prof.p_j, r0, gamma, z)
        return u, flags

    for _ in range(n_samples):
        t1, t2 = rng.uniform(0.2, 1.0, size=2) * p_bs_max
        f1, f3 = rng.uniform(0.1, 0.9, size=2)
        p1, p3 = f1 * t1, f3 * t2
        base = StrategyProfile(p1=p1, p2=t1 - p1, p3=p3, p4=t2 - p3)
        pj = best_response(ch, (base.p1, base.p2), (base.p3, base.p4), jcfg).p_j_star
        for which in ("p1", "p3"):
            if which == "p1":
                up = StrategyProfile(p1=p1 + h, p2=t1 - p1 - h, p3=p3, p4=t2 - p3, p_j=pj)
                dn = StrategyProfile(p1=p1 - h, p2=t1 - p1 + h, p3=p3, p4=t2 - p3, p_j=pj)
            else:
                up = StrategyProfile(p1=p1, p2=t1 - p1, p3=p3 + h, p4=t2 - p3 - h, p_j=pj)
                dn = StrategyProfile(p1=p1, p2=t1 - p1, p3=p3 - h, p4=t2 - p3 + h, p_j=pj)
            u_up, fl_up = utility(up)
            u_dn, fl_dn = utility(dn)
            if fl_up != fl_dn:
                rep.skipped += 1
                continue
            rep.slope_checked += 1
            if u_up - u_dn > 1e-9 * max(1.0, abs(u_up)):
                rep.slope_violations += 1

    if ch.gains[0, SRC_BS1] <= 0 or ch.gains[2, SRC_BS2] <= 0:
        # binding splits are undefined without the weak users' own gains
        rep.skipped += 2 * n_samples
        return rep
    hh = 1e-3 * p_bs_max
    for _ in range(n_samples):
        t1, t2 = rng.uniform(0.3, 0.95, size=2) * p_bs_max
        sol = _stackelberg_fixed_point(
            ch, jcfg, lambda pj: _binding_profile(ch, t1, t2, pj, r0)
        )
        if isinstance(sol, FixedPointFailure):
            rep.skipped += 1
            continue
        pj = sol[0].p_j
        for axis in (0, 1):
            pts = []
            for dx in (-hh, 0.0, hh):
                x1 = t1 + dx if axis == 0 else t1
                x2 = t2 + dx if axis == 1 else t2
                u = _slope_u_binding(ch, x1, x2, pj, r0, gamma)
                pts.append(None if u is None else 2.0 ** u)
            if any(p is None for p in pts):
                rep.skipped += 1
                continue
            rep.curvature_checked += 1
            second = pts[0] - 2.0 * pts[1] + pts[2]
            if second > 1e-7 * max(1.0, abs(pts[1])):
                rep.curvature_violations += 1
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
    ne_l1 = [c.to_dict() for c in l1]  # before the Pareto pick flags its winner
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
        "brute_force": [
            {"p1": p.p1, "p2": p.p2, "p3": p.p3, "p4": p.p4, "p_j": p.p_j}
            for p in bf
        ],
        "ne_l1": ne_l1,
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
            "monotonicity": {
                "slope_checked": mono.slope_checked,
                "slope_violations": mono.slope_violations,
                "curvature_checked": mono.curvature_checked,
                "curvature_violations": mono.curvature_violations,
                "skipped": mono.skipped,
            },
        },
    }
