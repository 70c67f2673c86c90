"""The smart jammer: exact best response, unimodality probe, learning agent.

The jammer is the follower of the leader-follower game: given both BS power
allocations it picks the jamming power maximizing its utility (negated
network sum rate minus a linear power cost) on [0, p_j_max].  That utility,
-sum_i log2(1 + s_i / (d_i + p g_i)) - gamma p with d_i >= 1 and
s_i, g_i >= 0, is concave in p: each term's marginal rate loss
s_i g_i / ((d_i + p g_i)(d_i + s_i + p g_i)) falls as p grows.  So a coarse
sweep brackets the maximizer and golden-section search refines it inside
the bracket; printed closed-form optimality conditions are not trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .learn.agents import QTable, select_action
from .rates import link_terms, sum_rate

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Smallest search tolerance, relative to p_j_max: golden-section search
# cannot shrink its bracket below a few ulps, so a finer one never ends.
MIN_SEARCH_TOLERANCE = 1e-12


@dataclass(frozen=True)
class JammerConfig:
    p_j_max: float = 20.0
    gamma: float = 0.5
    grid_levels: int = 10
    search_tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.p_j_max <= 0:
            raise ValueError("p_j_max must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.grid_levels < 2:
            raise ValueError("grid_levels must be at least 2")
        if not self.search_tolerance >= MIN_SEARCH_TOLERANCE * self.p_j_max:
            raise ValueError(
                f"search_tolerance must be at least {MIN_SEARCH_TOLERANCE} * p_j_max"
            )


@dataclass(frozen=True)
class BestResponse:
    p_j_star: float
    interior: bool
    u_at_star: float


def jammer_utility_of(
    ch: ChannelRealization,
    alloc1: tuple[float, float],
    alloc2: tuple[float, float],
    gamma: float,
):
    """The jammer's utility as a scalar function of its power."""
    terms = link_terms(ch, *alloc1, *alloc2)

    def u(p_j: float) -> float:
        return -(sum_rate(terms, p_j) + gamma * p_j)

    return u


def jammer_utility_curve(
    ch: ChannelRealization,
    alloc1: tuple[float, float],
    alloc2: tuple[float, float],
    gamma: float,
    p_j_values: np.ndarray,
) -> np.ndarray:
    """Vectorized jammer utility over an array of jamming powers."""
    pj = np.asarray(p_j_values, dtype=float)
    return -(sum_rate(link_terms(ch, *alloc1, *alloc2), pj, np.log2) + gamma * pj)


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section maximization of a unimodal f on [a, b]."""
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    return 0.5 * (a + b)


def best_response(
    ch: ChannelRealization,
    alloc1: tuple[float, float],
    alloc2: tuple[float, float],
    cfg: JammerConfig,
) -> BestResponse:
    """Utility-maximizing jamming power on [0, p_j_max], clamped at the ends.

    The utility is concave in the jamming power (see the module docstring),
    so the best of a 65-point sweep lies within one step of the maximizer;
    golden-section search refines it on that bracket.  Deterministic in its
    inputs.
    """
    if min(alloc1 + alloc2) < 0:
        raise ValueError("allocations must be non-negative")
    u = jammer_utility_of(ch, alloc1, alloc2, cfg.gamma)
    pmax = cfg.p_j_max
    tol = cfg.search_tolerance

    probe_pj = np.linspace(0.0, pmax, 65)
    probe_u = jammer_utility_curve(ch, alloc1, alloc2, cfg.gamma, probe_pj)
    k = int(np.argmax(probe_u))
    lo = probe_pj[max(0, k - 1)]
    hi = probe_pj[min(len(probe_pj) - 1, k + 1)]
    star = _golden_max(u, lo, hi, tol)

    # The ends are the clamp points; take whichever candidate wins outright.
    candidates = [0.0, float(star), pmax]
    values = [u(c) for c in candidates]
    best = max(range(3), key=lambda i: (values[i], candidates[i]))
    p_star = candidates[best]
    return BestResponse(
        p_j_star=p_star,
        interior=bool(tol < p_star < pmax - tol),
        u_at_star=float(values[best]),
    )


@dataclass(frozen=True)
class UnimodalityReport:
    unimodal: bool
    sign_changes: int


def concavity_probe(
    ch: ChannelRealization,
    alloc1: tuple[float, float],
    alloc2: tuple[float, float],
    cfg: JammerConfig,
    n_points: int = 201,
) -> UnimodalityReport:
    """Sample the jammer utility and count slope sign changes.

    At most one change means the function is unimodal on [0, p_j_max], which
    is all the clamped best response needs.
    """
    if n_points < 10:
        raise ValueError("n_points must be at least 10")
    pj = np.linspace(0.0, cfg.p_j_max, n_points)
    values = jammer_utility_curve(ch, alloc1, alloc2, cfg.gamma, pj)
    diffs = np.diff(values)
    flat = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    signs = [1 if d > 0 else -1 for d in diffs if abs(d) > flat]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return UnimodalityReport(unimodal=changes <= 1, sign_changes=changes)


class JammerAgent:
    """Tabular Q-learning jammer with quantized power levels.

    Actions are the grid {k * p_j_max / L : k = 0..L}.  The agent observes
    only the previous slot's quantized per-BS total powers; it never sees
    gains or the BS split.  Single-writer: one environment drives one agent.
    """

    def __init__(
        self,
        cfg: JammerConfig,
        p_bs_max: float,
        seed: int,
        alpha: float = 0.2,
        discount: float = 0.7,
        eps_start: float = 0.9,
        eps_decay: float = 0.998,
        eps_floor: float = 0.05,
    ) -> None:
        levels = cfg.grid_levels
        self.cfg = cfg
        self.p_bs_max = p_bs_max
        self.actions = tuple(k * cfg.p_j_max / levels for k in range(levels + 1))
        self.obs_bins = levels + 1
        self.table = QTable(
            n_states=self.obs_bins ** 2,
            n_actions=len(self.actions),
            alpha=alpha,
            discount=discount,
        )
        self.rng = np.random.default_rng(seed)
        self.eps = eps_start
        self.eps_decay = eps_decay
        self.eps_floor = eps_floor
        self._prev: tuple[int, int] | None = None

    def observe_powers(self, p_bs1: float, p_bs2: float) -> int:
        """State index from quantized BS total powers."""
        def bin_of(p: float) -> int:
            k = int(round(p / self.p_bs_max * (self.obs_bins - 1)))
            return min(max(k, 0), self.obs_bins - 1)

        return bin_of(p_bs1) * self.obs_bins + bin_of(p_bs2)

    def step(self, state: int, reward: float | None) -> float:
        """Update for the previous transition, then pick the next power.

        ``reward`` is the utility earned by the previous action (None on the
        first call).  Returns the jamming power to transmit this slot.
        """
        if self._prev is not None and reward is not None:
            ps, pa = self._prev
            self.table.update(ps, pa, reward, state)
        action = select_action(self.table.table[state], self.eps, self.rng)
        self._prev = (state, action)
        self.eps = max(self.eps_floor, self.eps * self.eps_decay)
        return self.actions[action]

