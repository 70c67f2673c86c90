"""The smart jammer as follower: exact best response and unimodality probe.

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
from .rates import link_terms, sum_rate, sum_rate_curve

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the sweep that brackets the best response on [0, p_j_max].
PROBE_POINTS = 65


@dataclass(frozen=True)
class JammerConfig:
    p_j_max: float = 20.0
    gamma: float = 0.5

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not (self.p_j_max > 0 and math.isfinite(self.p_j_max)):
            raise ValueError(f"p_j_max must be positive and finite, got {self.p_j_max}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")
        # best_response's sweep, built once per config: the read-only grid, its
        # points as plain floats for the bracket ends, and the cost on it.
        grid = np.linspace(0.0, self.p_j_max, PROBE_POINTS)
        grid.setflags(write=False)
        object.__setattr__(self, "probe_grid", grid)
        object.__setattr__(self, "_probe_floats", tuple(grid.tolist()))
        object.__setattr__(self, "_probe_cost", self.gamma * grid)


@dataclass(frozen=True)
class BestResponse:
    p_j_star: float


def jammer_utility_curve(
    ch: ChannelRealization,
    alloc1: tuple[float, float],
    alloc2: tuple[float, float],
    gamma: float,
    p_j_values: np.ndarray,
) -> np.ndarray:
    """Vectorized jammer utility over a 1-D array of jamming powers."""
    pj = np.asarray(p_j_values, dtype=float)
    return -(sum_rate_curve(link_terms(ch, *alloc1, *alloc2), pj) + gamma * pj)


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
    so the best of the config's 65-point sweep lies within one step of the
    maximizer; golden-section search refines it on that bracket until the
    bracket is 1e-5 wide, or 1e-12 * p_j_max where that is wider (a bracket
    cannot shrink below a few ulps of p_j_max).  Deterministic in its inputs.
    """
    # Plain floats: numpy scalars would slow every step of the scalar search.
    powers = tuple(map(float, alloc1 + alloc2))
    if min(powers) < 0:
        raise ValueError("allocations must be non-negative")
    terms = link_terms(ch, *powers)
    gamma, pmax = cfg.gamma, cfg.p_j_max

    def u(p_j: float) -> float:
        return -(sum_rate(terms, p_j) + gamma * p_j)

    # The sweep's largest utility is its smallest sum rate plus cost.
    k = int(np.argmin(sum_rate_curve(terms, cfg.probe_grid) + cfg._probe_cost))
    ends = cfg._probe_floats
    lo, hi = ends[max(0, k - 1)], ends[min(len(ends) - 1, k + 1)]
    star = _golden_max(u, lo, hi, max(1e-5, 1e-12 * pmax))

    # The ends are the clamp points; the best utility wins outright, and a tie
    # goes to the larger power.
    _, p_star = max((u(0.0), 0.0), (u(star), star), (u(pmax), pmax))
    return BestResponse(p_j_star=p_star)


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
