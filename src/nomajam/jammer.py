"""The smart jammer as follower: exact best response and unimodality probe.

The jammer is the follower of the leader-follower game: given both BS power
allocations it picks the jamming power maximizing its utility (negated
network sum rate minus a linear power cost) on [0, p_j_max].  That utility,
-sum_i log2(1 + s_i / (d_i + p g_i)) - gamma p with d_i >= 1 and
s_i, g_i >= 0, is concave in p: each term's marginal rate loss
s_i g_i / ((d_i + p g_i)(d_i + s_i + p g_i)) falls as p grows.  So a coarse
sweep brackets the maximizer and golden-section search refines it inside
the bracket; printed closed-form optimality conditions are not trusted.
``best_responses`` takes a block of allocations' twelve link terms each
from one array pass, runs the block's sweep in one ``rates.sum_rate_curve``
call, and runs the search on each row on plain floats in one module-level
function that writes the utility out at every point, with no closure and
no call per point; a block's rows are bit-identical to batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import log2

import numpy as np

from .channel import ChannelRealization
from .rates import link_terms, sum_rate_curve

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the sweep that brackets the best response on [0, p_j_max].
PROBE_POINTS = 65
# Allocations per block: one (BLOCK, 4) array of powers, one array pass of link
# terms and one in-place (4, BLOCK, 65) sweep buffer of 133 kB.  It bounds the
# follower's working memory, whatever the number of allocations solved.
BLOCK = 64


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
        # best_response's sweep, built once per config: the read-only grid and
        # its points as plain floats for the bracket ends.
        grid = np.linspace(0.0, self.p_j_max, PROBE_POINTS)
        grid.setflags(write=False)
        object.__setattr__(self, "probe_grid", grid)
        object.__setattr__(self, "_probe_floats", tuple(grid.tolist()))


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
    rows = _link_rows(ch, np.array([(*alloc1, *alloc2)], dtype=float))
    return -(sum_rate_curve(rows[0], pj) + gamma * pj)


def _best_power(terms, a: float, b: float, gamma: float, pmax: float, tol: float) -> float:
    """Utility-maximizing jamming power of one allocation, its sweep bracket [a, b].

    ``terms`` is the allocation's twelve link terms (s, d, g of each user,
    users in order).  Golden-section search narrows [a, b] until it is at
    most ``tol`` wide; the answer is the best of 0, the bracket's middle and
    ``pmax``, a tie going to the larger power.  The utility is written out
    at each point it is evaluated, with the four users' rates added in user
    order, then gamma * p, then negated: no closure and no call per point.
    """
    s1, d1, g1, s2, d2, g2, s3, d3, g3, s4, d4, g4 = terms
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc = -(log2(1.0 + s1 / (d1 + c * g1)) + log2(1.0 + s2 / (d2 + c * g2))
           + log2(1.0 + s3 / (d3 + c * g3)) + log2(1.0 + s4 / (d4 + c * g4)) + gamma * c)
    fd = -(log2(1.0 + s1 / (d1 + d * g1)) + log2(1.0 + s2 / (d2 + d * g2))
           + log2(1.0 + s3 / (d3 + d * g3)) + log2(1.0 + s4 / (d4 + d * g4)) + gamma * d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = -(log2(1.0 + s1 / (d1 + c * g1)) + log2(1.0 + s2 / (d2 + c * g2))
                   + log2(1.0 + s3 / (d3 + c * g3)) + log2(1.0 + s4 / (d4 + c * g4))
                   + gamma * c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = -(log2(1.0 + s1 / (d1 + d * g1)) + log2(1.0 + s2 / (d2 + d * g2))
                   + log2(1.0 + s3 / (d3 + d * g3)) + log2(1.0 + s4 / (d4 + d * g4))
                   + gamma * d)
    # max over (utility, power) pairs, as the builtin max takes them
    best = None
    for p in (0.0, 0.5 * (a + b), pmax):
        u = -(log2(1.0 + s1 / (d1 + p * g1)) + log2(1.0 + s2 / (d2 + p * g2))
              + log2(1.0 + s3 / (d3 + p * g3)) + log2(1.0 + s4 / (d4 + p * g4)) + gamma * p)
        if best is None or (u, p) > best:
            best = (u, p)
    return best[1]


def _checked(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows``, the link terms of allocations ``p``, unless a power is negative
    or a term not finite (ValueError; NaN fails both comparisons).  With the
    powers and gains non-negative, so is every term: the largest is finite
    unless one is NaN or infinite.  Every follower entry point checks here."""
    if not (p.min() >= 0 and rows.max() < math.inf):
        raise ValueError("allocations must be finite and non-negative")
    return rows


def _link_rows(ch: ChannelRealization, p: np.ndarray) -> np.ndarray:
    """The (B, 12) link terms of a (B, 4) allocation array in one array pass,
    each row the bits of a scalar ``link_terms`` call; ``_checked``, not a
    numpy warning, reports an overflowing or undefined term."""
    with np.errstate(over="ignore", invalid="ignore"):
        users = link_terms(ch, *p.T)
    rows = np.empty((len(p), 12))
    for k, col in enumerate(chain.from_iterable(users)):
        rows[:, k] = col
    return _checked(p, rows)


def _solve(rows: np.ndarray, cfg: JammerConfig) -> list[float]:
    """The best responses to a block of allocations, their (B, 12) link terms."""
    grid, ends = cfg.probe_grid, cfg._probe_floats
    gamma, pmax = cfg.gamma, cfg.p_j_max
    tol = max(1e-5, 1e-12 * pmax)
    top = len(ends) - 1
    sweep = sum_rate_curve(rows, grid)
    sweep += gamma * grid
    return [_best_power(terms, ends[max(0, k - 1)], ends[min(top, k + 1)], gamma, pmax, tol)
            for k, terms in zip(sweep.argmin(axis=1).tolist(), rows.tolist())]


def best_responses(ch: ChannelRealization, allocs, cfg: JammerConfig) -> list[float]:
    """Utility-maximizing jamming power on [0, p_j_max] for each (p1, p2, p3, p4).

    The utility is concave in the jamming power (see the module docstring),
    so the best of the config's 65-point sweep lies within one step of the
    maximizer; golden-section search (``_best_power``) refines it on that
    bracket until the bracket is 1e-5 wide, or 1e-12 * p_j_max where that is
    wider (a bracket cannot shrink below a few ulps of p_j_max).  The ends
    are the clamp points: the best utility wins outright, and a tie goes to
    the larger power.

    ``allocs`` is an (N, 4) array-like, read ``BLOCK`` rows at a time: each
    block's (B, 12) link terms come from one array pass.  The sweep is
    ``rates.sum_rate_curve`` of the block plus the cost, and the search runs
    on each row's twelve plain floats; every element takes the same float
    operations as in a block of one, so no answer depends on the block it
    was solved in.  A negative or non-finite power, or powers whose link
    terms overflow, raise ValueError.
    """
    p = np.asarray(allocs, dtype=float)
    out: list[float] = []
    for lo in range(0, len(p), BLOCK):
        out += _solve(_link_rows(ch, p[lo:lo + BLOCK]), cfg)
    return out


def best_response(
    ch: ChannelRealization,
    alloc1: tuple[float, float],
    alloc2: tuple[float, float],
    cfg: JammerConfig,
) -> BestResponse:
    """The follower's answer to one BS power pair, by ``best_responses``' solver.

    One pair takes the scalar ``link_terms``, cheaper than an array pass of one.
    """
    p = (*alloc1, *alloc2)
    t1, t2, t3, t4 = link_terms(ch, *map(float, p))
    rows = _checked(np.array(p, dtype=float), np.array([(*t1, *t2, *t3, *t4)]))
    return BestResponse(p_j_star=_solve(rows, cfg)[0])


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
