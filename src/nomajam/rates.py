"""Per-user SINRs, rates, the network objective, and the player utilities.

All functions are pure and operate on noise-normalized quantities: transmit
powers are expressed in units of the noise power, so every SINR denominator
starts at exactly 1.  ``link_terms`` is the only place the link model is
written; every SINR, rate and utility here and in the solvers derives from it.
Each score (the objective and the three utilities) is written once, for
plain floats and for arrays of rates alike, and each adds the four users'
rates through ``sum_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log2

import numpy as np

from .channel import CELLS, SRC_BS1, SRC_BS2, SRC_JAM, ChannelRealization


@dataclass(frozen=True)
class StrategyProfile:
    """Powers for one slot: (p1, p2) from BS1, (p3, p4) from BS2, p_j jamming.

    p1/p3 go to the weak (cell-edge) users, p2/p4 to the strong users.
    Learning actions keep every BS power strictly positive; the game-analysis
    code may set p1 or p3 to zero.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p_j: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3", "p4", "p_j"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")

    @property
    def p_bs1(self) -> float:
        return self.p1 + self.p2

    @property
    def p_bs2(self) -> float:
        return self.p3 + self.p4

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4, self.p_j)


def link_terms(
    ch: ChannelRealization, p1: float, p2: float, p3: float, p4: float
) -> tuple[tuple[float, float, float], ...]:
    """Each user's (signal, interference plus noise without the jammer, jammer gain).

    The one statement of the link model under successive interference
    cancellation: the weak users (UE1, UE3) see their cell's strong-user
    power plus the other cell's total, and the strong users (UE2, UE4) have
    the weak-user signal cancelled and see only noise.  User i's SINR at
    jamming power p_j is s_i / (d_i + p_j * g_i).

    The powers may also be equal-length 1-D arrays, one entry per
    allocation: each entry then takes the same float operations, in the same
    order, as the scalar call, so its terms are the same bits.
    """
    g1, g2, g3, g4 = ch.gain_rows
    return (
        (p1 * g1[SRC_BS1],
         1.0 + p2 * g1[SRC_BS1] + (p3 + p4) * g1[SRC_BS2], g1[SRC_JAM]),
        (p2 * g2[SRC_BS1], 1.0, g2[SRC_JAM]),
        (p3 * g3[SRC_BS2],
         1.0 + p4 * g3[SRC_BS2] + (p1 + p2) * g3[SRC_BS1], g3[SRC_JAM]),
        (p4 * g4[SRC_BS2], 1.0, g4[SRC_JAM]),
    )


def sinrs(terms, p_j: float) -> list[float]:
    """Per-user SINRs from ``link_terms`` at jamming power p_j (or an array of them)."""
    return [s / (d + p_j * g) for s, d, g in terms]


def sum_rate_curve(terms, p_j: np.ndarray) -> np.ndarray:
    """Sum rate from ``link_terms`` at each power of a 1-D array, in one broadcast.

    ``terms`` is one allocation's twelve terms, flat as (12,), or n
    allocations' as (n, 12); the result is (len(p_j),) or (n, len(p_j)).
    The users' terms form (4, n, 1) columns against the row of powers, all
    in one (4, n, len(p_j)) buffer worked in place; the sum over the user
    axis adds the rows in user order, so each row is the same bits whatever
    the other rows.
    """
    x = np.asarray(terms, dtype=float)
    s, d, g = x.reshape(-1, 4, 3).T[..., None]
    rates = p_j * g
    rates += d
    np.divide(s, rates, out=rates)
    rates += 1.0
    np.log2(rates, out=rates)
    return rates.sum(axis=0).reshape(x.shape[:-1] + np.shape(p_j))


def rates_from_sinr(sinr) -> np.ndarray:
    """Shannon rates log2(1 + SINR), elementwise, in bit/s/Hz."""
    return np.log2(1.0 + np.asarray(sinr, dtype=float))


def rate_rows(ch: ChannelRealization, allocs, p_j) -> np.ndarray:
    """Per-user rates of N allocations (p1, p2, p3, p4), each at its own jamming power.

    One pass of ``link_terms`` and ``sinrs`` over the allocations' columns
    gives each SINR by the float operations of a scalar call; each rate is
    then ``math.log2`` of a plain float, never ``np.log2``, whose last bit
    changes with the SIMD level numpy dispatches to.  So row k of the (N, 4)
    result is the same bits whatever the other rows and whatever the SIMD
    level, and a batch of one is the one-allocation answer.
    """
    p = np.asarray(allocs, dtype=float)
    x = 1.0 + np.array(sinrs(link_terms(ch, *p.T), np.asarray(p_j, dtype=float)))
    return np.array(list(map(log2, x.T.ravel().tolist()))).reshape(p.shape)


def _pick(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: a branch on a bool, ``np.where``
    on an array.  No arithmetic, so a -0.0 comes back as it went in."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def sum_rate(rates):
    """The four users' rates added in user order, as numpy's sum of four does."""
    r1, r2, r3, r4 = rates
    return ((r1 + r2) + r3) + r4


def qos_binding_split(
    ch: ChannelRealization,
    p_bs1: float,
    p_bs2: float,
    p_j_star: float,
    r0: float,
    cell: int,
) -> float:
    """Weak-user power that makes its rate exactly meet the QoS threshold.

    Closed form: with t = 2^r0 and A the weak user's denominator with the
    cell's whole total on its strong user, p_weak = (t - 1) * A / (g_own * t).
    Returns inf when the binding power exceeds the cell's total (infeasible
    marker).  Totals and p_j_star may be equal-length arrays; the result is
    then the array of each entry's scalar answer, bit for bit.
    """
    if cell not in CELLS:
        raise ValueError(f"cell must be 1 or 2, got {cell}")
    weak, _, own, _ = CELLS[cell]
    total = (p_bs1, p_bs2)[own]
    g_own = ch.gain_rows[weak][own]
    if g_own <= 0:
        raise ValueError("weak user's own-cell gain must be positive")
    _, d, g_jam = link_terms(ch, 0.0, p_bs1, 0.0, p_bs2)[weak]
    t = 2.0 ** r0
    p_weak = (t - 1.0) * (d + p_j_star * g_jam) / (g_own * t)
    return _pick(p_weak > total + 1e-12 * np.maximum(1.0, total), math.inf, p_weak)


# The scorers below take ``rates`` as the four users' rates, either four
# plain floats (a float comes out) or four equal-length arrays, the columns of
# an (N, 4) rate array (an array comes out).  An array entry takes the plain
# call's float operations in the same order, so it is the same bits.


def objective_p2(rates, r0: float):
    """Network objective: the sum rate if every user meets QoS, else 0."""
    r1, r2, r3, r4 = rates
    met = (r1 >= r0) & (r2 >= r0) & (r3 >= r0) & (r4 >= r0)
    return _pick(met, sum_rate(rates), 0.0)


def bs_utility(rates, p_j, r0: float, gamma: float, z: float):
    """Shared utility of both base stations.

    Each cell contributes a soft QoS indicator: 1 when both its users meet
    the rate threshold (inclusive), z otherwise.  The base value is the sum
    rate plus the jamming cost gamma * p_j the jammer was forced to spend.
    Both indicators failing multiplies the base by z^2.
    """
    r1, r2, r3, r4 = rates
    i1 = _pick((r1 >= r0) & (r2 >= r0), 1.0, z)
    i2 = _pick((r3 >= r0) & (r4 >= r0), 1.0, z)
    return i1 * i2 * (sum_rate(rates) + gamma * p_j)


def selfish_reward(rates, own_cell: int, p_j, r0: float, gamma: float, z: float):
    """Single-cell reward: own QoS indicator times own sum rate plus jam cost.

    Ignores the other cell's rates entirely; used by the selfish baseline.
    """
    if own_cell not in CELLS:
        raise ValueError(f"own_cell must be 1 or 2, got {own_cell}")
    w, s, _, _ = CELLS[own_cell]
    weak, strong = rates[w], rates[s]
    indicator = _pick((weak >= r0) & (strong >= r0), 1.0, z)
    return indicator * ((weak + strong) + gamma * p_j)


def jammer_utility(rates, p_j, gamma: float):
    """Jammer utility: negated sum rate minus the cost of the spent power."""
    return -(sum_rate(rates) + gamma * p_j)
