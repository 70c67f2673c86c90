"""Per-user SINRs, rates, the network objective, and the player utilities.

All functions are pure and operate on noise-normalized quantities: transmit
powers are expressed in units of the noise power, so every SINR denominator
starts at exactly 1.  ``link_terms`` is the only place the link model is
written; every SINR, rate and utility here and in the solvers derives from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log2

import numpy as np

from .channel import SRC_BS1, SRC_BS2, SRC_JAM, ChannelRealization


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
    """Per-user SINRs from ``link_terms`` at jamming power p_j."""
    return [s / (d + p_j * g) for s, d, g in terms]


def sum_rate(terms, p_j: float) -> float:
    """Sum rate from ``link_terms`` at a scalar jamming power, added in user order."""
    total = 0.0
    for s, d, g in terms:
        total += log2(1.0 + s / (d + p_j * g))
    return total


def sum_rate_curve(terms, p_j: np.ndarray) -> np.ndarray:
    """Sum rate from ``link_terms`` at each power of a 1-D array, in one broadcast.

    The users' terms form (4, 1) columns against the row of powers; the sum
    over the user axis adds the rows in user order.
    """
    s, d, g = np.array(terms).T[:, :, None]
    return np.log2(1.0 + s / (d + p_j * g)).sum(axis=0)


def sinr_vector(ch: ChannelRealization, prof: StrategyProfile) -> np.ndarray:
    """SINRs of the four users under successive interference cancellation."""
    return np.array(sinrs(link_terms(ch, prof.p1, prof.p2, prof.p3, prof.p4), prof.p_j))


def rates_from_sinr(sinr) -> np.ndarray:
    """Shannon rates log2(1 + SINR), elementwise, in bit/s/Hz."""
    return np.log2(1.0 + np.asarray(sinr, dtype=float))


def _rates4(
    ch: ChannelRealization, p1: float, p2: float, p3: float, p4: float, p_j: float
) -> tuple[float, ...]:
    """Per-user rates as plain floats (math.log2), for the scalar solvers."""
    terms = link_terms(ch, p1, p2, p3, p4)
    return tuple(math.log2(1.0 + sinr) for sinr in sinrs(terms, p_j))


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
    marker).
    """
    if cell == 1:
        weak, own, total = 0, SRC_BS1, p_bs1
    elif cell == 2:
        weak, own, total = 2, SRC_BS2, p_bs2
    else:
        raise ValueError(f"cell must be 1 or 2, got {cell}")
    g_own = ch.gain_rows[weak][own]
    if g_own <= 0:
        raise ValueError("weak user's own-cell gain must be positive")
    _, d, g_jam = link_terms(ch, 0.0, p_bs1, 0.0, p_bs2)[weak]
    t = 2.0 ** r0
    p_weak = (t - 1.0) * (d + p_j_star * g_jam) / (g_own * t)
    if p_weak > total + 1e-12 * max(1.0, total):
        return math.inf
    return p_weak


def objective_p2(rates, r0: float) -> float:
    """Network objective: the sum rate if every user meets QoS, else 0."""
    r = np.asarray(rates, dtype=float)
    return float(r.sum()) if float(r.min()) >= r0 else 0.0


def bs_utility(rates, p_j: float, r0: float, gamma: float, z: float) -> float:
    """Shared utility of both base stations.

    Each cell contributes a soft QoS indicator: 1 when its worse user meets
    the rate threshold (inclusive), z otherwise.  The base value is the sum
    rate plus the jamming cost gamma * p_j the jammer was forced to spend.
    Both indicators failing multiplies the base by z^2.
    """
    i1 = 1.0 if min(rates[0], rates[1]) >= r0 else z
    i2 = 1.0 if min(rates[2], rates[3]) >= r0 else z
    return float(i1 * i2 * (rates[0] + rates[1] + rates[2] + rates[3] + gamma * p_j))


def selfish_reward(
    rates, own_cell: int, p_j: float, r0: float, gamma: float, z: float
) -> float:
    """Single-cell reward: own QoS indicator times own sum rate plus jam cost.

    Ignores the other cell's rates entirely; used by the selfish baseline.
    """
    r = np.asarray(rates, dtype=float)
    own = r[0:2] if own_cell == 1 else r[2:4]
    indicator = 1.0 if float(own.min()) >= r0 else z
    return indicator * (float(own.sum()) + gamma * p_j)


def jammer_utility(rates, p_j: float, gamma: float) -> float:
    """Jammer utility: negated sum rate minus the cost of the spent power."""
    r = np.asarray(rates, dtype=float)
    return -(float(r.sum()) + gamma * p_j)
