"""The slot outcome restated at 50 digits, from the paper's formulas alone.

An oracle for the package's slot outcomes and its game table, written out
again in mpmath rather than through ``nomajam.rates`` or ``nomajam.jammer``:
the link model under successive interference cancellation, the Shannon
rates, the network objective and the three utilities, the uniform-in-dB
SINR quantizer and the jammer's exact best response.  Call it inside
``mpmath.workdps(DIGITS)``, with the gains and powers as mpmath numbers.
"""

from bisect import bisect_right

import mpmath

DIGITS = 50
# A rate this close to r0, or an SINR this close to a level's threshold,
# relative to the larger of 1 and the edge, is a near tie (see ``Edge``):
# float rounding may put it on either side, so the model does not decide it.
# An exact tie is decided, as the paper's ">=" decides it.
NEAR = 1e-12


def model_links(g, p1, p2, p3, p4):
    """Each user's (signal, interference plus noise, jammer gain), restated
    from the gains and the SIC rule: a weak user (UE1, UE3) hears its cell's
    strong-user power and the other BS's total; a strong user (UE2, UE4)
    cancels the weak user's signal and hears noise alone.  Gain columns are
    BS1, BS2 and the jammer."""
    return (
        (p1 * g[0][0], 1 + p2 * g[0][0] + (p3 + p4) * g[0][1], g[0][2]),
        (p2 * g[1][0], 1, g[1][2]),
        (p3 * g[2][1], 1 + p4 * g[2][1] + (p1 + p2) * g[2][0], g[2][2]),
        (p4 * g[3][1], 1, g[3][2]),
    )


def model_sinrs(links, p_j):
    """Each user's SINR at jamming power p_j."""
    return [s / (d + p_j * gj) for s, d, gj in links]


def model_rate(sinr):
    """The Shannon rate log2(1 + SINR), in bit/s/Hz."""
    return mpmath.log(1 + sinr) / mpmath.ln2


def model_rates(links, p_j):
    """Each user's rate at jamming power p_j."""
    return [model_rate(x) for x in model_sinrs(links, p_j)]


class Edge:
    """A decision edge: x meets it when x >= edge.  An x within NEAR of it,
    relative to the larger of 1 and the edge, but not on it, is a near tie."""

    def __init__(self, edge):
        band = NEAR * max(1, abs(edge))
        self.edge, self.lo, self.hi = edge, edge - band, edge + band

    def decide(self, x):
        """(x >= edge, whether x is a near tie)."""
        return x >= self.edge, self.lo <= x <= self.hi and x != self.edge


def model_thresholds(levels, lo_db, hi_db):
    """The edges at which the uniform-in-dB quantizer's levels 1..levels-1
    start, as SINRs: level k at lo_db + k (hi_db - lo_db) / levels dB.  The
    lowest level takes everything below, the top one everything above."""
    width = (mpmath.mpf(hi_db) - lo_db) / levels
    return [Edge(mpmath.power(10, (lo_db + k * width) / 10)) for k in range(1, levels)]


def model_level(sinr, thresholds):
    """(level, near tie) of an SINR: the count of thresholds it reaches,
    and whether it is a near tie with the last one reached or the next."""
    level = bisect_right(thresholds, sinr, key=lambda t: t.edge)
    return level, any(t.decide(sinr)[1] for t in thresholds[max(level - 1, 0):level + 1])


def model_scores(rates, p_j, met, gamma, z):
    """(sum rate, objective, shared utility, selfish rewards of cells 1 and 2,
    jammer utility) of the four users' rates and QoS decisions ``met``.

    The objective is the sum rate when every user meets QoS, else 0.  Cell
    c's indicator is 1 when both its users meet QoS, else z; the shared
    utility is the product of both indicators times the sum rate plus the
    jammer's cost gamma * p_j, a selfish reward is its cell's indicator
    times the cell's rates plus that cost, and the jammer's utility is the
    negated sum rate minus the cost.
    """
    total = sum(rates)
    cost = gamma * p_j
    i1 = 1 if met[0] and met[1] else z
    i2 = 1 if met[2] and met[3] else z
    return (total, total if all(met) else 0, i1 * i2 * (total + cost),
            i1 * (rates[0] + rates[1] + cost), i2 * (rates[2] + rates[3] + cost),
            -(total + cost))


def marginal_utility(links, p, gamma):
    """The jammer's marginal utility at power p: each rate falls at
    s g / ((d + p g)(d + s + p g)) / ln 2, and the power costs gamma."""
    return sum(s * gj / ((d + p * gj) * (d + s + p * gj))
               for s, d, gj in links) / mpmath.ln2 - gamma


def follower(links, gamma, pmax):
    """The jammer's exact best response on [0, pmax]: the root of the
    marginal utility, which falls as p grows (the utility is concave), so
    0 when it starts at or below 0 and pmax when it ends at or above 0."""
    def du(p):
        return marginal_utility(links, p, gamma)

    if du(0) <= 0:
        return mpmath.mpf(0)
    if du(pmax) >= 0:
        return pmax
    return mpmath.findroot(du, (mpmath.mpf(0), pmax), solver="anderson")
