import math
from math import log2

import numpy as np
import pytest

from nomajam.channel import ChannelRealization, default_geometry, draw_channels
from nomajam.jammer import JammerConfig
from nomajam.rates import StrategyProfile, link_terms, qos_binding_split, sinrs


@pytest.fixture(scope="session")
def geom():
    return default_geometry()


@pytest.fixture()
def jcfg():
    return JammerConfig()


@pytest.fixture()
def channel(geom):
    return draw_channels(geom, seed=7)


def make_channel(gains, seed=0) -> ChannelRealization:
    return ChannelRealization(gains=np.asarray(gains, dtype=float), seed=seed)


def binding_profile(
    ch: ChannelRealization,
    p_bs1: float,
    p_bs2: float,
    p_j: float,
    r0: float,
    cells: tuple[int, ...] = (1, 2),
) -> StrategyProfile | None:
    """Profile with the weak user of each listed cell at its QoS-binding power.

    Each cell not listed puts its whole total on its strong user.  None when
    a listed cell's binding power exceeds its total.  The scalar reference
    for the package's array binding pass.
    """
    p1 = qos_binding_split(ch, p_bs1, p_bs2, p_j, r0, cell=1) if 1 in cells else 0.0
    p3 = qos_binding_split(ch, p_bs1, p_bs2, p_j, r0, cell=2) if 2 in cells else 0.0
    if not (math.isfinite(p1) and math.isfinite(p3)):
        return None
    p2, p4 = p_bs1 - p1, p_bs2 - p3
    if p2 < 0 or p4 < 0:
        return None
    return StrategyProfile(p1=p1, p2=p2, p3=p3, p4=p4, p_j=p_j)


def rates4(
    ch: ChannelRealization, p1: float, p2: float, p3: float, p4: float, p_j: float
) -> tuple[float, ...]:
    """Per-user rates as plain floats (math.log2): the scalar reference for
    the package's array rate pass."""
    x1, x2, x3, x4 = sinrs(link_terms(ch, p1, p2, p3, p4), p_j)
    return log2(1.0 + x1), log2(1.0 + x2), log2(1.0 + x3), log2(1.0 + x4)
