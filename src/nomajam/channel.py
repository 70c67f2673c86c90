"""Channel generation for a two-cell NOMA downlink with a jammer.

Four users on a line are served by two base stations (UE1/UE2 by BS1,
UE3/UE4 by BS2) while a jammer transmits from a configurable position.
All power gains are noise-normalized, so every downstream SINR denominator
carries an exact "1 +" noise term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Column order of the gain matrix: sources seen by each user.
SRC_BS1, SRC_BS2, SRC_JAM = 0, 1, 2

# The two-cell layout: cell -> (weak user, strong user, own BS, other BS),
# users as gain-matrix rows and BSs as its columns.
CELLS = {1: (0, 1, SRC_BS1, SRC_BS2), 2: (2, 3, SRC_BS2, SRC_BS1)}

# Default scenario: user/BS positions in meters on a line, total noise power
# in dB.  The jammer sits outside the two-cell segment; any position exactly
# on top of a user would make the path-loss model singular, and positions
# close to a user leave no channel regime where all four QoS targets are
# simultaneously reachable.
DEFAULT_USER_POSITIONS = (250.0, 20.0, 400.0, 480.0)
DEFAULT_BS_POSITIONS = (0.0, 500.0)
DEFAULT_JAMMER_POSITION = 800.0
DEFAULT_NOISE_POWER_DB = -140.0


def path_loss(d: float) -> float:
    """Large-scale fading factor 10^-3.53 / d^3.76 for a distance in meters."""
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    return 10.0 ** -3.53 / d ** 3.76


@dataclass(frozen=True)
class Geometry:
    """Positions of the four users, the two base stations, and the jammer.

    Positions are scalar coordinates in meters (the layout is 1-D);
    distances are absolute coordinate differences.  ``noise_power_db`` is the
    total noise power in dB used to normalize all channel gains.
    """

    user_positions: tuple[float, float, float, float] = DEFAULT_USER_POSITIONS
    bs_positions: tuple[float, float] = DEFAULT_BS_POSITIONS
    jammer_position: float = DEFAULT_JAMMER_POSITION
    noise_power_db: float = DEFAULT_NOISE_POWER_DB

    def __post_init__(self) -> None:
        if len(self.user_positions) != 4 or len(self.bs_positions) != 2:
            raise ValueError("geometry needs 4 user positions and 2 BS positions")
        if not math.isfinite(self.noise_power_db):
            raise ValueError("noise_power_db must be finite")
        for d in self.distances().flat:
            if not (d > 0) or not math.isfinite(d):
                raise ValueError(
                    "all source-receiver distances must be strictly positive"
                )

    @property
    def source_positions(self) -> tuple[float, float, float]:
        return (self.bs_positions[0], self.bs_positions[1], self.jammer_position)

    def distances(self) -> np.ndarray:
        """4x3 matrix of |user - source| distances (sources: BS1, BS2, jammer)."""
        users = np.asarray(self.user_positions, dtype=float)
        sources = np.asarray(self.source_positions, dtype=float)
        return np.abs(users[:, None] - sources[None, :])

    @property
    def noise_power(self) -> float:
        return 10.0 ** (self.noise_power_db / 10.0)

    @cached_property
    def large_scale(self) -> np.ndarray:
        """Read-only 4x3 matrix of ``path_loss`` over ``distances()``."""
        loss = np.array([list(map(path_loss, row)) for row in self.distances().tolist()])
        loss.setflags(write=False)
        return loss


def default_geometry(jammer_position: float = DEFAULT_JAMMER_POSITION) -> Geometry:
    """The scenario used throughout the experiments, with a movable jammer."""
    return Geometry(jammer_position=jammer_position)


@dataclass(frozen=True)
class ChannelRealization:
    """One immutable draw of the twelve noise-normalized power gains.

    ``gains[i, mu]`` is |h_i^mu|^2 / sigma^2 for user i (0..3) and source
    mu in (BS1, BS2, jammer).
    """

    gains: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        g = np.array(self.gains, dtype=float)
        if g.shape != (4, 3):
            raise ValueError(f"gains must be 4x3, got {g.shape}")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("gains must be finite and non-negative")
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    @cached_property
    def gain_rows(self) -> tuple[tuple[float, float, float], ...]:
        """Gains as nested tuples of plain floats (fast path for hot loops)."""
        return tuple(tuple(float(x) for x in row) for row in self.gains)


# Above every fading factor ``draw_channels`` can draw: numpy's exponential
# sampler returns at most 7.70 - log(2**-53), about 44.4.
MAX_FADING = 64.0


def draw_channels(geom: Geometry, seed: int, fading: bool = True) -> ChannelRealization:
    """Draw a channel realization; deterministic in (geometry, seed).

    Each gain is path_loss(d) * f / sigma^2 with f a unit-mean exponential
    fading draw (Rayleigh amplitude), or f = 1 when fading is disabled.
    """
    if fading:
        rng = np.random.default_rng(seed)
        f = rng.exponential(scale=1.0, size=(4, 3))
    else:
        f = np.ones((4, 3))
    gains = geom.large_scale * f / geom.noise_power
    return ChannelRealization(gains=gains, seed=seed)

