"""Power-allocation agents: tabular Q-learning and DQN, plus their plumbing.

Both base stations run independent learners, held as one stacked pair: one
agent object carries both players' tables or networks along a leading axis
and one ``Generator`` per player, and each slot makes one ``act`` and one
``learn`` call for the pair.  The observation is the vector of four
quantized SINR indices, ordered own-cell-first, fed back by the users on the
previous slot.  The learning jammer is a ``TabularAgent`` of one player,
over the binned BS total powers of the previous slot.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .nn import MlpParams, _forward_cached, dqn_train_step, init_mlp, target_sync

def quantize_sinr(sinr: float, levels: int, lo_db: float, hi_db: float) -> int:
    """Uniform-in-dB quantization of a linear SINR, clamped at both ends."""
    if levels < 2:
        raise ValueError("levels must be at least 2")
    if sinr <= 0:
        return 0
    db = 10.0 * math.log10(sinr)
    idx = int(math.floor((db - lo_db) / (hi_db - lo_db) * levels))
    return min(max(idx, 0), levels - 1)


# The bit patterns of the non-negative finite floats, which order as the floats do.
_FINITE_BITS = range(struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0] + 1)


def _float_of(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@lru_cache(maxsize=64)
def sinr_thresholds(levels: int, lo_db: float, hi_db: float) -> np.ndarray:
    """The read-only thresholds t_1 <= ... <= t_{levels-1} of ``quantize_sinr``.

    t_k is the smallest positive float at which ``quantize_sinr``, which
    does not fall as the SINR grows, reaches level k (inf if no finite float
    does).  It is found by bisection over the floats' bit patterns against
    ``quantize_sinr`` itself.  So for a non-negative finite SINR x,
    ``np.searchsorted(t, x, side="right")`` is ``quantize_sinr(x, levels,
    lo_db, hi_db)``, with no ``log10`` of its own.
    """
    def level(bits: int) -> int:
        return quantize_sinr(_float_of(bits), levels, lo_db, hi_db)

    firsts = [bisect_left(_FINITE_BITS, k, key=level) for k in range(1, levels)]
    thresholds = np.array(
        [_float_of(b) if b < len(_FINITE_BITS) else math.inf for b in firsts]
    )
    thresholds.setflags(write=False)
    return thresholds


def encode_observation(obs: tuple[int, ...], levels: int) -> int:
    """Mixed-radix index of a tuple of quantized values."""
    state = 0
    for q in obs:
        if not 0 <= q < levels:
            raise ValueError(f"index {q} outside [0, {levels})")
        state = state * levels + q
    return state


def select_action(qvalues: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy: greedy with prob 1-eps, else uniform over the rest.

    Greedy ties break to the lowest index.  With eps = 1 the greedy action
    is never taken.  Draws ``rng.random()``, then ``rng.integers(n - 1)``
    only when exploring.
    """
    n = len(qvalues)
    if n < 2:
        raise ValueError("need at least two actions")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    greedy = int(qvalues.argmax())
    if rng.random() >= eps:
        return greedy
    k = int(rng.integers(n - 1))  # the k-th of the actions other than greedy
    return k + (k >= greedy)


class QTable:
    """Dense state-action value table, zero at the start, with the one-step
    Q-learning update."""

    def __init__(self, n_states: int, n_actions: int, alpha: float, discount: float):
        self.alpha = alpha
        self.discount = discount
        self.table = np.zeros((n_states, n_actions))

    def update(self, state: int, action: int, reward: float, next_state: int) -> None:
        # on plain floats: the same IEEE arithmetic as on numpy scalars
        table = self.table
        row = table[next_state]
        best_next = row.item(row.argmax())  # .max() without its reduction's overhead
        table[state, action] = (1.0 - self.alpha) * table.item(
            state, action
        ) + self.alpha * (reward + self.discount * best_next)


@dataclass
class EpsSchedule:
    start: float = 0.9
    decay: float = 0.998
    floor: float = 0.05


class _Players:
    """What both learners share: one ``Generator`` per entry of ``seeds``
    (one player each), the ε schedule, and the ``act``/``learn`` protocol.

    ``act`` takes a tuple of one observation per player and returns one
    action per player; ``learn(actions, rewards, next_obs)`` trains on the
    transition from the observations of the last ``act``.  ``act`` keeps its
    encoding for ``learn``, and the next ``act`` reuses ``learn``'s encoding
    of ``next_obs`` when it is handed that same (immutable) tuple.
    """

    def __init__(self, eps: EpsSchedule, seeds) -> None:
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.eps_schedule = eps
        self.eps = eps.start
        self._obs = None
        self._enc = None

    def _current(self, obs):
        if obs is not self._obs:
            self._obs, self._enc = obs, self._encode(obs)
        return self._enc

    def _advance(self, next_obs, next_enc) -> None:
        self._obs, self._enc = next_obs, next_enc
        self.eps = max(self.eps_schedule.floor, self.eps * self.eps_schedule.decay)


class _Rows(dict):
    """One player's observation -> Q-table row, encoded on first sight."""

    def __init__(self, offset: int, levels: int) -> None:
        super().__init__()
        self.offset = offset
        self.levels = levels

    def __missing__(self, obs) -> int:
        row = self[obs] = self.offset + encode_observation(obs, self.levels)
        return row


class TabularAgent(_Players):
    """Independent Q-learning over ``obs_len`` quantized values in [0, levels):
    the two BSs, each observing its four SINR indices, or the jammer alone,
    observing its two binned BS totals.  The players' tables are stacked as
    one ``QTable`` of players * n_states rows: player i's state s is row
    i * n_states + s.  Each player encodes an observation once and then looks
    its row up in a dict, which holds at most n_states entries.
    """

    def __init__(
        self,
        n_actions: int,
        levels: int,
        obs_len: int,
        alpha: float,
        discount: float,
        eps: EpsSchedule,
        seeds,
    ) -> None:
        super().__init__(eps, seeds)
        self.n_states = levels**obs_len
        self.table = QTable(
            len(self.rngs) * self.n_states, n_actions, alpha, discount
        )
        self._rows = [
            _Rows(i * self.n_states, levels) for i in range(len(self.rngs))
        ]

    def _encode(self, obs) -> tuple[int, ...]:
        """Each player's row in ``table``."""
        return tuple([rows[o] for rows, o in zip(self._rows, obs)])

    def act(self, obs) -> tuple[int, ...]:
        eps, rows = self.eps, self.table.table
        return tuple([
            select_action(rows[s], eps, rng)
            for s, rng in zip(self._current(obs), self.rngs)
        ])

    def learn(self, actions, rewards, next_obs) -> None:
        next_states = self._encode(next_obs)
        update = self.table.update
        for s, a, r, ns in zip(self._enc, actions, rewards, next_states):
            update(s, a, r, ns)
        self._advance(next_obs, next_states)


class DqnAgent(_Players):
    """DQN BS agents: main/target networks and uniform experience replay per
    player, held as one stack.

    Player i's networks are slice i of stacked ``MlpParams``, and its replay
    memory holds its last ``replay_capacity`` transitions, observations
    already normalized and rewards already scaled: row i of ``obs_buf``,
    ``next_obs_buf``, ``action_buf`` and ``reward_buf``, preallocated
    (players, replay_capacity, ...) rings.  ``obs_buf`` and
    ``next_obs_buf`` are the two halves of one (2 * players,
    replay_capacity, 4) ring, so one gather fetches both batches.  The
    forward pass, the training step and the target sync run once for all
    players.
    """

    def __init__(
        self,
        n_actions: int,
        sinr_levels: int,
        lr: float,
        discount: float,
        eps: EpsSchedule,
        seeds,
        replay_capacity: int = 10_000,
        batch_size: int = 32,
        sync_period: int = 100,
        reward_scale: float = 0.025,
        init_params: MlpParams | None = None,
    ) -> None:
        super().__init__(eps, seeds)
        self.sinr_levels = sinr_levels
        self.lr = lr
        self.discount = discount
        m = len(self.rngs)
        if init_params is None:
            nets = [init_mlp(4, n_actions, rng) for rng in self.rngs]
        else:
            if init_params.n_outputs != n_actions:
                raise ValueError("initial weights do not match the action space")
            nets = [init_params] * m
        self.params = MlpParams.stack(nets)
        self.target = self.params.copy()
        self.capacity = replay_capacity
        self._obs_ring = np.empty((2 * m, replay_capacity, 4))
        self.obs_buf, self.next_obs_buf = self._obs_ring[:m], self._obs_ring[m:]
        self.action_buf = np.empty((m, replay_capacity), dtype=np.intp)
        self.reward_buf = np.empty((m, replay_capacity))
        self.batch_size = batch_size
        self.sync_period = sync_period
        self.reward_scale = reward_scale
        self.slot = 0  # transitions stored so far, wrapped ones included
        self.sync_count = 0
        self.last_loss = np.zeros(m)
        # each ring row's first index in its flattened ring
        self._row_starts = np.arange(2 * m)[:, None] * replay_capacity

    def _encode(self, obs) -> np.ndarray:
        return np.asarray(obs, dtype=float) / (self.sinr_levels - 1)

    def act(self, obs) -> tuple[int, ...]:
        q = _forward_cached(self.params, self._current(obs)[:, None])[-1][:, 0]
        eps = self.eps
        return tuple([select_action(qi, eps, rng) for qi, rng in zip(q, self.rngs)])

    def learn(self, actions, rewards, next_obs) -> None:
        """Store each player's transition, then train each on a uniform draw
        from its own ring.

        Drawn positions count from the oldest stored transition, so once the
        ring has wrapped they pick what a deque of the same capacity would.
        Raises ``FloatingPointError`` naming the slot (counted from this
        agent's first transition) and the player once a loss is not finite:
        the network has diverged, and training on would only spread NaN.
        """
        nx = self._encode(next_obs)
        k = self.slot % self.capacity
        self.obs_buf[:, k] = self._enc
        self.next_obs_buf[:, k] = nx
        self.action_buf[:, k] = actions
        self.reward_buf[:, k] = np.multiply(rewards, self.reward_scale)
        self.slot += 1
        size = min(self.slot, self.capacity)
        n = min(self.batch_size, size)
        m = len(self.rngs)
        draws = [rng.integers(size, size=n) for rng in self.rngs]
        idx = np.array(draws + draws)  # both halves of the observation ring
        if self.slot > self.capacity:
            idx += self.slot
            idx %= self.capacity
        # flat indices; the first m rows also index the action and reward rings
        idx += self._row_starts
        obs = self._obs_ring.reshape(-1, 4).take(idx, axis=0)
        self.last_loss = dqn_train_step(
            self.params, self.target, obs[:m], self.action_buf.take(idx[:m]),
            self.reward_buf.take(idx[:m]), obs[m:], self.lr, self.discount,
        )
        for player, loss in enumerate(self.last_loss.tolist(), 1):
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"DQN diverged at slot {self.slot - 1}: player {player}'s "
                    f"training loss is {loss}"
                )
        if self.slot % self.sync_period == 0:
            target_sync(self.params, self.target)
            self.sync_count += 1
        self._advance(next_obs, nx)
