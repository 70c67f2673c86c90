"""Power-allocation agents: tabular Q-learning and DQN, plus their plumbing.

Both base stations run independent learners.  The observation is the vector
of four quantized SINR indices, ordered own-cell-first, fed back by the
users on the previous slot.  The learning jammer is a ``TabularAgent`` too,
over the binned BS total powers of the previous slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import MlpParams, dqn_train_step, init_mlp, mlp_forward, target_sync

SINR_LEVELS = 8
SINR_LO_DB = -20.0
SINR_HI_DB = 30.0


def quantize_sinr(
    sinr: float,
    levels: int = SINR_LEVELS,
    lo_db: float = SINR_LO_DB,
    hi_db: float = SINR_HI_DB,
) -> int:
    """Uniform-in-dB quantization of a linear SINR, clamped at both ends."""
    if levels < 2:
        raise ValueError("levels must be at least 2")
    if sinr <= 0:
        return 0
    db = 10.0 * math.log10(sinr)
    idx = int(math.floor((db - lo_db) / (hi_db - lo_db) * levels))
    return min(max(idx, 0), levels - 1)


def observation_for(cell: int, q_sinr: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Own-cell-first observation ordering for the given BS (1 or 2)."""
    if cell == 1:
        return tuple(q_sinr)
    if cell == 2:
        return (q_sinr[2], q_sinr[3], q_sinr[0], q_sinr[1])
    raise ValueError(f"cell must be 1 or 2, got {cell}")


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
    is never taken.
    """
    q = np.asarray(qvalues, dtype=float)
    n = q.shape[0]
    if n < 2:
        raise ValueError("need at least two actions")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    greedy = int(np.argmax(q))
    if rng.random() >= eps:
        return greedy
    others = [a for a in range(n) if a != greedy]
    return int(others[rng.integers(len(others))])


class QTable:
    """Dense state-action value table, zero at the start, with the one-step
    Q-learning update."""

    def __init__(self, n_states: int, n_actions: int, alpha: float, discount: float):
        self.alpha = alpha
        self.discount = discount
        self.table = np.zeros((n_states, n_actions))

    def update(self, state: int, action: int, reward: float, next_state: int) -> None:
        best_next = float(self.table[next_state].max())
        self.table[state, action] = (1.0 - self.alpha) * self.table[
            state, action
        ] + self.alpha * (reward + self.discount * best_next)


@dataclass
class EpsSchedule:
    start: float = 0.9
    decay: float = 0.998
    floor: float = 0.05


class TabularAgent:
    """Independent Q-learning agent over ``obs_len`` quantized values in
    [0, levels): a BS's four SINR indices, or the jammer's two binned BS totals."""

    def __init__(
        self,
        n_actions: int,
        levels: int,
        obs_len: int,
        alpha: float,
        discount: float,
        eps: EpsSchedule,
        seed: int,
    ) -> None:
        self.levels = levels
        self.table = QTable(levels**obs_len, n_actions, alpha, discount)
        self.rng = np.random.default_rng(seed)
        self.eps_schedule = eps
        self.eps = eps.start

    def act(self, obs: tuple[int, ...]) -> int:
        state = encode_observation(obs, self.levels)
        return select_action(self.table.table[state], self.eps, self.rng)

    def learn(
        self,
        obs: tuple[int, ...],
        action: int,
        reward: float,
        next_obs: tuple[int, ...],
    ) -> None:
        self.table.update(
            encode_observation(obs, self.levels), action, reward,
            encode_observation(next_obs, self.levels),
        )
        self.eps = max(self.eps_schedule.floor, self.eps * self.eps_schedule.decay)


class DqnAgent:
    """DQN BS agent: main/target networks and uniform experience replay.

    The replay memory is a ring of four preallocated arrays holding the last
    ``replay_capacity`` transitions, observations already normalized and
    rewards already scaled.
    """

    def __init__(
        self,
        n_actions: int,
        sinr_levels: int,
        lr: float,
        discount: float,
        eps: EpsSchedule,
        seed: int,
        replay_capacity: int = 10_000,
        batch_size: int = 32,
        sync_period: int = 100,
        reward_scale: float = 0.025,
        init_params: MlpParams | None = None,
    ) -> None:
        self.sinr_levels = sinr_levels
        self.lr = lr
        self.discount = discount
        self.rng = np.random.default_rng(seed)
        if init_params is None:
            self.params = init_mlp(4, n_actions, self.rng)
        else:
            if init_params.n_outputs != n_actions:
                raise ValueError("initial weights do not match the action space")
            self.params = init_params.copy()
        self.target = self.params.copy()
        self.eps_schedule = eps
        self.eps = eps.start
        self.capacity = replay_capacity
        self.obs_buf = np.empty((replay_capacity, 4))
        self.next_obs_buf = np.empty((replay_capacity, 4))
        self.action_buf = np.empty(replay_capacity, dtype=np.intp)
        self.reward_buf = np.empty(replay_capacity)
        self.batch_size = batch_size
        self.sync_period = sync_period
        self.reward_scale = reward_scale
        self.slot = 0  # transitions stored so far, wrapped ones included
        self.sync_count = 0
        self.last_loss = 0.0

    def _normalize(self, obs: tuple[int, ...]) -> np.ndarray:
        return np.asarray(obs, dtype=float) / (self.sinr_levels - 1)

    def act(self, obs: tuple[int, ...]) -> int:
        q = mlp_forward(self.params, self._normalize(obs))
        return select_action(q, self.eps, self.rng)

    def learn(
        self,
        obs: tuple[int, ...],
        action: int,
        reward: float,
        next_obs: tuple[int, ...],
    ) -> None:
        """Store the transition, then train on a uniform draw from the ring.

        Drawn positions count from the oldest stored transition, so once the
        ring has wrapped they pick what a deque of the same capacity would.
        """
        k = self.slot % self.capacity
        self.obs_buf[k] = self._normalize(obs)
        self.next_obs_buf[k] = self._normalize(next_obs)
        self.action_buf[k] = action
        self.reward_buf[k] = reward * self.reward_scale
        self.slot += 1
        size = min(self.slot, self.capacity)
        idx = self.rng.integers(size, size=min(self.batch_size, size))
        if self.slot > self.capacity:
            idx = (idx + self.slot) % self.capacity
        self.last_loss = dqn_train_step(
            self.params, self.target, self.obs_buf[idx], self.action_buf[idx],
            self.reward_buf[idx], self.next_obs_buf[idx], self.lr, self.discount,
        )
        if self.slot % self.sync_period == 0:
            target_sync(self.params, self.target)
            self.sync_count += 1
        self.eps = max(self.eps_schedule.floor, self.eps * self.eps_schedule.decay)
