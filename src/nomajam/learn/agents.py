"""Power-allocation agents: tabular Q-learning and DQN, plus their plumbing.

Both base stations run independent learners.  The observation is the vector
of four quantized SINR indices, ordered own-cell-first, fed back by the
users on the previous slot.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .nn import (
    MlpParams,
    Transition,
    dqn_train_step,
    init_mlp,
    mlp_forward,
    target_sync,
)

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
        self.n_states = n_states
        self.n_actions = n_actions
        self.alpha = alpha
        self.discount = discount
        self.table = np.zeros((n_states, n_actions))

    def update(self, state: int, action: int, reward: float, next_state: int) -> None:
        best_next = float(self.table[next_state].max())
        self.table[state, action] = (1.0 - self.alpha) * self.table[
            state, action
        ] + self.alpha * (reward + self.discount * best_next)


def ql_update(table: QTable, t: Transition, levels: int = SINR_LEVELS) -> QTable:
    """Apply one transition (tuple observations) to the table; returns it."""
    s = encode_observation(tuple(t.obs), levels)
    s_next = encode_observation(tuple(t.next_obs), levels)
    table.update(s, t.action, t.reward, s_next)
    return table


@dataclass
class EpsSchedule:
    start: float = 0.9
    decay: float = 0.998
    floor: float = 0.05


class TabularAgent:
    """Independent Q-learning BS agent over quantized-SINR states."""

    kind = "qtable"

    def __init__(
        self,
        n_actions: int,
        sinr_levels: int,
        alpha: float,
        discount: float,
        eps: EpsSchedule,
        seed: int,
    ) -> None:
        self.sinr_levels = sinr_levels
        self.table = QTable(sinr_levels**4, n_actions, alpha, discount)
        self.rng = np.random.default_rng(seed)
        self.eps_schedule = eps
        self.eps = eps.start

    def act(self, obs: tuple[int, ...]) -> int:
        state = encode_observation(obs, self.sinr_levels)
        return select_action(self.table.table[state], self.eps, self.rng)

    def learn(
        self,
        obs: tuple[int, ...],
        action: int,
        reward: float,
        next_obs: tuple[int, ...],
    ) -> None:
        ql_update(self.table, Transition(obs, action, reward, next_obs),
                  self.sinr_levels)
        self.eps = max(self.eps_schedule.floor, self.eps * self.eps_schedule.decay)

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sinr_levels": self.sinr_levels,
            "n_actions": self.table.n_actions,
            "alpha": self.table.alpha,
            "discount": self.table.discount,
            "eps": self.eps,
            "table": self.table.table.tolist(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.eps = float(state["eps"])
        self.table.table = np.array(state["table"], dtype=float)


class DqnAgent:
    """DQN BS agent: main/target networks, optional uniform replay."""

    kind = "mlp"

    def __init__(
        self,
        n_actions: int,
        sinr_levels: int,
        lr: float,
        discount: float,
        eps: EpsSchedule,
        seed: int,
        replay: bool = True,
        replay_capacity: int = 10_000,
        batch_size: int = 32,
        sync_period: int = 100,
        reward_scale: float = 0.025,
        init_params: MlpParams | None = None,
    ) -> None:
        self.sinr_levels = sinr_levels
        self.n_actions = n_actions
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
        self.replay_enabled = replay
        self.buffer: deque[Transition] = deque(maxlen=replay_capacity)
        self.batch_size = batch_size
        self.sync_period = sync_period
        self.reward_scale = reward_scale
        self.slot = 0
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
        t = Transition(
            self._normalize(obs), action, reward * self.reward_scale,
            self._normalize(next_obs),
        )
        if self.replay_enabled:
            self.buffer.append(t)
            n = min(self.batch_size, len(self.buffer))
            idx = self.rng.integers(len(self.buffer), size=n)
            batch = [self.buffer[int(i)] for i in idx]
        else:
            batch = [t]
        self.last_loss = dqn_train_step(
            self.params, self.target, batch, self.lr, self.discount
        )
        self.slot += 1
        if self.slot % self.sync_period == 0:
            target_sync(self.params, self.target)
            self.sync_count += 1
        self.eps = max(self.eps_schedule.floor, self.eps * self.eps_schedule.decay)

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sinr_levels": self.sinr_levels,
            "n_actions": self.n_actions,
            "lr": self.lr,
            "discount": self.discount,
            "eps": self.eps,
            "slot": self.slot,
            "weights": [w.tolist() for w in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
        }

    def load_state_dict(self, state: dict) -> None:
        self.eps = float(state["eps"])
        self.slot = int(state.get("slot", 0))
        self.params = MlpParams(
            weights=[np.array(w, dtype=float) for w in state["weights"]],
            biases=[np.array(b, dtype=float) for b in state["biases"]],
        )
        self.target = self.params.copy()


def save_checkpoint(agent: TabularAgent | DqnAgent, path) -> None:
    """Serialize an agent (table or weights plus schedule position) as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(agent.state_dict(), fh)


def load_checkpoint(agent: TabularAgent | DqnAgent, path) -> None:
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)
    if state["kind"] != agent.kind:
        raise ValueError(f"checkpoint kind {state['kind']!r} does not match agent")
    agent.load_state_dict(state)


def hot_boot(
    n_scenarios: int,
    scenario_gen,
    train_budget: int,
    make_agents,
    log=None,
) -> MlpParams:
    """Pre-train a DQN pair across similar scenarios; return the BS1 weights.

    ``scenario_gen(i)`` must yield an environment with ``reset() ->
    (obs1, obs2)`` and ``step(a1, a2)`` returning at least
    ``(obs1, obs2, r1, r2)``;
    ``make_agents(env)`` builds the two fresh agents used throughout.  The
    per-scenario mean training loss is reported so overfitting to the boot
    scenarios stays visible; more scenarios converge faster but risk exactly
    that.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")
    if train_budget < 1:
        raise ValueError("train_budget must be at least 1")
    agents = None
    for i in range(n_scenarios):
        env = scenario_gen(i)
        if agents is None:
            agents = make_agents(env)
        obs1, obs2 = env.reset()
        losses = []
        for _ in range(train_budget):
            a1 = agents[0].act(obs1)
            a2 = agents[1].act(obs2)
            nobs1, nobs2, r1, r2 = env.step(a1, a2)[:4]
            agents[0].learn(obs1, a1, r1, nobs1)
            agents[1].learn(obs2, a2, r2, nobs2)
            losses.append(agents[0].last_loss)
            obs1, obs2 = nobs1, nobs2
        if log is not None:
            log(i, float(np.mean(losses)))
    return agents[0].params.copy()
