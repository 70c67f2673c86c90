"""Reinforcement-learning agents for the two base stations."""

from .agents import (
    DqnAgent,
    EpsSchedule,
    QTable,
    TabularAgent,
    encode_observation,
    quantize_sinr,
    select_action,
)
from .nn import (
    MlpParams,
    dqn_train_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    target_sync,
)

__all__ = [
    "DqnAgent",
    "EpsSchedule",
    "MlpParams",
    "QTable",
    "TabularAgent",
    "dqn_train_step",
    "encode_observation",
    "init_mlp",
    "mlp_backward",
    "mlp_forward",
    "quantize_sinr",
    "select_action",
    "target_sync",
]
