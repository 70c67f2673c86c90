"""Anti-jamming NOMA power allocation in a two-cell downlink.

Simulation and analysis toolkit: exact per-user rates and utilities under
successive interference cancellation, the smart jammer's best response,
grid-certified Nash equilibria of the two-BS leaders' game, and independent
reinforcement-learning power-allocation agents.
"""

from .channel import (
    ChannelRealization,
    Geometry,
    default_geometry,
    draw_channels,
    path_loss,
)
from .game import (
    NeCertificate,
    StrategyGrid,
    analysis_report,
    brute_force_ne,
    find_ne_l1,
    find_ne_l2,
    find_ne_l3,
    mood_classify,
    monotonicity_check,
    pareto_ne_l1,
)
from .harness import (
    RECORD_DTYPE,
    ExperimentConfig,
    TwoCellEnv,
    export_csv,
    load_config,
    read_csv,
    run_experiment,
    run_ne_analysis,
    run_slot,
)
from .jammer import (
    BestResponse,
    JammerConfig,
    best_response,
    concavity_probe,
    jammer_utility_curve,
)
from .rates import (
    StrategyProfile,
    bs_utility,
    jammer_utility,
    objective_p2,
    qos_binding_split,
    rates_from_sinr,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponse",
    "ChannelRealization",
    "ExperimentConfig",
    "Geometry",
    "JammerConfig",
    "NeCertificate",
    "RECORD_DTYPE",
    "StrategyGrid",
    "StrategyProfile",
    "TwoCellEnv",
    "analysis_report",
    "best_response",
    "brute_force_ne",
    "bs_utility",
    "concavity_probe",
    "default_geometry",
    "draw_channels",
    "export_csv",
    "find_ne_l1",
    "find_ne_l2",
    "find_ne_l3",
    "jammer_utility",
    "jammer_utility_curve",
    "load_config",
    "mood_classify",
    "monotonicity_check",
    "objective_p2",
    "pareto_ne_l1",
    "path_loss",
    "qos_binding_split",
    "rates_from_sinr",
    "read_csv",
    "run_experiment",
    "run_ne_analysis",
    "run_slot",
]
