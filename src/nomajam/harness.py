"""Experiment orchestration: per-slot simulation loops, replication, export.

Every run is a pure function of its configuration and seed list: channel
draws, agent exploration, and the learning jammer all derive their random
streams from the per-seed seed, so identical configs reproduce identical
CSV output byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import operator
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    DEFAULT_BS_POSITIONS,
    DEFAULT_JAMMER_POSITION,
    DEFAULT_NOISE_POWER_DB,
    DEFAULT_USER_POSITIONS,
    ChannelRealization,
    Geometry,
    draw_channels,
)
from .game import TABLE_BYTES_PER_PROFILE, StrategyGrid, analysis_report
from .jammer import MIN_SEARCH_TOLERANCE, JammerAgent, JammerConfig, best_response
from .learn.agents import (
    DqnAgent,
    EpsSchedule,
    TabularAgent,
    observation_for,
    quantize_sinr,
)
from .rates import (
    StrategyProfile,
    bs_utility,
    jammer_utility,
    objective_p2,
    rates_from_sinr,
    selfish_reward,
    sinr_vector,
)

log = logging.getLogger(__name__)

SCHEMES = ("QLU", "DQLU", "HBDQLU", "QLS", "NE-ANALYSIS")
JAMMER_MODES = ("learning", "best-response")
# Largest Q-table a tabular agent may allocate, in float64: a BS agent's
# (sinr_levels**4 states by one column per grid action; QLU and QLS run two)
# or the learning jammer's ((jammer_grid_levels + 1)**2 states by
# jammer_grid_levels + 1 actions).  NE-ANALYSIS's table of joint grid
# profiles is held to the same bound.
MAX_Q_TABLE_BYTES = 256 * 2**20


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; the defaults reproduce the stock scenario."""

    # geometry (meters on a line) and noise
    xl_ue1: float = DEFAULT_USER_POSITIONS[0]
    xl_ue2: float = DEFAULT_USER_POSITIONS[1]
    xl_ue3: float = DEFAULT_USER_POSITIONS[2]
    xl_ue4: float = DEFAULT_USER_POSITIONS[3]
    xl_bs1: float = DEFAULT_BS_POSITIONS[0]
    xl_bs2: float = DEFAULT_BS_POSITIONS[1]
    xl_jammer: float = DEFAULT_JAMMER_POSITION
    noise_db: float = DEFAULT_NOISE_POWER_DB
    fading: bool = True
    redraw_period: int = 0  # 0 = one realization per run

    # experiment shape
    scheme: str = "QLU"
    slots: int = 2000
    seeds: tuple[int, ...] = tuple(range(10))
    summary_window: int = 200
    out_dir: str | None = None
    workers: int = 1  # seeds are independent; >1 runs them in a process pool

    # power/QoS constants (noise-normalized powers)
    grid_levels: int = 6
    r0: float = 0.9
    gamma: float = 0.5
    z: float = 0.01
    p_bs_max: float = 40.0
    p_j_max: float = 20.0

    # agent hyperparameters
    alpha_ql: float = 0.2
    alpha_dqn: float = 0.1
    discount: float = 0.7
    eps_start: float = 0.9
    eps_decay: float = 0.998
    eps_floor: float = 0.05
    sinr_levels: int = 8
    sinr_lo_db: float = -20.0
    sinr_hi_db: float = 30.0
    replay_capacity: int = 10_000
    batch_size: int = 32
    target_sync_period: int = 100
    reward_scale: float = 0.025
    hot_boot_scenarios: int = 3
    hot_boot_slots: int = 500

    # jammer
    jammer_mode: str = "learning"
    jammer_grid_levels: int = 10
    jammer_search_tolerance: float = 1e-5

    # equilibrium analysis
    eps_ne: float = 1e-9

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick from {SCHEMES}")
        if self.jammer_mode not in JAMMER_MODES:
            raise ValueError(f"unknown jammer mode {self.jammer_mode!r}")
        for name in (
            "slots", "summary_window", "workers", "batch_size", "replay_capacity",
            "target_sync_period", "hot_boot_scenarios", "hot_boot_slots",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be unique, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.seeds}")
        for name in ("grid_levels", "sinr_levels", "jammer_grid_levels"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        for name in ("p_bs_max", "p_j_max", "alpha_dqn", "reward_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, holds, need in (
            ("r0", self.r0 >= 0, "be non-negative"),
            ("eps_ne", self.eps_ne >= 0, "be non-negative"),
            ("z", 0 <= self.z <= 1, "lie in [0, 1]"),
            ("discount", 0 <= self.discount < 1, "lie in [0, 1)"),
            ("alpha_ql", 0 < self.alpha_ql <= 1, "lie in (0, 1]"),
            ("eps_decay", 0 < self.eps_decay <= 1, "lie in (0, 1]"),
            ("eps_floor", 0 <= self.eps_floor <= self.eps_start,
             "lie in [0, eps_start]"),
            ("eps_start", self.eps_start <= 1, "be at most 1"),
            ("sinr_lo_db", self.sinr_lo_db < self.sinr_hi_db, "be below sinr_hi_db"),
            ("jammer_search_tolerance",
             self.jammer_search_tolerance >= MIN_SEARCH_TOLERANCE * self.p_j_max,
             f"be at least {MIN_SEARCH_TOLERANCE} * p_j_max"),
        ):
            if not holds:
                raise ValueError(f"{name} must {need}, got {getattr(self, name)}")
        if self.redraw_period < 0:
            raise ValueError("redraw_period must be non-negative")
        self.geometry()  # validates positions/distances
        self.jammer_config()
        n_actions = len(self.grid().actions)
        table_bytes = self.sinr_levels**4 * n_actions * 8
        if self.scheme in ("QLU", "QLS") and table_bytes > MAX_Q_TABLE_BYTES:
            raise ValueError(
                f"grid_levels = {self.grid_levels} and sinr_levels = "
                f"{self.sinr_levels} need a {table_bytes / 2**20:.0f} MiB Q-table "
                f"per BS, above the {MAX_Q_TABLE_BYTES // 2**20} MiB bound"
            )
        ne_bytes = n_actions**2 * TABLE_BYTES_PER_PROFILE
        if self.scheme == "NE-ANALYSIS" and ne_bytes > MAX_Q_TABLE_BYTES:
            raise ValueError(
                f"grid_levels = {self.grid_levels} needs a {ne_bytes / 2**20:.0f} "
                f"MiB table of joint grid profiles, above the "
                f"{MAX_Q_TABLE_BYTES // 2**20} MiB bound"
            )
        jammer_bytes = (self.jammer_grid_levels + 1) ** 3 * 8
        if (self.scheme != "NE-ANALYSIS" and self.jammer_mode == "learning"
                and jammer_bytes > MAX_Q_TABLE_BYTES):
            raise ValueError(
                f"jammer_grid_levels = {self.jammer_grid_levels} needs a "
                f"{jammer_bytes / 2**20:.0f} MiB jammer Q-table, above the "
                f"{MAX_Q_TABLE_BYTES // 2**20} MiB bound"
            )

    def geometry(self) -> Geometry:
        return Geometry(
            user_positions=(self.xl_ue1, self.xl_ue2, self.xl_ue3, self.xl_ue4),
            bs_positions=(self.xl_bs1, self.xl_bs2),
            jammer_position=self.xl_jammer,
            noise_power_db=self.noise_db,
        )

    def jammer_config(self) -> JammerConfig:
        return JammerConfig(
            p_j_max=self.p_j_max,
            gamma=self.gamma,
            grid_levels=self.jammer_grid_levels,
            search_tolerance=self.jammer_search_tolerance,
        )

    def grid(self) -> StrategyGrid:
        return StrategyGrid.build(self.grid_levels, self.p_bs_max)

    def eps_schedule(self) -> EpsSchedule:
        return EpsSchedule(self.eps_start, self.eps_decay, self.eps_floor)

    def replaced(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Either a comma-separated list of seeds or a bare count (0..n-1)."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty seed specification")
    if len(parts) == 1 and "," not in text:
        n = int(parts[0])
        if n <= 0:
            raise ValueError(f"seeds: a count must be positive, got {n}")
        return tuple(range(n))
    seeds = tuple(int(p) for p in parts)
    if min(seeds) < 0:
        raise ValueError(f"seeds must be non-negative, got {text.strip()!r}")
    return seeds


def _coerce(kind, raw: str):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored."""
    kinds = typing.get_type_hints(ExperimentConfig)
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = (
                    parse_seeds(raw) if key == "seeds" else _coerce(kinds[key], raw)
                )
            except ValueError as exc:
                msg = f"{path}:{lineno}: bad value for {key}: {exc}"
                raise ValueError(msg) from None
    return ExperimentConfig(**values)


@dataclass
class SlotRecord:
    """Everything logged for one slot; re-derivable from actions and seed."""

    seed: int
    slot: int
    p1: float
    p2: float
    p3: float
    p4: float
    p_j: float
    r1: float
    r2: float
    r3: float
    r4: float
    sum_rate: float
    objective: float
    u_bs: float
    selfish_1: float
    selfish_2: float
    qos1: int
    qos2: int
    qos3: int
    qos4: int


CSV_HEADER = [f.name for f in dataclasses.fields(SlotRecord)]
_FLOAT_FIELDS = {
    name for name, kind in typing.get_type_hints(SlotRecord).items() if kind is float
}


def export_csv(records: list[SlotRecord], path) -> None:
    """Write records with 17-significant-digit floats (exact round-trip)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                row = [
                    format(getattr(rec, name), ".17g")
                    if name in _FLOAT_FIELDS
                    else str(getattr(rec, name))
                    for name in CSV_HEADER
                ]
                writer.writerow(row)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def read_csv(path) -> list[SlotRecord]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header}")
            out = []
            for row in reader:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(
                        f"{path}: row {reader.line_num} has {len(row)} fields, "
                        f"expected {len(CSV_HEADER)}"
                    )
                kwargs = {
                    name: float(v) if name in _FLOAT_FIELDS else int(v)
                    for name, v in zip(CSV_HEADER, row)
                }
                out.append(SlotRecord(**kwargs))
            return out
    except OSError as exc:
        raise OSError(f"failed to read {path}: {exc}") from exc


def _seed_streams(seed: int | np.random.SeedSequence) -> tuple:
    """(channel seed, jammer, redraw, BS1 agent, BS2 agent, hot boot) streams of a seed.

    The one statement of the spawn layout: a run's seed spawns (environment,
    BS1 agent, BS2 agent, hot boot) streams and the environment stream spawns
    (channel, jammer, redraw).  A SeedSequence is taken as an environment
    stream (a hot-boot scenario) and gets None for the last three.
    """
    if isinstance(seed, np.random.SeedSequence):
        env_ss, agents_and_boot = seed, (None, None, None)
    else:
        env_ss, *agents_and_boot = np.random.SeedSequence(seed).spawn(4)
    ch_ss, jam_ss, redraw_ss = env_ss.spawn(3)
    return (int(ch_ss.generate_state(1)[0]), jam_ss, redraw_ss, *agents_and_boot)


class TwoCellEnv:
    """Per-slot environment seen by the two BS agents.

    Leader-follower sequencing within a slot: both BSs commit their actions
    first, then the jammer (learning agent or exact best response) picks its
    power, and only then are rates and rewards realized.  Observations fed
    to the BSs are the previous slot's quantized SINRs.  ``seed`` is a run's
    seed, or a hot-boot scenario's SeedSequence (whose records log seed -1).
    """

    def __init__(self, cfg: ExperimentConfig, seed) -> None:
        self.cfg = cfg
        self.seed = -1 if isinstance(seed, np.random.SeedSequence) else seed
        self.channel_seed, jam_ss, redraw_ss, *_ = _seed_streams(seed)
        self._redraw_rng = np.random.default_rng(redraw_ss)
        self.geometry = cfg.geometry()
        self.ch = draw_channels(self.geometry, self.channel_seed, cfg.fading)
        self.grid = cfg.grid()
        self.jcfg = cfg.jammer_config()
        self.selfish = cfg.scheme == "QLS"
        if cfg.jammer_mode == "learning":
            self.jammer = JammerAgent(
                self.jcfg,
                cfg.p_bs_max,
                seed=jam_ss,
                alpha=cfg.alpha_ql,
                discount=cfg.discount,
                eps_start=cfg.eps_start,
                eps_decay=cfg.eps_decay,
                eps_floor=cfg.eps_floor,
            )
        else:
            self.jammer = None
        self.slot = 0
        self._q_prev = (0, 0, 0, 0)
        self._prev_totals = (0.0, 0.0)
        self._last_uj: float | None = None

    @property
    def n_actions(self) -> int:
        return len(self.grid.actions)

    def observations(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return observation_for(1, self._q_prev), observation_for(2, self._q_prev)

    def reset(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        self.slot = 0
        self._q_prev = (0, 0, 0, 0)
        self._prev_totals = (0.0, 0.0)
        self._last_uj = None
        return self.observations()

    def _jammer_power(self, alloc1, alloc2) -> float:
        if self.jammer is not None:
            state = self.jammer.observe_powers(*self._prev_totals)
            return self.jammer.step(state, self._last_uj)
        return best_response(self.ch, alloc1, alloc2, self.jcfg).p_j_star

    def step(self, a1_idx: int, a2_idx: int):
        cfg = self.cfg
        alloc1 = self.grid.actions[a1_idx]
        alloc2 = self.grid.actions[a2_idx]
        p_j = self._jammer_power(alloc1, alloc2)
        prof = StrategyProfile(
            p1=alloc1[0], p2=alloc1[1], p3=alloc2[0], p4=alloc2[1], p_j=p_j
        )
        sinr = sinr_vector(self.ch, prof)
        rates = rates_from_sinr(sinr)
        u = bs_utility(rates, p_j, cfg.r0, cfg.gamma, cfg.z)
        s1 = selfish_reward(rates, 1, p_j, cfg.r0, cfg.gamma, cfg.z)
        s2 = selfish_reward(rates, 2, p_j, cfg.r0, cfg.gamma, cfg.z)
        r1, r2 = (s1, s2) if self.selfish else (u, u)
        record = SlotRecord(
            seed=self.seed,
            slot=self.slot,
            p1=prof.p1, p2=prof.p2, p3=prof.p3, p4=prof.p4, p_j=p_j,
            r1=float(rates[0]), r2=float(rates[1]),
            r3=float(rates[2]), r4=float(rates[3]),
            sum_rate=float(rates.sum()),
            objective=objective_p2(rates, cfg.r0),
            u_bs=u,
            selfish_1=s1,
            selfish_2=s2,
            qos1=int(rates[0] >= cfg.r0), qos2=int(rates[1] >= cfg.r0),
            qos3=int(rates[2] >= cfg.r0), qos4=int(rates[3] >= cfg.r0),
        )
        self._last_uj = jammer_utility(rates, p_j, cfg.gamma)
        self._prev_totals = (prof.p_bs1, prof.p_bs2)
        q = tuple(
            quantize_sinr(float(s), cfg.sinr_levels, cfg.sinr_lo_db, cfg.sinr_hi_db)
            for s in sinr
        )
        self._q_prev = q
        self.slot += 1
        if cfg.redraw_period > 0 and self.slot % cfg.redraw_period == 0:
            new_seed = int(self._redraw_rng.integers(2**63))
            self.ch = draw_channels(self.geometry, new_seed, cfg.fading)
        obs1, obs2 = self.observations()
        return obs1, obs2, r1, r2, record


def run_slot(env: TwoCellEnv, agents) -> SlotRecord:
    """One leader-follower slot: act, jam, realize rates, learn."""
    obs1, obs2 = env.observations()
    a1 = agents[0].act(obs1)
    a2 = agents[1].act(obs2)
    nobs1, nobs2, r1, r2, record = env.step(a1, a2)
    agents[0].learn(obs1, a1, r1, nobs1)
    agents[1].learn(obs2, a2, r2, nobs2)
    return record


def _build_agents(cfg: ExperimentConfig, n_actions: int, seed_seqs, boot_params=None):
    eps = cfg.eps_schedule()
    if cfg.scheme in ("QLU", "QLS"):
        return tuple(
            TabularAgent(
                n_actions, cfg.sinr_levels, cfg.alpha_ql, cfg.discount, eps, s
            )
            for s in seed_seqs
        )
    if cfg.scheme in ("DQLU", "HBDQLU"):
        return tuple(
            DqnAgent(
                n_actions,
                cfg.sinr_levels,
                cfg.alpha_dqn,
                cfg.discount,
                eps,
                s,
                replay_capacity=cfg.replay_capacity,
                batch_size=cfg.batch_size,
                sync_period=cfg.target_sync_period,
                reward_scale=cfg.reward_scale,
                init_params=boot_params,
            )
            for s in seed_seqs
        )
    raise ValueError(f"scheme {cfg.scheme!r} has no agents")


def hot_boot(cfg: ExperimentConfig, boot_ss: np.random.SeedSequence):
    """Pre-train a DQN pair on perturbed channel draws; return the BS1 weights.

    Each scenario is a fresh environment seeded from ``boot_ss``, and one
    pair of agents plays ``hot_boot_slots`` slots in each.  The per-scenario
    mean training loss is logged so overfitting to the boot scenarios stays
    visible; more scenarios converge faster but risk exactly that.
    """
    children = boot_ss.spawn(cfg.hot_boot_scenarios + 2)
    scenario_seeds, agent_seeds = children[:-2], children[-2:]
    agents = _build_agents(cfg, len(cfg.grid().actions), agent_seeds)
    for i, scenario_ss in enumerate(scenario_seeds):
        env = TwoCellEnv(cfg, scenario_ss)
        losses = []
        for _ in range(cfg.hot_boot_slots):
            run_slot(env, agents)
            losses.append(agents[0].last_loss)
        log.info("hot-boot scenario %d mean loss %.4g", i, float(np.mean(losses)))
    return agents[0].params.copy()


def run_seed(cfg: ExperimentConfig, seed: int) -> list[SlotRecord]:
    """One full learning run; pure function of (cfg, seed)."""
    *_, a1_ss, a2_ss, boot_ss = _seed_streams(seed)
    env = TwoCellEnv(cfg, seed)
    boot_params = None
    if cfg.scheme == "HBDQLU":
        boot_params = hot_boot(cfg, boot_ss)
    agents = _build_agents(cfg, env.n_actions, (a1_ss, a2_ss), boot_params)
    env.reset()
    records = []
    for _ in range(cfg.slots):
        records.append(run_slot(env, agents))
    return records


def summarize(records: list[SlotRecord], window: int) -> dict:
    tail = records[-window:]
    return {
        "window": len(tail),
        "mean_reward": float(np.mean([r.u_bs for r in tail])),
        "mean_sum_rate": float(np.mean([r.sum_rate for r in tail])),
        "mean_objective": float(np.mean([r.objective for r in tail])),
        "mean_selfish_1": float(np.mean([r.selfish_1 for r in tail])),
        "mean_selfish_2": float(np.mean([r.selfish_2 for r in tail])),
    }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    per_seed: dict[int, list[SlotRecord]] = field(default_factory=dict)
    summaries: dict[int, dict] = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        keys = ("mean_reward", "mean_sum_rate", "mean_objective")
        return {
            k: float(np.mean([s[k] for s in self.summaries.values()])) for k in keys
        }


def records_path(out_dir: str, scheme: str, seed: int) -> str:
    return os.path.join(out_dir, f"records_{scheme}_seed{seed}.csv")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed, optionally exporting one CSV per seed plus a summary.

    Seeds are independent, so with workers > 1 they run in a process pool;
    results are merged in seed order either way, keeping output
    deterministic.
    """
    cfg.validate()
    if cfg.scheme == "NE-ANALYSIS":
        raise ValueError("use run_ne_analysis for the NE-ANALYSIS scheme")
    result = ExperimentResult(config=cfg)
    if cfg.workers > 1 and len(cfg.seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            all_records = list(pool.map(run_seed, [cfg] * len(cfg.seeds), cfg.seeds))
    else:
        all_records = [run_seed(cfg, seed) for seed in cfg.seeds]
    for seed, records in zip(cfg.seeds, all_records):
        result.per_seed[seed] = records
        result.summaries[seed] = summarize(records, cfg.summary_window)
        log.info("seed %d: %s", seed, result.summaries[seed])
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for seed, records in result.per_seed.items():
            export_csv(records, records_path(cfg.out_dir, cfg.scheme, seed))
        with open(
            os.path.join(cfg.out_dir, f"summary_{cfg.scheme}.json"),
            "w",
            encoding="utf-8",
        ) as fh:
            json.dump(
                {"per_seed": result.summaries, "overall": result.summary},
                fh,
                indent=2,
                default=str,
            )
    return result


def channel_for_seed(cfg: ExperimentConfig, seed: int) -> ChannelRealization:
    """The realization a learning run with this seed would see (slot 0)."""
    return draw_channels(cfg.geometry(), _seed_streams(seed)[0], cfg.fading)


def _modal_joint_action(records: list[SlotRecord], window: int):
    from collections import Counter

    tail = records[-window:]
    counter = Counter((r.p1, r.p2, r.p3, r.p4) for r in tail)
    return counter.most_common(1)[0][0]


def run_ne_analysis(cfg: ExperimentConfig) -> dict:
    """Per-seed equilibrium reports plus the learning-run cross-check.

    For each seed, the channel realization matches what a learning run with
    that seed sees.  If a companion learning CSV exists in out_dir, the
    modal converged joint action is compared, by grid levels, against the
    certified equilibria (within one level in every power) and the Pareto
    point (exactly); otherwise the check is skipped.
    """
    cfg.validate()
    grid = cfg.grid()
    jcfg = cfg.jammer_config()
    level_of = dict(zip(grid.actions, grid.action_levels))
    powers = operator.itemgetter("p1", "p2", "p3", "p4")

    def levels(p) -> tuple[int, ...] | None:
        """(w1, s1, w2, s2) of joint grid powers (p1, p2, p3, p4), or None off the grid."""
        a1, a2 = level_of.get((p[0], p[1])), level_of.get((p[2], p[3]))
        return a1 + a2 if a1 and a2 else None

    out: dict = {"per_seed": {}, "mood_counts": {1: 0, 2: 0}}
    for seed in cfg.seeds:
        ch = channel_for_seed(cfg, seed)
        report = analysis_report(
            ch, grid, jcfg, cfg.r0, cfg.gamma, cfg.z, cfg.eps_ne
        )
        report["run_seed"] = seed
        out["mood_counts"][report["mood"]] += 1

        cross = {"status": "skipped"}
        if cfg.out_dir:
            for scheme in ("QLU", "DQLU", "HBDQLU"):
                path = records_path(cfg.out_dir, scheme, seed)
                if os.path.exists(path):
                    records = read_csv(path)
                    modal = _modal_joint_action(records, cfg.summary_window)
                    at = levels(modal)
                    pareto = report["pareto_l1"] or report["pne_l2"] or report["pne_l3"]
                    cross = {
                        "status": "ok",
                        "scheme": scheme,
                        "modal_action": list(modal),
                        "near_certified_ne": at is not None and any(
                            max(abs(a - b) for a, b in zip(at, levels(powers(c)))) <= 1
                            for c in report["brute_force"]
                        ),
                        "on_pareto_ne": (
                            at is not None and pareto is not None
                            and at == levels(powers(pareto))
                        ),
                    }
                    break
        report["learning_cross_check"] = cross
        out["per_seed"][seed] = report
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
            path = os.path.join(cfg.out_dir, f"ne_analysis_seed{seed}.json")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=2)
            except OSError as exc:
                raise OSError(f"failed to write {path}: {exc}") from exc
    return out
