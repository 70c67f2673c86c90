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
import sys
import typing
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CELLS,
    DEFAULT_BS_POSITIONS,
    DEFAULT_JAMMER_POSITION,
    DEFAULT_NOISE_POWER_DB,
    DEFAULT_USER_POSITIONS,
    MAX_FADING,
    SRC_JAM,
    ChannelRealization,
    Geometry,
    draw_channels,
    path_loss,
)
from .game import TABLE_BYTES_PER_PROFILE, StrategyGrid, analysis_report
from .jammer import JammerConfig, best_response
from .learn.agents import (
    DqnAgent,
    EpsSchedule,
    TabularAgent,
    observation_for,
    sinr_thresholds,
)
from .rates import (
    bs_utility,
    jammer_utility,
    link_terms,
    objective_p2,
    rates_from_sinr,
    selfish_reward,
    sinrs,
    sum_rate,
)

log = logging.getLogger(__name__)

SCHEMES = ("QLU", "DQLU", "HBDQLU", "QLS", "NE-ANALYSIS")
JAMMER_MODES = ("learning", "best-response")
# Largest array a run may size from its config, checked in
# ``ExperimentConfig.validate`` per array and per run (not summed over seeds).
MAX_ARRAY_BYTES = 256 * 2**20
# The DQN pair's memory, from tracemalloc peaks of 40-slot runs (780 and
# 4,950 actions, batch 1..256) and of training steps (3 to 780 actions, batch
# 1,024 and 4,096): per action, the output layers, their gradients and the
# update's temporaries; per batch sample, the hidden activations and their
# gradients; per action and sample, the Q-values, target Q-values and output
# gradients (2 players x 3 x 8 bytes).
DQN_BYTES_PER_ACTION = 1600
DQN_BYTES_PER_SAMPLE = 3336
DQN_BYTES_PER_ACTION_SAMPLE = 48
# One transition of the pair's replay rings: two players' observation and
# next observation (4 float64 each), action (intp) and reward (float64).
REPLAY_BYTES_PER_TRANSITION = 2 * (4 + 4 + 1 + 1) * 8
# A hot-boot scenario's SeedSequence, spawned up front (tracemalloc, 10**5).
SEED_SEQUENCE_BYTES = 368
MAX_SEED = 2**63 - 1  # the records' int64 seed column
MAX_SEEDS = 2**20  # seeds per run, checked before a count becomes a tuple
# Outcomes a TwoCellEnv memoizes per channel realization before it starts
# over; at the defaults a realization has at most 15**2 * 11 = 2,475 keys.
# A learning-jammer realization with at most this many keys is also scored
# in one outcome table (see ``TwoCellEnv``), whose fill peaks at about 380 B
# per key: at most 24 MiB, below MAX_ARRAY_BYTES.
OUTCOME_MEMO_ENTRIES = 2**16


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
        if len(self.seeds) > MAX_SEEDS:
            raise ValueError(
                f"seeds: at most {MAX_SEEDS} per run, got {len(self.seeds)}"
            )
        if len(set(self.seeds)) != len(self.seeds):
            repeated = next(s for s, n in Counter(self.seeds).items() if n > 1)
            raise ValueError(f"seeds must be unique; {repeated} is listed twice")
        low, high = min(self.seeds), max(self.seeds)
        if not 0 <= low <= high <= MAX_SEED:
            raise ValueError(
                f"seeds must lie in [0, 2**63 - 1], got seeds from {low} to {high}"
            )
        for name in ("grid_levels", "sinr_levels", "jammer_grid_levels"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        for name in ("p_bs_max", "p_j_max", "alpha_dqn", "reward_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        learning = self.scheme != "NE-ANALYSIS"
        # A summary mean adds up to this many values, each below 4 * 1024 bits
        # (no finite rate log2(1 + x) reaches 1024) plus gamma * p_j.
        per_mean = max(min(self.summary_window, self.slots), len(self.seeds))
        for name, holds, need in (
            ("r0", self.r0 >= 0, "be non-negative"),
            # 2 ** r0 must be finite, and no finite rate log2(1 + x) reaches 1024
            ("r0", self.r0 < 1024, "be below 1024"),
            ("gamma", math.isfinite(self.gamma * self.p_j_max),
             "keep gamma * p_j_max finite"),
            ("gamma", not learning or math.isfinite(
                2.0 * per_mean * (4096.0 + self.gamma * self.p_j_max)),
             f"keep the summary means of {per_mean} values finite"),
            ("eps_ne", self.eps_ne >= 0, "be non-negative"),
            ("z", 0 <= self.z <= 1, "lie in [0, 1]"),
            ("discount", 0 <= self.discount < 1, "lie in [0, 1)"),
            ("alpha_ql", 0 < self.alpha_ql <= 1, "lie in (0, 1]"),
            ("eps_decay", 0 < self.eps_decay <= 1, "lie in (0, 1]"),
            ("eps_floor", 0 <= self.eps_floor <= self.eps_start,
             "lie in [0, eps_start]"),
            ("eps_start", self.eps_start <= 1, "be at most 1"),
            ("sinr_lo_db", self.sinr_lo_db < self.sinr_hi_db, "be below sinr_hi_db"),
        ):
            if not holds:
                raise ValueError(f"{name} must {need}, got {getattr(self, name)}")
        if self.redraw_period < 0:
            raise ValueError("redraw_period must be non-negative")
        try:
            noise = 10.0 ** (self.noise_db / 10.0)  # Geometry.noise_power
        except OverflowError:
            noise = math.inf
        if not sys.float_info.min <= noise < math.inf:
            raise ValueError(
                f"noise_db must keep the noise power 10 ** (noise_db / 10) a "
                f"normal float, got {self.noise_db}"
            )
        # Every user-source pair, before Geometry rejects a distance without
        # naming it: a finite, non-zero path loss, and the largest gain a draw
        # can give times the source's power budget finite.  A message names
        # the position off the scale, the larger one of the pair.
        for u in ("xl_ue1", "xl_ue2", "xl_ue3", "xl_ue4"):
            for s, budget in (("xl_bs1", "p_bs_max"), ("xl_bs2", "p_bs_max"),
                              ("xl_jammer", "p_j_max")):
                d = abs(getattr(self, u) - getattr(self, s))
                try:
                    loss = path_loss(d) if d > 0 else math.inf
                except (OverflowError, ZeroDivisionError):  # d ** 3.76 out of range
                    loss = math.inf
                if not 0.0 < loss < math.inf:
                    need = f"the path loss between {u} and {s} finite and non-zero"
                elif not math.isfinite(loss * MAX_FADING / noise * getattr(self, budget)):
                    need = f"the largest gain between {u} and {s} times {budget} finite"
                else:
                    continue
                key = max((u, s), key=lambda k: abs(getattr(self, k)))
                raise ValueError(f"{key} must keep {need}, got {getattr(self, key)}")
        geom = self.geometry()
        self.jammer_config()
        if not learning:
            # qos_binding_split forms (t - 1) * A and g_own * t, t = 2 ** r0 and
            # A a weak user's denominator; bound both from the largest gains a
            # draw can give, with a factor of 2 to spare.  A itself must be
            # finite: a message names the budget of its larger term.
            g = (geom.large_scale * MAX_FADING / geom.noise_power).tolist()
            worst = 0.0
            for w, _, own, other in CELLS.values():
                bs, jam = self.p_bs_max * (g[w][own] + g[w][other]), self.p_j_max * g[w][SRC_JAM]
                if not math.isfinite(1.0 + bs + jam):
                    key = "p_j_max" if jam > bs else "p_bs_max"
                    raise ValueError(
                        f"{key} must keep the largest weak-user denominator finite, "
                        f"got {getattr(self, key)}"
                    )
                worst = max(worst, g[w][own], 1.0 + bs + jam)
            if not self.r0 + math.log2(worst) < 1023:
                raise ValueError(
                    f"r0 must keep 2 ** r0 times the largest weak-user denominator "
                    f"finite, below {1023 - math.log2(worst):.6g} here, got {self.r0}"
                )
        if learning and self.n_actions < 2:
            raise ValueError(
                f"grid_levels must be at least 3 for {self.scheme}: "
                f"{self.grid_levels} levels give a single action"
            )
        dqn = self.scheme in ("DQLU", "HBDQLU")
        batch = min(self.batch_size, self.replay_capacity)
        dqn_bytes = self.n_actions * DQN_BYTES_PER_ACTION + batch * (
            DQN_BYTES_PER_SAMPLE + self.n_actions * DQN_BYTES_PER_ACTION_SAMPLE
        )
        # (keys, applies, bytes, what) of every array whose size the config sets
        for keys, applies, nbytes, what in (
            (("grid_levels", "sinr_levels"), self.scheme in ("QLU", "QLS"),
             self.sinr_levels**4 * self.n_actions * 8, "Q-table per BS"),
            (("grid_levels",), not learning,
             self.n_actions**2 * TABLE_BYTES_PER_PROFILE,
             "table of joint grid profiles"),
            (("jammer_grid_levels",), learning and self.jammer_mode == "learning",
             (self.jammer_grid_levels + 1) ** 3 * 8, "jammer Q-table"),
            (("grid_levels", "batch_size"), dqn, dqn_bytes, "DQN pair"),
            (("replay_capacity",), dqn,
             self.replay_capacity * REPLAY_BYTES_PER_TRANSITION, "pair of replay rings"),
            (("slots",), learning, self.slots * RECORD_DTYPE.itemsize, "record array"),
            (("hot_boot_scenarios",), self.scheme == "HBDQLU",
             (self.hot_boot_scenarios + 2) * SEED_SEQUENCE_BYTES,
             "list of hot-boot seed sequences"),
        ):
            if applies and nbytes > MAX_ARRAY_BYTES:
                named = " and ".join(f"{k} = {getattr(self, k)}" for k in keys)
                raise ValueError(
                    f"{named}: the {what} would take {-(-nbytes // 2**20)} MiB, "
                    f"above the {MAX_ARRAY_BYTES // 2**20} MiB bound"
                )

    @property
    def n_actions(self) -> int:
        """Actions per BS: the L(L - 1)/2 level pairs of ``StrategyGrid``."""
        return self.grid_levels * (self.grid_levels - 1) // 2

    def geometry(self) -> Geometry:
        return Geometry(
            user_positions=(self.xl_ue1, self.xl_ue2, self.xl_ue3, self.xl_ue4),
            bs_positions=(self.xl_bs1, self.xl_bs2),
            jammer_position=self.xl_jammer,
            noise_power_db=self.noise_db,
        )

    def jammer_config(self) -> JammerConfig:
        return JammerConfig(p_j_max=self.p_j_max, gamma=self.gamma)

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
    if len(parts) > MAX_SEEDS:
        raise ValueError(f"seeds: at most {MAX_SEEDS} per run, got {len(parts)}")
    try:
        seeds = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"seeds: expected integers, got {text.strip()!r}") from None
    if len(parts) == 1 and "," not in text:
        n = seeds[0]
        if not 0 < n <= MAX_SEEDS:
            raise ValueError(f"seeds: a count must lie in [1, {MAX_SEEDS}], got {n}")
        return tuple(range(n))
    if not 0 <= min(seeds) <= max(seeds) <= MAX_SEED:
        raise ValueError(f"seeds must lie in [0, 2**63 - 1], got {text.strip()!r}")
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
    first_line: dict[str, int] = {}
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
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: {key} is set twice, "
                    f"on lines {first_line[key]} and {lineno}"
                )
            first_line[key] = lineno
            try:
                values[key] = (
                    parse_seeds(raw) if key == "seeds" else _coerce(kinds[key], raw)
                )
            except ValueError as exc:
                msg = f"{path}:{lineno}: bad value for {key}: {exc}"
                raise ValueError(msg) from None
    return ExperimentConfig(**values)


# One row per slot, in CSV column order: the field names are the CSV header.
RECORD_DTYPE = np.dtype(
    [("seed", np.int64), ("slot", np.int64)]
    + [(name, np.float64) for name in (
        "p1", "p2", "p3", "p4", "p_j", "r1", "r2", "r3", "r4", "sum_rate",
        "objective", "u_bs", "selfish_1", "selfish_2",
    )]
    + [(f"qos{i}", np.int64) for i in range(1, 5)]
)
CSV_HEADER = list(RECORD_DTYPE.names)
# A row is "seed,slot," then its tail: the 18 fields after ``slot``, which
# only the slot's outcome sets.  17 significant digits round-trip every float
# exactly.  ``_TAIL_BYTES`` views a record's tail as one raw-bytes field, so
# equal keys mean equal bits.
_TAIL_FORMAT = ",".join(
    "%d" if RECORD_DTYPE[name].kind == "i" else "%.17g" for name in CSV_HEADER[2:]
) + "\r\n"
_TAIL_OFFSET = RECORD_DTYPE.fields[CSV_HEADER[2]][1]
_TAIL_BYTES = np.dtype({
    "names": ["tail"],
    "formats": [f"V{RECORD_DTYPE.itemsize - _TAIL_OFFSET}"],
    "offsets": [_TAIL_OFFSET],
    "itemsize": RECORD_DTYPE.itemsize,
})
EXPORT_CHUNK_ROWS = 64  # records converted to Python tuples at a time


def export_csv(records: np.recarray, path) -> None:
    """Write the header, then one line per record (see ``RECORD_DTYPE``).

    Each distinct tail is formatted once, keyed by its raw bytes (so -0.0
    and 0.0 never share text), and records are read in chunks of
    ``EXPORT_CHUNK_ROWS``.  Every line reads as if each record were
    formatted on its own.
    """
    keys = records.view(_TAIL_BYTES)["tail"]
    texts: dict[bytes, str] = {}
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            for lo in range(0, len(records), EXPORT_CHUNK_ROWS):
                if len(texts) > OUTCOME_MEMO_ENTRIES:  # bounded as the env's memo
                    texts.clear()
                hi = lo + EXPORT_CHUNK_ROWS
                lines = []
                for row, key in zip(records[lo:hi].tolist(), keys[lo:hi].tolist()):
                    text = texts.get(key)
                    if text is None:
                        text = texts[key] = _TAIL_FORMAT % row[2:]
                    lines.append("%d,%d," % row[:2] + text)
                fh.write("".join(lines))
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def read_csv(path) -> np.recarray:
    """The records of a per-slot CSV, as ``run_seed`` returned them."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header}")
            try:
                return np.fromiter(map(tuple, reader), RECORD_DTYPE).view(np.recarray)
            except (ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}: row {reader.line_num} does not fit the record: {exc}"
                ) from None
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
    to the BSs are the previous slot's quantized SINRs.  The learning jammer
    is a ``TabularAgent`` whose observation is the previous slot's pair of BS
    total powers, each binned to the nearest of jammer_grid_levels + 1 levels
    on [0, p_bs_max]; its action k jams at k * p_j_max / jammer_grid_levels.
    ``seed`` is a run's seed, or a hot-boot scenario's SeedSequence (whose
    rows log seed -1).

    On a fixed realization a slot's outcome is a pure function of the BS
    actions, and of the learning jammer's action when there is one, so
    ``step`` memoizes it by that key until the next redraw.  Against the
    learning jammer, a realization that serves at least n^2 slots (n actions
    per BS) and has at most ``OUTCOME_MEMO_ENTRIES`` keys scores all its
    n^2 (J + 1) outcomes at its first slot, in one array pass
    (``_outcome_table``), and a memo miss reads its row; every other miss is
    scored alone by ``_outcome``.  Both are one statement of the outcome: the
    same two halves (``_float_half``, ``_int_half``) score one key's plain
    floats or all keys' columns, and ``_unpacked`` reads either's values, so
    both give the same bits.
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
        self.jammer = None
        if cfg.jammer_mode == "learning":
            bins = cfg.jammer_grid_levels + 1
            self.jammer = TabularAgent(
                bins, bins, 2, cfg.alpha_ql, cfg.discount, cfg.eps_schedule(),
                (jam_ss,),
            )
            # each action's BS total, binned as the jammer observes it
            self._jam_bins = np.array([
                min(max(int(round((w + s) / cfg.p_bs_max * cfg.jammer_grid_levels)), 0),
                    cfg.jammer_grid_levels)
                for w, s in self.grid.actions
            ])
        self.slot = 0
        self._obs = ((0, 0, 0, 0), (0, 0, 0, 0))
        self._jam_obs = ((0, 0),)
        self._outcomes: dict[tuple[int, ...], tuple] = {}
        # Slots one realization serves; a hot-boot scenario plays hot_boot_slots.
        run = cfg.hot_boot_slots if isinstance(seed, np.random.SeedSequence) else cfg.slots
        served = min(cfg.redraw_period or run, run)
        pairs = cfg.n_actions**2
        self._tabulate = self.jammer is not None and served >= pairs and (
            pairs * (cfg.jammer_grid_levels + 1) <= OUTCOME_MEMO_ENTRIES
        )
        self._table = None

    def observations(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The two BSs' observations, one object per slot (see ``TabularAgent``)."""
        return self._obs

    def step(self, a1_idx: int, a2_idx: int):
        cfg = self.cfg
        if self.jammer is None:
            key = (a1_idx, a2_idx)
        else:
            key = (a1_idx, a2_idx, *self.jammer.act(self._jam_obs))
        outcome = self._outcomes.get(key)
        if outcome is None:
            if len(self._outcomes) >= OUTCOME_MEMO_ENTRIES:
                self._outcomes.clear()
            if self._tabulate:
                outcome = self._tabled(*key)
            else:
                outcome = self._outcome(*key)
            self._outcomes[key] = outcome
        self._obs, rewards, tail, jam_reward, jam_obs = outcome
        if self.jammer is not None:
            self.jammer.learn(key[2:], (jam_reward,), jam_obs)
            self._jam_obs = jam_obs
        row = (self.seed, self.slot, *tail)
        self.slot += 1
        if cfg.redraw_period > 0 and self.slot % cfg.redraw_period == 0:
            new_seed = int(self._redraw_rng.integers(2**63))
            self.ch = draw_channels(self.geometry, new_seed, cfg.fading)
            self._outcomes.clear()
            self._table = None
        return self._obs, rewards, row

    def _tabled(self, a1_idx: int, a2_idx: int, a_j: int) -> tuple:
        """``_outcome(a1_idx, a2_idx, a_j)``, read from the realization's table."""
        if self._table is None:
            self._table = self._outcome_table()
        floats, ints = self._table
        key = (a1_idx, a2_idx, a_j)
        return self._unpacked(floats[key].tolist(), ints[key].tolist())

    def _outcome_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every learning-jammer outcome of the current realization in one
        array pass, as (n, n, J + 1, 15) floats and (n, n, J + 1, 14) ints:
        the two halves on the columns of all keys.  The float columns are
        stacked before the int half runs, which reads the rates back from
        them, so no float temporary outlives the stacking."""
        cfg = self.cfg
        shape = (cfg.n_actions, cfg.n_actions, cfg.jammer_grid_levels + 1)
        a1, a2, a_j = np.unravel_index(np.arange(math.prod(shape)), shape)
        acts = np.array(self.grid.actions)
        p = np.hstack((acts[a1], acts[a2])).T
        pj = a_j * cfg.p_j_max / cfg.jammer_grid_levels
        sinr = np.array(sinrs(link_terms(self.ch, *p), pj))
        floats = np.column_stack(self._float_half(p, pj, sinr))
        ints = self._int_half(floats[:, 5:9].T, sinr, a1, a2)
        return floats.reshape(*shape, -1), ints.T.reshape(*shape, -1)

    def _outcome(self, a1_idx: int, a2_idx: int, a_j: int | None = None) -> tuple:
        """(BS observations, BS rewards, row after seed and slot, jammer reward,
        jammer observation) of a slot on the current realization; the jammer's
        two are None without a learning jammer."""
        cfg = self.cfg
        p = self.grid.actions[a1_idx] + self.grid.actions[a2_idx]
        if a_j is None:
            p_j = best_response(self.ch, p[:2], p[2:], self.jcfg).p_j_star
        else:
            p_j = a_j * cfg.p_j_max / cfg.jammer_grid_levels
        sinr = np.array(sinrs(link_terms(self.ch, *p), p_j))
        f = self._float_half(p, p_j, sinr)
        return self._unpacked(f, self._int_half(f[5:9], sinr, a1_idx, a2_idx).tolist())

    # The two halves of the one statement of a slot's outcome.  They take one
    # key's plain floats (four powers and p_j, its four SINRs as an array) or
    # the columns of N keys.  Each array entry takes the plain call's float
    # operations, so it is the same bits: ``rates_from_sinr``'s ``np.log2``
    # gives the same bits at any array size, and ``rates``' scorers are
    # written for both.

    def _float_half(self, p, p_j, sinr) -> tuple:
        """The 14 float fields of a row's tail (powers, p_j, rates, sum rate,
        objective, shared and selfish utilities), then the learning jammer's
        reward when there is one."""
        cfg = self.cfg
        rates = rates_from_sinr(sinr)
        if rates.ndim == 1:  # one key: plain floats in, plain floats out
            rates = rates.tolist()
        tail = (
            *p, p_j, *rates, sum_rate(rates), objective_p2(rates, cfg.r0),
            bs_utility(rates, p_j, cfg.r0, cfg.gamma, cfg.z),
            selfish_reward(rates, 1, p_j, cfg.r0, cfg.gamma, cfg.z),
            selfish_reward(rates, 2, p_j, cfg.r0, cfg.gamma, cfg.z),
        )
        if self.jammer is None:
            return tail
        return (*tail, jammer_utility(rates, p_j, cfg.gamma))

    def _int_half(self, rates, sinr, a1, a2) -> np.ndarray:
        """The 4 QoS flags of ``rates``, the two BSs' observations (each SINR's
        level is its count of ``sinr_thresholds``), then the learning jammer's
        observation when there is one: a (14,) or (14, N) int array, 12 rows
        without a learning jammer."""
        cfg = self.cfg
        q = np.searchsorted(
            sinr_thresholds(cfg.sinr_levels, cfg.sinr_lo_db, cfg.sinr_hi_db),
            sinr, side="right",
        )
        jam = () if self.jammer is None else (self._jam_bins[a1], self._jam_bins[a2])
        return np.array((*np.greater_equal(rates, cfg.r0), *observation_for(1, q),
                         *observation_for(2, q), *jam), dtype=np.int64)

    def _unpacked(self, f: list, q: list) -> tuple:
        """The outcome (see ``_outcome``) of one key's float and int values."""
        rewards = (f[12], f[13]) if self.selfish else (f[11], f[11])
        jam = (None, None) if self.jammer is None else (f[14], ((q[12], q[13]),))
        return ((tuple(q[4:8]), tuple(q[8:12])), rewards, (*f[:14], *q[:4]), *jam)


def run_slot(env: TwoCellEnv, agents) -> tuple:
    """One leader-follower slot: act, jam, realize rates, learn; the slot's row.

    ``agents`` is the BS pair's one learner (``TabularAgent`` or ``DqnAgent``).
    """
    obs = env.observations()
    actions = agents.act(obs)
    next_obs, rewards, row = env.step(*actions)
    agents.learn(actions, rewards, next_obs)
    return row


def _build_agents(cfg: ExperimentConfig, seed_seqs, boot_params=None):
    """The BS pair's one learner, player i drawing from ``seed_seqs[i]``."""
    eps = cfg.eps_schedule()
    if cfg.scheme in ("QLU", "QLS"):
        return TabularAgent(
            cfg.n_actions, cfg.sinr_levels, 4, cfg.alpha_ql, cfg.discount, eps, seed_seqs
        )
    if cfg.scheme in ("DQLU", "HBDQLU"):
        return DqnAgent(
            cfg.n_actions,
            cfg.sinr_levels,
            cfg.alpha_dqn,
            cfg.discount,
            eps,
            seed_seqs,
            replay_capacity=cfg.replay_capacity,
            batch_size=cfg.batch_size,
            sync_period=cfg.target_sync_period,
            reward_scale=cfg.reward_scale,
            init_params=boot_params,
        )
    raise ValueError(f"scheme {cfg.scheme!r} has no agents")


def hot_boot(cfg: ExperimentConfig, boot_ss: np.random.SeedSequence):
    """Pre-train a DQN pair on perturbed channel draws; return the BS1 weights.

    Each scenario is a fresh environment seeded from ``boot_ss``, and one
    stacked pair plays ``hot_boot_slots`` slots in each.  HBDQLU starts both
    BSs of a run from the returned network.  The per-scenario
    mean training loss is logged so overfitting to the boot scenarios stays
    visible; more scenarios converge faster but risk exactly that.
    """
    children = boot_ss.spawn(cfg.hot_boot_scenarios + 2)
    scenario_seeds, agent_seeds = children[:-2], children[-2:]
    agents = _build_agents(cfg, agent_seeds)
    for i, scenario_ss in enumerate(scenario_seeds):
        env = TwoCellEnv(cfg, scenario_ss)
        loss = 0.0
        try:
            for _ in range(cfg.hot_boot_slots):
                run_slot(env, agents)
                loss += agents.last_loss[0]
        except FloatingPointError as exc:
            # the boot pair's slots run on across scenarios
            raise FloatingPointError(f"hot boot, scenario {i}: {exc}") from exc
        log.info("hot-boot scenario %d mean loss %.4g", i, loss / cfg.hot_boot_slots)
    return agents.params.player(0)


def run_seed(cfg: ExperimentConfig, seed: int) -> np.recarray:
    """One full learning run, one ``RECORD_DTYPE`` row per slot; pure in (cfg, seed)."""
    *_, a1_ss, a2_ss, boot_ss = _seed_streams(seed)
    env = TwoCellEnv(cfg, seed)
    boot_params = None
    if cfg.scheme == "HBDQLU":
        boot_params = hot_boot(cfg, boot_ss)
    agents = _build_agents(cfg, (a1_ss, a2_ss), boot_params)
    rows = (run_slot(env, agents) for _ in range(cfg.slots))
    return np.fromiter(rows, RECORD_DTYPE, cfg.slots).view(np.recarray)


def summarize(records: np.recarray, window: int) -> dict:
    tail = records[-window:]
    return {
        "window": len(tail),
        "mean_reward": float(np.mean(tail.u_bs)),
        "mean_sum_rate": float(np.mean(tail.sum_rate)),
        "mean_objective": float(np.mean(tail.objective)),
        "mean_selfish_1": float(np.mean(tail.selfish_1)),
        "mean_selfish_2": float(np.mean(tail.selfish_2)),
    }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    per_seed: dict[int, np.recarray] = field(default_factory=dict)
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

    Seeds are independent, so they run in a process pool of min(workers,
    seeds, CPUs) processes when that is more than one, and in this process
    otherwise; results are merged in seed order either way, keeping output
    deterministic.
    """
    cfg.validate()
    if cfg.scheme == "NE-ANALYSIS":
        raise ValueError("use run_ne_analysis for the NE-ANALYSIS scheme")
    result = ExperimentResult(config=cfg)
    size = min(cfg.workers, len(cfg.seeds), os.cpu_count() or 1)
    if size > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
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
            )
    return result


def channel_for_seed(cfg: ExperimentConfig, seed: int) -> ChannelRealization:
    """The realization a learning run with this seed would see (slot 0)."""
    return draw_channels(cfg.geometry(), _seed_streams(seed)[0], cfg.fading)


def _modal_joint_action(records: np.recarray, window: int) -> tuple[float, ...]:
    """The most common (p1, p2, p3, p4) of the last ``window`` rows; ties go to
    the one seen first."""
    tail = records[-window:]
    joint = np.column_stack((tail.p1, tail.p2, tail.p3, tail.p4))
    _, inverse, counts = np.unique(
        joint, axis=0, return_inverse=True, return_counts=True
    )
    return tuple(joint[np.argmax(counts[inverse])].tolist())


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
