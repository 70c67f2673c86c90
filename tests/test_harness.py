import csv
import dataclasses
import gzip
import hashlib
import json
import math
import os
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nomajam import harness
from nomajam.channel import SRC_BS1, ChannelRealization
from nomajam.cli import main as cli_main
from nomajam.game import GridEvaluator, StrategyGrid
from nomajam.harness import (
    CSV_HEADER,
    JAMMER_MODES,
    RECORD_DTYPE,
    ExperimentConfig,
    TwoCellEnv,
    channel_for_seed,
    export_csv,
    hot_boot,
    load_config,
    parse_seeds,
    read_csv,
    records_path,
    run_experiment,
    run_ne_analysis,
    run_seed,
    run_slot,
    summarize,
)
from nomajam.jammer import best_response
from nomajam.learn.agents import DqnAgent, EpsSchedule, QTable, TabularAgent
from nomajam.rates import bs_utility, link_terms, rates_from_sinr, sinrs

FAST = dict(slots=50, seeds=(0,), summary_window=20)


def greedy_agents(env):
    eps = EpsSchedule(start=0.0, decay=1.0, floor=0.0)
    return TabularAgent(
        env.cfg.n_actions, 8, 4, alpha=0.2, discount=0.7, eps=eps, seeds=(1, 2)
    )


def test_config_defaults_validate():
    ExperimentConfig().validate()


OUT_OF_RANGE = [
    {"jammer_grid_levels": 1},
    {"eps_start": 1.5},
    {"eps_floor": -0.1},
    {"eps_floor": 0.95},  # above eps_start
    {"eps_decay": 0.0},
    {"eps_decay": 1.5},
    {"discount": 1.0},
    {"discount": 2.0},
    {"alpha_ql": 0.0},
    {"alpha_ql": 1.5},
    {"alpha_dqn": 0.0},
    {"z": -1.0},
    {"z": 1.5},
    {"sinr_lo_db": 30.0},  # equal to sinr_hi_db
    {"p_j_max": 0.0},
    {"sinr_levels": 1},
    {"workers": 0},
    {"seeds": (-3, 1)},
    {"r0": -1.0},
    {"reward_scale": 0.0},
    {"reward_scale": -0.5},
    {"eps_ne": -1e-9},
    {"grid_levels": 2},  # a single action: nothing for the learning schemes to pick
    {"seeds": (2**63, 1)},  # above the int64 seed column
]


@pytest.mark.parametrize(
    "changes",
    [
        {"scheme": "BOGUS"},
        {"slots": 0},
        {"seeds": ()},
        {"grid_levels": 0},
        {"grid_levels": 1},
        {"p_bs_max": 0.0},
        {"jammer_mode": "psychic"},
        {"xl_jammer": 250.0},  # coincides with a user position
        {"redraw_period": -1},
        *OUT_OF_RANGE,
    ],
)
def test_config_validation_rejects(changes):
    with pytest.raises(ValueError):
        ExperimentConfig(**changes).validate()


def test_duplicate_seeds_rejected():
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(seeds=(0, 0)).validate()
    assert cli_main(["--seeds", "0,0", "--slots", "5"]) == 1


FLOAT_KEYS = [
    f.name for f in dataclasses.fields(ExperimentConfig) if isinstance(f.default, float)
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_nonfinite_floats(key, value):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{key: value}).validate()


def test_parse_seeds():
    assert parse_seeds("5") == (0, 1, 2, 3, 4)
    assert parse_seeds("3,1,2") == (3, 1, 2)
    with pytest.raises(ValueError):
        parse_seeds("0")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# comment line
scheme = QLS
slots = 123
seeds = 4,5
r0 = 1.25          # inline comment
fading = false
jammer_mode = best-response
""",
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.scheme == "QLS"
    assert cfg.slots == 123
    assert cfg.seeds == (4, 5)
    assert cfg.r0 == 1.25
    assert cfg.fading is False
    assert cfg.jammer_mode == "best-response"


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_load_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("slots = 3\nscheme = QLU\nslots = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="slots is set twice, on lines 1 and 3"):
        load_config(str(path))
    assert cli_main(["--config", str(path)]) == 1


@pytest.mark.parametrize(
    "key, raw", [("slots", "abc"), ("r0", "0.9.1"), ("fading", "maybe"),
                 ("seeds", "1,x")],
)
def test_cli_names_line_and_key_of_malformed_value(tmp_path, key, raw, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = QLU\n{key} = {raw}\n", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert f"run.cfg:2: bad value for {key}" in err


def test_q_table_memory_bound():
    # 8**4 states x 8 bytes: 128 levels give 8,128 actions (254 MiB), 129 give
    # 8,256 (258 MiB)
    for scheme in ("QLU", "QLS"):
        ExperimentConfig(scheme=scheme, grid_levels=128).validate()
        with pytest.raises(ValueError, match="grid_levels = 129 and sinr_levels = 8"):
            ExperimentConfig(scheme=scheme, grid_levels=129).validate()
    ExperimentConfig(scheme="DQLU", grid_levels=200).validate()  # no table
    # the learning jammer's (levels + 1)**3 x 8 bytes: 322**3 is 254.7 MiB,
    # 323**3 is 257.1 MiB
    for scheme in ("QLU", "QLS", "DQLU", "HBDQLU"):
        ExperimentConfig(scheme=scheme, jammer_grid_levels=321).validate()
        with pytest.raises(ValueError, match="jammer_grid_levels = 322"):
            ExperimentConfig(scheme=scheme, jammer_grid_levels=322).validate()
    # no jammer table: NE analysis and the best-response jammer
    ExperimentConfig(scheme="NE-ANALYSIS", jammer_grid_levels=400).validate()
    ExperimentConfig(jammer_mode="best-response", jammer_grid_levels=400).validate()


def test_cli_rejects_oversized_q_table_before_allocating(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a Q-table was allocated")

    monkeypatch.setattr(QTable, "__init__", refuse)
    monkeypatch.setattr(GridEvaluator, "u_matrix", refuse)
    monkeypatch.setattr(StrategyGrid, "build", refuse)
    monkeypatch.setattr(DqnAgent, "__init__", refuse)
    monkeypatch.setattr(harness, "run_seed", refuse)
    monkeypatch.setattr(harness, "hot_boot", refuse)
    cfgfile = tmp_path / "run.cfg"
    for line, keys in (
        ("grid_levels = 200", ("grid_levels", "sinr_levels")),
        ("jammer_grid_levels = 400", ("jammer_grid_levels",)),
        ("scheme = NE-ANALYSIS\ngrid_levels = 56", ("grid_levels",)),
        ("scheme = DQLU\ngrid_levels = 1000000", ("grid_levels", "batch_size")),
        ("scheme = HBDQLU\nbatch_size = 1000000\nreplay_capacity = 1000000",
         ("grid_levels", "batch_size")),
        ("scheme = DQLU\nreplay_capacity = 1000000000000", ("replay_capacity",)),
        ("slots = 1000000000000", ("slots",)),
        ("scheme = HBDQLU\nhot_boot_scenarios = 1000000000000", ("hot_boot_scenarios",)),
    ):
        cfgfile.write_text(line + "\n", encoding="utf-8")
        assert cli_main(["--config", str(cfgfile), "--seeds", "1"]) == 1
        err = capsys.readouterr().err
        assert all(f"{key} = " in err for key in keys), (line, err)


def test_ne_table_bound_at_the_config_boundary():
    # 55 levels hold 1485 actions, 56 hold 1540: 2.21 M against 2.37 M joint
    # profiles at TABLE_BYTES_PER_PROFILE (114) each, around the 256 MiB bound
    cfg = ExperimentConfig(scheme="NE-ANALYSIS", grid_levels=55)
    cfg.validate()
    with pytest.raises(ValueError, match="grid_levels = 56"):
        cfg.replaced(grid_levels=56).validate()
    # only NE-ANALYSIS builds the table
    cfg.replaced(scheme="QLU", grid_levels=56).validate()


def test_validate_builds_no_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate() built a strategy grid")

    monkeypatch.setattr(StrategyGrid, "build", refuse)
    for scheme in harness.SCHEMES:
        ExperimentConfig(scheme=scheme).validate()
    for scheme in ("QLU", "DQLU", "NE-ANALYSIS"):
        with pytest.raises(ValueError, match="grid_levels = 1000000"):
            ExperimentConfig(scheme=scheme, grid_levels=10**6).validate()


def test_n_actions_counts_the_grid():
    for levels in range(2, 61):
        cfg = ExperimentConfig(grid_levels=levels)
        assert cfg.n_actions == len(StrategyGrid.build(levels, cfg.p_bs_max).actions)


# (scheme, key, largest accepted value, other keys) of the rows bounding the
# DQN pair, its replay rings, the record array and the hot-boot seed list
RUN_ARRAY_LIMITS = [
    # 414 levels hold 85,491 actions: 85,491 x (1600 + 32 x 48) + 32 x 3336
    # bytes is 255.8 MiB; 415 levels (85,905 actions) take 257.0 MiB
    ("DQLU", "grid_levels", 414, {}),
    ("HBDQLU", "grid_levels", 414, {}),
    # 15 actions: 15 x 1600 + 66,176 x (3336 + 15 x 48) bytes is 256.0 MiB
    ("DQLU", "batch_size", 66_176, {"replay_capacity": 10**6}),
    # 160 bytes per transition of the pair's rings and per record row: 2**28 // 160
    ("DQLU", "replay_capacity", 1_677_721, {}),
    ("HBDQLU", "replay_capacity", 1_677_721, {}),
    ("QLU", "slots", 1_677_721, {}),
    ("DQLU", "slots", 1_677_721, {}),
    # (n + 2) x 368 bytes of SeedSequence
    ("HBDQLU", "hot_boot_scenarios", 729_442, {}),
]


@pytest.mark.parametrize(
    "scheme, key, limit, others", RUN_ARRAY_LIMITS,
    ids=[f"{scheme}-{key}" for scheme, key, *_ in RUN_ARRAY_LIMITS],
)
def test_run_array_bound_at_the_config_boundary(scheme, key, limit, others):
    cfg = ExperimentConfig(scheme=scheme, **others)
    cfg.replaced(**{key: limit}).validate()
    with pytest.raises(ValueError, match=f"{key} = {limit + 1}"):
        cfg.replaced(**{key: limit + 1}).validate()


def test_run_array_bounds_apply_only_where_the_array_is_built():
    huge = 10**12
    ExperimentConfig(scheme="NE-ANALYSIS", slots=huge).validate()
    ExperimentConfig(scheme="QLU", replay_capacity=huge, batch_size=huge,
                     hot_boot_scenarios=huge).validate()
    ExperimentConfig(scheme="DQLU", hot_boot_scenarios=huge).validate()
    # the batch a step draws is at most the ring
    ExperimentConfig(scheme="DQLU", batch_size=huge).validate()


def test_dqn_pair_stays_within_its_byte_bound():
    # the figures behind the DQN rows of config validation; 256 KiB covers
    # the environment's outcome memo and the training step's fixed arrays
    import tracemalloc

    for grid_levels, batch_size, replay_capacity in (
        (30, 64, 128),
        # few actions and a large batch, where the per-sample figure is
        # thinnest: a step that allocated six gradient arrays and six
        # lr * dw temporaries peaked 5-13 kB above the bound here
        (3, 768, 768),
    ):
        cfg = ExperimentConfig(
            scheme="DQLU", grid_levels=grid_levels, batch_size=batch_size,
            replay_capacity=replay_capacity, jammer_mode="best-response",
        )
        cfg.validate()
        env = TwoCellEnv(cfg, 0)
        tracemalloc.start()
        try:
            agents = harness._build_agents(
                cfg, (np.random.SeedSequence(1), np.random.SeedSequence(2))
            )
            for _ in range(cfg.batch_size + 8):
                run_slot(env, agents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rings = (agents.obs_buf, agents.next_obs_buf, agents.action_buf, agents.reward_buf)
        ring_bytes = cfg.replay_capacity * harness.REPLAY_BYTES_PER_TRANSITION
        assert sum(a.nbytes for a in rings) == ring_bytes
        n = cfg.n_actions
        pair_bytes = n * harness.DQN_BYTES_PER_ACTION + cfg.batch_size * (
            harness.DQN_BYTES_PER_SAMPLE + n * harness.DQN_BYTES_PER_ACTION_SAMPLE
        )
        assert peak <= pair_bytes + ring_bytes + 256 * 1024, (grid_levels, batch_size)


def test_hot_boot_shape_and_determinism():
    cfg = ExperimentConfig(scheme="HBDQLU", hot_boot_scenarios=2, hot_boot_slots=15)
    a = hot_boot(cfg, np.random.SeedSequence(4))
    b = hot_boot(cfg, np.random.SeedSequence(4))
    assert a.n_outputs == len(cfg.grid().actions)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)
    c = hot_boot(cfg, np.random.SeedSequence(5))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_frozen_agents_repeat_identical_slots():
    cfg = ExperimentConfig(jammer_mode="best-response", **FAST)
    env = TwoCellEnv(cfg, seed=3)
    agents = greedy_agents(env)
    rows = [run_slot(env, agents) for _ in range(10)]
    # greedy tie-break on an all-zero table repeats one action forever
    slot = CSV_HEADER.index("slot")
    for row in rows[1:]:
        assert row[:slot] + row[slot + 1:] == rows[0][:slot] + rows[0][slot + 1:]


def test_best_response_jammer_with_zero_cost_always_full_power():
    cfg = ExperimentConfig(gamma=0.0, jammer_mode="best-response", **FAST)
    records = run_seed(cfg, 0)
    assert all(r.p_j == pytest.approx(cfg.p_j_max) for r in records)


REFERENCE_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "reference"
)


# The benchmark's reference units that log slots, 2000 each: the four
# learning-jammer runs and the br-sim run (one follower solve per slot).
REFERENCE_RUNS = {
    "tabular-QLU-seed0": dict(scheme="QLU", seeds=(0,)),
    "tabular-QLS-seed1": dict(scheme="QLS", seeds=(1,)),
    "dqn-DQLU-seed0": dict(scheme="DQLU", seeds=(0,)),
    "dqn-HBDQLU-seed1": dict(scheme="HBDQLU", seeds=(1,)),
    "br-sim-QLU-BR-seed0": dict(scheme="QLU", jammer_mode="best-response", seeds=(0,)),
}


@pytest.mark.parametrize("unit", list(REFERENCE_RUNS))
def test_run_matches_committed_reference_csv(tmp_path, unit):
    # each CSV must stay byte-exact against perfbench/reference/<unit>.csv.gz
    cfg = ExperimentConfig(
        slots=2000, workers=1, out_dir=str(tmp_path), **REFERENCE_RUNS[unit]
    )
    run_experiment(cfg)
    with open(records_path(cfg.out_dir, cfg.scheme, cfg.seeds[0]), "rb") as fh:
        produced = fh.read()
    with gzip.open(os.path.join(REFERENCE_DIR, f"{unit}.csv.gz"), "rb") as fh:
        assert produced == fh.read()


# sha256 of run_seed(cfg, 0).tobytes() for runs whose replay rings wrap
# (300 transitions) and whose target networks sync, in hot boot too; no
# committed reference wraps a ring.  The digests were taken with one agent
# object per BS, so they pin that the stacked pair changes no output.
WRAPPING_RING_DIGESTS = {
    "DQLU": "0aea8a2f215e90f194c3e6b8dc86d542caad470c2fc36ee711e9f0a4cee62b52",
    "HBDQLU": "01b0710ca2468f3801be14458b15d7866c4a7d9322126c518b7159bdc9c0b093",
}


@pytest.mark.parametrize("scheme", list(WRAPPING_RING_DIGESTS))
def test_wrapping_replay_ring_run_matches_pinned_digest(scheme):
    cfg = ExperimentConfig(scheme=scheme, replay_capacity=300, slots=900,
                           hot_boot_slots=200, seeds=(0,))
    records = run_seed(cfg, 0)
    digest = hashlib.sha256(records.tobytes()).hexdigest()
    assert digest == WRAPPING_RING_DIGESTS[scheme]


@pytest.mark.parametrize("levels,seed", [(4, 0), (4, 11), (6, 1), (6, 12)])
def test_ne_analysis_matches_committed_reference(tmp_path, levels, seed):
    # the benchmark's ne reference units (seed 11 at grid 4 is mood 2): mood,
    # feasible total-power pairs, brute-force equilibria and certificate
    # indices must match perfbench/reference/ne-NE-g<levels>-seed<seed>.json
    cfg = ExperimentConfig(
        scheme="NE-ANALYSIS", grid_levels=levels, seeds=(seed,), slots=2000,
        workers=1, out_dir=str(tmp_path),
    )
    run_ne_analysis(cfg)
    with open(tmp_path / f"ne_analysis_seed{seed}.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(REFERENCE_DIR, f"ne-NE-g{levels}-seed{seed}.json"),
              encoding="utf-8") as fh:
        ref = json.load(fh)
    assert report["mood"] == ref["mood"]
    assert report["ps_pairs"] == ref["ps_pairs"]
    assert sorted([p["p1"], p["p2"], p["p3"], p["p4"]]
                  for p in report["brute_force"]) == ref["brute_force"]
    for cls in ("ne_l1", "ne_l2", "ne_l3"):
        assert sorted([c["a1_index"], c["a2_index"]]
                      for c in report[cls]) == ref["certificates"][cls]


def test_logged_utilities_replay_from_channel_seed():
    # every logged quantity must be re-derivable from the actions and the
    # channel seed alone, bit for bit
    cfg = ExperimentConfig(slots=120, seeds=(5,), summary_window=50)
    records = run_seed(cfg, 5)
    ch = channel_for_seed(cfg, 5)
    for rec in records:
        rates = rates_from_sinr(sinrs(link_terms(ch, rec.p1, rec.p2, rec.p3, rec.p4), rec.p_j))
        assert float(rates[0]) == rec.r1 and float(rates[3]) == rec.r4
        assert bs_utility(rates, rec.p_j, cfg.r0, cfg.gamma, cfg.z) == rec.u_bs


def test_env_of_an_int_seed_is_the_run_seed_environment():
    # run_seed's environment is TwoCellEnv(cfg, seed); its records carry the seed
    cfg = ExperimentConfig(jammer_mode="best-response", **FAST)
    env = TwoCellEnv(cfg, seed=4)
    assert env.seed == 4
    assert np.array_equal(env.ch.gains, channel_for_seed(cfg, 4).gains)
    assert {r.seed for r in run_seed(cfg, 4)} == {4}


def test_run_experiment_single_slot():
    cfg = ExperimentConfig(slots=1, seeds=(1,), summary_window=1)
    result = run_experiment(cfg)
    assert len(result.per_seed[1]) == 1


def test_extending_seed_list_preserves_prefix():
    cfg_a = ExperimentConfig(**FAST)
    cfg_b = ExperimentConfig(**{**FAST, "seeds": (0, 1)})
    res_a = run_experiment(cfg_a)
    res_b = run_experiment(cfg_b)
    assert np.array_equal(res_a.per_seed[0], res_b.per_seed[0])


def test_summary_matches_recomputation_from_csv(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path), **FAST)
    result = run_experiment(cfg)
    path = records_path(str(tmp_path), cfg.scheme, 0)
    records = read_csv(path)
    tail = records[-cfg.summary_window:]
    assert result.summaries[0]["mean_reward"] == pytest.approx(
        float(np.mean([r.u_bs for r in tail])), rel=1e-15
    )
    assert result.summaries[0]["mean_objective"] == pytest.approx(
        float(np.mean([r.objective for r in tail])), rel=1e-15
    )


def test_csv_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(**FAST)
    records = run_seed(cfg, 0)
    path = tmp_path / "records.csv"
    export_csv(records, path)
    back = read_csv(path)
    assert np.array_equal(back, records)
    for rec in (records, back):
        assert isinstance(rec, np.recarray) and rec.dtype == RECORD_DTYPE
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        assert sum(1 for _ in fh) == len(records)
    assert header == CSV_HEADER


def test_read_csv_rejects_truncated_row(tmp_path):
    path = tmp_path / "records.csv"
    export_csv(run_seed(ExperimentConfig(**FAST), 0)[:3], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][: lines[-1].index(",", 10)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"records\.csv: row 4 "):
        read_csv(path)


@pytest.mark.parametrize("column, raw", [("p_j", "abc"), ("qos1", "0.5"),
                                         ("seed", str(2**63))])
def test_read_csv_rejects_value_that_does_not_fit_its_column(tmp_path, column, raw):
    path = tmp_path / "records.csv"
    export_csv(run_seed(ExperimentConfig(**FAST), 0)[:3], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")
    fields[CSV_HEADER.index(column)] = raw
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"records\.csv: row 3 "):
        read_csv(path)


def export_cases():
    """130 records (two full chunks and two rows) whose tails repeat under
    other seeds and slots, with tails that differ only in the sign of a
    zero, a subnormal and the largest finite magnitudes."""
    changes = ((None, None), ("p_j", 0.0), ("p_j", -0.0), ("r1", 5e-324),
               ("u_bs", 1.7e308), ("u_bs", -1.7e308), ("selfish_2", -0.0))
    variants = np.repeat(run_seed(ExperimentConfig(**FAST), 0)[:3], len(changes))
    for k, (name, value) in enumerate(changes):
        if name is not None:
            variants[name][k::len(changes)] = value
    records = variants[(5 * np.arange(130)) % len(variants)].view(np.recarray)
    records.seed = np.arange(130) % 3
    records.slot = 1000 - np.arange(130)
    return records


# One record's line: 17 significant digits round-trip every float exactly.
ROW_FORMAT = ",".join(
    "%d" if RECORD_DTYPE[name].kind == "i" else "%.17g" for name in CSV_HEADER
) + "\r\n"


@pytest.mark.parametrize("n", [0, 1, 130])
def test_export_writes_the_row_format_of_every_record(tmp_path, n):
    records = export_cases()[:n]
    path = tmp_path / "records.csv"
    export_csv(records, path)
    expected = ",".join(CSV_HEADER) + "\r\n" + "".join(
        ROW_FORMAT % row.item() for row in records
    )
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("mode", JAMMER_MODES)
def test_slot_outcomes_call_the_traced_rates_helpers(mode, monkeypatch):
    # perfbench times these names on the harness module; a slot loop that
    # stopped calling one would leave its per-layer metrics at 0
    names = ["rates_from_sinr", "bs_utility", "objective_p2"]
    if mode == "learning":
        names.append("jammer_utility")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    run_seed(ExperimentConfig(jammer_mode=mode, slots=200, seeds=(0,)), 0)
    assert set(calls) == set(names)
    assert len(set(calls.values())) == 1 and calls["rates_from_sinr"] > 0


def test_replay_determinism_bytes(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "a"), **FAST)
    run_experiment(cfg)
    cfg2 = ExperimentConfig(out_dir=str(tmp_path / "b"), **FAST)
    run_experiment(cfg2)
    a = (tmp_path / "a" / f"records_QLU_seed0.csv").read_bytes()
    b = (tmp_path / "b" / f"records_QLU_seed0.csv").read_bytes()
    assert a == b


def test_redraw_period_changes_channel():
    cfg = ExperimentConfig(redraw_period=10, **FAST)
    env = TwoCellEnv(cfg, seed=0)
    g0 = env.ch.gains.copy()
    agents = greedy_agents(env)
    for _ in range(10):
        run_slot(env, agents)
    assert not np.array_equal(env.ch.gains, g0)


# sha256 of run_seed(cfg, 0).tobytes() for runs that redraw the channel
# every 25 slots, taken before TwoCellEnv memoized slot outcomes: an outcome
# kept across a redraw would change them.
REDRAW_DIGESTS = {
    ("QLU", "learning"):
        "e366b53ca45c9dab47b3d77626c07641101d84d318c0c02b0009552197d65e11",
    ("QLS", "learning"):
        "60b79953086824b10c5bb753035032d5afed7fccaf9093b0b2da1db407bd18ed",
    ("QLU", "best-response"):
        "8c8def828654576e1a363d76fc67ffb7aea14588da859b9bda40316b84faa249",
    ("QLS", "best-response"):
        "0f21506ca20d9de529354171e6a3538fa62fdaa3a0914e098dddb0f209d032c7",
}


@pytest.mark.parametrize("scheme,mode", list(REDRAW_DIGESTS))
def test_redraw_run_matches_pinned_digest(scheme, mode):
    cfg = ExperimentConfig(scheme=scheme, jammer_mode=mode, slots=1000,
                           redraw_period=25, seeds=(0,))
    digest = hashlib.sha256(run_seed(cfg, 0).tobytes()).hexdigest()
    assert digest == REDRAW_DIGESTS[(scheme, mode)]


@pytest.mark.parametrize("mode", JAMMER_MODES)
def test_records_do_not_depend_on_the_outcome_memo_bound(mode, monkeypatch):
    cfg = ExperimentConfig(jammer_mode=mode, slots=600, seeds=(0,))
    expected = run_seed(cfg, 0)
    monkeypatch.setattr(harness, "OUTCOME_MEMO_ENTRIES", 1)
    assert run_seed(cfg, 0).tobytes() == expected.tobytes()


def outcome_bits(outcome) -> list:
    """An outcome tuple flattened to (type, value) pairs, each float as its bits."""
    if isinstance(outcome, tuple):
        return [b for x in outcome for b in outcome_bits(x)]
    if isinstance(outcome, float):
        return [("float", outcome.hex() if outcome == outcome else "nan")]
    return [(type(outcome).__name__, outcome)]


def assert_table_is_the_scalar_outcomes(env):
    cfg = env.cfg
    shape = (cfg.n_actions, cfg.n_actions, cfg.jammer_grid_levels + 1)
    floats, ints = env._outcome_table()
    assert floats.shape == (*shape, 15) and ints.shape == (*shape, 14)
    for key in np.ndindex(shape):
        assert outcome_bits(env._tabled(*key)) == outcome_bits(env._outcome(*key)), key


@pytest.mark.parametrize("changes", [
    {}, {"scheme": "QLS"}, {"grid_levels": 4, "sinr_levels": 5},
    {"jammer_grid_levels": 3, "p_j_max": 7.0}, {"fading": False},
], ids=["default", "QLS", "grid4", "jammer3", "no-fading"])
@pytest.mark.parametrize("seed", range(5))
def test_outcome_table_is_the_scalar_outcome_of_every_key(changes, seed):
    # observations, rewards, row tail, jammer reward and jammer observation,
    # bit for bit and of the same types
    env = TwoCellEnv(ExperimentConfig(**changes), seed)
    assert env._tabulate
    assert_table_is_the_scalar_outcomes(env)


def test_outcome_table_of_a_redrawn_realization_is_its_scalar_outcomes():
    cfg = ExperimentConfig(redraw_period=300, seeds=(0,))
    env = TwoCellEnv(cfg, 0)
    agents = greedy_agents(env)
    g0 = env.ch.gains.copy()
    for _ in range(cfg.redraw_period):
        run_slot(env, agents)
    assert env._table is None and not np.array_equal(env.ch.gains, g0)
    assert_table_is_the_scalar_outcomes(env)


def count_outcome_paths(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("_outcome", "_tabled"):
        def counted(self, *key, _name=name, _fn=getattr(TwoCellEnv, name)):
            calls[_name] += 1
            return _fn(self, *key)
        monkeypatch.setattr(TwoCellEnv, name, counted)
    return calls


def memo_misses(records, period: int) -> int:
    """Distinct slot outcomes per realization: the memo's misses."""
    realization = records.slot // period if period else np.zeros(len(records), int)
    return len({(k, r.p1, r.p2, r.p3, r.p4, r.p_j) for k, r in zip(realization, records)})


@pytest.mark.parametrize("changes, tabled", [
    ({}, True),
    ({"redraw_period": 25}, False),
    ({"jammer_mode": "best-response"}, False),
    ({"slots": 224}, False),  # fewer slots than the 15**2 action pairs
], ids=["learning", "redraw-25", "best-response", "short-run"])
def test_outcome_table_serves_long_learning_jammer_realizations(changes, tabled, monkeypatch):
    # a table is filled only for the learning jammer on realizations that
    # serve at least n**2 slots; every other memo miss is scored by _outcome
    calls = count_outcome_paths(monkeypatch)
    cfg = ExperimentConfig(**{"slots": 2000, "seeds": (0,), **changes})
    records = run_seed(cfg, 0)
    misses = memo_misses(records, cfg.redraw_period)
    assert calls == ({"_tabled": misses} if tabled else {"_outcome": misses})


def test_hot_boot_scenarios_fill_outcome_tables(monkeypatch):
    calls = count_outcome_paths(monkeypatch)
    cfg = ExperimentConfig(scheme="HBDQLU", slots=20, hot_boot_scenarios=1,
                           hot_boot_slots=240, seeds=(0,))
    run_seed(cfg, 0)
    # the run's 20 slots are scored alone, its boot scenario's 240 from a table
    assert 0 < calls["_outcome"] <= cfg.slots and 0 < calls["_tabled"] <= cfg.hot_boot_slots


# The tracemalloc peak of filling a realization's outcome table, per key:
# 380-382 B measured at 2,475 to 47,916 keys, plus about 4 KiB.
OUTCOME_TABLE_BYTES_PER_KEY = 420


def test_outcome_table_stays_within_its_byte_bound():
    # the figure behind OUTCOME_MEMO_ENTRIES' comment, at grid 4, 6 and 12 and
    # with 41 jammer levels; 16 KiB covers the fixed part
    for changes in ({"grid_levels": 4, "jammer_grid_levels": 3}, {}, {"grid_levels": 12},
                    {"jammer_grid_levels": 40}):
        cfg = ExperimentConfig(**changes)
        env = TwoCellEnv(cfg, 0)
        env._outcome_table()  # the thresholds, cached per process, outside the trace
        keys = cfg.n_actions**2 * (cfg.jammer_grid_levels + 1)
        tracemalloc.start()
        try:
            env._outcome_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= OUTCOME_TABLE_BYTES_PER_KEY * keys + 16 * 1024, changes


def outcomes_against_the_model(env, keys, p_tol=0.0) -> list:
    """Each slot outcome of ``env`` against the 50-digit model of
    tests/slot_model.py; the near ties found, as (key, field) pairs.

    A three-part key is read from the learning jammer's table, whose p_j
    must lie on the jammer's grid; a two-part key is ``_outcome``'s, whose
    p_j must lie within ``p_tol`` of the exact follower.  At the outcome's
    own powers, its rates, scores and rewards agree with the model to 1e-12
    relative, and its QoS flags, SINR levels and jammer observation exactly.
    A flag or level that is a near tie (``slot_model.NEAR``) takes the
    outcome's decision and is reported, not dropped.
    """
    mpmath = pytest.importorskip("mpmath")
    from slot_model import (DIGITS, Edge, follower, model_level, model_links, model_rate,
                            model_scores, model_sinrs, model_thresholds)

    cfg, ties, links_of = env.cfg, [], {}
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        g = [[mpf(x) for x in row] for row in env.ch.gains.tolist()]
        gamma, z, pmax = map(mpf, (cfg.gamma, cfg.z, cfg.p_j_max))
        qos = Edge(mpf(cfg.r0))
        thresholds = model_thresholds(cfg.sinr_levels, mpf(cfg.sinr_lo_db), cfg.sinr_hi_db)
        for key in keys:
            a1, a2, *a_j = key
            obs, rewards, tail, jam_reward, jam_obs = (
                env._tabled(*key) if a_j else env._outcome(*key))
            p, p_j = tail[:4], tail[4]
            assert p == env.grid.actions[a1] + env.grid.actions[a2], key
            if p not in links_of:
                links_of[p] = model_links(g, *map(mpf, p))
            links = links_of[p]
            if a_j:
                assert p_j == float(a_j[0] * pmax / cfg.jammer_grid_levels), key
            else:
                exact = follower(links, gamma, pmax)
                assert abs(p_j - exact) <= p_tol, (key, p_j, float(exact))
            exact_sinrs = model_sinrs(links, mpf(p_j))
            rates = [model_rate(x) for x in exact_sinrs]
            met = []
            for user, (rate, flag) in enumerate(zip(rates, tail[14:])):
                reached, near = qos.decide(rate)
                if near:
                    ties.append((key, f"qos{user + 1}"))
                met.append(bool(flag) if near else reached)
            assert list(tail[14:]) == [int(m) for m in met], key
            levels = []
            for user, sinr in enumerate(exact_sinrs):
                level, near = model_level(sinr, thresholds)
                if near:
                    ties.append((key, f"level{user + 1}"))
                levels.append(obs[0][user] if near else level)
            l1, l2, l3, l4 = levels
            assert obs == ((l1, l2, l3, l4), (l3, l4, l1, l2)), key
            total, objective, u, s1, s2, u_jam = model_scores(rates, mpf(p_j), met, gamma, z)
            want = [*rates, total, objective, u, s1, s2, *((s1, s2) if env.selfish else (u, u))]
            got = [*tail[5:14], *rewards]
            if a_j:
                want.append(u_jam)
                got.append(jam_reward)
                # each BS total, on the nearest of the jammer's levels
                bins = tuple(round(Fraction((w + s) * cfg.jammer_grid_levels, cfg.grid_levels))
                             for w, s in (env.grid.action_levels[a1], env.grid.action_levels[a2]))
                assert jam_obs == (bins,), key
            else:
                assert jam_reward is None and jam_obs is None, key
            want = [float(x) for x in want]
            assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want)), (key, got, want)
    return ties


def test_outcome_table_matches_the_model_at_50_digits():
    # ROADMAP item 12's oracle for the slot loop: every key of the learning
    # jammer's table at the defaults (seeds 0..2) and of a QLS one at grid 4
    # whose UE2 hears BS1 at gain 1/8, so that a strong power of 8 puts its
    # SINR at exactly 1 when p_j = 0: its rate meets r0 = 1 with equality,
    # which ">=" decides and ">" would not
    ties = []
    for seed in range(3):
        env = TwoCellEnv(ExperimentConfig(), seed)
        ties += outcomes_against_the_model(env, np.ndindex(env._outcome_table()[0].shape[:3]))
    cfg = ExperimentConfig(scheme="QLS", grid_levels=4, sinr_levels=5, p_bs_max=32.0, r0=1.0)
    env = TwoCellEnv(cfg, 0)
    gains = env.ch.gains.copy()
    gains[1, SRC_BS1] = 0.125
    env.ch = ChannelRealization(gains=gains, seed=0)
    floats, _ = env._outcome_table()
    assert (floats[..., 6] == cfg.r0).sum() == 3 * cfg.n_actions  # the exact ties
    ties += outcomes_against_the_model(env, np.ndindex(floats.shape[:3]))
    # no flag or level of these realizations is left to a near tie
    assert ties == []


def test_best_response_outcomes_match_the_model_at_50_digits():
    # every best-response outcome of seed 0's realization: p_j within the
    # follower's stopping width of the exact root, the rest at that p_j
    cfg = ExperimentConfig(jammer_mode="best-response")
    env = TwoCellEnv(cfg, 0)
    p_tol = max(1e-5, 1e-12 * cfg.p_j_max)
    keys = np.ndindex(cfg.n_actions, cfg.n_actions)
    assert outcomes_against_the_model(env, keys, p_tol) == []


def test_best_response_runs_once_per_distinct_joint_action(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return best_response(*args)

    monkeypatch.setattr(harness, "best_response", counted)
    cfg = ExperimentConfig(jammer_mode="best-response", slots=2000, seeds=(0,))
    records = run_seed(cfg, 0)
    joint = {(r.p1, r.p2, r.p3, r.p4) for r in records}
    assert len(calls) == len(joint) < cfg.slots


def test_hbdqlu_runs_end_to_end():
    cfg = ExperimentConfig(
        scheme="HBDQLU",
        hot_boot_scenarios=2,
        hot_boot_slots=20,
        **FAST,
    )
    records = run_seed(cfg, 0)
    assert len(records) == cfg.slots


def test_qls_logs_selfish_rewards():
    cfg = ExperimentConfig(scheme="QLS", **FAST)
    records = run_seed(cfg, 0)
    assert any(r.selfish_1 != r.selfish_2 for r in records)


def find_seed_with_mood(cfg, want, limit=40):
    from nomajam.game import mood_classify

    grid, jcfg = cfg.grid(), cfg.jammer_config()
    for seed in range(limit):
        ch = channel_for_seed(cfg, seed)
        if mood_classify(ch, grid, jcfg, cfg.r0).mood == want:
            return seed
    pytest.skip(f"no mood-{want} seed within {limit}")


def test_ne_analysis_mood2_reports_full_power_classes(tmp_path):
    base = ExperimentConfig(grid_levels=4)
    seed = find_seed_with_mood(base, want=2)
    cfg = ExperimentConfig(
        scheme="NE-ANALYSIS", grid_levels=4, seeds=(seed,), out_dir=str(tmp_path)
    )
    out = run_ne_analysis(cfg)
    rep = out["per_seed"][seed]
    assert rep["mood"] == 2
    assert rep["ne_l1"] == []
    assert rep["pareto_l1"] is None
    assert rep["verification"]["analytic_subset_of_brute_force"]
    assert rep["learning_cross_check"]["status"] == "skipped"
    data = json.loads((tmp_path / f"ne_analysis_seed{seed}.json").read_text())
    assert data["mood"] == 2


def test_ne_analysis_cross_check_with_companion_run(tmp_path):
    cfg_run = ExperimentConfig(
        scheme="QLU",
        grid_levels=4,
        slots=400,
        seeds=(0,),
        summary_window=100,
        jammer_mode="best-response",
        out_dir=str(tmp_path),
    )
    run_experiment(cfg_run)
    cfg = cfg_run.replaced(scheme="NE-ANALYSIS")
    out = run_ne_analysis(cfg)
    report = out["per_seed"][0]
    cross = report["learning_cross_check"]
    assert cross["status"] == "ok"
    assert cross["scheme"] == "QLU"
    # the modal joint action, counted from the CSV text (ties go to the first seen)
    with open(records_path(str(tmp_path), "QLU", 0), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))[-cfg.summary_window:]
    modal = Counter(
        tuple(float(row[k]) for k in ("p1", "p2", "p3", "p4")) for row in rows
    ).most_common(1)[0][0]
    assert cross["modal_action"] == list(modal)
    # within one grid level of a brute-force equilibrium in every power, and
    # on the Pareto point exactly
    step = cfg.grid().step
    levels = [round(p / step) for p in modal]

    def level_gap(profile):
        return max(abs(round(profile[k] / step) - w)
                   for k, w in zip(("p1", "p2", "p3", "p4"), levels))

    assert cross["near_certified_ne"] == any(
        level_gap(p) <= 1 for p in report["brute_force"]
    )
    pareto = report["pareto_l1"] or report["pne_l2"] or report["pne_l3"]
    assert cross["on_pareto_ne"] == (pareto is not None and level_gap(pareto) == 0)


def test_cli_smoke_run(tmp_path):
    rc = cli_main(
        [
            "--scheme", "QLU",
            "--slots", "30",
            "--seeds", "1",
            "--out-dir", str(tmp_path),
            "--grid-levels", "4",
            "--jammer-mode", "best-response",
        ]
    )
    assert rc == 0
    assert os.path.exists(records_path(str(tmp_path), "QLU", 0))


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n", encoding="utf-8")
    assert cli_main(["--config", str(bad)]) == 1
    missing = tmp_path / "missing.cfg"
    assert cli_main(["--config", str(missing)]) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [(["--slots", "abc"], "--slots"), (["--grid-levels", "2.5"], "--grid-levels"),
     (["--scheme", "FOO"], "--scheme"), (["--bogus", "1"], "--bogus"),
     (["--seeds", "1.5"], "seeds"), (["--seeds", "a,b"], "seeds")],
)
def test_cli_malformed_flag_is_a_configuration_error(argv, flag, capsys):
    assert cli_main(argv) == 1
    assert flag in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "--seeds" in capsys.readouterr().out


def test_cli_rejects_zero_grid_levels(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid_levels = 0\n", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--slots", "5", "--seeds", "1"]) == 1


@pytest.mark.parametrize(
    "key",
    ["batch_size", "replay_capacity", "target_sync_period",
     "hot_boot_scenarios", "hot_boot_slots"],
)
def test_cli_rejects_counts_below_one(tmp_path, key, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = HBDQLU\n{key} = 0\n", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--slots", "5", "--seeds", "1"]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("changes", OUT_OF_RANGE)
def test_cli_rejects_out_of_range(tmp_path, changes, capsys):
    ((key, value),) = changes.items()
    raw = ",".join(map(str, value)) if isinstance(value, tuple) else value
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {raw}\n", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--slots", "3"]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme, key, value",
    [("NE-ANALYSIS", "r0", 1e300), ("QLU", "gamma", 1e308), ("NE-ANALYSIS", "gamma", 1e308),
     ("NE-ANALYSIS", "r0", 1023.9999999999999), ("QLU", "gamma", sys.float_info.max / 32),
     ("QLU", "noise_db", 4000), ("NE-ANALYSIS", "noise_db", 4000), ("QLU", "noise_db", -4000),
     ("QLU", "xl_jammer", 1e300), ("NE-ANALYSIS", "xl_jammer", 1e300),
     ("QLU", "xl_ue1", 1e300), ("NE-ANALYSIS", "xl_ue1", 1e300)],
)
def test_cli_rejects_values_beyond_the_float_range(tmp_path, scheme, key, value, capsys):
    # 2.0 ** r0 overflowed at run time (exit 2), and gamma * p_j went
    # infinite in a run that exited 0; just below 1024, r0 overflowed the
    # binding split's (t - 1) * A, and gamma = max / 32 the summary's mean;
    # the noise power 10 ** (noise_db / 10) and a path loss's d ** 3.76
    # overflowed (exit 2, or a bare OverflowError for NE-ANALYSIS), and a
    # noise power that underflowed to 0 made every gain infinite
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = {scheme}\n{key} = {value}\n", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--slots", "3", "--seeds", "1"]) == 1
    assert f"{key} must" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["QLU", "NE-ANALYSIS"])
@pytest.mark.parametrize("lines, message", [
    ("noise_db = -3000\nxl_ue1 = 1e-20\n",
     "xl_ue1 must keep the largest gain between xl_ue1 and xl_bs1 times p_bs_max finite"),
    ("xl_ue1 = 0.0\n",
     "xl_ue1 must keep the path loss between xl_ue1 and xl_bs1 finite and non-zero"),
])
def test_cli_names_the_position_of_an_overflowing_gain_or_a_zero_distance(
    tmp_path, scheme, lines, message, capsys
):
    # the gain overflowed at the first channel draw, exiting 2 with "gains
    # must be finite and non-negative"; the zero distance exited 1 with a
    # message from Geometry that named neither position
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = {scheme}\n{lines}", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--slots", "3", "--seeds", "1"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p_bs_max", ["1e150", "1e200", "1e250"])
def test_cli_ne_analysis_runs_where_the_leader_utility_reaches_1024_bits(
    tmp_path, p_bs_max, capsys
):
    # monotonicity_check's 2.0 ** u overflowed once the leader utility reached
    # 1024, and the run exited 2; those curvature triples are now skipped
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = NE-ANALYSIS\np_bs_max = {p_bs_max}\n", encoding="utf-8")
    argv = ["--config", str(cfgfile), "--seeds", "1", "--out-dir", str(tmp_path)]
    assert cli_main(argv) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "ne_analysis_seed0.json").read_text(encoding="utf-8"))
    assert report["p_bs_max"] == float(p_bs_max)
    assert report["verification"]["monotonicity"]["skipped"] > 0


@pytest.mark.parametrize("lines, key", [
    # the weak user of cell 1 sits 1 m from BS1 and 1 m from BS2
    ("grid_levels = 4\nxl_bs2 = 2\nxl_ue1 = 1\nxl_ue2 = -100\nxl_ue3 = 50\nxl_ue4 = 60\n"
     "p_bs_max = 8.5660004992452e+295\n", "p_bs_max"),
    # UE3 hears the jammer 50 m away, its largest gain of any user
    ("xl_jammer = 350\np_bs_max = 1e300\np_j_max = 2.3259e302\n", "p_j_max"),
])
def test_cli_names_the_budget_of_an_infinite_weak_user_denominator(
    tmp_path, lines, key, capsys
):
    # each budget times each gain is finite, but their sum overflowed, so the
    # r0 bound skipped its check, and the run exited 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = NE-ANALYSIS\n{lines}", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--seeds", "1"]) == 1
    assert f"{key} must keep the largest weak-user denominator finite" in (
        capsys.readouterr().err)


def test_gain_bound_names_the_jammer_budget():
    # at the stock geometry the jammer's largest gain at UE3 is about 300,
    # which p_j_max = 1e306 takes past the float range
    with pytest.raises(ValueError, match="xl_jammer must keep the largest gain between "
                                         "xl_ue3 and xl_jammer times p_j_max finite"):
        ExperimentConfig(scheme="NE-ANALYSIS", p_j_max=1e306).validate()
    ExperimentConfig(scheme="NE-ANALYSIS", p_j_max=1e305).validate()


@pytest.mark.parametrize("scheme, key, where", [
    ("DQLU", "alpha_dqn", "DQN diverged at slot 1"),
    ("HBDQLU", "reward_scale", "hot boot, scenario 0: DQN diverged at slot 0"),
])
def test_cli_exits_2_naming_dqn_divergence(tmp_path, scheme, key, where, capsys):
    # a value of 1e300 ran to exit 0 on NaN weights; numpy's overflow
    # warnings are silenced so that the run reaches the loss check
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"scheme = {scheme}\n{key} = 1e300\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli_main(["--config", str(cfgfile), "--slots", "50", "--seeds", "1"])
    assert code == 2
    assert f"runtime error: {where}: player 1's training loss is" in capsys.readouterr().err


def test_float_range_boundaries():
    # r0 up to the last float below 1024; gamma while gamma * p_j_max is finite
    top = sys.float_info.max
    ExperimentConfig(r0=math.nextafter(1024.0, 0.0)).validate()
    with pytest.raises(ValueError, match="r0 must be below 1024"):
        ExperimentConfig(r0=1024.0).validate()
    ExperimentConfig(scheme="NE-ANALYSIS", gamma=top / 32, p_j_max=20.0).validate()
    ExperimentConfig(scheme="NE-ANALYSIS", gamma=top / 2, p_j_max=2.0).validate()
    for gamma, p_j_max in ((top / 16, 20.0), (top, 1.5), (2.0, top)):
        with pytest.raises(ValueError, match="gamma must keep gamma \\* p_j_max finite"):
            ExperimentConfig(gamma=gamma, p_j_max=p_j_max).validate()
    # a learning run's summary means each add max(min(window, slots), seeds)
    # values of up to 4 * 1024 + gamma * p_j_max
    ExperimentConfig(gamma=top / 2**13, p_j_max=20.0).validate()
    with pytest.raises(ValueError, match="gamma must keep the summary means of 200 values"):
        ExperimentConfig(gamma=top / 2**12, p_j_max=20.0).validate()
    with pytest.raises(ValueError, match="gamma must keep the summary means of 5000 values"):
        ExperimentConfig(gamma=top / 2**13, p_j_max=20.0, seeds=tuple(range(5000))).validate()
    # the game's binding split forms 2 ** r0 times a weak user's denominator;
    # at the default geometry and the largest fading draw that caps r0 near 1001.9
    with pytest.raises(ValueError, match="r0 must keep 2 \\*\\* r0 times the largest"):
        ExperimentConfig(scheme="NE-ANALYSIS", r0=1001.9).validate()
    near = ExperimentConfig(scheme="NE-ANALYSIS", grid_levels=4, seeds=(0, 1), r0=1001.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_ne_analysis(near)


def test_cli_rejects_removed_search_tolerance_key(tmp_path, capsys):
    # the follower's search tolerance is fixed; a file still setting it is
    # refused at the boundary like any other unknown key
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("jammer_search_tolerance = 1e-5\n", encoding="utf-8")
    assert cli_main(["--config", str(cfgfile), "--slots", "3"]) == 1
    assert "jammer_search_tolerance" in capsys.readouterr().err


def test_negative_seeds_rejected():
    for text in ("-3,1", "-3"):
        with pytest.raises(ValueError, match="seeds"):
            parse_seeds(text)
    assert cli_main(["--seeds=-3,1", "--slots", "3"]) == 1


def test_largest_seed_fits_the_seed_column():
    top = 2**63 - 1
    assert parse_seeds(f"{top},3") == (top, 3)
    with pytest.raises(ValueError, match="seeds"):
        parse_seeds(f"{top + 1},3")
    cfg = ExperimentConfig(slots=2, seeds=(top,), jammer_mode="best-response")
    cfg.validate()
    assert run_seed(cfg, top).seed.tolist() == [top, top]


def test_seed_count_is_bounded_before_the_tuple_is_built(capsys):
    import tracemalloc

    from nomajam.harness import MAX_SEEDS

    assert len(parse_seeds(str(MAX_SEEDS))) == MAX_SEEDS
    tracemalloc.start()
    try:
        for text in (str(MAX_SEEDS + 1), "10000000000"):
            with pytest.raises(ValueError, match="seeds"):
                parse_seeds(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cli_main(["--seeds", "10000000000", "--slots", "3"]) == 1
    assert "seeds" in capsys.readouterr().err
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(seeds=tuple(range(MAX_SEEDS + 1))).validate()
    # a long seed list is named by the offending seed, not printed whole
    with pytest.raises(ValueError, match=r"unique; 7 is listed twice$"):
        ExperimentConfig(seeds=(*range(MAX_SEEDS - 1), 7)).validate()


def test_grid_of_two_levels_is_left_to_ne_analysis(capsys):
    # one action: the learning schemes are rejected at the boundary, while
    # NE-ANALYSIS still analyses its 1 x 1 game
    for scheme in ("QLU", "QLS", "DQLU", "HBDQLU"):
        argv = ["--scheme", scheme, "--grid-levels", "2", "--slots", "3", "--seeds", "1"]
        assert cli_main(argv) == 1
        assert "grid_levels" in capsys.readouterr().err
    ExperimentConfig(scheme="NE-ANALYSIS", grid_levels=2).validate()


def test_shipped_default_config_matches_builtin_defaults():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = load_config(str(path))
    assert cfg == ExperimentConfig()
    # and it spells out every default
    keys = {
        line.split("#", 1)[0].split("=", 1)[0].strip()
        for line in path.read_text(encoding="utf-8").splitlines()
    } - {""}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"out_dir"}
    assert keys == fields


def test_worker_pool_matches_sequential():
    cfg = ExperimentConfig(slots=40, seeds=(0, 1, 2), summary_window=10)
    seq = run_experiment(cfg)
    par = run_experiment(cfg.replaced(workers=3))
    assert seq.per_seed.keys() == par.per_seed.keys()
    assert all(np.array_equal(seq.per_seed[s], par.per_seed[s]) for s in cfg.seeds)
    with pytest.raises(ValueError):
        cfg.replaced(workers=0).validate()


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The size of every process pool run_experiment opens, from a stub pool
    that maps in this process: no process is started."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_worker_pool_is_sized_to_the_seed_count(pool_sizes, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cfg = ExperimentConfig(slots=3, seeds=(0, 1), summary_window=2)
    run_experiment(cfg.replaced(workers=64))
    run_experiment(cfg.replaced(workers=2, seeds=(0, 1, 2)))
    assert pool_sizes == [2, 2]


@pytest.mark.parametrize("cpus, size", [(3, 3), (None, 1)])
def test_worker_pool_is_capped_at_the_cpu_count(pool_sizes, monkeypatch, cpus, size):
    # a pool of one would only add a process: the seeds run in this one
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = ExperimentConfig(slots=3, seeds=(0, 1, 2, 3), summary_window=2)
    got = run_experiment(cfg.replaced(workers=100000))
    assert pool_sizes == ([size] if size > 1 else [])
    want = run_experiment(cfg.replaced(workers=1))
    assert got.per_seed.keys() == want.per_seed.keys()
    assert all(np.array_equal(got.per_seed[s], want.per_seed[s]) for s in cfg.seeds)


def test_summarize_window():
    cfg = ExperimentConfig(**FAST)
    records = run_seed(cfg, 0)
    s = summarize(records, 20)
    assert s["window"] == 20
    s_all = summarize(records, 10_000)
    assert s_all["window"] == len(records)
