import dataclasses
import gzip
import json
import os

import numpy as np
import pytest

from nomajam.cli import main as cli_main
from nomajam.game import GridEvaluator
from nomajam.harness import (
    CSV_HEADER,
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
from nomajam.learn.agents import EpsSchedule, QTable, TabularAgent
from nomajam.rates import StrategyProfile, bs_utility, rates_from_sinr, sinr_vector

FAST = dict(slots=50, seeds=(0,), summary_window=20)


def greedy_agents(env):
    eps = EpsSchedule(start=0.0, decay=1.0, floor=0.0)
    return (
        TabularAgent(env.n_actions, 8, alpha=0.2, discount=0.7, eps=eps, seed=1),
        TabularAgent(env.n_actions, 8, alpha=0.2, discount=0.7, eps=eps, seed=2),
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
    {"jammer_search_tolerance": 0.0},
    {"jammer_search_tolerance": -1.0},
    {"jammer_search_tolerance": 1e-20},
    {"seeds": (-3, 1)},
    {"r0": -1.0},
    {"reward_scale": 0.0},
    {"reward_scale": -0.5},
    {"eps_ne": -1e-9},
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
    cfgfile = tmp_path / "run.cfg"
    for line, keys in (
        ("grid_levels = 200", ("grid_levels", "sinr_levels")),
        ("jammer_grid_levels = 400", ("jammer_grid_levels",)),
        ("scheme = NE-ANALYSIS\ngrid_levels = 56", ("grid_levels",)),
    ):
        cfgfile.write_text(line + "\n", encoding="utf-8")
        assert cli_main(["--config", str(cfgfile), "--slots", "3", "--seeds", "1"]) == 1
        err = capsys.readouterr().err
        assert all(key in err for key in keys), (line, err)


def test_ne_table_bound_at_the_config_boundary():
    # 55 levels hold 1485 actions, 56 hold 1540: 2.21 M against 2.37 M joint
    # profiles at TABLE_BYTES_PER_PROFILE (114) each, around the 256 MiB bound
    cfg = ExperimentConfig(scheme="NE-ANALYSIS", grid_levels=55)
    cfg.validate()
    with pytest.raises(ValueError, match="grid_levels = 56"):
        cfg.replaced(grid_levels=56).validate()
    # only NE-ANALYSIS builds the table
    cfg.replaced(scheme="QLU", grid_levels=56).validate()


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
    env.reset()
    records = [run_slot(env, agents) for _ in range(10)]
    # greedy tie-break on an all-zero table repeats one action forever
    first = dataclasses.asdict(records[0])
    for rec in records[1:]:
        d = dataclasses.asdict(rec)
        assert {k: v for k, v in d.items() if k != "slot"} == {
            k: v for k, v in first.items() if k != "slot"
        }


def test_best_response_jammer_with_zero_cost_always_full_power():
    cfg = ExperimentConfig(gamma=0.0, jammer_mode="best-response", **FAST)
    records = run_seed(cfg, 0)
    assert all(r.p_j == pytest.approx(cfg.p_j_max) for r in records)


REFERENCE_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "reference"
)
BR_SIM_REFERENCE = os.path.join(REFERENCE_DIR, "br-sim-QLU-BR-seed0.csv.gz")


def test_best_response_run_matches_committed_reference_csv(tmp_path):
    # the benchmark's br-sim unit: one follower solve per slot, 2000 slots;
    # its CSV must stay byte-exact against the committed reference
    cfg = ExperimentConfig(
        scheme="QLU", jammer_mode="best-response", seeds=(0,), slots=2000,
        workers=1, out_dir=str(tmp_path),
    )
    run_experiment(cfg)
    with open(records_path(cfg.out_dir, "QLU", 0), "rb") as fh:
        produced = fh.read()
    with gzip.open(BR_SIM_REFERENCE, "rb") as fh:
        assert produced == fh.read()


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
        prof = StrategyProfile(rec.p1, rec.p2, rec.p3, rec.p4, rec.p_j)
        rates = rates_from_sinr(sinr_vector(ch, prof))
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
    assert res_a.per_seed[0] == res_b.per_seed[0]


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
    assert back == records
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
    env.reset()
    g0 = env.ch.gains.copy()
    agents = greedy_agents(env)
    for _ in range(10):
        run_slot(env, agents)
    assert not np.array_equal(env.ch.gains, g0)


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
    cross = out["per_seed"][0]["learning_cross_check"]
    assert cross["status"] == "ok"
    assert cross["scheme"] == "QLU"
    assert isinstance(cross["near_certified_ne"], bool)


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


def test_negative_seeds_rejected():
    for text in ("-3,1", "-3"):
        with pytest.raises(ValueError, match="seeds"):
            parse_seeds(text)
    assert cli_main(["--seeds=-3,1", "--slots", "3"]) == 1


def test_shipped_default_config_matches_builtin_defaults():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = load_config(str(path))
    assert cfg == ExperimentConfig()


def test_worker_pool_matches_sequential():
    cfg = ExperimentConfig(slots=40, seeds=(0, 1, 2), summary_window=10)
    seq = run_experiment(cfg)
    par = run_experiment(cfg.replaced(workers=3))
    assert seq.per_seed == par.per_seed
    with pytest.raises(ValueError):
        cfg.replaced(workers=0).validate()


def test_summarize_window():
    cfg = ExperimentConfig(**FAST)
    records = run_seed(cfg, 0)
    s = summarize(records, 20)
    assert s["window"] == 20
    s_all = summarize(records, 10_000)
    assert s_all["window"] == len(records)
