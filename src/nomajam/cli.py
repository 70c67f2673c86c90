"""Batch command-line interface.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback

from .harness import (
    JAMMER_MODES,
    SCHEMES,
    ExperimentConfig,
    load_config,
    parse_seeds,
    run_experiment,
    run_ne_analysis,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nomajam",
        description=(
            "Anti-jamming NOMA power allocation in a two-cell downlink: "
            "run learning experiments or certify Nash equilibria."
        ),
    )
    p.add_argument("--scheme", choices=SCHEMES, help="experiment scheme")
    p.add_argument("--slots", type=int, help="slots per seed")
    p.add_argument(
        "--seeds", help="comma-separated seed list, or a bare count for 0..n-1"
    )
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--out-dir", help="directory for CSV/JSON output")
    p.add_argument("--grid-levels", type=int, help="power quantization levels")
    p.add_argument("--jammer-mode", choices=JAMMER_MODES)
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and the flag at fault (code 2), or
        # the help (code 0); a malformed flag is a configuration error.
        return 0 if exc.code == 0 else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        overrides = {}
        for name in ("scheme", "slots", "seeds", "out_dir", "grid_levels", "jammer_mode"):
            value = getattr(args, name)
            if value is not None:
                overrides[name] = parse_seeds(value) if name == "seeds" else value
        if overrides:
            cfg = cfg.replaced(**overrides)
        cfg.validate()
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.scheme == "NE-ANALYSIS":
            out = run_ne_analysis(cfg)
            moods = out["mood_counts"]
            print(f"analyzed {len(out['per_seed'])} realizations")
            print(f"mood counts: 1 -> {moods[1]}, 2 -> {moods[2]}")
            for seed, rep in out["per_seed"].items():
                check = rep["verification"]["analytic_subset_of_brute_force"]
                print(
                    f"seed {seed}: mood {rep['mood']}, "
                    f"{rep['verification']['n_analytic']} analytic / "
                    f"{rep['verification']['n_brute_force']} brute-force NE, "
                    f"verified={check}"
                )
        else:
            result = run_experiment(cfg)
            print(f"scheme {cfg.scheme}: {len(cfg.seeds)} seeds x {cfg.slots} slots")
            for seed, summary in result.summaries.items():
                print(
                    f"seed {seed}: reward {summary['mean_reward']:.4f}, "
                    f"sum rate {summary['mean_sum_rate']:.4f}, "
                    f"objective {summary['mean_objective']:.4f}"
                )
            overall = result.summary
            print(
                f"overall: reward {overall['mean_reward']:.4f}, "
                f"sum rate {overall['mean_sum_rate']:.4f}, "
                f"objective {overall['mean_objective']:.4f}"
            )
    except Exception as exc:  # noqa: BLE001 - batch tool boundary
        traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
