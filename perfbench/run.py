#!/usr/bin/env python3
"""nomajam benchmark: four closed-loop batch workloads through the harness.

    python3 perfbench/run.py --workload tabular --seed 0 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload with one client and ``workers = 1``,
BLAS threads pinned to one.  A unit of work is one seed of a learning run or
one NE-ANALYSIS realization.  Unit k runs seed ``--seed + k`` with the
workload's variants taken in turn, and the loop runs whole rounds (one unit
of each variant) until ``--seconds`` of unit time have been measured.
Throughput is corrected for the host's speed at the time of each unit (see
``host_seconds``), because a shared host can change speed by 2x within
minutes (README.md, Host-speed correction).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass (see tracing.py and README.md).  Every
unit's output is checked; the last line of stdout is one JSON object.
"""

import os
import sys

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy is first imported

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SLOTS = 2000
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
DEFAULT_SEED = 0
# Nominal host_seconds(): throughput is reported for a host this fast.
HOST_NOMINAL_S = 0.03

# name -> (unit kind, variants).  Each seed runs one variant, so every unit
# is a new realization: NE cost varies several-fold between realizations and
# a run's throughput steadies with the number of realizations it averages.
WORKLOADS = {
    "tabular": ("slots", ({"scheme": "QLU"}, {"scheme": "QLS"})),
    "dqn": ("slots", ({"scheme": "DQLU"}, {"scheme": "HBDQLU"})),
    "ne": ("realizations", ({"scheme": "NE-ANALYSIS", "grid_levels": 4},
                            {"scheme": "NE-ANALYSIS", "grid_levels": 6})),
    "br-sim": ("slots", ({"scheme": "QLU", "jammer_mode": "best-response"},)),
}
# Committed reference outputs exist for one round at each of these workload
# seeds.  For ne, seed 11 adds the first mood-2 realization (grid 4).
REFERENCE_SEEDS = {"tabular": (0,), "dqn": (0,), "ne": (0, 11), "br-sim": (0,)}
# Untraced seconds per round at the baseline.  A traced run replays
# round(seconds / 2 / this) rounds, so two commits trace the same work.
ROUND_S = {"tabular": 0.65, "dqn": 6.4, "ne": 0.7, "br-sim": 0.7}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, failed set-up)."""


def import_nomajam():
    if not os.path.isfile(os.path.join(SRC, "nomajam", "__init__.py")):
        raise SetupError(f"no nomajam sources under {SRC}")
    sys.path.insert(0, SRC)
    import nomajam

    if not os.path.realpath(nomajam.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"imported nomajam from {nomajam.__file__}, not {SRC}")
    return nomajam


@dataclass(frozen=True)
class Unit:
    name: str
    kind: str
    cfg: object  # nomajam.ExperimentConfig

    @property
    def work(self) -> int:
        return self.cfg.slots if self.kind == "slots" else 1


@dataclass(frozen=True)
class Measured:
    unit: Unit
    seconds: float
    host_s: float  # mean host_seconds() just before and just after the unit
    output: str  # digest of the unit's output file

    @property
    def nominal_seconds(self) -> float:
        return self.seconds * HOST_NOMINAL_S / self.host_s


def make_unit(nomajam, workload: str, base_seed: int, k: int, out_dir: str) -> Unit:
    kind, variants = WORKLOADS[workload]
    seed = base_seed + k
    variant = variants[k % len(variants)]
    cfg = nomajam.ExperimentConfig(
        seeds=(seed,), slots=SLOTS, workers=1, out_dir=out_dir, **variant)
    label = {"tabular": cfg.scheme, "dqn": cfg.scheme, "br-sim": "QLU-BR",
             "ne": f"NE-g{cfg.grid_levels}"}[workload]
    return Unit(f"{workload}-{label}-seed{seed}", kind, cfg)


def setup_probe(workload: str) -> None:
    """Body of one set-up sample: import, build and validate, build the grid."""
    nomajam = import_nomajam()
    for k in range(len(WORKLOADS[workload][1])):
        cfg = make_unit(nomajam, workload, DEFAULT_SEED, k, WORK_DIR).cfg
        cfg.validate()
        cfg.jammer_config()
        cfg.grid()
    print("ready", flush=True)


def measure_setup(workload: str) -> list[float]:
    """Wall time from spawn to 'ready' of fresh set-up processes (first unused).

    Not corrected for host speed: host_seconds() samples taken next to a
    probe are disturbed by the probe's own start and exit, and correcting
    with them widened the spread of setup_s instead of narrowing it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", workload]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SetupError(f"set-up probe failed: {err.decode(errors='replace')}")
        samples.append(elapsed)
    return samples[1:]


def machine_info(load_at_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        sha = head
    except OSError:
        pass  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "thread_pins": THREAD_PINS,
        "workers": 1,
    }


def host_seconds() -> float:
    """Time a fixed amount of nomajam-independent Python and numpy work.

    The loop mixes what nomajam's hot paths do (scalar float math, tuple and
    dict traffic, small numpy reductions and a 32x24 @ 24x24 product), so
    its time tracks how fast this host runs such code right now.  A unit's
    time is scaled by HOST_NOMINAL_S over the mean of the samples taken just
    before and just after it.  No nomajam code runs here, so a change to
    nomajam moves the corrected time exactly as it moves the raw one.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    w, x, q = rng.random((24, 24)), rng.random((32, 24)), rng.random(15)
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(24_000):
        s = (1.0 + i % 7) / (1.0 + 0.5 * (i % 11) + 0.25 * (i % 13))
        acc += math.log2(1.0 + s)
        table[i & 255] = (acc, i)
        if i % 16 == 0:
            acc += float((x @ w).max()) + int(np.argmax(q + acc))
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks units; keeps the counts the result line reports."""

    def __init__(self, nomajam, workload: str, base_seed: int) -> None:
        import checks

        self.nomajam = nomajam
        self.checks = checks
        self.workload = workload
        self.base_seed = base_seed
        self.out_dir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.digest_matches = 0

    def unit(self, k: int, base_seed: int | None = None) -> Unit:
        seed = self.base_seed if base_seed is None else base_seed
        return make_unit(self.nomajam, self.workload, seed, k, self.out_dir)

    def fail(self, unit: Unit, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAIL {unit.name}: " + "; ".join(problems[:5]), file=sys.stderr)

    def execute(self, unit: Unit) -> tuple[float, str]:
        """Run one unit into an empty output directory; return time and output path."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        harness = self.nomajam.harness
        cfg = unit.cfg
        seed = cfg.seeds[0]
        t0 = perf_counter()
        if unit.kind == "realizations":
            harness.run_ne_analysis(cfg)
        else:
            harness.run_experiment(cfg)
        elapsed = perf_counter() - t0
        if unit.kind == "realizations":
            path = os.path.join(self.out_dir, f"ne_analysis_seed{seed}.json")
        else:
            path = harness.records_path(self.out_dir, cfg.scheme, seed)
        return elapsed, path

    def run(self, unit: Unit, reference: bool = False):
        """Run and check one unit; return (seconds, output digest) or None."""
        self.attempted += 1
        try:
            elapsed, path = self.execute(unit)
            problems = self._check(unit, path, reference)
        except Exception:  # a unit that raises is a failed unit, not a crash
            self.fail(unit, [traceback.format_exc()])
            return None
        if problems:
            self.fail(unit, problems)
            return None
        return elapsed, self.checks.file_digest(path)

    def _check(self, unit: Unit, path: str, reference: bool) -> list[str]:
        checks = self.checks
        if unit.kind == "realizations":
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            problems = checks.check_report(report, unit.cfg)
            if reference:
                problems += checks.compare_report(unit.name, report)
            return problems
        problems = checks.check_records(path, unit.cfg)
        if reference:
            ref_problems, exact = checks.compare_records(unit.name, path)
            problems += ref_problems
            self.digest_matches += exact
        return problems

    def reference_units(self) -> list[Unit]:
        n = len(WORKLOADS[self.workload][1])
        return [self.unit(k, seed) for seed in REFERENCE_SEEDS[self.workload]
                for k in range(n)]

    def run_reference(self) -> None:
        for unit in self.reference_units():
            self.run(unit, reference=True)

    def measure(self, units, stop=None) -> list[Measured]:
        """Run units in order, timing each one and the host around it.

        ``stop(done, attempted)`` is asked after every unit.
        """
        done, host = [], host_seconds()
        for attempted, unit in enumerate(units, 1):
            out = self.run(unit)
            host_after = host_seconds()
            if out is not None:
                done.append(Measured(unit, out[0], 0.5 * (host + host_after), out[1]))
            host = host_after
            if stop is not None and stop(done, attempted):
                break
        return done

    def window(self, seconds: float) -> list[Measured]:
        """Whole rounds of units until `seconds` of unit time are measured.

        Failed units add no unit time, so a wall-clock cap ends the loop
        when most units fail.
        """
        n_variants = len(WORKLOADS[self.workload][1])
        deadline = perf_counter() + 3.0 * seconds

        def stop(done, attempted):
            return attempted % n_variants == 0 and (
                sum(m.seconds for m in done) >= seconds or perf_counter() >= deadline)

        return self.measure((self.unit(k) for k in itertools.count()), stop)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def throughput(done: list[Measured]) -> float:
    """Work per second at the nominal host speed."""
    busy = sum(m.nominal_seconds for m in done)
    return sum(m.unit.work for m in done) / busy if busy else 0.0


def raw_throughput(done: list[Measured]) -> float:
    busy = sum(m.seconds for m in done)
    return sum(m.unit.work for m in done) / busy if busy else 0.0


def untraced_run(runner: Runner, workload: str, seconds: float) -> dict:
    setup = measure_setup(workload)
    runner.run_reference()  # also warms every code path before timing
    done = runner.window(seconds)
    kind = WORKLOADS[workload][0]
    units_per_s = throughput(done)
    setup_s = statistics.median(setup)
    rss = peak_rss_mb()
    print(f"units: {len(done)} in {sum(m.seconds for m in done):.2f} s "
          f"({sum(m.unit.work for m in done)} {kind})")
    print("unit_s " + " ".join(f"{m.seconds:.4f}" for m in done))
    print("host_s " + " ".join(f"{m.host_s:.4f}" for m in done))
    print(f"{'slots_per_s' if kind == 'slots' else 'realizations_per_s'} "
          f"{units_per_s:.6g} 1/s at nominal host speed "
          f"({raw_throughput(done):.6g} 1/s as timed)")
    print(f"setup_s {setup_s:.6g} s (median of {len(setup)} fresh processes)")
    print(f"peak_rss_mb {rss:.6g} MB")
    return {
        "units_per_s": {"value": units_per_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced_run(runner: Runner, workload: str, seconds: float) -> dict:
    """A fixed set of units untraced, then the same units again under tracing."""
    from tracing import LAYER_UNITS, Tracer

    rounds = max(1, round(seconds / 2.0 / ROUND_S[workload]))
    units = [runner.unit(k) for k in range(rounds * len(WORKLOADS[workload][1]))]
    runner.run(units[0])  # warm-up
    done = runner.measure(units)
    untraced = throughput(done)
    rss_untraced = peak_rss_mb()

    tracer = Tracer()
    t0 = perf_counter()
    tracer.install()
    install_s = perf_counter() - t0
    try:
        replay = runner.measure([m.unit for m in done])
        want = {m.unit.name: m.output for m in done}
        mismatches = 0
        for m in replay:
            if m.output != want[m.unit.name]:
                mismatches += 1
                runner.fail(m.unit, ["traced output differs from the untraced output"])
        grid_profiles = sum(len(m.unit.cfg.grid().actions) ** 2 for m in replay
                            if m.unit.kind == "realizations")
        metrics = tracer.layer_metrics(grid_profiles)
        tracer.clear()
        runner.run_reference()  # traced outputs must match the reference too
    finally:
        tracer.uninstall()

    traced = throughput(replay)
    metrics["trace.output_mismatches"] = float(mismatches)
    metrics["harness.csv_digest_match"] = float(runner.digest_matches)
    metrics["trace.overhead.units_per_s"] = (
        100.0 * (untraced - traced) / untraced if untraced else 0.0)
    metrics["trace.overhead.peak_rss_mb"] = peak_rss_mb() - rss_untraced
    metrics["trace.overhead.setup_s"] = install_s
    print(f"units: {len(replay)} replayed under tracing; "
          f"untraced {untraced:.6g} 1/s, traced {traced:.6g} 1/s")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    load = os.getloadavg()
    try:
        nomajam = import_nomajam()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_info(load)))

    runner = Runner(nomajam, args.workload, args.seed)
    try:
        if args.trace:
            metrics = traced_run(runner, args.workload, args.seconds)
        else:
            metrics = untraced_run(runner, args.workload, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    print(f"harness.csv_digest_match {runner.digest_matches}")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} units)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
