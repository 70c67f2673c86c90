"""Output checks for the benchmark's units, and the committed reference.

``check_records`` and ``check_report`` hold for any workload seed: they
recompute what a row or report must satisfy from the row or report alone.
``compare_records`` and ``compare_report`` hold for the reference units only:
they compare against outputs committed under ``reference/`` (see
``make_reference.py``).  Every check returns a list of problems; empty means
the output passed.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
from itertools import zip_longest

from nomajam import rates

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

HEADER = [
    "seed", "slot", "p1", "p2", "p3", "p4", "p_j", "r1", "r2", "r3", "r4",
    "sum_rate", "objective", "u_bs", "selfish_1", "selfish_2",
    "qos1", "qos2", "qos3", "qos4",
]
# Columns that must match the reference exactly: the BS actions and QoS flags.
EXACT_COLUMNS = {"seed", "slot", "p1", "p2", "p3", "p4", "qos1", "qos2", "qos3", "qos4"}
REL_TOL = 1e-9
# Recomputing objective/u_bs from the row may only differ by rounding.
RECOMPUTE_TOL = 1e-12


def read_rows(fh):
    """Yield the rows of a per-slot CSV text stream as dicts of floats.

    Rows are streamed so that checking a unit adds little to the peak RSS
    the benchmark reports.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != HEADER:
        raise ValueError(f"unexpected CSV header {header}")
    for k, row in enumerate(reader):
        if len(row) != len(HEADER):
            raise ValueError(f"row {k} has {len(row)} fields")
        yield dict(zip(HEADER, map(float, row)))


def open_csv(path):
    return open(path, newline="", encoding="utf-8")


def digest(fh) -> str:
    """SHA-256 of a binary stream, read in chunks."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        h.update(chunk)
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return digest(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_records(path, cfg) -> list[str]:
    """Invariants every per-slot CSV row of a learning run must satisfy."""
    with open_csv(path) as fh:
        return _check_rows(read_rows(fh), cfg)


def _check_rows(rows, cfg) -> list[str]:
    problems = []
    seed, r0 = cfg.seeds[0], cfg.r0
    budget = cfg.p_bs_max + 1e-9 * max(1.0, cfg.p_bs_max, cfg.p_j_max)
    n = 0
    for k, row in enumerate(rows):
        n += 1
        found = []
        if row["seed"] != seed or row["slot"] != k:
            found.append(f"seed/slot columns {row['seed']}/{row['slot']}")
        if not math.isfinite(sum(row.values())):  # NaN and inf propagate
            problems.append(f"seed {seed} row {k}: non-finite value")
            continue
        p1, p2, p3, p4, p_j = row["p1"], row["p2"], row["p3"], row["p4"], row["p_j"]
        if min(p1, p2, p3, p4) < 0 or p1 + p2 > budget or p3 + p4 > budget:
            found.append(f"BS powers {(p1, p2, p3, p4)} outside the budget")
        if not 0.0 <= p_j <= cfg.p_j_max:
            found.append(f"p_j {p_j} outside [0, {cfg.p_j_max}]")
        r = [row["r1"], row["r2"], row["r3"], row["r4"]]
        flags = [row["qos1"], row["qos2"], row["qos3"], row["qos4"]]
        if flags != [float(x >= r0) for x in r]:
            found.append(f"qos flags {flags} disagree with rates {r}")
        objective = rates.objective_p2(r, r0)
        u_bs = rates.bs_utility(r, p_j, r0, cfg.gamma, cfg.z)
        if not _close(row["objective"], objective, RECOMPUTE_TOL):
            found.append(f"objective {row['objective']} != {objective}")
        if not _close(row["u_bs"], u_bs, RECOMPUTE_TOL):
            found.append(f"u_bs {row['u_bs']} != {u_bs}")
        problems += [f"seed {seed} row {k}: {f}" for f in found]
    if n != cfg.slots:
        problems.append(f"{n} rows, expected {cfg.slots}")
    return problems


def check_report(report: dict, cfg) -> list[str]:
    """Invariants every NE-ANALYSIS report must satisfy."""
    problems = []
    if report.get("verification", {}).get("analytic_subset_of_brute_force") is not True:
        problems.append("analytic certificates are not a subset of brute force")
    if report.get("mood") not in (1, 2):
        problems.append(f"mood {report.get('mood')!r}")
    tol = 1e-9 * max(1.0, cfg.p_bs_max, cfg.p_j_max)
    for p in report.get("brute_force", []):
        vals = [p["p1"], p["p2"], p["p3"], p["p4"], p["p_j"]]
        if not all(math.isfinite(v) and v >= 0 for v in vals) or \
                p["p1"] + p["p2"] > cfg.p_bs_max + tol or \
                p["p3"] + p["p4"] > cfg.p_bs_max + tol or p["p_j"] > cfg.p_j_max + tol:
            problems.append(f"brute-force profile {vals} outside the budgets")
    return problems


def reference_name(unit_name: str, ext: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{unit_name}.{ext}")


def compare_records(unit_name: str, path) -> tuple[list[str], bool]:
    """Compare a CSV against its reference; also say whether it is byte-exact."""
    ref_path = reference_name(unit_name, "csv.gz")
    with gzip.open(ref_path, "rb") as fh:
        if digest(fh) == file_digest(path):
            return [], True
    with gzip.open(ref_path, "rt", newline="", encoding="utf-8") as rf, \
            open_csv(path) as gf:
        pairs = zip_longest(read_rows(rf), read_rows(gf))
        return _compare_rows(unit_name, pairs), False


def _compare_rows(unit_name: str, pairs) -> list[str]:
    for k, (a, b) in enumerate(pairs):
        if a is None or b is None:
            return [f"{unit_name}: row count differs from the reference at row {k}"]
        for col in HEADER:
            same = a[col] == b[col] if col in EXACT_COLUMNS else _close(a[col], b[col], REL_TOL)
            if not same:
                return [f"{unit_name} row {k}: {col} = {b[col]!r}, reference {a[col]!r}"]
    return []


def report_key(report: dict) -> dict:
    """The parts of an NE report that must match the reference exactly."""
    return {
        "mood": report["mood"],
        "ps_pairs": [list(p) for p in report["ps_pairs"]],
        "brute_force": sorted(
            [p["p1"], p["p2"], p["p3"], p["p4"]] for p in report["brute_force"]),
        "certificates": {
            cls: sorted([c["a1_index"], c["a2_index"]] for c in report[cls])
            for cls in ("ne_l1", "ne_l2", "ne_l3")
        },
    }


def compare_report(unit_name: str, report: dict) -> list[str]:
    with open(reference_name(unit_name, "json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if report_key(report) == ref:
        return []
    return [f"{unit_name}: NE report differs from the reference"]
