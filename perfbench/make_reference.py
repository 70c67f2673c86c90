#!/usr/bin/env python3
"""Regenerate the committed reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload's reference units (run.REFERENCE_SEEDS) untraced and
stores each learning unit's CSV (gzip) and each NE unit's report key (the
parts ``checks.compare_report`` compares).  Only regenerate when a change is
meant to alter nomajam's outputs, and say so where the change is recorded.
"""

import gzip
import json
import os
import sys

import run


def main() -> int:
    nomajam = run.import_nomajam()
    import checks

    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for workload in run.WORKLOADS:
        runner = run.Runner(nomajam, workload, run.DEFAULT_SEED)
        try:
            for unit in runner.reference_units():
                _, out_path = runner.execute(unit)
                with open(out_path, "rb") as fh:
                    data = fh.read()
                if unit.kind == "realizations":
                    report = json.loads(data)
                    problems = checks.check_report(report, unit.cfg)
                    path = checks.reference_name(unit.name, "json")
                    blob = (json.dumps(checks.report_key(report), indent=1) + "\n").encode()
                else:
                    problems = checks.check_records(out_path, unit.cfg)
                    path = checks.reference_name(unit.name, "csv.gz")
                    blob = gzip.compress(data, compresslevel=9, mtime=0)
                if problems:
                    print(f"{unit.name}: {problems[:3]}", file=sys.stderr)
                    return 1
                with open(path, "wb") as fh:
                    fh.write(blob)
                print(f"wrote {os.path.relpath(path, run.ROOT)}")
        finally:
            runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
