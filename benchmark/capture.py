"""Rewrite the golden outputs from the current sources.

    python3 benchmark/capture.py

Runs each workload once at the default seed and copies the files the gate
compares (report.json and atlas.json per scenario, convergence.csv) into
benchmark/golden/<workload>/.  Only do this when a change of verdicts or
check names is intended and stated; the gate exists to catch the others.
"""

import os
import shutil
import sys
import tempfile
import time

import run

KEEP = ("report.json", "atlas.json", "convergence.csv")


def main() -> int:
    runs_dir = os.path.join(run.ROOT, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    for workload in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=runs_dir) as work:
            plan = run.write_plan(workload, run.DEFAULT_SEED, work)
            sample = run.launch(plan, work, "capture", time.monotonic() + 600)
            dest = os.path.join(run.golden.GOLDEN_DIR, workload)
            shutil.rmtree(dest, ignore_errors=True)
            for dirpath, _, files in os.walk(sample["out"]):
                for name in files:
                    if name in KEEP:
                        rel = os.path.relpath(os.path.join(dirpath, name), sample["out"])
                        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
                        shutil.copyfile(os.path.join(dirpath, name), os.path.join(dest, rel))
            print(f"captured {workload} into {os.path.relpath(dest, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
