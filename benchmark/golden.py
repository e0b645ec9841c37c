"""Verdict gate: compare a workload's written reports with the golden outputs.

The golden files under ``golden/<workload>/`` are the reports the seed commit
wrote at the default seed, laid out as the workload writes them.  The gate is
on check names and verdicts: a check that is missing, extra or flipped is a
verdict diff.  Byte equality of each golden file and the largest
|delta residual| / tolerance are reported as diagnostics only, because an
optimisation may move residuals at ulp level (and another seed moves the
random-path residuals) without changing a verdict.

A convergence table has no verdicts of its own, so each quantity gets two:
its fitted order is >= 1 (or inf, when every level sits at machine
precision), and its finest-level residual is within its DEFAULT_TOLERANCES
entry.  A quantity without a tolerance entry (star_involution) gets only the
order check, as in acceptance criterion 2.
"""

from __future__ import annotations

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def read_convergence(path) -> dict:
    """{quantity: (residuals by level, order)} from a convergence.csv."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    names = rows[0][2:]
    levels = [r for r in rows[1:] if r[0] != "order"]
    order = next(r for r in rows[1:] if r[0] == "order")
    return {
        nm: ([float(r[2 + i]) for r in levels], float(order[2 + i]))
        for i, nm in enumerate(names)
    }


def convergence_checks(table: dict, tolerances: dict) -> dict:
    """{check name: (passed, residual, tolerance)}; tolerance None for order checks."""
    checks = {}
    for nm, (residuals, order) in sorted(table.items()):
        checks[f"{nm}/order"] = (order >= 1.0, order, None)  # inf passes
        if nm in tolerances:
            tol = float(tolerances[nm])
            checks[f"{nm}/finest_residual"] = (residuals[-1] <= tol, residuals[-1], tol)
    return checks


def report_checks(root) -> dict:
    """{"<scenario dir>/<check>": (passed, residual, tolerance)} over */report.json."""
    checks = {}
    for sub in sorted(os.listdir(root)):
        path = os.path.join(root, sub, "report.json")
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for c in data["checks"]:
            checks[f"{sub}/{c['name']}"] = (bool(c["passed"]), c["residual"], c["tolerance"])
    return checks


def collect_checks(root, tolerances: dict) -> dict:
    conv = os.path.join(root, "convergence.csv")
    if os.path.isfile(conv):
        return convergence_checks(read_convergence(conv), tolerances)
    return report_checks(root)


def verdict_diffs(golden: dict, actual: dict) -> list:
    """Checks whose name or verdict differs: missing, extra or flipped."""
    diffs = [f"missing {nm}" for nm in sorted(set(golden) - set(actual))]
    diffs += [f"extra {nm}" for nm in sorted(set(actual) - set(golden))]
    diffs += [
        f"flipped {nm}: {golden[nm][0]} -> {actual[nm][0]}"
        for nm in sorted(set(golden) & set(actual))
        if golden[nm][0] != actual[nm][0]
    ]
    return diffs


def _golden_files(golden_root):
    for dirpath, _, files in os.walk(golden_root):
        for f in sorted(files):
            yield os.path.relpath(os.path.join(dirpath, f), golden_root)


def compare(out_dir, workload: str, tolerances: dict) -> dict:
    """Gate and diagnostics for one repetition's output directory."""
    golden_root = os.path.join(GOLDEN_DIR, workload)
    golden = collect_checks(golden_root, tolerances)
    actual = collect_checks(out_dir, tolerances)
    files = list(_golden_files(golden_root))
    equal = 0
    for rel in files:
        got = os.path.join(out_dir, rel)
        if os.path.isfile(got):
            with open(got, "rb") as a, open(os.path.join(golden_root, rel), "rb") as b:
                equal += a.read() == b.read()
    drift = 0.0
    for nm in set(golden) & set(actual):
        tol = golden[nm][2]
        if tol:
            drift = max(drift, abs(actual[nm][1] - golden[nm][1]) / tol)
    return {
        "attempted": len(actual),
        "failed": sum(not passed for passed, _, _ in actual.values()),
        "diffs": verdict_diffs(golden, actual),
        "files_compared": len(files),
        "files_byte_equal": equal,
        "max_delta_over_tol": drift,
    }
