"""Self-test of the benchmark: the verdict gate and the metric contract.

    python3 -m pytest benchmark/tests -q

The last test runs the benchmark on its shortest workload, about 30 s.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import golden  # noqa: E402

TOLERANCES = {"duality_error": 2e-2, "b_vs_l2": 5e-2}


def _copy_golden(tmp_path, workload):
    dest = tmp_path / workload
    shutil.copytree(os.path.join(golden.GOLDEN_DIR, workload), dest)
    return dest


def test_unchanged_outputs_pass_the_gate(tmp_path):
    for workload in ("scenarios-l1", "topology-refine", "converge-l124"):
        result = golden.compare(_copy_golden(tmp_path, workload), workload, TOLERANCES)
        assert result["attempted"] > 0
        assert result["failed"] == 0
        assert result["diffs"] == []
        assert result["files_byte_equal"] == result["files_compared"] > 0


def test_gate_flags_flipped_and_missing_checks(tmp_path):
    out = _copy_golden(tmp_path, "scenarios-l1")
    path = out / "two_handle" / "report.json"
    report = json.loads(path.read_text())
    flipped, dropped = report["checks"][0]["name"], report["checks"][1]["name"]
    report["checks"][0]["passed"] = False
    del report["checks"][1]
    path.write_text(json.dumps(report))

    result = golden.compare(out, "scenarios-l1", TOLERANCES)
    assert f"flipped two_handle/{flipped}: True -> False" in result["diffs"]
    assert f"missing two_handle/{dropped}" in result["diffs"]
    assert len(result["diffs"]) == 2
    assert result["failed"] == 1
    assert result["files_byte_equal"] == result["files_compared"] - 1


def test_gate_flags_a_convergence_order_below_one(tmp_path):
    out = _copy_golden(tmp_path, "converge-l124")
    path = out / "convergence.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    order = lines[-1].split(",")
    order[header.index("star_involution")] = "0.5"
    path.write_text("\n".join(lines[:-1] + [",".join(order)]) + "\n")

    result = golden.compare(out, "converge-l124", TOLERANCES)
    assert result["diffs"] == ["flipped star_involution/order: True -> False"]


def test_gate_flags_a_missing_report(tmp_path):
    out = _copy_golden(tmp_path, "topology-refine")
    shutil.rmtree(out / "two_handle_l4")
    result = golden.compare(out, "topology-refine", TOLERANCES)
    assert result["diffs"] and all(d.startswith("missing two_handle_l4/")
                                   for d in result["diffs"])


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "converge-l124", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_its_unit(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _bench("--workload", "converge-l124", "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)} ", proc.stdout, re.M)
