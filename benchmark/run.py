"""slaglab benchmark: end-to-end timings of serial workloads, or a traced run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/slaglab``.  Each repetition
is a fresh interpreter (benchmark/child.py) with PYTHONPATH=src and BLAS
pinned to one thread, as a user runs `slag run --jobs 1` or `slag converge`.
The seed goes into the ``seed`` field of every generated scenario.

--trace 0 runs at least two whole repetitions, and more while they fit in S
seconds, with a set-up probe before, between and after them.  It reports the
median ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  --trace 1 alternates
traced and untraced repetitions in the same way and reports the median
per-layer metrics of the traced ones plus the tracing overhead.  Every
repetition's reports go through the golden verdict gate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, samples, gate diagnostics) goes to ``.bench_runs/`` in the
checkout.  Without ``src/slaglab`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import golden  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 20240817  # the shipped scenarios' own seed; the golden files use it
MIN_REPS = 2  # a median of one long repetition is too much at the mercy of the machine
CHILD_LIMIT_S = 170.0  # the whole run must end within 180 s
BLAS_THREADS = "1"

SHIPPED = ("cylinder_translation", "cylinder_almost_cy", "two_handle")

# Why each workload exists is recorded in benchmark/README.md.
WORKLOADS = {
    "scenarios-l1": {"kind": "run"},
    "topology-refine": {"kind": "run"},
    "converge-l124": {"kind": "converge", "levels": [1, 2, 4]},
}


def _shipped(name: str) -> dict:
    # Copies of scenarios/*.json, frozen so that the inputs change only with
    # the benchmark.
    with open(os.path.join(BENCH_DIR, "inputs", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scenario_dicts(workload: str, seed: int) -> dict:
    """{file stem: scenario dict} for the workload, each carrying the seed."""
    if workload == "scenarios-l1":
        specs = {name: _shipped(name) for name in SHIPPED}
    elif workload == "topology-refine":
        specs = {}
        for name in ("two_handle", "cylinder_translation"):
            for level in (1, 2, 4):
                spec = _shipped(name)
                spec["name"] = f"{name}-topology-l{level}"
                spec["fixture"] = dict(spec["fixture"], level=level)
                spec["suites"] = ["topology"]
                specs[f"{name}_l{level}"] = spec
    else:
        specs = {"cylinder_translation": _shipped("cylinder_translation")}
    for spec in specs.values():
        spec["seed"] = seed
    return specs


def write_plan(workload: str, seed: int, work: str) -> dict:
    scen_dir = os.path.join(work, "scenarios")
    os.makedirs(scen_dir)
    files = []
    for stem, spec in scenario_dicts(workload, seed).items():
        path = os.path.join(scen_dir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
        files.append(path)
    return dict(WORKLOADS[workload], scenarios=files, src=os.path.join(ROOT, "src"))


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(plan: dict, work: str, tag: str, deadline: float, trace=False) -> dict:
    """Run one child to completion; returns its timings and output directory."""
    rep = os.path.join(work, tag)
    os.makedirs(rep)
    plan = dict(plan, out=os.path.join(rep, "out"))
    plan_path = os.path.join(rep, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), plan_path]
    trace_path = os.path.join(rep, "trace.json")
    if trace:
        cmd += ["--trace", trace_path]
    limit = deadline - time.monotonic()
    if limit <= 0:
        raise ChildFailed("no time left for another repetition")
    with open(os.path.join(rep, "child.log"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(rep, "child.log"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{tag} exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(plan["out"], "child.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    sample = {
        "wall_s": end - start,
        "setup_s": record["setup_end"] - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        "out": plan["out"],
        "tolerances": record["tolerances"],
    }
    if trace:
        with open(trace_path, encoding="utf-8") as fh:
            sample["layers"] = json.load(fh)["summary"]
        sample["trace_file"] = trace_path
    return sample


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    mem_kb = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = next((int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal")), None)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    git = {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=10)
            git = {"commit": commit.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": mem_kb / 1024.0 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git": git,
        "seed": seed,
    }


def measure(workload, seed, seconds, trace, work) -> dict:
    """All repetitions of one benchmark run, gated against the golden outputs."""
    t0 = time.monotonic()
    deadline = t0 + CHILD_LIMIT_S
    plan = write_plan(workload, seed, work)
    gate = {"attempted": 0, "failed": 0, "diffs": [], "reps": []}

    def gated(sample):
        result = golden.compare(sample["out"], workload, sample["tolerances"])
        gate["attempted"] += result["attempted"]
        gate["failed"] += result["failed"]
        gate["diffs"] += result.pop("diffs")
        gate["reps"].append(result)
        return sample

    def fits(walls, extra=0.0):
        return time.monotonic() - t0 + statistics.median(walls) + extra <= seconds

    setup, untraced, traced = [], [], []
    if not trace:
        # Set-up probes run before, between and after the repetitions, so that
        # their median spans the whole run rather than one moment of it.
        probe_plan = dict(plan, kind="probe")
        probe_walls = []

        def probe():
            sample = launch(probe_plan, work, f"probe{len(probe_walls)}", deadline)
            probe_walls.append(sample["wall_s"])
            setup.append(sample["setup_s"])

        probe()
        while len(untraced) < MIN_REPS or fits([s["wall_s"] for s in untraced],
                                               statistics.median(probe_walls)):
            untraced.append(gated(launch(plan, work, f"rep{len(untraced)}", deadline)))
            probe()
        setup += [s["setup_s"] for s in untraced]
    else:
        while len(traced) + len(untraced) < MIN_REPS or fits(
                [s["wall_s"] for s in traced + untraced]):
            if len(traced) <= len(untraced):
                traced.append(gated(launch(plan, work, f"traced{len(traced)}", deadline, True)))
            else:
                untraced.append(gated(launch(plan, work, f"rep{len(untraced)}", deadline)))
    return {"setup": setup, "untraced": untraced, "traced": traced, "gate": gate}


def summarize(trace, runs) -> tuple[dict, dict, dict]:
    """(metrics for the result line, sample count per metric, extra record fields)."""
    untraced, traced = runs["untraced"], runs["traced"]
    if not trace:
        samples = {
            "wall_s": [s["wall_s"] for s in untraced],
            "setup_s": runs["setup"],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": statistics.median(v), "unit": units[k]}
                   for k, v in samples.items()}
        counts = {k: len(v) for k, v in samples.items()}
        return metrics, counts, {"samples": samples}
    layers = [s["layers"] for s in traced]
    metrics = {}
    for name in layers[0]:
        unit = spans.unit_of(name)
        middle = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = {"value": middle(l[name] for l in layers), "unit": unit}
    traced_walls = [s["wall_s"] for s in traced]
    untraced_walls = [s["wall_s"] for s in untraced]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "unit": "s",
    }
    counts = dict.fromkeys(metrics, len(traced))
    count_names = [k for k, m in metrics.items() if m["unit"] == "count"]
    counts_repeat = all(l[k] == layers[0][k] for l in layers for k in count_names)
    return metrics, counts, {
        "traced_wall_s": traced_walls,
        "untraced_wall_s": untraced_walls,
        "counts_repeat": counts_repeat,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slaglab", "__init__.py")):
        print(f"no slaglab sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    runs_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    stem = os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        metrics, counts, extra = summarize(bool(args.trace), runs)
        if args.trace:
            shutil.copyfile(runs["traced"][-1]["trace_file"], stem + ".spans.json")
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gate = runs["gate"]
    attempted, failed = gate["attempted"], gate["failed"]
    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "check_fail_ratio": failed / attempted if attempted else 1.0,
        "verdict_diffs": len(gate["diffs"]),
        "verdict_diff_names": sorted(set(gate["diffs"])),
        "golden_diagnostics": gate["reps"],
        "metrics": metrics,
        "sample_counts": counts,
        **extra,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    correct = attempted > 0 and failed == 0 and not gate["diffs"] and extra.get(
        "counts_repeat", True)
    print("environment " + json.dumps(env, sort_keys=True))
    for rep in gate["reps"]:
        print("golden " + json.dumps(rep, sort_keys=True))
    print(f"check_fail_ratio {record['check_fail_ratio']:.6g} over {attempted} checks, "
          f"verdict_diffs {record['verdict_diffs']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} (median of {counts[name]})")
    print(f"record {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
