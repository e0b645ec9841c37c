"""One workload process: import slaglab, parse the scenarios, run, write reports.

    python3 benchmark/child.py PLAN.json [--trace TRACE.json]

Started by run.py in a fresh interpreter for every repetition, with
PYTHONPATH=src and BLAS pinned to one thread.  The plan names the scenario
files, the output directory and the kind of run: "run" (`slag run`, without
the per-check console lines), "converge" (`slag converge --levels ...`) or
"probe" (stop after set-up).  The child writes ``child.json`` into the output
directory: the time.monotonic() instant at which set-up ended (a system-wide
clock on Linux, so run.py can subtract its launch instant) and the tolerances
the golden gate needs.  Exit code 0 means the workload ran; whether its
checks passed is judged by run.py from the written reports.
"""

import json
import os
import sys
import time


def _main(argv) -> int:
    plan_path = argv[0]
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    tracer = root = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        root = tracer.begin("workload")
        tracer.span("setup.import", __import__, "slaglab.cli")
    import slaglab.cli  # noqa: F401  (what `slag` imports before it parses a file)
    from slaglab import runner

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(slaglab.cli.__file__).startswith(src + os.sep):
        print(f"slaglab imported from {slaglab.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if tracer:
        tracer.install()

    scenarios = [runner.load_scenario(p) for p in plan["scenarios"]]
    setup_end = time.monotonic()

    out = plan["out"]
    os.makedirs(out, exist_ok=True)
    if plan["kind"] == "converge":
        table = runner.convergence_study(scenarios[0], plan["levels"])
        runner.emit_convergence(table, out)
    elif plan["kind"] == "run":
        for path, scenario in zip(plan["scenarios"], scenarios):
            report = runner.run(scenario)
            stem = os.path.splitext(os.path.basename(path))[0]
            runner.emit(report, os.path.join(out, stem))

    record = {
        "setup_end": setup_end,
        "tolerances": runner.DEFAULT_TOLERANCES,
    }
    with open(os.path.join(out, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    if tracer:
        tracer.end(root)
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
