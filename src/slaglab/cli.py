"""Command line interface.

    slag run <scenario.json> [...] [--jobs K] [--out DIR] [--tol-scale X]
    slag converge <scenario.json> --levels 1,2,4 [--quadrature 9,17,33] [--out DIR]
    slag fixtures list

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error, 3 internal error: a suite raised an exception that is a defect of the
program, not a finding (its report holds a `<suite>/internal_error` entry).
Scenario files run independently; --jobs parallelizes across files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import math
import os
import sys

from .errors import ConfigError, SlagError
from .fixtures import FIXTURES
from .runner import (
    DEFAULT_TOLERANCES,
    convergence_study,
    emit,
    emit_convergence,
    load_scenario,
    quadrature_study,
    run,
)


def _run_one(path: str, out_dir, tol_scale: float) -> int:
    """Run one scenario file and return its exit code."""
    scenario = load_scenario(path)
    if tol_scale != 1.0:
        scenario.tolerances = {k: scenario.tol(k) * tol_scale for k in DEFAULT_TOLERANCES}
    report = run(scenario)
    for check in report.listed:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {check.name}: residual {check.residual:.3e} "
              f"(tol {check.tolerance:.3e})")
    print(f"scenario {scenario.name}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.checks)} checks, {report.elapsed_seconds:.1f}s)")
    out_dir = out_dir or scenario.out
    if out_dir:
        sub = os.path.join(out_dir, os.path.splitext(os.path.basename(path))[0])
        for written in emit(report, sub):
            print(f"wrote {written}")
    if any(check.name.endswith("/internal_error") for check in report.checks):
        return 3
    return 0 if report.passed else 1


def _integers(flag: str, text: str) -> list[int]:
    """The comma-separated integers of a command-line flag."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="slag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files")
    p_run.add_argument("files", nargs="+")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--tol-scale", type=float, default=1.0)

    p_conv = sub.add_parser("converge", help="refinement convergence study")
    p_conv.add_argument("file")
    p_conv.add_argument("--levels", default="1,2,4")
    p_conv.add_argument("--quadrature", default=None,
                        help="also study time-quadrature orders, e.g. 9,17,33")
    p_conv.add_argument("--out", default=None)

    p_fix = sub.add_parser("fixtures", help="fixture catalog")
    p_fix.add_argument("action", choices=["list"])

    args = parser.parse_args(argv)
    try:
        if args.command == "fixtures":
            for name in sorted(FIXTURES):
                print(name)
            return 0
        if args.command == "converge":
            levels = _integers("--levels", args.levels)
            if not levels or any(l < 1 for l in levels):
                raise ConfigError("--levels must be positive integers")
            counts = _integers("--quadrature", args.quadrature or "")
            if any(n < 3 for n in counts):
                raise ConfigError("--quadrature counts must be >= 3")
            scenario = load_scenario(args.file)
            tables = [convergence_study(scenario, levels)]
            if counts:
                tables.append(quadrature_study(scenario, counts))
            for table in tables:
                header = ["level", "h"] + table.quantity_names
                print(",".join(header))
                for row in table.rows:
                    print(",".join(
                        [str(row.level), f"{row.h:g}"]
                        + [f"{row.residuals[nm]:.6e}" for nm in table.quantity_names]
                    ))
                print("orders: " + ", ".join(
                    f"{nm}={table.orders[nm]:g}" for nm in table.quantity_names
                ))
            if args.out:
                names = ("convergence.csv", "quadrature.csv")
                for table, name in zip(tables, names):
                    for written in emit_convergence(table, args.out, name):
                        print(f"wrote {written}")
            return 0
        # run
        if not (math.isfinite(args.tol_scale) and args.tol_scale > 0):
            raise ConfigError(f"--tol-scale must be a positive finite number, got {args.tol_scale}")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
        if args.jobs > 1 and len(args.files) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_run_one, args.files, itertools.repeat(args.out),
                                        itertools.repeat(args.tol_scale)))
        else:
            results = [_run_one(f, args.out, args.tol_scale) for f in args.files]
        return max(results)  # an internal error (3) outranks a failed check (1)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
