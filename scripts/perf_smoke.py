#!/usr/bin/env python
"""Smoke-test the fast measurement engine end to end.

Three independent gates, any of which fails CI:

1. **Equivalence** -- a seeded protocol scenario run under the naive
   reference and the ``accel`` engine must agree byte for byte on
   response MACs, measurement digests, consumed cycles, prover stats and
   the telemetry registry dump.  A fast path that changes any of these
   is a correctness regression, however fast it is.
2. **Report validity** -- ``BENCH_wallclock.json`` (at the repo root;
   measured in memory at a small size if absent, unless
   ``--no-generate``) must be a valid ``repro.perf.bench/v1`` envelope.
3. **Report cleanliness** -- the report's recorded equivalence block
   (which includes the naive/accel digest agreement of its timed
   points) must be clean and its speedup gate must pass.

Exit status: 0 on success, 1 with diagnostics on any failure.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [--report PATH]
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", metavar="PATH",
                        default=str(REPO_ROOT / "BENCH_wallclock.json"),
                        help="wall-clock report to validate (default: "
                             "BENCH_wallclock.json at the repo root)")
    parser.add_argument("--ram-kb", type=int, default=16,
                        help="scenario size for the live equivalence check")
    parser.add_argument("--no-generate", action="store_true",
                        help="fail if the report is missing instead of "
                             "measuring a small one")
    args = parser.parse_args(argv)

    try:
        from repro.perf import bench
        from repro.perf.wallclock import equivalence_check
    except ImportError as exc:
        print(f"perf-smoke: cannot import repro ({exc}); "
              f"run with PYTHONPATH=src", file=sys.stderr)
        return 1

    failures = []

    # Gate 1: live equivalence on a small scenario.
    equivalence = equivalence_check(ram_kb=args.ram_kb)
    if not equivalence["identical"]:
        failures.append(f"naive/accel equivalence broken: "
                        f"{equivalence['mismatched_fields']}")

    # Gate 2: the report exists (or is measured small) and validates.
    report_path = Path(args.report)
    report = None
    if not report_path.is_file():
        if args.no_generate:
            failures.append(f"report missing: {report_path}")
        else:
            print(f"perf-smoke: {report_path} missing, measuring a "
                  f"small report", file=sys.stderr)
            report = bench.run("wallclock", sweep_kb=(16, 64), naive_kb=64,
                               equivalence_ram_kb=args.ram_kb)
    else:
        try:
            report = json.loads(report_path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"report is not JSON: {exc}")

    # Gate 3: the report's recorded gates and equivalence are clean.
    if report is not None:
        errors = bench.validate(report)
        failures += [f"report: {e}" for e in errors]
        if not errors:
            failures += [f"report records {problem}"
                         for problem in bench.failures(report)]

    if failures:
        for failure in failures:
            print(f"perf-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"perf-smoke: OK (equivalence clean at {args.ram_kb} KB, "
          f"report valid)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
