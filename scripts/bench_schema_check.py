#!/usr/bin/env python
"""Validate every checked-in ``BENCH_*.json`` artefact in one pass.

Every report is a ``repro.perf.bench/v1`` envelope written by
``repro bench``; :func:`repro.perf.bench.validate` is its one
validator.  A file fails when it is unreadable, is not JSON, names any
other schema, or violates the envelope.

Exit status: 0 on success, 1 with per-file diagnostics.

Usage::

    PYTHONPATH=src python scripts/bench_schema_check.py [files ...]
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*",
                        help="artefacts to check (default: every "
                             "BENCH_*.json at the repository root)")
    args = parser.parse_args(argv)
    from repro.perf import bench

    paths = ([Path(name) for name in args.files] if args.files
             else sorted(REPO_ROOT.glob("BENCH_*.json")))
    if not paths:
        print("bench-schema-check: FAIL: no BENCH_*.json artefacts "
              "found", file=sys.stderr)
        return 1
    failures = []
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            failures.append(f"{path.name}: unreadable: {exc}")
            continue
        failures += [f"{path.name}: {error}"
                     for error in bench.validate(payload)]
    if failures:
        for failure in failures:
            print(f"bench-schema-check: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"bench-schema-check: OK ({len(paths)} artefact(s) validated: "
          f"{', '.join(path.name for path in paths)})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
