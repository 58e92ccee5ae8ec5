#!/usr/bin/env python
"""Smoke-test the fleet-scale attestation engine end to end.

Three independent gates, any of which fails CI:

1. **Parallel == sequential** -- a fault-injected fleet (lossy jittery
   links, retries with backoff and jitter, telemetry on) swept by a
   sharded :class:`repro.perf.fleet.FleetEngine` must agree byte for
   byte with the sequential seed path: every ``SweepReport``, the final
   circuit-breaker states, total accepted attestations, the merged
   metrics registry dump and the merged event trace.
2. **Cache-hit spin-up** -- spinning a fleet up with one shared
   :class:`repro.mcu.statecache.StateDigestCache` must measure exactly
   one member and serve the rest from the cache (``misses == 1``,
   ``hits == size - 1`` -- the O(unique_configs * measure + N * cheap)
   claim, checked as exact arithmetic), and must not be slower than the
   uncached spin-up by more than the tolerance.
3. **Report validity** -- a fleet report (measured in memory at a small
   size by default, or an existing ``BENCH_fleet.json``) must be a valid
   ``repro.perf.bench/v1`` envelope whose equivalence block -- the
   fault-injected check plus the timed sweeps' sequential/parallel
   reports -- is clean.  The >= 2x speedup gate is not judged here: it
   is declared at fleet 256, not at smoke size.

Exit status: 0 on success, 1 with diagnostics on any failure.

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py [--report PATH]
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="existing BENCH_fleet.json to validate "
                             "(default: generate a small report in a "
                             "scratch directory)")
    parser.add_argument("--size", type=int, default=6,
                        help="fleet size for the equivalence gate")
    parser.add_argument("--workers", type=int, default=2,
                        help="shard workers for the equivalence gate")
    parser.add_argument("--spinup-size", type=int, default=8,
                        help="fleet size for the cached spin-up gate")
    args = parser.parse_args(argv)

    try:
        from repro.mcu.device import DeviceConfig
        from repro.mcu.statecache import StateDigestCache
        from repro.perf import bench
        from repro.perf.fleet import (FleetSpec, default_equivalence_spec,
                                      equivalence_check)
    except ImportError as exc:
        print(f"fleet-smoke: cannot import repro ({exc}); "
              f"run with PYTHONPATH=src", file=sys.stderr)
        return 1

    failures = []

    # Gate 1: sharded parallel fleet == sequential seed path, under
    # faults, retries and telemetry.
    equivalence = equivalence_check(default_equivalence_spec(args.size),
                                    workers=args.workers, sweeps=2)
    if not equivalence["identical"]:
        failures.append(f"parallel/sequential divergence: "
                        f"{equivalence['mismatched_fields']}")

    # Gate 2: the shared digest cache turns spin-up into one measurement
    # plus N-1 cheap hits, and does not slow spin-up down.
    spinup_spec = FleetSpec(
        size=args.spinup_size,
        device_config=DeviceConfig(ram_size=512 * 1024,
                                   flash_size=512 * 1024,
                                   app_size=2 * 1024),
        seed="fleet-smoke-spinup")
    begin = time.perf_counter()
    spinup_spec.build()
    uncached_seconds = time.perf_counter() - begin
    cache = StateDigestCache()
    begin = time.perf_counter()
    spinup_spec.build(state_cache=cache)
    cached_seconds = time.perf_counter() - begin
    if cache.misses != 1 or cache.hits != args.spinup_size - 1:
        failures.append(
            f"cache spin-up arithmetic wrong: expected 1 miss / "
            f"{args.spinup_size - 1} hits, got {cache.misses} / "
            f"{cache.hits}")
    # Wall-clock is noisy on shared CI hosts; only catch a cache that
    # makes spin-up meaningfully *slower* than not having one.
    if cached_seconds > uncached_seconds * 1.2:
        failures.append(
            f"cached spin-up slower than uncached: {cached_seconds:.3f}s "
            f"vs {uncached_seconds:.3f}s")

    # Gate 3: the fleet report validates and records clean gates.
    report = None
    if args.report is not None:
        report_path = Path(args.report)
        if not report_path.is_file():
            failures.append(f"report missing: {report_path}")
        else:
            try:
                report = json.loads(report_path.read_text())
            except json.JSONDecodeError as exc:
                failures.append(f"report is not JSON: {exc}")
    else:
        print("fleet-smoke: measuring a small report", file=sys.stderr)
        report = bench.run("fleet", fleet_size=8, ram_kb=64, sweeps=1,
                           workers=2, equivalence_size=4)

    if report is not None:
        errors = bench.validate(report)
        failures += [f"report: {e}" for e in errors]
        if not errors and not report["equivalence"]["identical"]:
            failures.append(f"report records a broken parallel/sequential "
                            f"equivalence block: "
                            f"{report['equivalence']['mismatched_fields']}")

    if failures:
        for failure in failures:
            print(f"fleet-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"fleet-smoke: OK (parallel == sequential at size {args.size} "
          f"x {args.workers} workers, cache spin-up 1 miss + "
          f"{args.spinup_size - 1} hits, report valid)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
