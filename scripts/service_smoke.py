#!/usr/bin/env python
"""Smoke-test the multi-tenant verifier service end to end.

Four independent gates, any of which fails CI:

1. **Admission determinism** -- the same service spec and request
   schedule, served twice from scratch, must produce byte-identical
   request records, including every duty-budget rejection.  Admission
   is a pure function of the schedule's virtual arrival times; no host
   clock may leak into an accept/reject decision.
2. **Shard equivalence** -- the consistent-hash ring decides only
   *where* a session runs, never *what* it answers.  Serving the same
   schedule on services built with different backend counts must yield
   identical placement-free records, per-device freshness state and
   merged telemetry.
3. **Restore-continue** -- kill the service mid-load (snapshot after
   the first waves, JSON round trip, restore into a fresh build),
   continue with the remaining waves: records for the continuation,
   freshness and merged telemetry must match an uninterrupted run.
4. **Checked-in benchmark** -- ``BENCH_service.json`` at the repo root
   must be a valid ``repro.perf.bench/v1`` envelope, with the >= 1000-session
   concurrency gate passed and the serviced/sequential equivalence
   check recorded as identical.

Exit status: 0 on success, 1 with diagnostics on any failure.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--size N]
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def service_view(service) -> dict:
    return {
        "freshness": service.freshness_fingerprint(),
        "registry": json.dumps(service.merged_registry().dump(),
                               sort_keys=True),
        "admitted": service.admitted,
        "rejected": service.rejected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=16,
                        help="fleet size for the equivalence gates")
    parser.add_argument("--waves", type=int, default=4,
                        help="request waves per schedule")
    args = parser.parse_args(argv)

    try:
        from repro.services.attestd import (AttestationService,
                                            build_schedule)
        from repro.perf import bench
    except Exception as exc:  # pragma: no cover - import-time breakage
        print(f"service-smoke: FAIL: cannot import repro: {exc}",
              file=sys.stderr)
        return 1

    failures = []

    def build(backends=3, seed="service-smoke"):
        # Duty budget tuned so the later waves overdraw it: both
        # admission outcomes must occur or the gates prove nothing.
        return AttestationService(args.size, tenants=3, backends=backends,
                                  duty_fraction=0.001, burst_seconds=30.0,
                                  observe=True, seed=seed)

    schedule = build_schedule(args.size, waves=args.waves,
                              spacing_seconds=30.0,
                              seed="service-smoke:schedule")

    # Gate 1: admission determinism across fresh builds.
    first = build()
    second = build()
    records_one = [r.fingerprint() for r in first.serve_schedule(schedule)]
    records_two = [r.fingerprint() for r in second.serve_schedule(schedule)]
    if records_one != records_two:
        failures.append("admission: identical spec+schedule produced "
                        "different request records")
    if first.rejected == 0:
        failures.append("admission: no rejections occurred; the duty "
                        "budget never bound and the gate proves nothing")
    if service_view(first) != service_view(second):
        failures.append("admission: freshness/telemetry diverge between "
                        "identical runs")

    # Gate 2: backend count must not change any answer.
    sharded = build(backends=7)
    records_sharded = [r.fingerprint()
                       for r in sharded.serve_schedule(schedule)]
    if records_sharded != records_one:
        failures.append("sharding: records differ between 3 and 7 "
                        "backends; placement leaked into verdicts")
    if service_view(sharded) != service_view(first):
        failures.append("sharding: freshness/telemetry differ between "
                        "3 and 7 backends")

    # Gate 3: kill mid-load, restore, continue == uninterrupted.
    split = max(1, args.waves // 2)
    head = [r for r in schedule if r.arrival_seconds < split * 30.0]
    tail = [r for r in schedule if r.arrival_seconds >= split * 30.0]
    interrupted = build()
    interrupted.serve_schedule(head)
    document = json.loads(json.dumps(interrupted.snapshot()))
    resumed = build()
    resumed.restore(document)
    resumed_records = [r.fingerprint()
                       for r in resumed.serve_schedule(tail)]
    expected_tail = records_one[len(head):]
    if resumed_records != expected_tail:
        failures.append("restore: continuation records differ from the "
                        "uninterrupted run")
    if service_view(resumed) != service_view(first):
        failures.append("restore: freshness/telemetry diverge from the "
                        "uninterrupted run")

    # Gate 4: the checked-in benchmark artefact is schema-valid and
    # its own gates passed when it was generated.
    bench_path = REPO_ROOT / "BENCH_service.json"
    try:
        report = json.loads(bench_path.read_text())
    except OSError as exc:
        failures.append(f"bench: cannot read {bench_path}: {exc}")
    else:
        errors = bench.validate(report)
        for error in errors:
            failures.append(f"bench: schema violation: {error}")
        if not errors:
            failures += [f"bench: checked-in report records {problem}"
                         for problem in bench.failures(report)]

    if failures:
        for failure in failures:
            print(f"service-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"service-smoke: OK (deterministic admission with "
          f"{first.rejected} rejections at size {args.size}, shard "
          f"count invisible, restore-continue exact, BENCH_service.json "
          f"schema-valid)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
