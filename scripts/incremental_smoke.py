#!/usr/bin/env python
"""Smoke-test the incremental attestation engine end to end.

Four independent gates, any of which fails CI:

1. **Incremental == full walk** -- the three-scenario
   :func:`repro.perf.incremental.equivalence_check` (honest OTA rounds,
   lossy faulted links with retries and telemetry, planted compromise)
   must report byte-identical sweep reports, circuit-breaker states,
   attestation counts, simulated cycles, energy and registry dumps
   between the incremental and full-walk fleets.
2. **Content-cache arithmetic** -- one OTA round across an N-member
   incremental fleet must cost exactly one full measurement: the shared
   digest cache must record exactly ``N + 3`` misses and ``4N - 2``
   hits over spin-up, a settle sweep, the update sweep and a steady
   sweep (checked as exact arithmetic, not wall-clock).
3. **Dirty-region work ratio** -- the hashed-byte arithmetic of the
   update sweep (one full member image for the content miss plus the
   per-member dirty-leaf refreshes, counted from the digest-tree
   counters) must be at least 3x smaller than the full-walk fleet's
   ``N * image`` at a 10% dirty fraction.  Deterministic; the real
   wall-clock >= 3x gate lives in ``BENCH_incremental.json``.
4. **Report validity** -- the checked-in ``BENCH_incremental.json``
   must be a valid ``repro.perf.bench/v1`` envelope and record a
   passing speedup gate and a clean equivalence block.

Exit status: 0 on success, 1 with diagnostics on any failure.

Usage::

    PYTHONPATH=src python scripts/incremental_smoke.py [--report PATH]
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", metavar="PATH",
                        default=str(REPO_ROOT / "BENCH_incremental.json"),
                        help="BENCH_incremental.json to validate "
                             "(default: the checked-in artefact)")
    parser.add_argument("--size", type=int, default=8,
                        help="fleet size for the equivalence and "
                             "arithmetic gates")
    parser.add_argument("--dirty", type=float, default=0.10,
                        help="dirty fraction for the work-ratio gate")
    args = parser.parse_args(argv)

    try:
        from repro.perf import bench
        from repro.perf.incremental import (apply_update, build_swarm,
                                            equivalence_check, learn_update)
    except ImportError as exc:
        print(f"incremental-smoke: cannot import repro ({exc}); "
              f"run with PYTHONPATH=src", file=sys.stderr)
        return 1

    failures = []
    size = args.size

    # Gate 1: incremental == full walk across honest, faulted and
    # planted-compromise fleets (the compromise must be detected through
    # a hot content cache in both).
    equivalence = equivalence_check(size=size)
    if not equivalence["identical"]:
        failures.append(f"incremental/full divergence: {equivalence}")
    if not equivalence["scenarios"]["compromised"].get("detected"):
        failures.append("planted compromise not detected identically "
                        "through the hot content cache")

    # Gates 2+3 share one fleet: spin-up, settle sweep, one OTA round,
    # one steady sweep.
    swarm = build_swarm(size, 64, incremental=True, seed="incr-smoke")
    swarm.sweep()  # settle: every member hits its history key
    trees = [(region, region.digest_tree)
             for member in swarm.members
             for region in member.session.device.memory.writable_regions()
             if region.digest_tree is not None]
    # Force-build every tree so the refresh counters below measure the
    # update round alone (member 0's trees were built at spin-up; the
    # others' first content probe would otherwise be a full build).
    for region, tree in trees:
        tree.root(region._data)
    leaf_hashes_before = sum(tree.leaf_hashes for _, tree in trees)
    apply_update(swarm, 0, args.dirty)
    learn_update(swarm)
    swarm.sweep()  # the OTA round: 1 content miss, N-1 content hits
    leaf_delta = sum(tree.leaf_hashes for _, tree in trees) \
        - leaf_hashes_before
    swarm.sweep()  # steady state: back to history-key hits
    stats = swarm.state_cache.stats()

    # Gate 2: exact cache arithmetic.  Spin-up: member 0 misses both
    # keys (2), members 1..N-1 hit the history key (N-1 hits -- their
    # write histories are identical).  Settle sweep: N history hits.
    # OTA sweep: every history key misses (N), member 0's content key
    # misses (1) and pays the only full walk, N-1 content hits.  Steady
    # sweep: N history hits (content hits re-store the history key).
    expected_misses = size + 3
    expected_hits = 4 * size - 2
    if (stats["misses"], stats["hits"]) != (expected_misses,
                                            expected_hits):
        failures.append(
            f"content-cache arithmetic wrong: expected "
            f"{expected_misses} misses / {expected_hits} hits, got "
            f"{stats['misses']} / {stats['hits']}")

    # Gate 3: hashed-byte work ratio of the OTA sweep.  The full-walk
    # fleet re-hashes N member images; the incremental fleet hashes one
    # image (the content miss) plus the dirty-leaf refreshes actually
    # counted by the trees (chunk_size per leaf is an upper bound --
    # tail leaves are shorter, so the ratio below is conservative).
    device = swarm.members[0].session.device
    image_bytes = sum(end - start for start, end in device.attested_spans())
    chunk_size = trees[0][1].chunk_size
    full_bytes = size * image_bytes
    incremental_bytes = image_bytes + leaf_delta * chunk_size
    ratio = full_bytes / incremental_bytes
    if ratio < 3.0:
        failures.append(
            f"dirty-region work ratio {ratio:.2f}x below 3x at "
            f"{args.dirty:.0%} dirty: {full_bytes} vs "
            f"{incremental_bytes} hashed bytes")

    # Gate 4: the checked-in report validates and records passing gates.
    report_path = Path(args.report)
    if not report_path.is_file():
        failures.append(f"report missing: {report_path}")
    else:
        try:
            report = json.loads(report_path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"report is not JSON: {exc}")
        else:
            errors = bench.validate(report)
            failures += [f"report: {e}" for e in errors]
            if not errors:
                failures += [f"report records {problem}"
                             for problem in bench.failures(report)]

    if failures:
        for failure in failures:
            print(f"incremental-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"incremental-smoke: OK (incremental == full at size {size}, "
          f"compromise detected, OTA round = 1 content miss + "
          f"{size - 1} hits, work ratio {ratio:.1f}x, report valid)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
