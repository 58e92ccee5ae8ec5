"""Delta checkpoints: chained dirty-chunk captures vs full snapshots.

The PR 7 incremental engine made *sweeps* O(dirty); checkpointing a
fleet under an OTA campaign still re-serialized every member's whole
writable memory per save.  ``repro.perf.snapshot`` drives a sharded
:class:`~repro.perf.fleet.FleetEngine` through update+sweep+checkpoint
rounds, capturing each round twice -- a full snapshot and a delta
against the previous checkpoint -- and gates on three things:

* every measured delta chain folds back byte-identical to the full
  snapshot of the same instant (checked inside every point *and* by
  the restore-and-continue equivalence block);
* the headline gate: >= 3x capture wall-clock and >= 10x bytes written
  at a >= 256-member fleet with <= 10% of attested memory dirtied per
  round of fleet-shared content;
* an honest worst case: the member-unique-content point, where
  content-addressing dedups nothing across the fleet, is reported
  un-gated rather than hidden.

Host seconds land in ``BENCH_snapshot.json``, which only
``repro bench`` writes; the rendered ``results/`` table carries only
deterministic fields, exactly like the incremental benchmark.
"""


from repro.core.analysis import render_table
from repro.perf import bench
from repro.perf import snapshot as perf_snapshot

from _report import run_once, write_report


def test_report_snapshot_throughput(benchmark):
    """Runs the ``repro bench snapshot`` declaration and gates the
    acceptance criteria: >= 3x capture wall-clock at the median and
    >= 10x bytes written at fleet 256 with <= 10% dirty, every chain
    byte-identical, equivalence block clean."""
    run_once(benchmark, lambda: None)
    report = bench.run("snapshot")
    assert not bench.failures(report), bench.failures(report)
    params, points = report["params"], report["points"]
    assert params["fleet_size"] >= 256
    gate_fraction = max(point["dirty_fraction"] for point in points
                        if point["shared_content"] and point["dirty_fraction"]
                        <= perf_snapshot.GATE_DIRTY_FRACTION)

    # Deterministic summary: chain identity and the point grid are
    # exact; wall-clock and byte ratios vary by host and live only in
    # BENCH_snapshot.json.
    rows = [["quantity", "value"],
            ["fleet size", str(params["fleet_size"])],
            ["RAM KB / member", str(params["ram_kb"])],
            ["shard workers", str(params["workers"])],
            ["chunk size (B)", str(params["chunk_size"])],
            ["timed rounds / point", str(params["rounds"])],
            ["gate dirty fraction", f"{gate_fraction:.0%}"],
            ["points measured", str(len(points))],
            ["chains byte-identical",
             str(all(p["chain_identical"] for p in points))],
            ["restore equivalence clean",
             str(report["equivalence"]["identical"])]]
    table = render_table(rows, title="Delta checkpoints: dirty-chunk "
                                     "chains vs full snapshots")
    table += ("\n\nEach point captures the fleet twice per round -- a "
              "full snapshot and a delta against the previous "
              "checkpoint -- and refuses to report unless folding the "
              "delta chain reproduces the full document byte for "
              "byte.  The member-unique-content point is the honest "
              "floor: no cross-member dedup, only dirty-chunk "
              "selection.  Wall-clock figures (the >=3x / >=10x "
              "gates) live in BENCH_snapshot.json, which varies by "
              "host.")
    write_report("snapshot_engine", table)


def test_bench_snapshot_point(benchmark):
    """One small paired point under pytest-benchmark accounting."""
    point = benchmark.pedantic(
        lambda: perf_snapshot.measure_point(4, 16, 0.25, rounds=1,
                                            workers=2),
        rounds=1, iterations=1)
    assert point["chain_identical"]
    assert point["speedup"] > 0
