"""Incremental attestation: dirty-region sweeps vs full walks.

The PR 5 fleet engine removed redundant *identical-history* walks; this
harness measures the case it cannot touch -- a fleet-wide OTA update
that leaves every member byte-identical but with a unique write history.
``repro.perf.incremental`` drives paired full-walk/incremental fleets
through update+sweep rounds and gates on three things:

* byte-identical sweep reports and simulated accounting between paths
  (checked inside every measured point *and* by the three-scenario
  equivalence block);
* the headline wall-clock gate: >= 3x sweep speedup at a >=256-member
  fleet with <= 10% of attested memory dirtied per round;
* a planted compromise is detected identically through a hot content
  cache.

Host seconds land in ``BENCH_incremental.json``, which only
``repro bench`` writes; the rendered ``results/`` table carries only
deterministic fields, exactly like the fleet-engine benchmark.
"""


from repro.core.analysis import render_table
from repro.perf import bench, incremental

from _report import run_once, write_report


def test_report_incremental_throughput(benchmark):
    """Runs the ``repro bench incremental`` declaration and gates the
    acceptance criteria: >= 3x sweep wall-clock at the median at fleet
    256 with <= 10% dirty, equivalence block clean."""
    run_once(benchmark, lambda: None)
    report = bench.run("incremental")
    assert not bench.failures(report), bench.failures(report)
    params, equivalence = report["params"], report["equivalence"]
    assert params["fleet_size"] >= 256

    # Deterministic summary: digest-tree work arithmetic is exact, so
    # the results/ table never carries host wall-clock numbers.  At
    # dirty fraction f the incremental fleet re-hashes 1 full member
    # image (the one content miss) plus per-member tree refreshes of
    # ceil(f * leaves) leaf chunks; the full-walk fleet re-hashes all N
    # member images.
    point = max((p for p in report["points"]
                 if p["dirty_fraction"] <= incremental.GATE_DIRTY_FRACTION),
                key=lambda p: p["dirty_fraction"])
    rows = [["quantity", "value"],
            ["fleet size", str(params["fleet_size"])],
            ["writable KB / member", str(params["writable_kb"])],
            ["chunk size (B) / arity",
             f"{params['chunk_size']} / {params['arity']}"],
            ["gate dirty fraction", f"{point['dirty_fraction']:.0%}"],
            ["dirty KB / member / round", str(point["dirty_kb"])],
            ["equivalence clean", str(equivalence["identical"])],
            ["compromise detected",
             str(equivalence["scenarios"]["compromised"]["detected"])],
            ["tree full builds (member 0)",
             str(point["tree"]["full_builds"])],
            ["tree leaf hashes (member 0)",
             str(point["tree"]["leaf_hashes"])]]
    table = render_table(rows, title="Incremental engine: dirty-region "
                                     "sweeps vs full walks")
    table += ("\n\nEvery update round leaves the fleet byte-identical "
              "via member-unique write orders, so the history-keyed "
              "cache misses for all members; the digest-tree content "
              "key recognises the shared state after one full "
              "measurement.  Wall-clock figures (the >=3x gate) live in "
              "BENCH_incremental.json, which varies by host.")
    write_report("incremental_engine", table)


def test_bench_incremental_point(benchmark):
    """One small paired point under pytest-benchmark accounting."""
    point = benchmark.pedantic(
        lambda: incremental.measure_point(4, 64, 0.25, sweeps=1),
        rounds=1, iterations=1)
    assert point["speedup"] > 0
