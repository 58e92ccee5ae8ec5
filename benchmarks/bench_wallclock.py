"""Host wall-clock trajectory of the measurement engine.

Unlike every other benchmark in this directory, the numbers measured
here are *host* seconds, not simulated milliseconds: the paper's 754 ms
for a 512 KB measurement (Table 1 / Section 3.1) comes from the
cycle-cost model and is asserted elsewhere.  The run is the same
``repro.perf.bench`` declaration ``repro bench wallclock`` uses, whose
gates are:

* >= 3x host speedup of the default engine over the naive reference on
  the 512 KB measurement, at the median;
* a clean naive/accel equivalence block (identical digests, response
  MACs, consumed cycles, stats, telemetry).

Host seconds live in ``BENCH_wallclock.json``, which only
``repro bench`` writes; ``results/wallclock_trajectory.txt`` renders
the deterministic fields only (sizes, engines, digests, equivalence).
"""

from repro.core.analysis import render_table
from repro.perf import bench

from _report import run_once, write_report

#: The paper's headline measurement size (512 KB RAM, Section 3.1).
HEADLINE_KB = 512


def test_report_wallclock_trajectory(benchmark):
    run_once(benchmark, lambda: None)
    report = bench.run("wallclock", naive_kb=HEADLINE_KB)
    assert not bench.failures(report), bench.failures(report)

    measured = report["points"][:-1]     # the last point is the HMAC cache
    naive = measured[-1]
    fast = next(point for point in measured
                if point["ram_kb"] == HEADLINE_KB and point is not naive)
    rows = [["ram (KB)", "writable (KB)", "engine", "digest"]]
    for point in measured:
        rows.append([str(point["ram_kb"]), str(point["writable_kb"]),
                     point["engine"], point["digest"][:16]])
    rows.append(["", "", "", ""])
    rows.append([f"digest @{HEADLINE_KB}KB", "",
                 f"{fast['engine']} vs {naive['engine']}",
                 "identical" if fast["digest"] == naive["digest"]
                 else "DIVERGED"])
    rows.append(["naive/accel equivalence", "", "",
                 "clean" if report["equivalence"]["identical"]
                 else "BROKEN"])
    table = render_table(rows, title="Host wall-clock trajectory: engines "
                                     "and digests (NOT simulated time)")
    table += ("\n\nHost seconds, MB/s and the >=3x speedup gate live in "
              "BENCH_wallclock.json (repro bench wallclock), which varies "
              "by host.")
    write_report("wallclock_trajectory", table)
