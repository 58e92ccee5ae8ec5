"""Verifier-service load benchmark (ROADMAP service tier).

Section 3.1's asymmetry at operational scale: one verifier host
multiplexes a whole fleet of simulated 24 MHz provers through
``repro.services.attestd``, so the interesting numbers are host-side --
how many sessions per second the service sustains, where the p99
request latency sits as offered load grows, and how many requests the
per-tenant duty-cycle budget turns away before any prover pays for
them.

Runs the ``repro bench service`` declaration, whose gates are the
acceptance criteria: a load point with >= 1000 sessions concurrently in
flight, and the serviced path byte-identical to the sequential library
path at ``workers=1``.  Host seconds live in ``BENCH_service.json``,
which only ``repro bench`` writes; the rendered ``results/`` table
carries only deterministic fields (admission arithmetic, verdict
counts).
"""

from repro.core.analysis import render_table
from repro.perf import bench

from _report import run_once, write_report


def test_report_service_load(benchmark):
    run_once(benchmark, lambda: None)
    report = bench.run("service")
    assert not bench.failures(report), bench.failures(report)

    # Deterministic summary: admission arithmetic replays exactly from
    # the seeds; wall-clock figures stay in the JSON artefact.
    rows = [["load point", "offered", "admitted", "rejected",
             "peak in flight"]]
    for label, point in zip(("paced", "overload", "burst"),
                            report["points"]):
        rows.append([label, str(point["offered"]), str(point["admitted"]),
                     str(point["rejected"]), str(point["peak_in_flight"])])
    table = render_table(rows, title="Admission control vs offered load "
                                     f"({report['params']['size']} "
                                     f"devices, "
                                     f"{report['params']['tenants']} "
                                     f"tenants)")
    table += ("\n\nThe duty-cycle budget is enforced before any prover "
              "cycle is spent: every rejected request above cost the "
              "verifier a token-bucket subtraction and the fleet "
              "nothing -- Section 3.1's defence, moved to the front "
              "door.")
    write_report("service_admission", table)
    overload = report["points"][1]
    assert overload["rejected"] > 0, (
        "overload point admitted everything; duty budget not binding")
