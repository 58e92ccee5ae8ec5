"""Future-work item 1 quantified: fleet-scale attestation operations.

Section 7 proposes trial-deploying the mechanisms "in the context of
connected devices, such as Internet of Things (IoT)".  This harness
measures what an operator cares about at fleet scale:

* per-sweep wall time and fleet energy as the fleet grows (the verifier
  is never the bottleneck -- the Section 3.1 asymmetry at scale);
* the cost of the monitoring *policy* (interval + retries) on each
  prover's duty cycle;
* detection latency: how many sweep intervals pass before a compromised
  node is flagged.
"""


from repro.core.analysis import render_table
from repro.core.resilience import RetryPolicy
from repro.mcu import DeviceConfig
from repro.perf import bench
from repro.services.monitor import AttestationMonitor, MonitorPolicy
from repro.services.swarm import Swarm

from _report import run_once, write_report


def fleet_config() -> DeviceConfig:
    return DeviceConfig(ram_size=8 * 1024, flash_size=16 * 1024,
                        app_size=2 * 1024)


def test_report_sweep_scaling(benchmark):
    run_once(benchmark, lambda: None)
    rows = [["fleet size", "attested", "fleet energy (mJ)",
             "energy / device (mJ)"]]
    for size in (1, 4, 8):
        fleet = Swarm(size, device_config=fleet_config(),
                      seed=f"bench-fleet-{size}")
        report = fleet.sweep()
        rows.append([str(size), f"{report.trusted}/{report.attempted}",
                     f"{report.fleet_energy_mj:.3f}",
                     f"{report.fleet_energy_mj / size:.3f}"])
    table = render_table(rows, title="Attestation sweep vs fleet size")
    table += ("\n\nPer-device cost is constant: fleet attestation "
              "parallelises trivially on the verifier side, while each "
              "prover pays the same Section 3.1 price -- the asymmetry "
              "that makes verifier-side flooding cheap is the same one "
              "that makes fleet sweeps scale.")
    write_report("fleet_sweep_scaling", table)


def test_report_monitoring_cost(benchmark):
    """Prover duty-cycle share of honest monitoring at several cadences."""
    run_once(benchmark, lambda: None)
    from repro.core import build_session

    rows = [["interval (s)", "rounds", "prover duty share (%)"]]
    for interval in (60.0, 300.0, 1800.0):
        session = build_session(device_config=fleet_config(),
                                seed=f"bench-mon-{interval}")
        session.learn_reference_state()
        monitor = AttestationMonitor(
            session, policy=MonitorPolicy(
                interval_seconds=interval,
                retry=RetryPolicy(attempt_timeout_seconds=5.0)))
        monitor.run(rounds=3)
        rows.append([f"{interval:.0f}", str(monitor.rounds_run),
                     f"{100 * monitor.duty_cost_fraction:.4f}"])
    table = render_table(rows, title="Monitoring cadence vs prover duty "
                                     "share (24 KB prover)")
    table += ("\n\nEven minute-cadence monitoring stays well under 0.1% "
              "of the prover's time -- honest attestation is affordable; "
              "only *unauthenticated* invocation is the threat.")
    write_report("fleet_monitoring_cost", table)


def test_report_detection_latency(benchmark):
    """Sweeps until a mid-deployment compromise is flagged."""
    run_once(benchmark, lambda: None)
    fleet = Swarm(3, device_config=fleet_config(), seed="bench-detect")
    healthy_sweeps = 2
    for _ in range(healthy_sweeps):
        assert fleet.sweep().healthy
    # Compromise one node between sweeps.
    fleet.members[1].session.device.flash.load(200, b"\xEB\xFE\x90")
    report = fleet.sweep()
    table = (f"sweeps before compromise: {healthy_sweeps} (all healthy)\n"
             f"first sweep after compromise: untrusted="
             f"{report.untrusted}\n"
             f"detection latency: exactly one sweep interval -- state "
             f"attestation flags the modified image immediately, because "
             f"the digest covers all attested memory.")
    write_report("fleet_detection_latency", table)
    assert report.untrusted == ["device-001"]


def test_report_fleet_throughput(benchmark):
    """Sharded parallel sweep throughput vs the sequential seed path.

    Runs the ``repro bench fleet`` declaration, whose gates are the
    acceptance criteria: the engine must sweep a >=256-member fleet at
    least 2x faster than the sequential seed path at the median *while
    producing byte-identical reports*, and the fault-injected
    equivalence block must be clean.  Host seconds live in
    ``BENCH_fleet.json``; the rendered ``results/`` table carries only
    deterministic fields (sizes, verdicts, cache-hit arithmetic).
    """
    run_once(benchmark, lambda: None)
    report = bench.run("fleet")
    assert not bench.failures(report), bench.failures(report)
    assert report["params"]["fleet_size"] >= 256

    # Deterministic summary table: cache-hit arithmetic is exact (one
    # miss per shard at spin-up, one hit per member per round after),
    # wall-clock numbers stay out of results/.
    params, equivalence = report["params"], report["equivalence"]
    size, workers = params["fleet_size"], params["workers"]
    sweeps = params["sweeps"]
    cache = report["points"][0]["cache"]
    expected_hits = (size - workers) + sweeps * size
    rows = [["quantity", "value"],
            ["fleet size", str(size)],
            ["shard workers", str(workers)],
            ["sweeps timed", str(sweeps)],
            ["sweep reports byte-identical",
             str("bench_sweep_reports" not in equivalence["mismatched_fields"])],
            ["fault-injected equivalence clean",
             str(equivalence["identical"])],
            ["digest-cache misses (one per shard)", str(cache["misses"])],
            ["digest-cache hits", f"{cache['hits']} (expected "
                                  f"{expected_hits})"]]
    assert cache["misses"] == workers
    assert cache["hits"] == expected_hits
    table = render_table(rows, title="Fleet engine: sharded sweeps vs "
                                     "sequential seed path")
    table += ("\n\nSpin-up measures each unique configuration once per "
              "shard and serves every other member from the shared "
              "digest cache; steady-state sweeps hit the cache for all "
              "members.  Wall-clock figures (the >=2x sweep gate) live "
              "in BENCH_fleet.json, which varies by host.")
    write_report("fleet_engine_throughput", table)


def test_bench_fleet_sweep(benchmark):
    fleet = Swarm(4, device_config=fleet_config(), seed="bench-sweep-wc")
    result = benchmark.pedantic(fleet.sweep, rounds=1, iterations=1)
    assert result.attempted == 4
