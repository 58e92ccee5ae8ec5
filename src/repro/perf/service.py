"""Host-side load benchmark for the verifier service tier.

Drives :class:`~repro.services.attestd.AttestationService` with
deterministic request schedules and measures *host* wall-clock
throughput and latency -- how fast the Python process multiplexes
simulated attestation sessions, never simulated time.  This declaration
on :mod:`repro.perf.bench` takes the host clock from the core; the
service receives it only as an injected callable for latency stamping,
so its deterministic path stays free of host time.

The report (``BENCH_service.json``) carries:

* ``points`` -- offered-load points: offered / admitted / rejected
  counts and the peak number of concurrently in-flight sessions (from
  the warm-up run; every repeat replays the same seeds), sessions per
  second at the median serve time, and the median over repeats of the
  p50/p99 request latency;
* ``gates`` -- the scale gate: at least one point must hold >= 1000
  sessions in flight at once;
* ``equivalence`` -- the served run must produce request records,
  per-device freshness state, merged telemetry and shared state-cache
  stats byte-identical to the sequential library path
  (:meth:`~repro.services.attestd.AttestationService.process`).
"""

from __future__ import annotations

import json
import statistics

from ..mcu.device import DeviceConfig
from ..mcu.statecache import StateDigestCache
from ..services.attestd import AttestationService, build_schedule
from . import bench

__all__ = ["REQUIRED_IN_FLIGHT", "run_load_point", "equivalence_check",
           "run"]

#: The scale gate: peak concurrently in-flight sessions.
REQUIRED_IN_FLIGHT = 1000

#: Small provers (the paper's low-end class) so big fleets spin up fast.
_BENCH_CONFIG = DeviceConfig(ram_size=8 * 1024, flash_size=16 * 1024,
                             app_size=2 * 1024)


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation; deterministic)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1,
               max(0, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _build_service(*, size: int, tenants: int, backends: int,
                   duty_fraction: float, burst_seconds: float,
                   observe: bool, seed: str,
                   shared_cache: bool = True) -> AttestationService:
    cache = StateDigestCache() if shared_cache else None
    return AttestationService(size, tenants=tenants, backends=backends,
                              duty_fraction=duty_fraction,
                              burst_seconds=burst_seconds,
                              device_config=_BENCH_CONFIG,
                              state_cache=cache, observe=observe, seed=seed)


def run_load_point(*, size: int, tenants: int = 4, backends: int = 4,
                   duty_fraction: float = 0.01,
                   burst_seconds: float = 600.0, waves: int = 1,
                   spacing_seconds: float = 60.0,
                   seed: str = "service-bench") -> dict:
    """Serve one deterministic schedule on a freshly built service per
    run and measure it.

    The schedule offers ``waves`` bursts of ``size`` requests; each
    burst shares one arrival instant, so every admitted request of a
    burst is in flight together (that is the concurrency the gate
    counts).  Telemetry is off: observation costs are a separate story
    and the load numbers should be the service's own.
    """
    schedule = build_schedule(size, waves=waves,
                              spacing_seconds=spacing_seconds,
                              seed=f"{seed}:schedule")

    def body(lap):
        service = _build_service(size=size, tenants=tenants,
                                 backends=backends,
                                 duty_fraction=duty_fraction,
                                 burst_seconds=burst_seconds,
                                 observe=False, seed=seed)
        with lap("serve"):
            records = service.serve_schedule(schedule, clock=bench.clock)
        latencies = [record.host_latency_seconds for record in records
                     if record.admitted
                     and record.host_latency_seconds is not None]
        return {"counts": (service.admitted, service.rejected,
                           service.peak_in_flight),
                "p50": _percentile(latencies, 0.50),
                "p99": _percentile(latencies, 0.99)}

    results, seconds = bench.sample(body)
    admitted, rejected, peak = results[0]["counts"]
    timed = results[1:]
    return {
        "offered": len(schedule),
        "admitted": admitted,
        "rejected": rejected,
        "peak_in_flight": peak,
        "seconds": seconds,
        "sessions_per_second": admitted / seconds["serve"]["median"],
        "p50_latency_ms": statistics.median(r["p50"] for r in timed) * 1e3,
        "p99_latency_ms": statistics.median(r["p99"] for r in timed) * 1e3,
        "waves": waves,
    }


def equivalence_check(*, size: int = 24, tenants: int = 3,
                      backends: int = 4, duty_fraction: float = 0.001,
                      burst_seconds: float = 20.0, waves: int = 3,
                      spacing_seconds: float = 30.0,
                      seed: str = "service-equivalence") -> dict:
    """Prove the served path equals the sequential library path.

    Runs the same schedule through ``serve_schedule`` and ``process``
    on two identically-built services, with a duty budget tight enough
    that both admission outcomes occur, and compares request records,
    per-device freshness state, the merged telemetry dump and the
    shared state cache's stats.
    """
    schedule = build_schedule(size, waves=waves,
                              spacing_seconds=spacing_seconds,
                              seed=f"{seed}:schedule")
    kwargs = dict(size=size, tenants=tenants, backends=backends,
                  duty_fraction=duty_fraction,
                  burst_seconds=burst_seconds, observe=True, seed=seed)
    serviced = _build_service(**kwargs)
    sequential = _build_service(**kwargs)
    served = serviced.serve_schedule(schedule)
    processed = sequential.process(schedule)
    mismatched = []
    if ([r.fingerprint() for r in served]
            != [r.fingerprint() for r in processed]):
        mismatched.append("records")
    if (serviced.freshness_fingerprint()
            != sequential.freshness_fingerprint()):
        mismatched.append("freshness")
    if (json.dumps(serviced.merged_registry().dump(), sort_keys=True)
            != json.dumps(sequential.merged_registry().dump(),
                          sort_keys=True)):
        mismatched.append("telemetry")
    if serviced.state_cache.stats() != sequential.state_cache.stats():
        mismatched.append("state_cache")
    return {
        "size": size,
        "offered": len(schedule),
        "admitted": serviced.admitted,
        "rejected": serviced.rejected,
        "identical": not mismatched,
        "mismatched_fields": mismatched,
    }


def run(*, size: int = 1024, tenants: int = 4, backends: int = 8,
        duty_fraction: float = 0.01) -> dict:
    """The ``BENCH_service.json`` report.

    Three offered-load points: a paced baseline (several spaced waves,
    everything admitted), an overloaded run (duty budget far below the
    offered load, so admission control visibly rejects), and the scale
    burst -- one wave of ``size`` simultaneous requests, which must put
    at least ``REQUIRED_IN_FLIGHT`` sessions in flight at once.
    """
    equivalence = equivalence_check()
    points = [
        run_load_point(size=min(size, 128), tenants=tenants,
                       backends=backends, duty_fraction=duty_fraction,
                       waves=4, spacing_seconds=120.0,
                       seed="service-bench-paced"),
        run_load_point(size=min(size, 128), tenants=tenants,
                       backends=backends, duty_fraction=0.0005,
                       burst_seconds=30.0, waves=4, spacing_seconds=15.0,
                       seed="service-bench-overload"),
        run_load_point(size=size, tenants=tenants, backends=backends,
                       duty_fraction=duty_fraction, waves=1,
                       seed="service-bench-burst"),
    ]
    return bench.report(
        "service",
        params={"size": size, "tenants": tenants, "backends": backends,
                "duty_fraction": duty_fraction},
        points=points,
        gates=[bench.gate("peak_in_flight",
                          max(point["peak_in_flight"] for point in points),
                          REQUIRED_IN_FLIGHT)],
        equivalence=equivalence)
