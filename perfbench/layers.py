"""Which public functions the traced run wraps, and the per-layer
metrics it reports.

Span names follow ``<layer>.<fn>``; the module each one comes from is
named beside it.  Every workload reports every metric in
:data:`PER_LAYER`; a layer a workload never runs reports 0.
"""

from __future__ import annotations

import inspect

import repro.snapshot
from repro.core import authenticator, freshness, prover
from repro.core.protocol import Session
from repro.core.prover import ProverTrustAnchor
from repro.core.verifier import Verifier
from repro.crypto.rng import DeterministicRng
from repro.mcu.device import Device
from repro.mcu.memory import MemoryRegion
from repro.net.channel import DolevYaoChannel
from repro.net.simulator import Simulation
from repro.services.attestd import AttestationService
from repro.services.swarm import Swarm

from .tracer import NAME, NOTE, PARENT, Tracer, self_times, summarize
from .workloads import percentile

__all__ = ["PER_LAYER", "instrument", "layer_metrics"]

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    # core.authenticator
    ("authenticator.tag.calls", "count", "lower"),
    ("authenticator.tag.self_ms", "ms", "lower"),
    ("authenticator.verify.calls", "count", "lower"),
    ("authenticator.verify.self_ms", "ms", "lower"),
    # crypto.hmac, crypto.rng
    ("hmac.response.calls", "count", "lower"),
    ("hmac.response.self_ms", "ms", "lower"),
    ("rng.bytes.calls", "count", "lower"),
    ("rng.bytes.self_ms", "ms", "lower"),
    # core.verifier
    ("verifier.make_request.calls", "count", "lower"),
    ("verifier.make_request.self_ms", "ms", "lower"),
    ("verifier.check_response.calls", "count", "lower"),
    ("verifier.check_response.self_ms", "ms", "lower"),
    # core.freshness
    ("freshness.check.calls", "count", "lower"),
    ("freshness.check.self_ms", "ms", "lower"),
    ("freshness.commit.calls", "count", "lower"),
    ("freshness.commit.self_ms", "ms", "lower"),
    # core.prover, core.protocol
    ("prover.handle_request.calls", "count", "lower"),
    ("prover.handle_request.self_ms", "ms", "lower"),
    ("session.attest_once.calls", "count", "lower"),
    ("session.attest_once.self_ms", "ms", "lower"),
    # mcu.device, mcu.statecache, incremental
    ("measure.calls", "count", "lower"),
    ("measure.self_ms", "ms", "lower"),
    ("measure.bytes", "bytes", "lower"),
    ("statecache.hits", "count", "higher"),
    ("statecache.misses", "count", "lower"),
    ("statecache.hit_ratio", "ratio", "higher"),
    ("digesttree.leaf_hashes", "count", "lower"),
    ("digesttree.refreshes", "count", "lower"),
    ("digesttree.full_builds", "count", "lower"),
    # mcu.memory
    ("memory.load.calls", "count", "lower"),
    ("memory.load.bytes", "bytes", "lower"),
    ("memory.load.self_ms", "ms", "lower"),
    # net.channel, net.simulator, services.swarm
    ("channel.send.calls", "count", "lower"),
    ("channel.send.self_ms", "ms", "lower"),
    ("sim.run.calls", "count", "lower"),
    ("sim.run.self_ms", "ms", "lower"),
    ("swarm.sweep.calls", "count", "lower"),
    ("swarm.sweep.self_ms", "ms", "lower"),
    # obs.telemetry
    ("telemetry.events_per_attest", "count", "lower"),
    # snapshot
    ("snapshot.capture.calls", "count", "lower"),
    ("snapshot.capture.self_ms", "ms", "lower"),
    ("snapshot.delta_bytes", "bytes", "lower"),
    ("snapshot.materialize.calls", "count", "lower"),
    ("snapshot.materialize.self_ms", "ms", "lower"),
    ("snapshot.restore.calls", "count", "lower"),
    ("snapshot.restore.self_ms", "ms", "lower"),
    # services.attestd
    ("attestd.admit.calls", "count", "lower"),
    ("attestd.admit.rejected", "count", "lower"),
    ("attestd.admit.self_ms", "ms", "lower"),
    ("attestd.dispatch.self_ms", "ms", "lower"),
    ("attestd.queue_wait_ms.p50", "ms", "lower"),
    ("attestd.queue_wait_ms.p99", "ms", "lower"),
    # where the traced phase's host time went, and what tracing cost
    ("share.request_auth", "ratio", "lower"),
    ("share.measure", "ratio", "lower"),
    ("trace.attests", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.attest_per_s.traced", "1/s", "higher"),
    ("trace.attest_per_s.untraced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Span names whose ``calls`` and ``self_ms`` are reported directly.
_SPAN_METRICS = ("authenticator.tag", "authenticator.verify",
                 "hmac.response", "rng.bytes", "verifier.make_request",
                 "verifier.check_response", "freshness.check",
                 "freshness.commit", "prover.handle_request",
                 "session.attest_once", "measure", "memory.load",
                 "channel.send", "sim.run", "swarm.sweep",
                 "snapshot.capture", "snapshot.materialize",
                 "snapshot.restore", "attestd.admit")


def _defining(module, base, attr: str) -> list[type]:
    """Classes of ``module`` deriving from ``base`` that define ``attr``
    themselves (the concrete schemes and policies)."""
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, base) and cls is not base
            and attr in vars(cls)]


def instrument(tracer: Tracer) -> Tracer:
    """Register every layer boundary the benchmark records."""
    for attr in ("tag", "verify"):
        for cls in _defining(authenticator,
                             authenticator.RequestAuthenticator, attr):
            tracer.add(cls, attr, f"authenticator.{attr}")
    for attr in ("check", "commit"):
        for cls in _defining(freshness, freshness.FreshnessPolicy, attr):
            tracer.add(cls, attr, f"freshness.{attr}")
    tracer.add(prover, "hmac_sha1", "hmac.response")
    tracer.add(DeterministicRng, "bytes", "rng.bytes")
    tracer.add(Verifier, "make_request", "verifier.make_request")
    tracer.add(Verifier, "check_response", "verifier.check_response")
    tracer.add(ProverTrustAnchor, "handle_request", "prover.handle_request")
    tracer.add(Session, "attest_once", "session.attest_once", root=True,
               note=lambda args, result: id(args[0]))
    tracer.add(Device, "digest_writable_memory", "measure")
    tracer.add(MemoryRegion, "load", "memory.load",
               note=lambda args, result: len(args[2]))
    tracer.add(DolevYaoChannel, "send", "channel.send")
    tracer.add(Simulation, "run", "sim.run")
    tracer.add(Swarm, "sweep", "swarm.sweep")
    tracer.add(Swarm, "snapshot", "snapshot.capture")
    tracer.add(Swarm, "restore", "snapshot.restore")
    tracer.add(repro.snapshot, "materialize_chain", "snapshot.materialize")
    tracer.add(AttestationService, "admit", "attestd.admit",
               note=lambda args, result: result is None)
    tracer.add(AttestationService, "serve_schedule", "attestd.dispatch")
    return tracer


def layer_metrics(tracer: Tracer, counters: dict) -> dict[str, float]:
    """Per-layer values from the traced phase.

    ``counters`` comes from the workload: ``phase_s`` (traced phase host
    time), ``attests``, ``attest_per_s.traced``/``.untraced``,
    ``measure_bytes_each``, and the statecache, digest-tree, telemetry,
    delta-size and queue-wait figures it read around the traced phase.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    # A MAC scheme's verify recomputes the tag through ``self.tag``: that
    # time is the prover's, so it folds into the enclosing verify span.
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if (span[NAME] == "authenticator.tag" and parent >= 0
                and spans[parent][NAME] == "authenticator.verify"):
            selfs[parent] += selfs[index]
            selfs[index] = None
    table = summarize(spans, selfs)
    out: dict[str, float] = {}
    for name in _SPAN_METRICS:
        entry = table.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_ms"] = entry["self_s"] * 1000.0
    out["attestd.dispatch.self_ms"] = table.get(
        "attestd.dispatch", {"self_s": 0.0})["self_s"] * 1000.0
    out["memory.load.bytes"] = sum(span[NOTE] for span in spans
                                   if span[NAME] == "memory.load")
    out["attestd.admit.rejected"] = sum(1 for span in spans
                                        if span[NAME] == "attestd.admit"
                                        and span[NOTE])
    hits, misses = counters["statecache.hits"], counters["statecache.misses"]
    out["statecache.hits"] = hits
    out["statecache.misses"] = misses
    out["statecache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    # Every measurement is cache-eligible here, so a call that scored no
    # hit walked the whole attested window.
    out["measure.bytes"] = (max(out["measure.calls"] - hits, 0)
                            * counters["measure_bytes_each"])
    for key in ("digesttree.leaf_hashes", "digesttree.refreshes",
                "digesttree.full_builds", "snapshot.delta_bytes"):
        out[key] = counters.get(key, 0)
    attests = counters["attests"]
    out["telemetry.events_per_attest"] = (counters["telemetry.events"]
                                          / attests if attests else 0.0)
    waits = counters.get("queue_wait_s", [])
    out["attestd.queue_wait_ms.p50"] = percentile(waits, 50) * 1000.0
    out["attestd.queue_wait_ms.p99"] = percentile(waits, 99) * 1000.0
    phase = counters["phase_s"]
    out["share.request_auth"] = (out["authenticator.tag.self_ms"]
                                 + out["authenticator.verify.self_ms"]
                                 ) / 1000.0 / phase
    out["share.measure"] = out["measure.self_ms"] / 1000.0 / phase
    out["trace.attests"] = attests
    out["trace.spans"] = len(spans)
    traced = counters["attest_per_s.traced"]
    untraced = counters["attest_per_s.untraced"]
    out["trace.attest_per_s.traced"] = traced
    out["trace.attest_per_s.untraced"] = untraced
    out["trace.overhead_ratio"] = untraced / traced if traced else 0.0
    missing = {name for name, _, _ in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
