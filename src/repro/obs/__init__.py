"""Observability: metrics registry, structured event tracing, telemetry.

The paper's whole argument is quantitative -- attestation costs 754 ms
per 512 KB at 24 MHz (Section 3.1, Table 1), so every wasted validation
cycle is DoS surface.  This package gives the simulator one uniform way
to observe a running deployment:

``repro.obs.registry``
    :class:`MetricsRegistry` -- named counters, gauges and fixed-bucket
    histograms (cycle costs, rejection reasons, queue depths, per-policy
    freshness-state bytes).
``repro.obs.trace``
    :class:`EventTrace` -- an append-only list of typed event records
    with simulated timestamps (request received/rejected/accepted,
    measurement start/end, channel send/drop, clock wrap, MPU fault),
    exportable as JSON lines.
``repro.obs.telemetry``
    :class:`Telemetry` -- the facade instrumented components report
    into, and :data:`NULL_TELEMETRY`, the default no-op sink that keeps
    the hot path cheap when nobody is observing.
``repro.obs.schema``
    The exported-JSON schema and a dependency-free validator, used by
    ``repro metrics`` and the tests.

Attach a telemetry to a session at build time::

    from repro import build_session
    from repro.obs import Telemetry

    telemetry = Telemetry()
    session = build_session(telemetry=telemetry)
    session.attest_once()
    print(telemetry.registry.dump())
    print(telemetry.trace.to_jsonl())
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .schema import (ANALYSIS_SCHEMA, EVENT_SCHEMA, INVARIANT_NAMES,
                     LINT_RULE_IDS, METRIC_NAMES, REGISTRY_SCHEMA,
                     validate_analysis_report, validate_event,
                     validate_jsonl_trace, validate_registry_dump)
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from .trace import EVENT_KINDS, EventTrace, TraceEvent

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "EVENT_KINDS", "EventTrace", "TraceEvent",
    "NULL_TELEMETRY", "NullTelemetry", "Telemetry",
    "ANALYSIS_SCHEMA", "EVENT_SCHEMA", "REGISTRY_SCHEMA", "INVARIANT_NAMES",
    "LINT_RULE_IDS", "METRIC_NAMES",
    "validate_analysis_report", "validate_event", "validate_jsonl_trace",
    "validate_registry_dump",
]
