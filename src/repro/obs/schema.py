"""Schemas for exported telemetry, plus a dependency-free validator.

Two artefacts leave the simulator:

* the **event trace**, as JSON lines -- each line one object matching
  :data:`EVENT_SCHEMA`;
* the **registry dump**, one JSON object matching
  :data:`REGISTRY_SCHEMA`.

The schema dictionaries use a pragmatic subset of JSON-Schema vocabulary
(``type``, ``required``, ``properties``, ``enum``) that
:func:`validate_event` / :func:`validate_registry_dump` interpret
directly -- the container has no ``jsonschema`` package, and the subset
is all the validators need.  Validators return a list of error
strings (empty = valid) so CI can print every problem at once.
"""

from __future__ import annotations

import json

from .trace import EVENT_KINDS

__all__ = ["EVENT_SCHEMA", "REGISTRY_SCHEMA", "ANALYSIS_SCHEMA",
           "SNAPSHOT_SCHEMA", "SNAPSHOT_SCHEMA_ID",
           "SNAPSHOT_DELTA_SCHEMA", "SNAPSHOT_DELTA_SCHEMA_ID",
           "SNAPSHOT_DELTA_SCHEMA_IDS",
           "METRIC_NAMES", "INVARIANT_NAMES", "LINT_RULE_IDS",
           "TAINT_RULE_IDS",
           "validate_event", "validate_jsonl_trace",
           "validate_registry_dump", "validate_analysis_report",
           "validate_snapshot", "validate_snapshot_delta"]

#: The closed vocabulary of metric (counter/gauge/histogram) names the
#: instrumentation may emit.  `repro.analysis.lint` rule TEL001 checks
#: every literal name at a telemetry call site against this set, so a
#: typo in instrumentation fails `repro lint` instead of silently
#: producing an unknown series in the registry export.
METRIC_NAMES = frozenset({
    # network channel
    "channel.delivered",
    "channel.dropped",
    "channel.duplicated",
    "channel.injected",
    "channel.pending_events",
    "channel.sent",
    # device hardware
    "cpu.cycles",
    "device.battery_fraction_remaining",
    "device.clock_wraps",
    "device.energy_consumed_mj",
    "device.flash_bytes",
    "device.mpu_faults",
    "device.mpu_rules",
    "device.ram_bytes",
    "device.writable_bytes",
    # prover trust anchor
    "prover.attestation_cycles",
    "prover.attestation_cycles_per_request",
    "prover.freshness_state_bytes",
    "prover.nonce_count",
    "prover.requests.accepted",
    "prover.requests.received",
    "prover.requests.rejected",
    "prover.validation_cycles",
    "prover.validation_cycles_per_request",
    # verifier-side resilience and operations
    "monitor.backoff_seconds",
    "monitor.events",
    "session.backoff_seconds",
    "session.retries",
    "session.timeouts",
    # verifier service tier (admission control; see docs/service.md)
    "service.admitted",
    "service.rejected",
    "service.rounds",
    # host-side snapshot blob store (exported on demand via
    # ``BlobStore.publish``; never published from ``put``)
    "snapshot.blobs",
    "snapshot.bytes",
    # host-side state digest cache (exported on demand via
    # ``StateDigestCache.publish``; never published mid-sweep)
    "statecache.evictions",
    "statecache.hits",
    "statecache.misses",
    "swarm.breaker_transitions",
    "verifier.requests_issued",
    "verifier.responses_validated",
    "verifier.timeouts",
    "verifier.verdicts",
})

#: The closed set of protection invariants `repro.analysis.invariants`
#: checks statically against a booted device's EA-MPU rule table
#: (Sections 5/6 of the paper; see ``docs/static-analysis.md``).
INVARIANT_NAMES = frozenset({
    "rule-budget",
    "secure-boot-coverage",
    "mpu-lockdown",
    "no-widening-overlap",
    "key-confidentiality",
    "counter-rollback-protection",
    "clock-integrity",
})

#: The closed set of lint rule identifiers `repro.analysis.lint` emits.
LINT_RULE_IDS = frozenset({
    "DET001",   # host clock use in simulated-path modules
    "DET002",   # stdlib random in simulated-path modules
    "FLT001",   # float arithmetic in cycle-accounting functions
    "TEL001",   # telemetry name not in the schema vocabulary
})

#: The closed set of key-confidentiality rule identifiers
#: ``repro.analysis.taint`` emits.
TAINT_RULE_IDS = frozenset({
    "KEY001",   # key-tagged value reaches a forbidden host sink
    "KEY002",   # key content decides a telemetered branch (shape leak)
    "KEY003",   # undeclared host-boundary write signature
})

#: Schema of one trace-event object (one JSON line of the export).
EVENT_SCHEMA = {
    "type": "object",
    "required": ["seq", "time", "kind"],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "time": {"type": "number", "minimum": 0},
        "kind": {"type": "string", "enum": sorted(EVENT_KINDS)},
    },
    # Any additional property must be a JSON scalar.
    "additional_scalars": True,
}

#: Schema of the registry dump object.
REGISTRY_SCHEMA = {
    "type": "object",
    "required": ["schema", "metrics"],
    "properties": {
        "schema": {"type": "string",
                   "enum": ["repro.obs.registry/v1"]},
        "metrics": {"type": "array"},
    },
}

#: Schema of one metric snapshot inside the registry dump.
_METRIC_SCHEMA = {
    "type": "object",
    "required": ["kind", "name", "labels"],
    "properties": {
        "kind": {"type": "string",
                 "enum": ["counter", "gauge", "histogram"]},
        "name": {"type": "string"},
        "labels": {"type": "object"},
    },
}

_HISTOGRAM_REQUIRED = ("buckets", "bucket_counts", "overflow", "count", "sum")

#: Version identifier of checkpoint/restore snapshot documents
#: (see ``repro.snapshot`` and ``docs/checkpoint.md``).
SNAPSHOT_SCHEMA_ID = "repro.snapshot/v1"

#: Schema of a checkpoint/restore snapshot envelope.  The ``state``
#: payload is kind-specific (session/swarm/fleet) and is checked
#: structurally by the restore path itself, which refuses any document
#: that does not match the rebuilt object; the envelope schema pins the
#: version, the kind vocabulary and the content-addressed blob map.
SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "blobs", "state"],
    "properties": {
        "schema": {"type": "string", "enum": [SNAPSHOT_SCHEMA_ID]},
        "kind": {"type": "string",
                 "enum": ["session", "swarm", "fleet", "service"]},
        "blobs": {"type": "object"},
        "state": {"type": "object"},
        "meta": {"type": "object"},
    },
}

#: Schema of the per-kind required keys inside a snapshot's ``state``.
_SNAPSHOT_STATE_REQUIRED = {
    "session": ("sim", "device", "channel", "verifier", "verifier_node",
                "anchor"),
    "swarm": ("sweeps_run", "members", "breakers"),
    "fleet": ("workers", "sweeps_run", "shards"),
    "service": ("virtual_now", "members", "buckets"),
}

#: Version identifier of *delta* checkpoint documents: a checkpoint
#: recorded against a parent document, carrying per region only the
#: chunks whose ``DigestTree`` leaves are dirty since the parent, and
#: per append-only log only the records appended since the parent (see
#: ``repro.snapshot.delta`` and ``docs/checkpoint.md``).
SNAPSHOT_DELTA_SCHEMA_ID = "repro.snapshot.delta/v2"

#: Every delta version this tree reads.  ``v1`` deltas carry every log
#: as a full list, which a ``v2`` fold accepts as-is; captures write
#: ``v2`` only.
SNAPSHOT_DELTA_SCHEMA_IDS = (SNAPSHOT_DELTA_SCHEMA_ID,
                             "repro.snapshot.delta/v1")

#: Schema of a delta-checkpoint envelope.  Same shape as
#: :data:`SNAPSHOT_SCHEMA` plus the mandatory ``parent_id`` -- the
#: canonical-JSON SHA-1 of the parent document, which chains deltas and
#: lets restore refuse a mismatched parent.  The service kind has no
#: region images and therefore no delta form.
#:
#: Inside ``state``, a member session's four append-only logs
#: (``telemetry.trace.records``, ``channel.transcript``,
#: ``verifier_node.results``, ``anchor.busy_intervals``) are each
#: either the full record list, as in a full snapshot, or a tail
#: ``{"base": int, "sha1": hex, "records": [...]}``: ``base`` is the
#: parent's record count (for the trace, counting front-dropped
#: events), ``records`` are the records appended since, and ``sha1``
#: is the rolling digest ``SHA-1(parent digest || canonical JSON of
#: records)``, where a full list's digest is ``SHA-1(canonical JSON of
#: the list)``.  Tails are checked when a chain is folded
#: (``repro.snapshot.delta.materialize_chain``), not here.
SNAPSHOT_DELTA_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "blobs", "state", "parent_id"],
    "properties": {
        "schema": {"type": "string",
                   "enum": list(SNAPSHOT_DELTA_SCHEMA_IDS)},
        "kind": {"type": "string",
                 "enum": ["session", "swarm", "fleet"]},
        "blobs": {"type": "object"},
        "state": {"type": "object"},
        "parent_id": {"type": "string"},
        "meta": {"type": "object"},
    },
}


#: Schema of the static-analysis report (``repro verify-profile --json``,
#: ``repro lint --json`` and ``repro analyze`` all emit or embed this
#: envelope; byte-identical for identical inputs).
ANALYSIS_SCHEMA = {
    "type": "object",
    "required": ["schema", "profiles", "lint"],
    "properties": {
        "schema": {"type": "string", "enum": ["repro.analysis/v1"]},
        "profiles": {"type": "array"},
        "lint": {"type": "object"},
        "taint": {"type": "object"},
    },
}

#: Schema of one per-profile invariant report inside the analysis report.
_PROFILE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["profile", "clock_kind", "holds", "verdicts"],
    "properties": {
        "profile": {"type": "string"},
        "clock_kind": {"type": "string",
                       "enum": ["hw64", "hw32div", "sw", "none"]},
        "holds": {"type": "boolean"},
        "verdicts": {"type": "array"},
    },
}

#: Schema of one invariant verdict.
_VERDICT_SCHEMA = {
    "type": "object",
    "required": ["invariant", "holds", "detail"],
    "properties": {
        "invariant": {"type": "string", "enum": sorted(INVARIANT_NAMES)},
        "holds": {"type": "boolean"},
        "detail": {"type": "string"},
        "attack": {"type": "string"},
        "counterexample": {"type": "object"},
    },
}

#: Schema of the lint section of the analysis report.
_LINT_REPORT_SCHEMA = {
    "type": "object",
    "required": ["files_scanned", "clean", "violations", "waived"],
    "properties": {
        "files_scanned": {"type": "integer", "minimum": 0},
        "clean": {"type": "boolean"},
        "violations": {"type": "array"},
        "waived": {"type": "array"},
        "stale_waivers": {"type": "array"},
    },
}

#: Schema of the taint section of the analysis report.
_TAINT_REPORT_SCHEMA = {
    "type": "object",
    "required": ["files_scanned", "clean", "violations", "waived",
                 "sinks", "stale_policy"],
    "properties": {
        "files_scanned": {"type": "integer", "minimum": 0},
        "clean": {"type": "boolean"},
        "violations": {"type": "array"},
        "waived": {"type": "array"},
        "sinks": {"type": "array"},
        "stale_policy": {"type": "array"},
        "rounds": {"type": "integer", "minimum": 0},
    },
}

#: Schema of one taint violation entry (waived or not).
_TAINT_VIOLATION_SCHEMA = {
    "type": "object",
    "required": ["rule", "path", "line", "message"],
    "properties": {
        "rule": {"type": "string", "enum": sorted(TAINT_RULE_IDS)},
        "path": {"type": "string"},
        "line": {"type": "integer", "minimum": 0},
        "col": {"type": "integer", "minimum": 0},
        "message": {"type": "string"},
        "sink": {"type": "string"},
        "chain": {"type": "array"},
        "waiver_reason": {"type": "string"},
    },
}

#: Schema of one lint violation entry (waived or not).
_LINT_VIOLATION_SCHEMA = {
    "type": "object",
    "required": ["rule", "path", "line", "message"],
    "properties": {
        "rule": {"type": "string", "enum": sorted(LINT_RULE_IDS)},
        "path": {"type": "string"},
        "line": {"type": "integer", "minimum": 0},
        "col": {"type": "integer", "minimum": 0},
        "message": {"type": "string"},
        "waiver_reason": {"type": "string"},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
}

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check(obj, schema, path: str) -> list[str]:
    errors = []
    check = _TYPE_CHECKS[schema["type"]]
    if not check(obj):
        return [f"{path}: expected {schema['type']}, "
                f"got {type(obj).__name__}"]
    if schema["type"] != "object":
        return errors
    for key in schema.get("required", ()):
        if key not in obj:
            errors.append(f"{path}: missing required key {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if key not in obj:
            continue
        value = obj[key]
        sub_path = f"{path}.{key}"
        type_check = _TYPE_CHECKS[sub["type"]]
        if not type_check(value):
            errors.append(f"{sub_path}: expected {sub['type']}, "
                          f"got {type(value).__name__}")
            continue
        if "enum" in sub and value not in sub["enum"]:
            errors.append(f"{sub_path}: {value!r} not in allowed values")
        if "minimum" in sub and value < sub["minimum"]:
            errors.append(f"{sub_path}: {value!r} below minimum "
                          f"{sub['minimum']}")
    if schema.get("additional_scalars"):
        known = set(schema.get("properties", ()))
        for key, value in obj.items():
            if key not in known and not isinstance(value, _SCALAR_TYPES):
                errors.append(f"{path}.{key}: field must be a JSON scalar, "
                              f"got {type(value).__name__}")
    return errors


def validate_event(event: dict) -> list[str]:
    """Validate one decoded trace-event object; returns error strings."""
    return _check(event, EVENT_SCHEMA, "event")


def validate_jsonl_trace(text: str) -> list[str]:
    """Validate a whole JSON-lines trace export.

    Checks each line parses as JSON, matches :data:`EVENT_SCHEMA`, and
    that sequence numbers strictly increase (append-only invariant).
    """
    errors = []
    last_seq = -1
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        for error in validate_event(event):
            errors.append(f"line {number}: {error}")
        seq = event.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                errors.append(f"line {number}: seq {seq} not increasing")
            last_seq = seq
    return errors


def validate_registry_dump(dump: dict) -> list[str]:
    """Validate a decoded registry dump object; returns error strings."""
    errors = _check(dump, REGISTRY_SCHEMA, "registry")
    for index, metric in enumerate(dump.get("metrics", [])
                                   if isinstance(dump, dict) else []):
        path = f"registry.metrics[{index}]"
        errors.extend(_check(metric, _METRIC_SCHEMA, path))
        if not isinstance(metric, dict):
            continue
        if metric.get("kind") == "histogram":
            for key in _HISTOGRAM_REQUIRED:
                if key not in metric:
                    errors.append(f"{path}: histogram missing {key!r}")
        elif metric.get("kind") in ("counter", "gauge"):
            if not isinstance(metric.get("value"),
                              (int, float)) or isinstance(
                                  metric.get("value"), bool):
                errors.append(f"{path}: {metric.get('kind')} needs a "
                              f"numeric 'value'")
    return errors


def validate_snapshot(document: dict) -> list[str]:
    """Validate a decoded ``repro.snapshot/v1`` envelope.

    Checks the envelope shape, that every blob key looks like a hex
    fingerprint with a string payload, and that the ``state`` payload
    carries the top-level keys its ``kind`` requires.  Field-by-field
    consistency with a rebuilt object is the restore path's job.
    """
    errors = _check(document, SNAPSHOT_SCHEMA, "snapshot")
    if not isinstance(document, dict):
        return errors
    blobs = document.get("blobs")
    if isinstance(blobs, dict):
        for key, value in blobs.items():
            if not (isinstance(key, str)
                    and all(c in "0123456789abcdef" for c in key)):
                errors.append(f"snapshot.blobs: key {key!r} is not a hex "
                              f"fingerprint")
            if not isinstance(value, str):
                errors.append(f"snapshot.blobs[{key!r}]: image must be a "
                              f"base64 string")
    state = document.get("state")
    required = _SNAPSHOT_STATE_REQUIRED.get(document.get("kind"))
    if isinstance(state, dict) and required is not None:
        for key in required:
            if key not in state:
                errors.append(f"snapshot.state: missing required key "
                              f"{key!r} for kind {document['kind']!r}")
    return errors


def validate_snapshot_delta(document: dict) -> list[str]:
    """Validate a decoded ``repro.snapshot.delta/v2`` (or ``v1``) envelope.

    Same structural checks as :func:`validate_snapshot` (blob keys are
    content-address hex -- region fingerprints, chunk leaf digests or
    chunk-index digests -- with string payloads; per-kind state keys)
    plus the ``parent_id`` chain link.  Whether the parent actually
    matches is the materialization path's job.
    """
    errors = _check(document, SNAPSHOT_DELTA_SCHEMA, "snapshot-delta")
    if not isinstance(document, dict):
        return errors
    blobs = document.get("blobs")
    if isinstance(blobs, dict):
        for key, value in blobs.items():
            if not (isinstance(key, str)
                    and all(c in "0123456789abcdef" for c in key)):
                errors.append(f"snapshot-delta.blobs: key {key!r} is not "
                              f"a hex content address")
            if not isinstance(value, str):
                errors.append(f"snapshot-delta.blobs[{key!r}]: payload "
                              f"must be a base64 string")
    state = document.get("state")
    required = _SNAPSHOT_STATE_REQUIRED.get(document.get("kind"))
    if isinstance(state, dict) and required is not None:
        for key in required:
            if key not in state:
                errors.append(f"snapshot-delta.state: missing required "
                              f"key {key!r} for kind "
                              f"{document['kind']!r}")
    return errors


def validate_analysis_report(report: dict) -> list[str]:
    """Validate a decoded ``repro.analysis/v1`` report object.

    Checks the envelope, every per-profile invariant report and verdict,
    and the lint section including each (waived) violation entry.  Shape
    only -- whether the verdicts are the *expected* ones for the shipped
    profiles is policy, enforced by ``repro analyze`` and
    ``tests/analysis/test_invariants.py``.
    """
    errors = _check(report, ANALYSIS_SCHEMA, "analysis")
    if not isinstance(report, dict):
        return errors
    profiles = report.get("profiles")
    for index, profile in enumerate(profiles
                                    if isinstance(profiles, list) else []):
        path = f"analysis.profiles[{index}]"
        errors.extend(_check(profile, _PROFILE_REPORT_SCHEMA, path))
        if not isinstance(profile, dict):
            continue
        verdicts = profile.get("verdicts")
        for v_index, verdict in enumerate(verdicts
                                          if isinstance(verdicts, list)
                                          else []):
            errors.extend(_check(verdict, _VERDICT_SCHEMA,
                                 f"{path}.verdicts[{v_index}]"))
    lint = report.get("lint")
    if isinstance(lint, dict):
        errors.extend(_check(lint, _LINT_REPORT_SCHEMA, "analysis.lint"))
        for key in ("violations", "waived"):
            entries = lint.get(key)
            for index, entry in enumerate(entries
                                          if isinstance(entries, list)
                                          else []):
                errors.extend(_check(entry, _LINT_VIOLATION_SCHEMA,
                                     f"analysis.lint.{key}[{index}]"))
    taint = report.get("taint")
    if isinstance(taint, dict):
        errors.extend(_check(taint, _TAINT_REPORT_SCHEMA,
                             "analysis.taint"))
        for key in ("violations", "waived"):
            entries = taint.get(key)
            for index, entry in enumerate(entries
                                          if isinstance(entries, list)
                                          else []):
                errors.extend(_check(entry, _TAINT_VIOLATION_SCHEMA,
                                     f"analysis.taint.{key}[{index}]"))
    return errors
