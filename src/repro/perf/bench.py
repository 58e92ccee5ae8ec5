"""The one host-time benchmark core behind every ``BENCH_<name>.json``.

Simulated time is the paper; host time is overhead.  This module is the
only place a host-time number is taken, gated, checked and written:

* :func:`sample` times a block: one untimed warm-up, then
  :data:`REPEATS` timed repeats, summarised by :func:`summarize` as
  median, inter-quartile range and minimum;
* :func:`gate` records one acceptance threshold, evaluated at the
  median;
* :func:`report` assembles the one ``repro.perf.bench/v1`` envelope and
  :func:`validate` checks its shape;
* :func:`write` refuses a report whose equivalence block is not
  identical, and :func:`failures` lists what makes ``repro bench`` exit
  non-zero.

The benches in :data:`BENCHES` are declarations on this core: each
module's ``run(**sizing)`` keeps its own measurement body, its own
``equivalence_check`` and its own thresholds, and returns
:func:`report`'s envelope.  Sizing keywords exist for tests;
``repro bench NAME|all`` always runs the declared defaults.  See
``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pathlib
import platform
import statistics
import time

from ..errors import ConfigurationError, ReproError
from ..obs.schema import _check

__all__ = ["SCHEMA_ID", "REPEATS", "BENCHES", "clock", "host_info",
           "summarize", "sample", "time_block", "ratio", "gate", "report",
           "validate", "failures", "run", "write"]

SCHEMA_ID = "repro.perf.bench/v1"

#: Timed repeats per block, after one untimed warm-up.
REPEATS = 5

#: Every declared bench, in ``repro bench all`` order.
BENCHES = ("wallclock", "fleet", "incremental", "service", "snapshot")

#: The host clock every bench reads; the service bench also injects it
#: into ``AttestationService`` for per-request latency stamps.
clock = time.perf_counter


def host_info() -> dict:
    """The host block of every report, CPU count included."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpus": cpus}


def summarize(samples: list[float]) -> dict:
    """Median, inter-quartile range and minimum of host seconds."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": statistics.median(samples), "iqr": q3 - q1,
            "min": min(samples), "samples": list(samples)}


class _Laps:
    """Named host-time accumulators for one run of a bench body."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str = "block"):
        begin = clock()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + clock() - begin)


def sample(body) -> tuple[list, dict]:
    """Run ``body(lap)`` once untimed, then :data:`REPEATS` times timed.

    The body marks what it times with ``with lap(name):``; work outside
    a lap (scenario updates, verifier-side bookkeeping) is never timed,
    and a lap entered several times in one run accumulates.  Returns
    every run's return value, warm-up first -- deterministic counts come
    from ``results[0]``, so they never depend on :data:`REPEATS` -- and
    one :func:`summarize` per lap name over the timed repeats.
    """
    results = [body(_Laps())]
    seconds: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        laps = _Laps()
        results.append(body(laps))
        for name, value in laps.seconds.items():
            seconds.setdefault(name, []).append(value)
    return results, {name: summarize(values)
                     for name, values in seconds.items()}


def time_block(fn) -> dict:
    """:func:`sample` of the whole call ``fn()``; its result is dropped."""
    def body(lap):
        with lap():
            fn()
    return sample(body)[1]["block"]


def ratio(numerator: dict, denominator: dict) -> float:
    """Speedup of two :func:`summarize` results, at the median."""
    return numerator["median"] / denominator["median"]


def gate(name: str, value: float, threshold: float) -> dict:
    """One acceptance gate: ``value`` must reach ``threshold``."""
    return {"name": name, "value": value, "threshold": threshold,
            "passed": value >= threshold}


def report(bench: str, *, params: dict, points: list, gates: list,
           equivalence: dict) -> dict:
    """The ``repro.perf.bench/v1`` envelope."""
    return {"schema": SCHEMA_ID, "bench": bench, "params": params,
            "host": host_info(), "points": points, "gates": gates,
            "equivalence": equivalence}


_ENVELOPE = {
    "type": "object",
    "required": ["schema", "bench", "params", "host", "points", "gates",
                 "equivalence"],
    "properties": {
        "schema": {"type": "string", "enum": [SCHEMA_ID]},
        "bench": {"type": "string", "enum": list(BENCHES)},
        "params": {"type": "object"},
        "host": {"type": "object"},
        "points": {"type": "array"},
        "gates": {"type": "array"},
        "equivalence": {"type": "object"},
    },
}

_HOST = {
    "type": "object",
    "required": ["python", "implementation", "machine", "cpus"],
    "properties": {
        "python": {"type": "string"},
        "implementation": {"type": "string"},
        "machine": {"type": "string"},
        "cpus": {"type": "integer", "minimum": 1},
    },
}

_POINT = {
    "type": "object",
    "required": ["seconds"],
    "properties": {"seconds": {"type": "object"}},
}

_TIMING = {
    "type": "object",
    "required": ["median", "iqr", "min", "samples"],
    "properties": {
        "median": {"type": "number", "minimum": 0},
        "iqr": {"type": "number", "minimum": 0},
        "min": {"type": "number", "minimum": 0},
        "samples": {"type": "array"},
    },
}

_GATE = {
    "type": "object",
    "required": ["name", "value", "threshold", "passed"],
    "properties": {
        "name": {"type": "string"},
        "value": {"type": "number"},
        "threshold": {"type": "number"},
        "passed": {"type": "boolean"},
    },
}

_EQUIVALENCE = {
    "type": "object",
    "required": ["identical", "mismatched_fields"],
    "properties": {
        "identical": {"type": "boolean"},
        "mismatched_fields": {"type": "array"},
    },
}


def _items(value) -> list:
    return value if isinstance(value, list) else []


def validate(payload) -> list[str]:
    """Shape errors of one decoded report (empty = valid).  Whether its
    gates pass and its equivalence is clean is :func:`failures`'s call."""
    errors = _check(payload, _ENVELOPE, "bench")
    if not isinstance(payload, dict):
        return errors
    if "host" in payload:
        errors += _check(payload["host"], _HOST, "bench.host")
    if "equivalence" in payload:
        errors += _check(payload["equivalence"], _EQUIVALENCE,
                         "bench.equivalence")
    for index, point in enumerate(_items(payload.get("points"))):
        path = f"bench.points[{index}]"
        point_errors = _check(point, _POINT, path)
        errors += point_errors
        if point_errors:
            continue
        for lap, timing in point["seconds"].items():
            errors += _check(timing, _TIMING, f"{path}.seconds.{lap}")
    for index, entry in enumerate(_items(payload.get("gates"))):
        path = f"bench.gates[{index}]"
        gate_errors = _check(entry, _GATE, path)
        errors += gate_errors
        if (not gate_errors
                and entry["passed"] != (entry["value"]
                                        >= entry["threshold"])):
            errors.append(f"{path}: passed disagrees with value and "
                          f"threshold")
    return errors


def failures(payload: dict) -> list[str]:
    """Why ``repro bench`` must exit non-zero: failed gates and an
    unclean equivalence block (empty = all good)."""
    problems = [f"gate {entry['name']}: {entry['value']:.3g} below "
                f"{entry['threshold']:.3g}"
                for entry in payload["gates"] if not entry["passed"]]
    equivalence = payload["equivalence"]
    if not equivalence["identical"]:
        problems.append(f"equivalence mismatched: "
                        f"{equivalence['mismatched_fields']}")
    return problems


def run(name: str, **sizing) -> dict:
    """Measure one declared bench; ``sizing`` shrinks it for tests."""
    if name not in BENCHES:
        raise ConfigurationError(f"unknown bench {name!r}; expected one "
                                 f"of {BENCHES}")
    return importlib.import_module(f".{name}", __package__).run(**sizing)


def write(payload: dict, directory=".") -> pathlib.Path:
    """Write ``BENCH_<bench>.json`` into ``directory``.  A report that
    fails :func:`validate` or whose equivalence block is not identical
    is a correctness regression, not a number: it is never written."""
    errors = validate(payload)
    if errors:
        raise ReproError(f"refusing to write an invalid report: {errors}")
    if not payload["equivalence"]["identical"]:
        raise ReproError(
            f"refusing to write BENCH_{payload['bench']}.json: equivalence "
            f"mismatched {payload['equivalence']['mismatched_fields']}")
    path = pathlib.Path(directory) / f"BENCH_{payload['bench']}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
