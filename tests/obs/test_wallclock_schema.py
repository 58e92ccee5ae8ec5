"""Schema validation of ``BENCH_wallclock.json`` under the one
``repro.perf.bench/v1`` envelope."""

import copy

import pytest

from repro.perf import bench


def minimal_report() -> dict:
    """A hand-built wallclock report matching what ``run`` emits."""
    timing = {"median": 0.001, "iqr": 0.0001, "min": 0.0009,
              "samples": [0.001] * bench.REPEATS}
    point = {"ram_kb": 16, "writable_kb": 24, "engine": "accel",
             "digest": "ab" * 20, "seconds": {"measure": timing},
             "mb_per_s": 24.0}
    return {
        "schema": bench.SCHEMA_ID,
        "bench": "wallclock",
        "params": {"sweep_kb": [16], "naive_kb": 16,
                   "engine_default": "accel", "equivalence_ram_kb": 16},
        "host": {"python": "3.11.0", "implementation": "CPython",
                 "machine": "x86_64", "cpus": 2},
        "points": [point, dict(point, engine="naive")],
        "gates": [{"name": "accel_vs_naive_16kb", "value": 500.0,
                   "threshold": 3.0, "passed": True}],
        "equivalence": {"identical": True, "mismatched_fields": [],
                        "ram_kb": 16, "rounds": 2},
    }


def test_minimal_report_validates():
    assert bench.validate(minimal_report()) == []


def test_harness_built_report_validates():
    report = bench.run("wallclock", sweep_kb=(8,), naive_kb=8,
                       equivalence_ram_kb=8)
    assert bench.validate(report) == []
    assert report["host"]["cpus"] >= 1
    assert [point["engine"] for point in report["points"][:2]] \
        == ["accel", "naive"]
    assert report["points"][0]["digest"] == report["points"][1]["digest"]


def test_schema_is_exported():
    assert bench.SCHEMA_ID == "repro.perf.bench/v1"
    assert minimal_report()["schema"] == bench.SCHEMA_ID


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda r: r.pop("gates"), "missing required key 'gates'"),
    (lambda r: r["gates"][0].pop("threshold"),
     "missing required key 'threshold'"),
    (lambda r: r.__setitem__("schema", "repro.perf.wallclock/v1"),
     "not in allowed values"),
    (lambda r: r.__setitem__("bench", "turbo"), "not in allowed values"),
    (lambda r: r["points"][0]["seconds"]["measure"].__setitem__(
        "median", "fast"), "expected number"),
    (lambda r: r["host"].__setitem__("cpus", 0), "below minimum"),
    (lambda r: r["host"].pop("cpus"), "missing required key 'cpus'"),
    (lambda r: r["equivalence"].__setitem__("identical", "yes"),
     "expected boolean"),
    (lambda r: r.__setitem__("points", "oops"), "expected array"),
    (lambda r: r["gates"][0].__setitem__("value", 1.0),
     "passed disagrees"),
])
def test_corrupted_reports_are_rejected(corrupt, fragment):
    report = copy.deepcopy(minimal_report())
    corrupt(report)
    errors = bench.validate(report)
    assert errors, "corruption not detected"
    assert any(fragment in error for error in errors), errors


def test_non_dict_rejected():
    assert bench.validate([]) == ["bench: expected object, got list"]
