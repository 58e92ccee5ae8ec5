"""The host-time benchmark core: warm-up and repeats, dispersion,
gates, and the refusal to write a report with unclean equivalence."""

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.perf import bench


#: Every host-time report checked in at the repository root.
CHECKED_IN = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def fake_report(*, passed=True, identical=True) -> dict:
    timing = bench.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    return bench.report(
        "fleet", params={"fleet_size": 4},
        points=[{"seconds": {"block": timing}}],
        gates=[bench.gate("sweep_speedup", 2.5 if passed else 1.5, 2.0)],
        equivalence={"identical": identical,
                     "mismatched_fields": [] if identical else ["trace"]})


def test_summarize_reports_median_iqr_and_min():
    assert bench.summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "iqr": 2.0, "min": 1.0,
        "samples": [5.0, 1.0, 3.0, 2.0, 4.0]}


def test_sample_times_only_laps_after_one_warm_up():
    calls = []

    def body(lap):
        calls.append(len(calls))
        with lap("a"):
            pass
        with lap("a"):
            pass
        return len(calls)

    results, seconds = bench.sample(body)
    assert results == list(range(1, bench.REPEATS + 2))
    assert set(seconds) == {"a"}
    assert len(seconds["a"]["samples"]) == bench.REPEATS


def test_gate_is_evaluated_against_its_threshold():
    assert bench.gate("g", 2.0, 2.0)["passed"] is True
    assert bench.gate("g", 1.99, 2.0)["passed"] is False


def test_failures_list_failed_gates_and_unclean_equivalence():
    assert bench.failures(fake_report()) == []
    assert bench.failures(fake_report(passed=False)) == [
        "gate sweep_speedup: 1.5 below 2"]
    assert bench.failures(fake_report(identical=False)) == [
        "equivalence mismatched: ['trace']"]


def test_write_names_the_file_after_the_bench(tmp_path):
    report = fake_report(passed=False)
    path = bench.write(report, tmp_path)
    assert path.name == "BENCH_fleet.json"
    assert json.loads(path.read_text()) == report


def test_write_refuses_unclean_equivalence(tmp_path):
    with pytest.raises(ReproError, match="equivalence"):
        bench.write(fake_report(identical=False), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unknown_bench_is_a_configuration_error():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        bench.run("turbo")


def test_host_time_reports_are_checked_in():
    assert CHECKED_IN


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.name)
def test_checked_in_report_is_valid_and_clean(path):
    """Each checked-in report is a valid envelope whose gates passed and
    whose equivalence block is clean."""
    document = json.loads(path.read_text())
    assert bench.validate(document) == []
    assert bench.failures(document) == []
