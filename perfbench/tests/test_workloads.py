"""Small instances of every workload: tracing changes no simulated
output and leaves the program exactly as it found it; the benchmark
definition matches the code."""

import json
import pathlib

import pytest

from perfbench import layers, run, workloads
from perfbench.tracer import Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]

SMALL = {
    "sweep": workloads.SweepConfig(members=6, setups=1, checked_sweeps=3),
    "ota": workloads.OtaConfig(members=3, ram_kb=32, flash_kb=32, rounds=3),
    "attestd": workloads.AttestdConfig(
        devices=32, heavy_per_wave=4, light_per_wave=1,
        virtual_step_seconds=2.0, burst_seconds=4.0, spacing_seconds=0.002,
        warmup_waves=3, checked_waves=5, setups=1),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_is_neutral_and_reports_its_overhead(name):
    runner = workloads.WORKLOADS[name]
    plain = runner(11, 0.0, config=SMALL[name])
    tracer = layers.instrument(Tracer())
    originals = [(owner, attr, vars(owner).get(attr))
                 for owner, attr in tracer.targets]
    traced = runner(11, 0.0, tracer=tracer, config=SMALL[name])

    for owner, attr, original in originals:
        assert vars(owner).get(attr) is original, (owner, attr)
    assert plain["failed"] == traced["failed"] == 0, (plain["errors"],
                                                      traced["errors"])
    assert plain["fingerprint"] is not None
    assert traced["fingerprint"] == plain["fingerprint"]

    values = layers.layer_metrics(tracer, traced["counters"])
    assert set(values) >= {metric for metric, _, _ in layers.PER_LAYER}
    assert values["trace.attests"] > 0
    assert values["trace.overhead_ratio"] > 0
    assert values["session.attest_once.calls"] == values["trace.attests"]
    print(f"{name}: traced {values['trace.attest_per_s.traced']:.0f}/s, "
          f"untraced {values['trace.attest_per_s.untraced']:.0f}/s, "
          f"overhead ratio {values['trace.overhead_ratio']:.3f}")
    if name == "sweep":
        assert values["telemetry.events_per_attest"] == 0
        assert values["statecache.hit_ratio"] == 1.0
    if name == "ota":
        assert values["memory.load.bytes"] > 0
        assert values["snapshot.capture.calls"] == SMALL["ota"].rounds
        assert values["snapshot.restore.calls"] == 1
    if name == "attestd":
        assert values["attestd.admit.rejected"] > 0
        assert values["attestd.queue_wait_ms.p50"] > 0


def test_benchmark_definition_matches_the_code():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in definition["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in definition["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in definition["workloads"]) == \
        sorted(workloads.WORKLOADS)
    stored = json.loads((ROOT / "perfbench" / "fingerprints.json")
                        .read_text())
    assert all(stored[name] for name in workloads.WORKLOADS)


@pytest.mark.parametrize("variable", run.GUARDED_ENV)
def test_guarded_environment_refuses_to_run(variable, monkeypatch, capsys):
    monkeypatch.setenv(variable, "1")
    assert run.main(["--workload", "sweep", "--seconds", "0"]) == 2
    captured = capsys.readouterr()
    assert variable in captured.err
    assert captured.out == ""
