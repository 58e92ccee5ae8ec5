"""A lane-packed sweep is byte-identical to the per-member scalar loop.

Without a retry policy, :meth:`Swarm.sweep_outcomes` prepares every
member's request first and takes all request MACs of one side in one
lane-packed pass (:class:`~repro.core.authenticator.SpeckTagLanes`).
The reference here is the per-member scalar loop: the same swarm with
its lane sweep replaced by :meth:`Swarm._sweep_member` for each member
in turn.  Every report field, breaker state, freshness fingerprint,
merged trace record and merged registry dump must agree, sweep after
sweep, under every freshness policy, derived keys, lossy links with
quarantine and probes, and staggering -- and a 2-shard
:class:`~repro.perf.fleet.FleetEngine` must agree with both.
"""

import dataclasses
import json

import pytest

from repro.core.resilience import RetryPolicy
from repro.crypto.speck import Speck64_128
from repro.perf.fleet import FleetEngine, FleetSpec, lossy_link
from repro.services.swarm import Swarm
from tests.conftest import scalar_sweeps, tiny_config

SWEEPS = 6


def build(size=5, **overrides) -> Swarm:
    options = dict(device_config=tiny_config(), observe=True,
                   seed="lane-sweep")
    options.update(overrides)
    return Swarm(size, **options)


def views(swarm: Swarm, reports) -> dict:
    """Everything a sweep can be observed through, in comparable form."""
    return {
        "reports": [dataclasses.asdict(report) for report in reports],
        "device_states": swarm.device_states(),
        "freshness": swarm.freshness_fingerprint(),
        "trace": swarm.merged_trace_records(),
        "registry": json.dumps(swarm.merged_registry().dump(),
                               sort_keys=True),
        "attestations": swarm.total_attestations(),
    }


def run_both(sweeps=SWEEPS, stagger_seconds=0.0, **overrides):
    lane, scalar = build(**overrides), scalar_sweeps(build(**overrides))
    lane_reports = [lane.sweep(stagger_seconds=stagger_seconds)
                    for _ in range(sweeps)]
    scalar_reports = [scalar.sweep(stagger_seconds=stagger_seconds)
                      for _ in range(sweeps)]
    return views(lane, lane_reports), views(scalar, scalar_reports)


CASES = {
    "counter": dict(policy_name="counter"),
    "nonce": dict(policy_name="nonce"),
    "timestamp": dict(policy_name="timestamp"),
    "master-key": dict(master_key=bytes(range(16))),
    "lossy-quarantine": dict(adversary_factory=lossy_link,
                             quarantine_after=2, probe_every_sweeps=2,
                             size=8),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lane_sweep_equals_scalar_sweeps(case):
    lane, scalar = run_both(**CASES[case])
    for view in lane:
        assert lane[view] == scalar[view], view


def test_first_sweep_duration_includes_the_epoch_step():
    """The 1 ms epoch step runs after the round's start is taken, on
    both paths: the first sweep lasts 0.001 + 5.0 simulated seconds."""
    lane, scalar = run_both(sweeps=1)
    first = lane["reports"][0]["sweep_seconds"]
    assert first == scalar["reports"][0]["sweep_seconds"] == 0.001 + 5.0


def test_lossy_case_quarantines_and_probes():
    """The lossy case really exercises the breaker paths it claims to."""
    lane, _ = run_both(**CASES["lossy-quarantine"])
    assert any(report["skipped_quarantined"] for report in lane["reports"])
    assert any(report["no_response"] for report in lane["reports"])


def test_staggered_sweep_equals_scalar_sweeps():
    lane, scalar = run_both(stagger_seconds=0.5,
                            adversary_factory=lossy_link)
    for view in lane:
        assert lane[view] == scalar[view], view


def test_honest_lane_sweep_runs_no_scalar_chain(monkeypatch):
    """Every honest request's tag and check come from the lane pass:
    ``mac_chain`` never runs, yet each member is trusted."""
    swarm = build()
    swarm.sweep()
    calls = []
    original = Speck64_128.mac_chain
    monkeypatch.setattr(Speck64_128, "mac_chain",
                        lambda self, encoded: calls.append(1)
                        or original(self, encoded))
    report = swarm.sweep()
    assert report.trusted == len(swarm) and not calls


def test_retry_sweeps_stay_scalar(monkeypatch):
    swarm = build(retry=RetryPolicy(attempt_timeout_seconds=5.0,
                                    max_retries=1))
    monkeypatch.setattr(swarm, "_lane_sweep", None)
    assert swarm.sweep().trusted == len(swarm)


def test_two_shard_engine_equals_sequential_scalar_sweeps():
    """Shards call ``sweep_outcomes``, so they run the lane pre-pass on
    their own members; merged, they equal the sequential scalar loop."""
    spec = FleetSpec(size=6, device_config=tiny_config(),
                     adversary_factory=lossy_link, quarantine_after=2,
                     probe_every_sweeps=2, observe=True, seed="lane-fleet")
    scalar = scalar_sweeps(spec.build())
    with FleetEngine(spec, workers=2) as engine:
        for _ in range(SWEEPS):
            assert engine.sweep(stagger_seconds=0.5) == scalar.sweep(
                stagger_seconds=0.5)
        assert engine.device_states() == scalar.device_states()
        assert engine.total_attestations() == scalar.total_attestations()
        assert (json.dumps(engine.merged_registry().dump(), sort_keys=True)
                == json.dumps(scalar.merged_registry().dump(),
                              sort_keys=True))
        assert engine.merged_trace_records() == scalar.merged_trace_records()
