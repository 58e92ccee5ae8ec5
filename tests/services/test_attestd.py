"""The verifier service tier: admission, sharding, crash recovery.

Three properties anchor this suite (they are the smoke-script gates,
restated over generated shapes):

* admission control is a pure function of the request schedule -- the
  same spec and schedule always yield the same records, rejections
  included;
* consistent-hash placement decides only *where* a session runs --
  changing the backend count (or worker count) never changes a
  verdict, a freshness counter, or a telemetry line;
* a service killed mid-load and restored from its snapshot continues
  byte-identically to one that was never interrupted.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authenticator import SpeckCbcMacAuthenticator
from repro.crypto.speck import Speck64_128
from repro.errors import ConfigurationError, SnapshotError
from repro.services.attestd import (AttestationService, HashRing,
                                    ServiceRequest, TokenBucket,
                                    build_schedule,
                                    build_service_from_spec, service_spec)
from tests.conftest import DropRequests, tiny_config


def view(service):
    """Everything observable about a service, placement-free."""
    return {
        "freshness": service.freshness_fingerprint(),
        "registry": json.dumps(service.merged_registry().dump(),
                               sort_keys=True),
        "admitted": service.admitted,
        "rejected": service.rejected,
        "virtual_now": service.virtual_now,
    }


def tight_service(size, *, backends=3, seed="attestd-test"):
    """A service whose duty budget binds within a few waves."""
    return AttestationService(size, tenants=min(3, size),
                              backends=backends, duty_fraction=0.001,
                              burst_seconds=30.0, observe=True, seed=seed)


class TestTokenBucket:
    def test_starts_full_and_charges(self):
        bucket = TokenBucket(rate=1.0, burst=10.0)
        assert bucket.tokens == 10.0
        assert bucket.try_take(0.0, 4.0)
        assert bucket.tokens == pytest.approx(6.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=2.0, burst=5.0, tokens=1.0)
        bucket.refill(100.0)
        assert bucket.tokens == 5.0

    def test_rejects_when_empty_then_recovers(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0, 2.0)
        assert not bucket.try_take(0.0, 0.5)
        assert bucket.try_take(1.0, 0.5)

    def test_time_cannot_go_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        bucket.refill(5.0)
        with pytest.raises(ConfigurationError):
            bucket.refill(4.0)

    def test_validates_shape(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestHashRing:
    def test_placement_is_deterministic(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["a", "b", "c"])
        for index in range(64):
            device = f"device-{index:03d}"
            assert one.backend_for(device) == two.backend_for(device)

    def test_removal_only_moves_vacated_arcs(self):
        full = HashRing(["a", "b", "c"])
        without_c = HashRing(["a", "b"])
        for index in range(128):
            device = f"device-{index:03d}"
            before = full.backend_for(device)
            if before != "c":
                assert without_c.backend_for(device) == before

    def test_all_backends_get_work(self):
        ring = HashRing(["a", "b", "c", "d"])
        owners = {ring.backend_for(f"device-{i:03d}") for i in range(256)}
        assert owners == {"a", "b", "c", "d"}

    def test_validates_shape(self):
        with pytest.raises(ConfigurationError):
            HashRing([])
        with pytest.raises(ConfigurationError):
            HashRing(["a"], vnodes=0)


class TestSchedule:
    def test_replays_exactly_from_seed(self):
        one = build_schedule(8, waves=3, seed="sched")
        two = build_schedule(8, waves=3, seed="sched")
        assert one == two
        assert one != build_schedule(8, waves=3, seed="other")

    def test_waves_share_an_arrival_instant(self):
        schedule = build_schedule(6, waves=2, spacing_seconds=45.0)
        arrivals = {r.arrival_seconds for r in schedule}
        assert arrivals == {0.0, 45.0}
        assert [r.request_id for r in schedule] == list(range(12))

    def test_validates_shape(self):
        with pytest.raises(ConfigurationError):
            build_schedule(0, waves=1)
        with pytest.raises(ConfigurationError):
            build_schedule(4, waves=1, wave_devices=5)
        with pytest.raises(ConfigurationError):
            build_schedule(4, waves=1, start_seconds=-1.0)


class TestAdmission:
    def test_unknown_device_index_raises(self):
        service = tight_service(4)
        with pytest.raises(ConfigurationError):
            service.admit(ServiceRequest(0.0, 99, 0))

    def test_schedule_must_be_non_decreasing(self):
        service = tight_service(4)
        service.admit(ServiceRequest(10.0, 0, 0))
        with pytest.raises(ConfigurationError):
            service.admit(ServiceRequest(5.0, 1, 1))

    def test_rejection_charges_nothing(self):
        """Reject-before-measure: a turned-away request leaves session
        state untouched (the Section 3.1 defence)."""
        service = tight_service(6)
        schedule = build_schedule(6, waves=6, spacing_seconds=1.0)
        before_counters = None
        records = service.process(schedule)
        rejected = [r for r in records if not r.admitted]
        assert rejected, "duty budget never bound; test proves nothing"
        assert all(r.verdict == "rejected-admission" and
                   r.detail == "duty-budget-exhausted" for r in rejected)
        fresh = service.freshness_fingerprint()
        admitted_per_device = {}
        for r in records:
            if r.admitted:
                admitted_per_device[r.device_id] = (
                    admitted_per_device.get(r.device_id, 0) + 1)
        for device_id, state in fresh.items():
            assert state["received"] == admitted_per_device.get(device_id, 0)

    @given(size=st.integers(min_value=2, max_value=10),
           waves=st.integers(min_value=1, max_value=4),
           salt=st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_admission_is_deterministic(self, size, waves, salt):
        schedule = build_schedule(size, waves=waves, spacing_seconds=20.0,
                                  seed=f"adm-{salt}")
        seed = f"adm-svc-{salt}"
        one = tight_service(size, seed=seed)
        two = tight_service(size, seed=seed)
        records_one = [r.fingerprint()
                       for r in one.serve_schedule(schedule)]
        records_two = [r.fingerprint()
                       for r in two.serve_schedule(schedule)]
        assert records_one == records_two
        assert view(one) == view(two)


class TestShardEquivalence:
    @given(size=st.integers(min_value=2, max_value=8),
           backends=st.integers(min_value=1, max_value=6),
           workers=st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_placement_never_changes_answers(self, size, backends,
                                             workers):
        schedule = build_schedule(size, waves=3, spacing_seconds=20.0,
                                  seed=f"shard-{size}")
        reference = tight_service(size, backends=3)
        sharded = tight_service(size, backends=backends)
        expected = [r.fingerprint() for r in reference.process(schedule)]
        got = [r.fingerprint()
               for r in sharded.serve_schedule(schedule, workers=workers)]
        assert got == expected
        assert view(sharded) == view(reference)

    def test_serve_matches_process_with_rejections(self):
        size = 12
        schedule = build_schedule(size, waves=5, spacing_seconds=10.0)
        serviced = tight_service(size)
        sequential = tight_service(size)
        served = serviced.serve_schedule(schedule)
        processed = sequential.process(schedule)
        assert [r.fingerprint() for r in served] == \
               [r.fingerprint() for r in processed]
        assert serviced.rejected > 0
        assert view(serviced) == view(sequential)

    def test_peak_in_flight_counts_a_full_wave(self):
        service = AttestationService(16, tenants=2, backends=4,
                                     observe=False, seed="peak")
        schedule = build_schedule(16, waves=1)
        service.serve_schedule(schedule)
        assert service.peak_in_flight == 16


class TestRestoreContinue:
    @given(size=st.integers(min_value=2, max_value=8),
           waves=st.integers(min_value=2, max_value=4),
           split=st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_kill_restore_equals_uninterrupted(self, size, waves, split):
        split = min(split, waves - 1)
        spacing = 25.0
        schedule = build_schedule(size, waves=waves,
                                  spacing_seconds=spacing,
                                  seed=f"kill-{size}-{waves}")
        head = [r for r in schedule if r.arrival_seconds < split * spacing]
        tail = [r for r in schedule if r.arrival_seconds >= split * spacing]

        uninterrupted = tight_service(size)
        expected = [r.fingerprint()
                    for r in uninterrupted.serve_schedule(schedule)]

        interrupted = tight_service(size)
        interrupted.serve_schedule(head)
        document = json.loads(json.dumps(interrupted.snapshot()))
        resumed = tight_service(size)
        resumed.restore(document)
        continued = [r.fingerprint()
                     for r in resumed.serve_schedule(tail)]
        assert continued == expected[len(head):]
        assert view(resumed) == view(uninterrupted)

    def test_restore_refuses_wrong_shape(self):
        donor = tight_service(4)
        donor.serve_schedule(build_schedule(4, waves=1))
        document = donor.snapshot()
        with pytest.raises(SnapshotError):
            tight_service(5).restore(document)

    def test_restore_is_placement_free(self):
        """A snapshot taken on 3 backends restores onto 7: placement is
        topology, not state."""
        schedule = build_schedule(6, waves=2, spacing_seconds=30.0)
        donor = tight_service(6, backends=3)
        donor.serve_schedule(schedule)
        resumed = tight_service(6, backends=7)
        resumed.restore(donor.snapshot())
        assert view(resumed)["freshness"] == view(donor)["freshness"]

    def test_spec_round_trip(self):
        spec = service_spec(size=5, tenants=2, backends=3, seed="spec")
        assert spec == json.loads(json.dumps(spec))
        service = build_service_from_spec(spec)
        assert len(service) == 5
        assert set(service.buckets) == {"tenant-00", "tenant-01"}


def count_scalar_chains(monkeypatch) -> list:
    """Record every scalar ``Speck64_128.mac_chain`` call from now on."""
    calls = []
    original = Speck64_128.mac_chain
    monkeypatch.setattr(Speck64_128, "mac_chain",
                        lambda self, encoded: calls.append(1)
                        or original(self, encoded))
    return calls


def small_service(size=6, **overrides):
    options = dict(tenants=2, backends=3, device_config=tiny_config(),
                   seed="lane-waves")
    options.update(overrides)
    return AttestationService(size, **options)


class TestLaneWaves:
    """``serve`` takes each wave's request MACs in one lane pass per
    side; ``process`` stays scalar.  Both must agree on every record,
    every freshness counter and every telemetry line."""

    def assert_equal(self, schedule, **overrides) -> list:
        """Serve and process ``schedule`` on twin services; returns the
        served record fingerprints."""
        served, processed = (small_service(**overrides),
                             small_service(**overrides))
        got = [r.fingerprint() for r in served.serve_schedule(schedule)]
        assert got == [r.fingerprint() for r in processed.process(schedule)]
        assert view(served) == view(processed)
        return got

    def test_honest_waves_run_no_scalar_chain(self, monkeypatch):
        schedule = build_schedule(6, waves=3, spacing_seconds=20.0)
        service = small_service()
        calls = count_scalar_chains(monkeypatch)
        records = service.serve_schedule(schedule)
        assert all(r.verdict == "trusted" for r in records)
        assert not calls

    def test_device_named_twice_in_a_wave(self, monkeypatch):
        """The second round of a device within one wave is prepared
        after its first, on the scalar path: one tag and one check."""
        schedule = [ServiceRequest(1.0, 0, 0), ServiceRequest(1.0, 1, 1),
                    ServiceRequest(1.0, 0, 2), ServiceRequest(2.0, 0, 3),
                    ServiceRequest(2.0, 0, 4), ServiceRequest(2.0, 0, 5)]
        records = self.assert_equal(schedule, policy_name="timestamp")
        assert [r[4] for r in records] == ["trusted"] * 6
        calls = count_scalar_chains(monkeypatch)
        small_service(policy_name="timestamp").serve_schedule(schedule)
        assert len(calls) == 2 * 3

    def test_hmac_service_stays_scalar(self):
        self.assert_equal(build_schedule(6, waves=2, spacing_seconds=20.0),
                          auth_scheme="hmac-sha1")

    def test_restore_mid_schedule(self, monkeypatch):
        """A service restored mid-schedule packs its own keys on the
        first wave it serves and continues as the uninterrupted scalar
        reference does."""
        schedule = build_schedule(6, waves=4, spacing_seconds=20.0)
        head, tail = schedule[:12], schedule[12:]
        donor = small_service()
        donor.serve_schedule(head)
        document = json.loads(json.dumps(donor.snapshot()))
        reference = small_service()
        expected = [r.fingerprint() for r in reference.process(schedule)]
        resumed = small_service()
        resumed.restore(document)
        calls = count_scalar_chains(monkeypatch)
        got = [r.fingerprint() for r in resumed.serve_schedule(tail)]
        assert got == expected[len(head):]
        assert view(resumed) == view(reference)
        assert not calls

    def test_swapped_authenticator_is_repacked(self, monkeypatch):
        """A prover whose authenticator changed between waves gets its
        lane repacked: its own memo rejects the verifier's tag, with no
        scalar MAC run."""
        service = small_service(size=3, tenants=1)
        service.serve_schedule([ServiceRequest(1.0, i, i) for i in range(3)])
        service.members[1].session.anchor.authenticator = \
            SpeckCbcMacAuthenticator(b"z" * 16)
        calls = count_scalar_chains(monkeypatch)
        records = service.serve_schedule(
            [ServiceRequest(2.0, i, 3 + i) for i in range(3)])
        assert [r.verdict for r in records] == ["trusted", "refused",
                                                "trusted"]
        assert not calls


class TestNoStaleVerdict:
    @pytest.mark.parametrize("path", ["serve", "process"])
    def test_dropped_request_after_a_trusted_round(self, path):
        service = AttestationService(1, tenants=1, backends=1,
                                     device_config=tiny_config(),
                                     seed="stale")
        session = service.members[0].session
        session.channel.adversary = DropRequests(2)
        schedule = [ServiceRequest(float(wave), 0, wave)
                    for wave in range(3)]
        run = (service.serve_schedule if path == "serve"
               else service.process)
        assert [r.verdict for r in run(schedule)] == [
            "trusted", "no_response", "trusted"]
        assert session.anchor.stats.received == 2
