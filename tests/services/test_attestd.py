"""The verifier service tier: admission, sharding, crash recovery.

Three properties anchor this suite (they are the smoke-script gates,
restated over generated shapes):

* admission control is a pure function of the request schedule -- the
  same spec and schedule always yield the same records, rejections
  included;
* consistent-hash placement decides only *where* a session runs --
  changing the backend count never changes a verdict, a freshness
  counter, or a telemetry line;
* a service killed mid-load and restored from its snapshot continues
  byte-identically to one that was never interrupted.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authenticator import SpeckCbcMacAuthenticator
from repro.crypto.speck import Speck64_128
from repro.errors import ConfigurationError, SnapshotError
from repro.mcu.statecache import StateDigestCache
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
        service = small_service(duty_fraction=0.005, burst_seconds=10.0)
        schedule = build_schedule(6, waves=6, spacing_seconds=1.0)
        records = service.process(schedule)
        rejected = [r for r in records if not r.admitted]
        assert rejected, "duty budget never bound; test proves nothing"
        assert len(rejected) < len(records), "nothing admitted"
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
           backends=st.integers(min_value=1, max_value=7))
    @settings(max_examples=15, deadline=None)
    def test_placement_never_changes_answers(self, size, backends):
        schedule = build_schedule(size, waves=3, spacing_seconds=20.0,
                                  seed=f"shard-{size}")
        reference = tight_service(size, backends=3)
        sharded = tight_service(size, backends=backends)
        expected = [r.fingerprint() for r in reference.process(schedule)]
        got = [r.fingerprint()
               for r in sharded.serve_schedule(schedule)]
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
        assert [r.verdict for r in run_path(service, path)(schedule)] == [
            "trusted", "no_response", "trusted"]
        assert session.anchor.stats.received == 2


def snapshot_text(service) -> str:
    return json.dumps(service.snapshot(), sort_keys=True)


def run_path(service, path):
    return service.serve_schedule if path == "serve" else service.process


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestBadScheduleLeavesNoState:
    """A schedule is checked whole before anything is admitted: a bad
    request raises a :class:`ConfigurationError` naming it and its
    field, and the service is byte-for-byte as it was."""

    @pytest.mark.parametrize("path", ["serve", "process"])
    def test_unknown_device_after_two_good_ones(self, path):
        service = small_service(size=4, tenants=1)
        before = snapshot_text(service)
        wave = [ServiceRequest(1.0, 0, 0), ServiceRequest(1.0, 1, 1),
                ServiceRequest(1.0, 99, 2)]
        with pytest.raises(ConfigurationError,
                           match="request 2: device_index 99"):
            run_path(service, path)(wave)
        assert snapshot_text(service) == before
        assert service.admitted == 0
        assert [m.session.anchor.stats.received
                for m in service.members] == [0] * 4

    @pytest.mark.parametrize("path", ["serve", "process"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_arrival_cannot_bypass_the_duty_budget(self, path,
                                                               bad):
        """A NaN or infinite arrival used to refill every bucket to its
        burst on each request; now the schedule is refused whole."""
        def service():
            return AttestationService(4, tenants=1, backends=2,
                                      duty_fraction=0.01,
                                      burst_seconds=30.0,
                                      device_config=tiny_config(),
                                      seed="duty-nan")

        finite = [ServiceRequest(0.0, i % 4, i) for i in range(40)]
        control = service()
        run_path(control, path)(finite)
        assert 0 < control.admitted < 40, "budget never bound"
        poisoned = service()
        before = snapshot_text(poisoned)
        schedule = [finite[0], ServiceRequest(bad, 1, 1), *finite[2:]]
        with pytest.raises(ConfigurationError,
                           match="request 1: arrival_seconds"):
            run_path(poisoned, path)(schedule)
        assert snapshot_text(poisoned) == before

    @given(path=st.sampled_from(["serve", "process"]),
           arrivals=st.lists(st.floats(min_value=10.0, max_value=50.0),
                             min_size=1, max_size=8),
           position=st.integers(min_value=0, max_value=7),
           data=st.data(),
           bad=st.one_of(
               st.tuples(st.just("device_index"),
                         st.sampled_from([-1, 4, 99, True, False, 1.0])),
               st.tuples(st.just("arrival_seconds"),
                         st.sampled_from([*NON_FINITE, 9.0]))))
    @settings(max_examples=40, deadline=None)
    def test_any_bad_field_raises_and_changes_nothing(self, path, arrivals,
                                                      position, data, bad):
        """One bad field anywhere in an otherwise good schedule: an
        out-of-range, ``bool`` or ``float`` device index, or an arrival
        that is non-finite or earlier than the admission clock (10.0
        after the history) or than the request before it."""
        service = small_service(size=4, tenants=1)
        service.serve_schedule([ServiceRequest(10.0, 0, 0)])
        arrivals.sort()
        schedule = [ServiceRequest(arrival,
                                   data.draw(st.integers(0, 3)),
                                   100 + slot)
                    for slot, arrival in enumerate(arrivals)]
        position = min(position, len(schedule) - 1)
        field, value = bad
        schedule[position] = dataclasses.replace(schedule[position],
                                                 **{field: value})
        before = snapshot_text(service)
        with pytest.raises(ConfigurationError,
                           match=f"request {100 + position}: {field}"):
            run_path(service, path)(schedule)
        assert snapshot_text(service) == before


class TestNonFiniteTimes:
    @given(now=st.sampled_from(NON_FINITE),
           spent=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_bucket_refuses_non_finite_now(self, now, spent):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        bucket.try_take(3.0, spent)
        state = (bucket.tokens, bucket.updated)
        with pytest.raises(ConfigurationError, match="finite"):
            bucket.refill(now)
        with pytest.raises(ConfigurationError, match="finite"):
            bucket.try_take(now, 0.0)
        assert (bucket.tokens, bucket.updated) == state

    @given(field=st.sampled_from(["rate", "burst"]),
           value=st.sampled_from(NON_FINITE))
    @settings(max_examples=10, deadline=None)
    def test_bucket_refuses_non_finite_shape(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            TokenBucket(**{"rate": 1.0, "burst": 2.0, field: value})

    @given(field=st.sampled_from(["spacing_seconds", "start_seconds"]),
           value=st.sampled_from([*NON_FINITE, -1.0]))
    @settings(max_examples=12, deadline=None)
    def test_schedule_refuses_non_finite_times(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            build_schedule(4, waves=2, **{field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_service_refuses_non_finite_burst(self, value):
        with pytest.raises(ConfigurationError, match="burst_seconds"):
            AttestationService(2, tenants=1, burst_seconds=value,
                               device_config=tiny_config())


class TestInjectedClock:
    """The host-clock contract perfbench's latency figures rest on: per
    wave, each admitted request reads the clock once at admission, in
    schedule order and before any round runs, and once when its round
    completes, in schedule order; a rejected request never reads it."""

    def assert_contract(self, service, schedule):
        reads = []

        def clock():
            rounds = sum(member.session.anchor.stats.received
                         for member in service.members)
            reads.append((float(len(reads)), service.admitted, rounds))
            return reads[-1][0]

        waves = {}
        for request in schedule:
            waves.setdefault(request.arrival_seconds, []).append(request)
        for wave in waves.values():
            reads.clear()
            admitted_before = service.admitted
            rounds_before = sum(member.session.anchor.stats.received
                                for member in service.members)
            records = service.serve_schedule(wave, clock=clock)
            admitted = [r for r in records if r.admitted]
            n = len(admitted)
            assert len(reads) == 2 * n
            assert [read[1:] for read in reads[:n]] == [
                (admitted_before + k + 1, rounds_before) for k in range(n)]
            assert [read[1:] for read in reads[n:]] == [
                (admitted_before + n, rounds_before + k + 1)
                for k in range(n)]
            for k, record in enumerate(admitted):
                assert record.host_latency_seconds == (reads[n + k][0]
                                                       - reads[k][0])
            assert all(r.host_latency_seconds is None
                       for r in records if not r.admitted)

    def test_admitted_and_rejected_requests(self):
        service = small_service(duty_fraction=0.005, burst_seconds=10.0)
        schedule = build_schedule(6, waves=6, spacing_seconds=1.0)
        self.assert_contract(service, schedule)
        assert service.admitted > 0 and service.rejected > 0

    def test_device_named_twice_in_a_wave(self):
        service = small_service(size=3)
        schedule = [ServiceRequest(1.0, 0, 0), ServiceRequest(1.0, 1, 1),
                    ServiceRequest(1.0, 0, 2), ServiceRequest(2.0, 2, 3),
                    ServiceRequest(2.0, 2, 4)]
        self.assert_contract(service, schedule)
        assert service.admitted == 5
        assert service.peak_in_flight == 3


class TestSharedStateCache:
    def test_serve_matches_process_on_cache_stats(self):
        """Both paths run rounds in schedule order, so a shared state
        cache sees the same lookups in the same order."""
        schedule = build_schedule(8, waves=3, spacing_seconds=20.0)
        served, processed = (
            small_service(size=8, backends=4,
                          state_cache=StateDigestCache(max_entries=2))
            for _ in range(2))
        got = [r.fingerprint() for r in served.serve_schedule(schedule)]
        assert got == [r.fingerprint() for r in processed.process(schedule)]
        assert view(served) == view(processed)
        assert served.state_cache.stats() == processed.state_cache.stats()
