"""IoT swarm: fleet assembly, sweeps, health reporting."""

import pytest

from repro.errors import ConfigurationError
from repro.services.swarm import Swarm
from tests.conftest import DropRequests, scalar_sweeps, tiny_config


@pytest.fixture(scope="module")
def swarm():
    return Swarm(3, device_config=tiny_config(), seed="test-swarm")


class TestAssembly:
    def test_size(self, swarm):
        assert len(swarm) == 3

    def test_members_have_distinct_keys(self, swarm):
        keys = {member.session.key for member in swarm.members}
        assert len(keys) == 3

    def test_member_lookup(self, swarm):
        assert swarm.member("device-001").device_id == "device-001"
        with pytest.raises(KeyError):
            swarm.member("device-999")

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Swarm(0)

    def test_per_member_config_override(self):
        mixed = Swarm(2, device_config=tiny_config(),
                      member_configs={1: tiny_config(clock_kind="sw")},
                      seed="test-swarm-mixed")
        assert mixed.members[0].session.device.clock.kind == "hardware"
        assert mixed.members[1].session.device.clock.kind == "software"


class TestSweep:
    def test_healthy_sweep(self, swarm):
        report = swarm.sweep()
        assert report.attempted == 3
        assert report.trusted == 3
        assert report.healthy
        assert report.fleet_energy_mj > 0

    def test_compromised_member_flagged(self):
        fleet = Swarm(2, device_config=tiny_config(), seed="test-swarm-2")
        fleet.members[1].session.device.flash.load(64, b"\xEB\xFE")
        report = fleet.sweep()
        assert report.trusted == 1
        assert report.untrusted == ["device-001"]
        assert not report.healthy

    def test_total_attestations_accumulate(self):
        fleet = Swarm(2, device_config=tiny_config(), seed="test-swarm-3")
        fleet.sweep()
        fleet.sweep()
        assert fleet.total_attestations() == 4
        assert fleet.sweeps_run == 2

    def test_battery_report(self, swarm):
        report = swarm.fleet_battery_report()
        assert set(report) == {"device-000", "device-001", "device-002"}
        assert all(0.0 < fraction <= 1.0 for fraction in report.values())

    def test_staggered_sweep(self):
        fleet = Swarm(2, device_config=tiny_config(), seed="test-swarm-4")
        fleet.sweep(stagger_seconds=1.0)
        t0 = fleet.members[0].session.sim.now
        t1 = fleet.members[1].session.sim.now
        assert t1 > t0


class TestNoStaleVerdict:
    """A round in which nothing arrives is booked as this round's
    silence, never as the previous round's verdict."""

    @pytest.mark.parametrize("scalar", [False, True])
    def test_dropped_request_after_a_trusted_round(self, scalar):
        fleet = Swarm(1, device_config=tiny_config(), seed="stale",
                      adversary_factory=lambda index, device_id:
                      DropRequests(2))
        if scalar:
            scalar_sweeps(fleet)
        assert fleet.sweep().trusted == 1
        report = fleet.sweep()
        assert fleet.members[0].session.anchor.stats.received == 1
        assert (report.trusted, report.no_response) == (0, ["device-000"])
        assert fleet.sweep().trusted == 1

    def test_refused_request_after_a_trusted_round(self):
        fleet = Swarm(1, device_config=tiny_config(), seed="stale-refused")
        assert fleet.sweep().trusted == 1
        verifier = fleet.members[0].session.verifier
        verifier.freshness_state.next_counter -= 1
        report = fleet.sweep()
        assert (report.trusted, report.refused) == (0, ["device-000"])
        assert fleet.members[0].session.anchor.stats.rejected == {
            "stale-counter": 1}
