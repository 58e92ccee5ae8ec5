"""Shared fixtures: fast-to-simulate devices and sessions."""

from __future__ import annotations

import pytest

from repro.core import build_session
from repro.core.messages import AttestationRequest
from repro.mcu import Device, DeviceConfig, ROAM_HARDENED
from repro.net.channel import Verdict


def tiny_config(**overrides) -> DeviceConfig:
    """The smallest practical prover: quick measurements in tests."""
    defaults = dict(ram_size=8 * 1024, flash_size=16 * 1024,
                    app_size=2 * 1024)
    defaults.update(overrides)
    return DeviceConfig(**defaults)


def scalar_sweeps(swarm):
    """Make ``swarm`` sweep member by member on the scalar path: the
    reference a lane-packed sweep must equal."""
    swarm._lane_sweep = lambda stagger_seconds: [
        swarm._sweep_member(member, None, stagger_seconds)
        for member in swarm.members]
    return swarm


class DropRequests:
    """Channel adversary that drops the requests whose 1-based position
    in the channel's request traffic is in ``drop``; everything else is
    forwarded."""

    def __init__(self, *drop: int):
        self.drop = set(drop)
        self.seen = 0

    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest):
            self.seen += 1
            if self.seen in self.drop:
                return Verdict("drop")
        return Verdict("forward")


@pytest.fixture
def config() -> DeviceConfig:
    return tiny_config()


@pytest.fixture
def booted_device(config) -> Device:
    """A provisioned, roam-hardened device."""
    device = Device(config)
    device.provision(b"K" * 16)
    device.boot(ROAM_HARDENED)
    return device


@pytest.fixture
def session_factory():
    """Factory for end-to-end sessions on tiny devices."""

    def factory(**kwargs):
        kwargs.setdefault("device_config", tiny_config(
            clock_kind=kwargs.pop("clock_kind", "hw64")))
        return build_session(**kwargs)

    return factory
