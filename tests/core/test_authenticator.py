"""Request authentication schemes: tags, verification, costs."""

import dataclasses

import pytest

from repro.core.authenticator import (AesCbcMacAuthenticator,
                                      EcdsaAuthenticator, HmacAuthenticator,
                                      NullAuthenticator,
                                      SpeckCbcMacAuthenticator, SpeckTagLanes,
                                      make_symmetric_authenticator)
from repro.core.messages import AttestationRequest
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.ecc import SECP160R1, generate_keypair
from repro.crypto.modes import cbc_mac
from repro.crypto.rng import DeterministicRng
from repro.crypto.speck import Speck64_128
from repro.errors import ConfigurationError
from repro.net.channel import Verdict
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from tests.conftest import scalar_sweeps, tiny_config

KEY = b"k" * 16
PAYLOAD = b"attestation request payload"


@pytest.fixture(scope="module")
def model():
    return CryptoCostModel()


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(SECP160R1, DeterministicRng(b"auth-tests"))


SYMMETRIC = [HmacAuthenticator, AesCbcMacAuthenticator,
             SpeckCbcMacAuthenticator]


class TestSymmetricSchemes:
    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_roundtrip(self, cls):
        auth = cls(KEY)
        tag = auth.tag(PAYLOAD)
        assert auth.verify(PAYLOAD, tag)

    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_tampered_payload_fails(self, cls):
        auth = cls(KEY)
        tag = auth.tag(PAYLOAD)
        assert not auth.verify(PAYLOAD + b"x", tag)

    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_tampered_tag_fails(self, cls):
        auth = cls(KEY)
        tag = bytearray(auth.tag(PAYLOAD))
        tag[0] ^= 1
        assert not auth.verify(PAYLOAD, bytes(tag))

    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_wrong_key_fails(self, cls):
        tag = cls(KEY).tag(PAYLOAD)
        assert not cls(b"x" * 16).verify(PAYLOAD, tag)

    def test_factory(self):
        for scheme in ("none", "hmac-sha1", "aes-128-cbc-mac",
                       "speck-64/128-cbc-mac"):
            auth = make_symmetric_authenticator(scheme, KEY)
            assert auth.scheme == scheme

    def test_factory_unknown(self):
        with pytest.raises(ConfigurationError):
            make_symmetric_authenticator("enigma", KEY)


class TestSpeckTamper:
    """Every single-bit change to tag or payload is rejected, so a kernel
    that drops a trailing word or mis-chains a block cannot pass."""

    # 27 bytes: the last block carries payload only in its x word;
    # 30 bytes: in both words; 32 bytes: the payload is block-aligned.
    @pytest.fixture(params=[27, 30, 32])
    def payload(self, request):
        return (PAYLOAD * 2)[:request.param]

    def test_every_tag_bit(self, payload):
        auth = SpeckCbcMacAuthenticator(KEY)
        tag = auth.tag(payload)
        assert auth.verify(payload, tag)
        for bit in range(8 * len(tag)):
            flipped = bytearray(tag)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not auth.verify(payload, bytes(flipped)), bit

    def test_every_payload_bit(self, payload):
        auth = SpeckCbcMacAuthenticator(KEY)
        tag = auth.tag(payload)
        for bit in range(8 * len(payload)):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not auth.verify(bytes(flipped), tag), bit


def _flip(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


class LaneTamper:
    """Channel adversary acting on every genuine request of one member.

    ``payload``: drop it and inject a copy with a challenge byte flipped.
    ``tag``: inject its payload under a tag with a byte flipped, ahead
    of the genuine request.  ``replay``: deliver a verbatim copy a
    second later.  ``forge``: inject a forged request (fresh challenge,
    random tag) ahead of the genuine one.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.channel = None
        self.rng = DeterministicRng(f"lane-tamper:{mode}")

    def on_message(self, message, sender, receiver, time):
        if not isinstance(message, AttestationRequest):
            return Verdict("forward")
        if self.mode == "replay":
            return Verdict("duplicate", duplicate_delay=1.0)
        if self.mode == "payload":
            forged = dataclasses.replace(message,
                                         challenge=_flip(message.challenge))
        elif self.mode == "tag":
            forged = message.with_tag(_flip(message.auth_tag))
        else:
            forged = dataclasses.replace(message,
                                         challenge=self.rng.bytes(16),
                                         auth_tag=self.rng.bytes(8))
        self.channel.inject(receiver, forged, spoofed_sender=sender)
        return Verdict("drop" if self.mode == "payload" else "forward")


def _tampered_swarm(mode: str, *, scalar: bool) -> Swarm:
    swarm = Swarm(3, device_config=tiny_config(), observe=True,
                  adversary_factory=lambda index, device_id: LaneTamper(mode),
                  seed="lane-tamper")
    for member in swarm.members:
        member.session.channel.adversary.channel = member.session.channel
    return scalar_sweeps(swarm) if scalar else swarm


def _tampered_service(mode: str) -> AttestationService:
    service = AttestationService(3, tenants=1, backends=2,
                                 device_config=tiny_config(),
                                 seed="lane-tamper")
    for member in service.members:
        channel = member.session.channel
        channel.adversary = LaneTamper(mode)
        channel.adversary.channel = channel
    return service


def _prover_view(fleet: Swarm | AttestationService) -> list:
    return [(dataclasses.asdict(member.session.anchor.stats),
             member.session.device.cpu.cycle_count)
            for member in fleet.members]


class TestSpeckTamperThroughLanes:
    """The lane sweep's memos change no verdict and no charged cycle:
    tampered, replayed and forged requests die exactly as they do when
    every MAC runs on the scalar path."""

    @pytest.mark.parametrize("mode, reason", [
        ("payload", "bad-auth"), ("tag", "bad-auth"), ("forge", "bad-auth"),
        ("replay", "stale-counter")])
    def test_rejections_match_the_scalar_path(self, mode, reason):
        lane = _tampered_swarm(mode, scalar=False)
        scalar = _tampered_swarm(mode, scalar=True)
        for _ in range(3):
            assert lane.sweep() == scalar.sweep()
        assert _prover_view(lane) == _prover_view(scalar)
        assert lane.merged_trace_records() == scalar.merged_trace_records()
        for member in lane.members:
            assert member.session.anchor.stats.rejected == {reason: 3}

    @pytest.mark.parametrize("mode, reason, verdict", [
        ("payload", "bad-auth", "refused"), ("tag", "bad-auth", "trusted"),
        ("forge", "bad-auth", "trusted"),
        ("replay", "stale-counter", "trusted")])
    def test_attestd_rejections_match_the_scalar_path(self, mode, reason,
                                                       verdict):
        """Lane-packed ``serve`` waves against the scalar ``process``."""
        schedule = build_schedule(3, waves=3, spacing_seconds=20.0)
        lane, scalar = _tampered_service(mode), _tampered_service(mode)
        served = [r.fingerprint() for r in lane.serve_schedule(schedule)]
        assert served == [r.fingerprint() for r in scalar.process(schedule)]
        assert {record[4] for record in served} == {verdict}
        assert _prover_view(lane) == _prover_view(scalar)
        assert lane.freshness_fingerprint() == scalar.freshness_fingerprint()
        for member in lane.members:
            assert member.session.anchor.stats.rejected == {reason: 3}

    def test_memo_for_one_payload_never_answers_another(self):
        auth = SpeckCbcMacAuthenticator(KEY)
        SpeckTagLanes([auth]).precompute({0: PAYLOAD})
        genuine = cbc_mac(Speck64_128(KEY), PAYLOAD)
        altered = _flip(PAYLOAD)
        assert auth.tag(altered) == cbc_mac(Speck64_128(KEY), altered)
        assert not auth.verify(altered, genuine)
        # The memo still holds PAYLOAD's tag, and answers it once.
        assert auth._memo == (PAYLOAD, genuine)
        assert not auth.verify(PAYLOAD, _flip(genuine))
        assert auth._memo is None
        assert auth.verify(PAYLOAD, genuine)

    def test_memo_is_computed_under_each_authenticators_own_cipher(self):
        ours, theirs = (SpeckCbcMacAuthenticator(KEY),
                        SpeckCbcMacAuthenticator(b"z" * 16))
        SpeckTagLanes([ours, theirs]).precompute({0: PAYLOAD, 1: PAYLOAD})
        assert ours._memo == (PAYLOAD, cbc_mac(Speck64_128(KEY), PAYLOAD))
        assert theirs._memo == (PAYLOAD,
                                cbc_mac(Speck64_128(b"z" * 16), PAYLOAD))
        assert not theirs.verify(PAYLOAD, SpeckCbcMacAuthenticator(KEY)
                                 .tag(PAYLOAD))

    def test_only_carried_lanes_get_a_memo(self):
        auths = [SpeckCbcMacAuthenticator(bytes([k]) * 16) for k in range(4)]
        SpeckTagLanes(auths).precompute({3: PAYLOAD, 1: _flip(PAYLOAD)})
        assert [auth._memo for auth in auths] == [
            None, (_flip(PAYLOAD), cbc_mac(Speck64_128(bytes([1]) * 16),
                                           _flip(PAYLOAD))),
            None, (PAYLOAD, cbc_mac(Speck64_128(bytes([3]) * 16), PAYLOAD))]

    def test_prover_with_another_key_rejects_through_its_own_memo(
            self, monkeypatch):
        """Swapping one prover's authenticator repacks the prover lanes;
        its memo, computed under its own key, rejects the verifier's tag
        without any scalar MAC running."""
        swarm = Swarm(3, device_config=tiny_config(), seed="lane-rekey")
        assert swarm.sweep().trusted == 3
        swarm.members[1].session.anchor.authenticator = \
            SpeckCbcMacAuthenticator(b"z" * 16)
        calls = []
        original = Speck64_128.mac_chain
        monkeypatch.setattr(Speck64_128, "mac_chain",
                            lambda self, encoded: calls.append(1)
                            or original(self, encoded))
        swarm.sweep()
        stats = swarm.members[1].session.anchor.stats
        assert (stats.accepted, stats.rejected) == (1, {"bad-auth": 1})
        assert [member.session.anchor.stats.accepted
                for member in swarm.members] == [2, 1, 2]
        assert not calls


class TestNull:
    def test_accepts_anything(self):
        auth = NullAuthenticator()
        assert auth.tag(PAYLOAD) == b""
        assert auth.verify(PAYLOAD, b"")
        assert auth.verify(PAYLOAD, b"garbage")

    def test_zero_cost(self, model):
        assert NullAuthenticator().prover_validation_cycles(model) == 0


class TestEcdsa:
    def test_signer_checker_roundtrip(self, keypair):
        signer = EcdsaAuthenticator.signer(keypair)
        checker = EcdsaAuthenticator.checker(keypair.public)
        tag = signer.tag(PAYLOAD)
        assert checker.verify(PAYLOAD, tag)

    def test_tampered_fails(self, keypair):
        signer = EcdsaAuthenticator.signer(keypair)
        checker = EcdsaAuthenticator.checker(keypair.public)
        assert not checker.verify(PAYLOAD + b"!", signer.tag(PAYLOAD))

    def test_malformed_tag_fails_closed(self, keypair):
        checker = EcdsaAuthenticator.checker(keypair.public)
        assert not checker.verify(PAYLOAD, b"too-short")
        assert not checker.verify(PAYLOAD, bytes(42))

    def test_checker_cannot_sign(self, keypair):
        checker = EcdsaAuthenticator.checker(keypair.public)
        with pytest.raises(ConfigurationError):
            checker.tag(PAYLOAD)

    def test_needs_some_key(self):
        with pytest.raises(ConfigurationError):
            EcdsaAuthenticator()


class TestCostOrdering:
    def test_paper_ordering(self, model, keypair):
        """Speck < AES < HMAC << ECDSA (Section 4.1)."""
        costs = [
            SpeckCbcMacAuthenticator(KEY).prover_validation_cycles(model),
            AesCbcMacAuthenticator(KEY).prover_validation_cycles(model),
            HmacAuthenticator(KEY).prover_validation_cycles(model),
            EcdsaAuthenticator.checker(
                keypair.public).prover_validation_cycles(model),
        ]
        assert costs == sorted(costs)
        assert costs[3] > 100 * costs[2]
