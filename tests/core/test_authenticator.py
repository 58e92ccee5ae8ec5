"""Request authentication schemes: tags, verification, costs."""

import pytest

from repro.core.authenticator import (AesCbcMacAuthenticator,
                                      EcdsaAuthenticator, HmacAuthenticator,
                                      NullAuthenticator,
                                      SpeckCbcMacAuthenticator,
                                      make_symmetric_authenticator)
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.ecc import SECP160R1, generate_keypair
from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError

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
