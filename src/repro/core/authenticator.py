"""Request authentication schemes (Section 4.1).

"In order to mitigate bogus attestation requests ... the verifier must
authenticate itself to the prover."  Four concrete schemes from Table 1,
plus the null scheme that models today's unauthenticated protocols:

=========================  ============================  =================
Scheme                     Tag construction               Prover cost
=========================  ============================  =================
``none``                   (no tag)                       0 ms
``speck-64/128-cbc-mac``   Speck CBC-MAC                  0.015 ms
``aes-128-cbc-mac``        AES-128 CBC-MAC                0.288 ms
``hmac-sha1``              HMAC-SHA1                      0.430 ms
``ecdsa-secp160r1``        ECDSA signature                170.907 ms (!)
=========================  ============================  =================

The ECDSA row is the paper's paradox: authenticating a request costs the
prover almost as much as attestation itself, so public-key schemes are
ruled out for low-end provers.

:class:`SpeckTagLanes` precomputes the Speck tags of many
authenticators in one lane-packed pass (a fleet sweep or an ``attestd``
wave, through :class:`repro.core.protocol.RequestLanes`); each
authenticator then answers its own next :meth:`tag` from that memo.
Host time only: simulated cycles come from the cost model either way.

Authenticators are symmetric objects: the verifier calls :meth:`tag`, the
prover calls :meth:`verify`.  For ECDSA the two sides are constructed
differently (signer holds the private key, verifier of the tag -- i.e.
the prover -- holds only the public point).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ..crypto.aes import AES128
from ..crypto.costmodel import CryptoCostModel
from ..crypto.ecc import (CurveParams, EccPoint, EcdsaKeyPair, SECP160R1,
                          ecdsa_sign, ecdsa_verify)
from ..crypto.hmac import constant_time_compare, hmac_sha1
from ..crypto.modes import cbc_mac, cbc_mac_encode
from ..crypto.speck import BLOCK_SIZE, Speck64_128, SpeckLanes
from ..errors import ConfigurationError, InvalidSignatureError

__all__ = ["RequestAuthenticator", "NullAuthenticator", "HmacAuthenticator",
           "AesCbcMacAuthenticator", "SpeckCbcMacAuthenticator",
           "EcdsaAuthenticator", "SpeckTagLanes",
           "make_symmetric_authenticator"]


class RequestAuthenticator:
    """Interface: produce and check request authentication tags."""

    scheme: str = "abstract"

    def tag(self, payload: bytes) -> bytes:
        """Verifier side: compute the tag over ``payload``."""
        raise NotImplementedError

    def verify(self, payload: bytes, tag: bytes) -> bool:
        """Prover side: check ``tag`` over ``payload``."""
        raise NotImplementedError

    def prover_validation_cycles(self, model: CryptoCostModel) -> int:
        """Simulated cycle cost of one prover-side validation."""
        return model.request_validation_cycles(self.scheme)


class NullAuthenticator(RequestAuthenticator):
    """No authentication: every request is 'valid' (the DoS baseline)."""

    scheme = "none"

    def tag(self, payload: bytes) -> bytes:
        return b""

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return True


class HmacAuthenticator(RequestAuthenticator):
    """HMAC-SHA1 over the request payload under the shared key."""

    scheme = "hmac-sha1"

    def __init__(self, key: bytes):
        self._key = bytes(key)

    def tag(self, payload: bytes) -> bytes:
        return hmac_sha1(self._key, payload)

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return constant_time_compare(self.tag(payload), tag)


class AesCbcMacAuthenticator(RequestAuthenticator):
    """AES-128 CBC-MAC over the request payload."""

    scheme = "aes-128-cbc-mac"

    def __init__(self, key: bytes):
        self._cipher = AES128(key)

    def tag(self, payload: bytes) -> bytes:
        return cbc_mac(self._cipher, payload)

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return constant_time_compare(self.tag(payload), tag)


class SpeckCbcMacAuthenticator(RequestAuthenticator):
    """Speck 64/128 CBC-MAC: the paper's cheapest viable scheme.

    ``_memo`` is a one-entry ``(payload, tag)`` cache that only
    :class:`SpeckTagLanes` fills, with the MAC of ``payload`` under this
    authenticator's own cipher.  :meth:`tag` answers from it once, and
    only for a byte-identical payload; anything else is computed here.
    So :meth:`verify` still compares MAC_K(payload) against the received
    tag, whichever path produced MAC_K(payload).
    """

    scheme = "speck-64/128-cbc-mac"

    def __init__(self, key: bytes):
        self._cipher = Speck64_128(key)
        self._memo: tuple[bytes, bytes] | None = None

    def tag(self, payload: bytes) -> bytes:
        memo = self._memo
        if memo is not None and memo[0] == payload:
            self._memo = None
            return memo[1]
        return cbc_mac(self._cipher, payload)

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return constant_time_compare(self.tag(payload), tag)


class EcdsaAuthenticator(RequestAuthenticator):
    """ECDSA over secp160r1: ruled out by the paper, kept as the baseline.

    Build the verifier side with :meth:`signer` (private key) and the
    prover side with :meth:`checker` (public key only -- stored in the
    prover's "non-malleable memory", Section 4.1).
    """

    scheme = "ecdsa-secp160r1"
    _SIG_BYTES = 21  # per component on secp160r1 (161-bit order)

    def __init__(self, *, keypair: EcdsaKeyPair | None = None,
                 public: EccPoint | None = None,
                 curve: CurveParams = SECP160R1):
        if keypair is None and public is None:
            raise ConfigurationError("EcdsaAuthenticator needs a key")
        self._keypair = keypair
        self._public = keypair.public if keypair is not None else public
        self._curve = curve

    @classmethod
    def signer(cls, keypair: EcdsaKeyPair) -> "EcdsaAuthenticator":
        return cls(keypair=keypair)

    @classmethod
    def checker(cls, public: EccPoint,
                curve: CurveParams = SECP160R1) -> "EcdsaAuthenticator":
        return cls(public=public, curve=curve)

    def tag(self, payload: bytes) -> bytes:
        if self._keypair is None:
            raise ConfigurationError("this side holds no signing key")
        r, s = ecdsa_sign(self._keypair, payload)
        return (r.to_bytes(self._SIG_BYTES, "big")
                + s.to_bytes(self._SIG_BYTES, "big"))

    def verify(self, payload: bytes, tag: bytes) -> bool:
        if len(tag) != 2 * self._SIG_BYTES:
            return False
        r = int.from_bytes(tag[:self._SIG_BYTES], "big")
        s = int.from_bytes(tag[self._SIG_BYTES:], "big")
        try:
            return ecdsa_verify(self._curve, self._public, payload, (r, s))
        except InvalidSignatureError:
            return False


class SpeckTagLanes:
    """One lane-packed Speck pass that primes many authenticators' memos.

    Built for a fixed list of :class:`SpeckCbcMacAuthenticator`; packs
    their ciphers' round keys once (:class:`~repro.crypto.speck.\
SpeckLanes`).  :meth:`precompute` MACs one payload per authenticator
    under that authenticator's own cipher and leaves the tag in its
    memo, for its next :meth:`~SpeckCbcMacAuthenticator.tag` to answer.
    The memos hold tags only, never key material.
    """

    def __init__(self, authenticators: Sequence[SpeckCbcMacAuthenticator]):
        self._authenticators = tuple(authenticators)
        self._lanes = SpeckLanes([auth._cipher
                                  for auth in self._authenticators])

    def serves(self, lanes: Sequence[int],
               authenticators: Sequence[RequestAuthenticator]) -> bool:
        """Whether lane ``lanes[k]`` was packed from
        ``authenticators[k]`` and its current cipher, for every ``k``;
        the other lanes are not visited."""
        packed = self._authenticators
        ciphers = self._lanes.ciphers
        return all(packed[lane] is auth and auth._cipher is ciphers[lane]
                   for lane, auth in zip(lanes, authenticators))

    def precompute(self, payloads: Mapping[int, bytes]) -> None:
        """Memoise authenticator ``lane``'s tag of ``payloads[lane]`` for
        every lane ``payloads`` carries; the others are left alone."""
        tags = self._lanes.mac_chains(
            {lane: cbc_mac_encode(payload, BLOCK_SIZE)
             for lane, payload in payloads.items()})
        # Indexed, not zipped with the authenticators: only the tag and
        # the public payload enter the memo.
        for lane, tag in tags.items():
            self._authenticators[lane]._memo = (payloads[lane], tag)


_SYMMETRIC_SCHEMES = {
    "none": lambda key: NullAuthenticator(),
    "hmac-sha1": HmacAuthenticator,
    "aes-128-cbc-mac": AesCbcMacAuthenticator,
    "speck-64/128-cbc-mac": SpeckCbcMacAuthenticator,
}


def make_symmetric_authenticator(scheme: str, key: bytes) -> RequestAuthenticator:
    """Construct a shared-key authenticator by scheme name."""
    try:
        factory = _SYMMETRIC_SCHEMES[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown symmetric auth scheme {scheme!r}; choose from "
            f"{sorted(_SYMMETRIC_SCHEMES)}") from None
    return factory(key)
