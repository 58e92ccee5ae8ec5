"""Speck 64/128 lightweight block cipher (Beaulieu et al., 2013).

The paper singles out Speck as the cheapest request-authentication
primitive for a low-end prover: 0.017 ms/block encryption and
0.015 ms/block decryption, versus 0.430 ms for a SHA1-HMAC validation
(Section 4.1, Table 1).  Speck 64/128 has a 64-bit block and a 128-bit
key, 27 rounds, word size 32 bits, rotation constants alpha=8, beta=3.

The host kernel and the simulated cost are independent: simulated cycles
come from :meth:`repro.crypto.costmodel.CryptoCostModel.speck_cbc_mac_cycles`
by message length, never from how fast this module runs on the host.

Reference: "The SIMON and SPECK Families of Lightweight Block Ciphers",
ePrint 2013/404.  The test suite checks the published test vector
(key 1b1a1918 13121110 0b0a0908 03020100, plaintext 3b726574 7475432d,
ciphertext 8c6fa548 454e028b).
"""

from __future__ import annotations

import struct

from ..errors import InvalidBlockError, InvalidKeyError

__all__ = ["Speck64_128", "BLOCK_SIZE", "KEY_SIZE", "ROUNDS"]

BLOCK_SIZE = 8
KEY_SIZE = 16
ROUNDS = 27

_WORD_BITS = 32
_MASK = 0xFFFFFFFF
_ALPHA = 8
_BETA = 3


def _ror(x: int, r: int) -> int:
    return ((x >> r) | (x << (_WORD_BITS - r))) & _MASK


def _rol(x: int, r: int) -> int:
    return ((x << r) | (x >> (_WORD_BITS - r))) & _MASK


def _round_dec(x: int, y: int, k: int) -> tuple[int, int]:
    """Inverse of one encryption round of :meth:`Speck64_128.mac_chain`."""
    y = _ror(y ^ x, _BETA)
    x = _rol(((x ^ k) - y) & _MASK, _ALPHA)
    return x, y


class Speck64_128:
    """Speck with 64-bit blocks and a 128-bit key.

    >>> key = bytes.fromhex("1b1a1918131211100b0a090803020100")
    >>> cipher = Speck64_128(key)
    >>> cipher.encrypt_block(bytes.fromhex("3b7265747475432d")).hex()
    '8c6fa548454e028b'
    """

    block_size = BLOCK_SIZE
    key_size = KEY_SIZE
    name = "speck-64/128"

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidKeyError("Speck key must be bytes")
        if len(key) != KEY_SIZE:
            raise InvalidKeyError(
                f"Speck 64/128 key must be {KEY_SIZE} bytes, got {len(key)}")
        self._round_keys = self._expand_key(bytes(key))
        self.blocks_encrypted = 0
        self.blocks_decrypted = 0

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        """Speck key schedule: 4 key words -> 27 round keys.

        The reference test vector prints the key as four words
        ``l2 l1 l0 k0``; serialising those words big-endian in print order
        yields the 16 key bytes.  The schedule is
        ``l[i+3] = (ror(l[i], alpha) + k[i]) ^ i`` and
        ``k[i+1] = rol(k[i], beta) ^ l[i+3]``.
        """
        l2, l1, l0, k = struct.unpack(">4I", key)
        l = [l0, l1, l2]
        round_keys = [k]
        for i in range(ROUNDS - 1):
            new_l = ((_ror(l[0], _ALPHA) + k) & _MASK) ^ i
            k = _rol(k, _BETA) ^ new_l
            l = l[1:] + [new_l]
            round_keys.append(k)
        return round_keys

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block: a zero-IV chain of one block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                f"Speck block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return self.mac_chain(block)

    def mac_chain(self, encoded: bytes) -> bytes:
        """Last block of the zero-IV CBC chain of block-aligned ``encoded``."""
        if len(encoded) % BLOCK_SIZE:
            raise InvalidBlockError(
                f"Speck chain input must be a multiple of {BLOCK_SIZE} bytes")
        # Vectors print a block as big-endian words (x, y), x first.
        words = struct.unpack(f">{len(encoded) // 4}I", encoded)
        (k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13,
         k14, k15, k16, k17, k18, k19, k20, k21, k22, k23, k24, k25,
         k26) = self._round_keys
        # w * d is w twice over 64 bits, so after masking to 32 bits
        # ``w * d >> 8`` is ror(w, 8) and ``w * d >> 29`` is rol(w, 3).
        d, m = 0x100000001, _MASK
        x = y = 0
        for i in range(0, len(words), 2):
            x ^= words[i]
            y ^= words[i + 1]
            x = (((x * d >> 8) + y) & m) ^ k0
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k1
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k2
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k3
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k4
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k5
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k6
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k7
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k8
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k9
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k10
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k11
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k12
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k13
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k14
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k15
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k16
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k17
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k18
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k19
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k20
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k21
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k22
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k23
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k24
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k25
            y = ((y * d >> 29) & m) ^ x
            x = (((x * d >> 8) + y) & m) ^ k26
            y = ((y * d >> 29) & m) ^ x
        self.blocks_encrypted += len(words) // 2
        return struct.pack(">2I", x, y)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                f"Speck block must be {BLOCK_SIZE} bytes, got {len(block)}")
        x, y = struct.unpack(">2I", block)
        for k in reversed(self._round_keys):
            x, y = _round_dec(x, y, k)
        self.blocks_decrypted += 1
        return struct.pack(">2I", x, y)
