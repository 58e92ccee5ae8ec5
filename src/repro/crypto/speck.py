"""Speck 64/128 lightweight block cipher (Beaulieu et al., 2013).

The paper singles out Speck as the cheapest request-authentication
primitive for a low-end prover: 0.017 ms/block encryption and
0.015 ms/block decryption, versus 0.430 ms for a SHA1-HMAC validation
(Section 4.1, Table 1).  Speck 64/128 has a 64-bit block and a 128-bit
key, 27 rounds, word size 32 bits, rotation constants alpha=8, beta=3.

The host kernel and the simulated cost are independent: simulated cycles
come from :meth:`repro.crypto.costmodel.CryptoCostModel.speck_cbc_mac_cycles`
by message length, never from how fast this module runs on the host.

:class:`SpeckLanes` runs the same chain for many ciphers at once, SWAR
style (SIMD within a register): every 32-bit word of every lane sits in
one Python int, and each big-int operation advances all lanes together.

Reference: "The SIMON and SPECK Families of Lightweight Block Ciphers",
ePrint 2013/404.  The test suite checks the published test vector
(key 1b1a1918 13121110 0b0a0908 03020100, plaintext 3b726574 7475432d,
ciphertext 8c6fa548 454e028b).
"""

from __future__ import annotations

import struct
from collections.abc import Mapping, Sequence
from functools import lru_cache

from ..errors import InvalidBlockError, InvalidKeyError

__all__ = ["Speck64_128", "SpeckLanes", "BLOCK_SIZE", "KEY_SIZE", "ROUNDS",
           "LANE_STRIDE"]

BLOCK_SIZE = 8
KEY_SIZE = 16
ROUNDS = 27

_WORD_BITS = 32
_MASK = 0xFFFFFFFF
_ALPHA = 8
_BETA = 3

#: Bits per lane in a lane-packed int: one 32-bit word and a guard bit.
LANE_STRIDE = 33


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


class _LaneLayout:
    """Lane masks for ``lanes`` words at :data:`LANE_STRIDE`, and the
    conversion between that stride and the 32-bit stride of raw bytes.

    Word ``i`` (counted from the least significant end) occupies bits
    ``33*i .. 33*i+31``; bit ``33*i+32`` is its guard.  Every mask is a
    32-bit constant repeated once per lane.
    """

    def __init__(self, lanes: int):
        ones = 0
        for lane in range(lanes):
            ones |= 1 << (LANE_STRIDE * lane)
        self.lanes = lanes
        self.word = _MASK * ones
        #: ror(x, 8) keeps bits 8..31 as 0..23 and moves 0..7 to 24..31.
        self.ror_low = (_MASK >> _ALPHA) * ones
        self.ror_high = (_MASK ^ _MASK >> _ALPHA) * ones
        #: rol(y, 3) moves bits 0..28 to 3..31 and 29..31 to 0..2.
        self.rol_high = (_MASK ^ (1 << _BETA) - 1) * ones
        self.rol_low = ((1 << _BETA) - 1) * ones
        # Spreading packed 32-bit words to the 33-bit stride moves word i
        # up by i bits.  Step ``bit`` moves every word whose index has
        # that bit set up by 2**bit, highest bit first; after each step
        # no two words overlap, so a step is one mask and two XORs.
        self.steps = []
        for bit in reversed(range((lanes - 1).bit_length())):
            moved_bits = -(2 << bit)   # index bits the earlier steps moved
            mask = 0
            for i in range(lanes):
                if i >> bit & 1:
                    mask |= _MASK << (32 * i + (i & moved_bits))
            self.steps.append((mask, 1 << bit))

    def pack_columns(self, rows: bytes, width: int) -> list[int]:
        """``width`` lane-packed columns of ``rows``: one row of ``width``
        big-endian 32-bit words per lane, concatenated; row 0 is the
        most significant lane."""
        words = memoryview(rows).cast("I")
        columns = []
        for column in range(width):
            x = int.from_bytes(words[column::width].tobytes(), "big")
            for mask, shift in self.steps:
                moved = x & mask
                x ^= moved ^ moved << shift
            columns.append(x)
        return columns

    def unpack_column(self, x: int) -> bytes:
        """Inverse of one :meth:`pack_columns` column: each lane's word
        as four big-endian bytes, row 0 first."""
        for mask, shift in reversed(self.steps):
            moved = x >> shift & mask
            x ^= moved ^ moved << shift
        return x.to_bytes(4 * self.lanes, "big")


@lru_cache(maxsize=8)
def _lane_layout(lanes: int) -> _LaneLayout:
    return _LaneLayout(lanes)


def _chain_lanes(layout: _LaneLayout, round_keys: list[int],
                 columns: list[int]) -> tuple[int, int]:
    """The zero-IV CBC chain of every lane at once; ``columns`` holds
    the packed x and y words of each block in turn.

    The add leaves each lane's carry in its guard bit, and the mask
    after it clears the guard, so no carry reaches the next lane.  Each
    rotation is two shifts and two masks: the masks drop the bits a
    shift pulls in from the neighbouring lanes.
    """
    word = layout.word
    ror_low, ror_high = layout.ror_low, layout.ror_high
    rol_high, rol_low = layout.rol_high, layout.rol_low
    x = y = 0
    for i in range(0, len(columns), 2):
        x ^= columns[i]
        y ^= columns[i + 1]
        for k in round_keys:
            x = ((x >> 8 & ror_low | x << 24 & ror_high) + y & word) ^ k
            y = (y << 3 & rol_high | y >> 29 & rol_low) ^ x
    return x, y


class SpeckLanes:
    """Many :class:`Speck64_128` ciphers advanced in one SWAR pass.

    The 27 round keys of every cipher are packed once, at construction:
    round key ``r`` of all lanes is one int, each lane XORing in its own
    key.  :meth:`mac_chains` then chains one message per carried lane,
    the lanes of each message length together, and returns tags
    byte-identical to each cipher's own :meth:`Speck64_128.mac_chain`.

    The packed round keys are key material, like the ciphers' own.
    """

    def __init__(self, ciphers: Sequence[Speck64_128]):
        self.ciphers = tuple(ciphers)
        if not self.ciphers:
            raise InvalidKeyError("SpeckLanes needs at least one cipher")
        for cipher in self.ciphers:
            if not isinstance(cipher, Speck64_128):
                raise InvalidKeyError(
                    f"SpeckLanes packs Speck64_128 ciphers, got "
                    f"{type(cipher).__name__}")
        self._key_rows = b"".join(struct.pack(f">{ROUNDS}I",
                                              *cipher._round_keys)
                                  for cipher in self.ciphers)
        self._layout = _lane_layout(len(self.ciphers))
        self._round_keys = self._layout.pack_columns(self._key_rows, ROUNDS)

    def mac_chains(self, encodeds: Mapping[int, bytes]) -> dict[int, bytes]:
        """``{lane: ciphers[lane].mac_chain(encodeds[lane])}`` for every
        lane ``encodeds`` carries.

        A lane not carried gets no tag and its cipher's
        ``blocks_encrypted`` does not move; every carried lane's counter
        moves by its block count, exactly as :meth:`Speck64_128.\
mac_chain` moves it.  Messages of different lengths are grouped by
        length, one pass per group; a group short of the full lane set
        packs its round keys for that call.  Raises
        :class:`InvalidBlockError`, before any lane is touched, when a
        lane index is out of range or a message is not block-aligned.
        """
        count = len(self.ciphers)
        groups: dict[int, list[int]] = {}
        for lane, encoded in encodeds.items():
            if type(lane) is not int or not 0 <= lane < count:
                raise InvalidBlockError(
                    f"SpeckLanes has lanes 0..{count - 1}, got lane {lane!r}")
            if len(encoded) % BLOCK_SIZE:
                raise InvalidBlockError(
                    f"Speck chain input must be a multiple of {BLOCK_SIZE} "
                    f"bytes (lane {lane} has {len(encoded)})")
            groups.setdefault(len(encoded), []).append(lane)
        tags: dict[int, bytes] = {}
        row = 4 * ROUNDS
        for length, lanes in groups.items():
            if len(lanes) == count:
                # Every lane, so the keys packed in lane order serve.
                lanes = range(count)
                layout, round_keys = self._layout, self._round_keys
            else:
                layout = _lane_layout(len(lanes))
                round_keys = layout.pack_columns(
                    b"".join(self._key_rows[row * lane:row * (lane + 1)]
                             for lane in lanes), ROUNDS)
            columns = layout.pack_columns(
                b"".join(encodeds[lane] for lane in lanes), length // 4)
            x, y = _chain_lanes(layout, round_keys, columns)
            xs, ys = layout.unpack_column(x), layout.unpack_column(y)
            blocks = length // BLOCK_SIZE
            for offset, lane in zip(range(0, 4 * len(lanes), 4), lanes):
                tags[lane] = xs[offset:offset + 4] + ys[offset:offset + 4]
                self.ciphers[lane].blocks_encrypted += blocks
        return tags
