"""Pure-Python AES-128 (FIPS 197), from scratch.

The paper (Table 1, Section 4.1) measures AES-128 in CBC mode as one of
the candidate MACs for authenticating attestation requests: key expansion
0.074 ms, encrypt 0.288 ms/block, decrypt 0.570 ms/block on Siskiyou Peak
at 24 MHz.  This module provides the raw block cipher; CBC and CBC-MAC
live in :mod:`repro.crypto.modes`.

The S-box is generated programmatically from the GF(2^8) inverse and the
affine transform rather than pasted as a table, so the construction is
auditable.  Test vectors from FIPS 197 Appendix B/C are checked in the
test suite.
"""

from __future__ import annotations

from ..errors import InvalidBlockError, InvalidKeyError

__all__ = ["AES128", "BLOCK_SIZE", "KEY_SIZE"]

BLOCK_SIZE = 16
KEY_SIZE = 16

_NR = 10  # rounds for AES-128
_NK = 4   # key words for AES-128


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (AES polynomial)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Construct the AES S-box and its inverse from first principles."""
    # Multiplicative inverses via exponentiation by generator 3.
    pow3 = [1] * 256
    log3 = [0] * 256
    value = 1
    for i in range(255):
        pow3[i] = value
        log3[value] = i
        value = _gf_mul(value, 3)

    def inverse(a: int) -> int:
        if a == 0:
            return 0
        return pow3[(255 - log3[a]) % 255]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for x in range(256):
        b = inverse(x)
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        s ^= 0x63
        sbox[x] = s
        inv_sbox[s] = x
    return tuple(sbox), tuple(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _expand_key(key: bytes) -> list[list[int]]:
    """FIPS 197 key expansion: return 11 round keys of 16 bytes each."""
    words = [list(key[4 * i:4 * i + 4]) for i in range(_NK)]
    for i in range(_NK, 4 * (_NR + 1)):
        temp = list(words[i - 1])
        if i % _NK == 0:
            temp = temp[1:] + temp[:1]              # RotWord
            temp = [_SBOX[b] for b in temp]         # SubWord
            temp[0] ^= _RCON[i // _NK - 1]
        words.append([words[i - _NK][j] ^ temp[j] for j in range(4)])
    round_keys = []
    for r in range(_NR + 1):
        rk = []
        for w in words[4 * r:4 * r + 4]:
            rk.extend(w)
        round_keys.append(rk)
    return round_keys


def _sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def _inv_sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = _INV_SBOX[state[i]]


# State layout: column-major as in FIPS 197 -- state[r + 4*c].

def _shift_rows(state: list[int]) -> None:
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        row = row[r:] + row[:r]
        for c in range(4):
            state[r + 4 * c] = row[c]


def _inv_shift_rows(state: list[int]) -> None:
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        row = row[-r:] + row[:-r]
        for c in range(4):
            state[r + 4 * c] = row[c]


def _mix_columns(state: list[int]) -> None:
    for c in range(4):
        col = state[4 * c:4 * c + 4]
        state[4 * c + 0] = _gf_mul(col[0], 2) ^ _gf_mul(col[1], 3) ^ col[2] ^ col[3]
        state[4 * c + 1] = col[0] ^ _gf_mul(col[1], 2) ^ _gf_mul(col[2], 3) ^ col[3]
        state[4 * c + 2] = col[0] ^ col[1] ^ _gf_mul(col[2], 2) ^ _gf_mul(col[3], 3)
        state[4 * c + 3] = _gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ _gf_mul(col[3], 2)


def _inv_mix_columns(state: list[int]) -> None:
    for c in range(4):
        col = state[4 * c:4 * c + 4]
        state[4 * c + 0] = (_gf_mul(col[0], 14) ^ _gf_mul(col[1], 11)
                            ^ _gf_mul(col[2], 13) ^ _gf_mul(col[3], 9))
        state[4 * c + 1] = (_gf_mul(col[0], 9) ^ _gf_mul(col[1], 14)
                            ^ _gf_mul(col[2], 11) ^ _gf_mul(col[3], 13))
        state[4 * c + 2] = (_gf_mul(col[0], 13) ^ _gf_mul(col[1], 9)
                            ^ _gf_mul(col[2], 14) ^ _gf_mul(col[3], 11))
        state[4 * c + 3] = (_gf_mul(col[0], 11) ^ _gf_mul(col[1], 13)
                            ^ _gf_mul(col[2], 9) ^ _gf_mul(col[3], 14))


def _add_round_key(state: list[int], round_key: list[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


class AES128:
    """AES with a 128-bit key; encrypts/decrypts single 16-byte blocks.

    >>> key = bytes(range(16))
    >>> cipher = AES128(key)
    >>> block = bytes.fromhex("00112233445566778899aabbccddeeff")
    >>> cipher.decrypt_block(cipher.encrypt_block(block)) == block
    True
    """

    block_size = BLOCK_SIZE
    key_size = KEY_SIZE
    name = "aes-128"

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidKeyError("AES key must be bytes")
        if len(key) != KEY_SIZE:
            raise InvalidKeyError(
                f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
        self._round_keys = _expand_key(bytes(key))
        # Operation counters feed the simulated cycle-cost model.
        self.blocks_encrypted = 0
        self.blocks_decrypted = 0

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                f"AES block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[0])
        for r in range(1, _NR):
            _sub_bytes(state)
            _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[r])
        _sub_bytes(state)
        _shift_rows(state)
        _add_round_key(state, self._round_keys[_NR])
        self.blocks_encrypted += 1
        return bytes(state)

    def mac_chain(self, encoded: bytes) -> bytes:
        """Last block of the zero-IV CBC chain of block-aligned ``encoded``."""
        state = bytes(BLOCK_SIZE)
        for offset in range(0, len(encoded), BLOCK_SIZE):
            block = encoded[offset:offset + BLOCK_SIZE]
            state = self.encrypt_block(bytes(a ^ b for a, b in zip(state, block)))
        return state

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                f"AES block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        _add_round_key(state, self._round_keys[_NR])
        for r in range(_NR - 1, 0, -1):
            _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[r])
            _inv_mix_columns(state)
        _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        self.blocks_decrypted += 1
        return bytes(state)
