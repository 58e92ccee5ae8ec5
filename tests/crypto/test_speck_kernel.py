"""The word-level Speck kernel must be indistinguishable from textbook
Speck 64/128 and textbook CBC-MAC.

The reference below lives only in this test: the key schedule and round
function written out with ``_ror``/``_rol`` helpers, ``struct`` per
block, and a byte-wise ``_xor_block`` CBC chain.  Every test runs the
same key and message through :class:`Speck64_128` (``encrypt_block``,
``mac_chain``, :func:`cbc_mac`) and through the reference, including
the ``blocks_encrypted`` counter the cost accounting reads.

The lane-packed kernel (:class:`SpeckLanes`) is held to the same
reference and to ``mac_chain`` lane by lane: one lane, hundreds of
lanes, mixed message lengths (grouped, one pass per length) and
skipped lanes.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES128
from repro.crypto.modes import cbc_mac, cbc_mac_encode
from repro.crypto.speck import BLOCK_SIZE, ROUNDS, Speck64_128, SpeckLanes
from repro.errors import InvalidBlockError, InvalidKeyError

# ePrint 2013/404, Speck 64/128 test vector.
VEC_KEY = bytes.fromhex("1b1a1918131211100b0a090803020100")
VEC_PT = bytes.fromhex("3b7265747475432d")
VEC_CT = bytes.fromhex("8c6fa548454e028b")

MASK = 0xFFFFFFFF


def _ror(x, r):
    return ((x >> r) | (x << (32 - r))) & MASK


def _rol(x, r):
    return ((x << r) | (x >> (32 - r))) & MASK


def _round_enc(x, y, k):
    x = (_ror(x, 8) + y) & MASK
    x ^= k
    y = _rol(y, 3) ^ x
    return x, y


def ref_round_keys(key):
    l2, l1, l0, k = struct.unpack(">4I", key)
    l = [l0, l1, l2]
    round_keys = [k]
    for i in range(ROUNDS - 1):
        new_l = ((_ror(l[0], 8) + k) & MASK) ^ i
        k = _rol(k, 3) ^ new_l
        l = l[1:] + [new_l]
        round_keys.append(k)
    return round_keys


def ref_encrypt_block(round_keys, block):
    x, y = struct.unpack(">2I", block)
    for k in round_keys:
        x, y = _round_enc(x, y, k)
    return struct.pack(">2I", x, y)


def _xor_block(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def ref_encode(message, block_size):
    """Length-prefix block, message, zero padding to a block multiple."""
    encoded = len(message).to_bytes(8, "big").rjust(block_size, b"\x00") + message
    if len(encoded) % block_size:
        encoded += b"\x00" * (block_size - len(encoded) % block_size)
    return encoded


def ref_chain(encrypt, block_size, encoded):
    state = b"\x00" * block_size
    for offset in range(0, len(encoded), block_size):
        state = encrypt(_xor_block(state, encoded[offset:offset + block_size]))
    return state


def ref_speck_cbc_mac(key, message):
    round_keys = ref_round_keys(key)
    encoded = ref_encode(message, BLOCK_SIZE)
    tag = ref_chain(lambda b: ref_encrypt_block(round_keys, b), BLOCK_SIZE,
                    encoded)
    return tag, len(encoded) // BLOCK_SIZE


keys = st.binary(min_size=16, max_size=16)
messages = st.binary(max_size=200)


class TestPublishedVector:
    def test_reference_matches_vector(self):
        assert ref_encrypt_block(ref_round_keys(VEC_KEY), VEC_PT) == VEC_CT

    def test_kernel_matches_vector(self):
        cipher = Speck64_128(VEC_KEY)
        assert cipher.encrypt_block(VEC_PT) == VEC_CT
        assert cipher.mac_chain(VEC_PT) == VEC_CT
        assert cipher.decrypt_block(VEC_CT) == VEC_PT
        assert cipher.blocks_encrypted == 2


@settings(max_examples=200, deadline=None)
@given(key=keys, block=st.binary(min_size=8, max_size=8))
def test_encrypt_block_matches_reference(key, block):
    cipher = Speck64_128(key)
    ciphertext = cipher.encrypt_block(block)
    assert ciphertext == ref_encrypt_block(ref_round_keys(key), block)
    assert cipher.decrypt_block(ciphertext) == block
    assert cipher.blocks_encrypted == 1
    assert cipher.blocks_decrypted == 1


@settings(max_examples=200, deadline=None)
@given(key=keys, message=messages)
def test_mac_chain_and_cbc_mac_match_reference(key, message):
    expected_tag, expected_blocks = ref_speck_cbc_mac(key, message)
    encoded = ref_encode(message, BLOCK_SIZE)

    chained = Speck64_128(key)
    assert chained.mac_chain(encoded) == expected_tag
    assert chained.blocks_encrypted == expected_blocks

    cipher = Speck64_128(key)
    assert cbc_mac(cipher, message) == expected_tag
    assert cipher.blocks_encrypted == expected_blocks
    # The counter accumulates across calls on one cipher object.
    assert cbc_mac(cipher, message) == expected_tag
    assert cipher.blocks_encrypted == 2 * expected_blocks


@settings(max_examples=100, deadline=None)
@given(key=keys, message=messages)
def test_mac_chain_of_raw_blocks_matches_reference(key, message):
    """No length prefix: the chain alone, over any block-aligned input."""
    aligned = message[:len(message) - len(message) % BLOCK_SIZE]
    round_keys = ref_round_keys(key)
    cipher = Speck64_128(key)
    assert cipher.mac_chain(aligned) == ref_chain(
        lambda b: ref_encrypt_block(round_keys, b), BLOCK_SIZE, aligned)
    assert cipher.blocks_encrypted == len(aligned) // BLOCK_SIZE


@settings(max_examples=25, deadline=None)
@given(key=keys, message=st.binary(max_size=80))
def test_aes_cbc_mac_matches_reference_loop(key, message):
    encoded = ref_encode(message, 16)
    expected = ref_chain(AES128(key).encrypt_block, 16, encoded)
    cipher = AES128(key)
    assert cbc_mac(cipher, message) == expected
    assert cipher.blocks_encrypted == len(encoded) // 16


@pytest.mark.parametrize("cipher", [Speck64_128(VEC_KEY), AES128(VEC_KEY)],
                         ids=["speck", "aes"])
@pytest.mark.parametrize("length", [1, 7, 9])
def test_mac_chain_rejects_unaligned_input(cipher, length):
    with pytest.raises(InvalidBlockError):
        cipher.mac_chain(bytes(length))


def _lane_bytes(seed, lanes, size):
    """``lanes`` random byte strings of ``size`` from one drawn seed."""
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(lanes)]


class TestSpeckLanes:
    """Every carried lane of one SWAR pass equals its cipher's own
    chain; ``mac_chains`` takes and returns ``{lane: bytes}``."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), lanes=st.integers(1, 300),
           blocks=st.integers(1, 20), data=st.data())
    def test_equal_lengths_match_mac_chain_and_reference(
            self, seed, lanes, blocks, data):
        keys = _lane_bytes(seed, lanes, 16)
        messages = _lane_bytes(seed + 1, lanes, 8 * blocks)
        messages[0] = data.draw(st.binary(min_size=8 * blocks,
                                          max_size=8 * blocks))
        packed = [Speck64_128(key) for key in keys]
        tags = SpeckLanes(packed).mac_chains(dict(enumerate(messages)))
        scalar = [Speck64_128(key) for key in keys]
        assert tags == {lane: cipher.mac_chain(message) for lane, (
            cipher, message) in enumerate(zip(scalar, messages))}
        assert ([c.blocks_encrypted for c in packed]
                == [c.blocks_encrypted for c in scalar] == [blocks] * lanes)
        for lane in {0, lanes - 1}:
            round_keys = ref_round_keys(keys[lane])
            assert tags[lane] == ref_chain(
                lambda b: ref_encrypt_block(round_keys, b), BLOCK_SIZE,
                messages[lane])

    @settings(max_examples=100, deadline=None)
    @given(key=keys, message=messages)
    def test_single_lane_cbc_mac_matches_reference(self, key, message):
        expected_tag, expected_blocks = ref_speck_cbc_mac(key, message)
        cipher = Speck64_128(key)
        lanes = SpeckLanes([cipher])
        assert lanes.mac_chains({0: cbc_mac_encode(message, BLOCK_SIZE)}) == {
            0: expected_tag}
        assert cipher.blocks_encrypted == expected_blocks

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32),
           lengths=st.lists(st.one_of(st.none(), st.integers(0, 20)),
                            min_size=1, max_size=40),
           data=st.data())
    def test_mixed_lengths_are_grouped_and_none_skips(self, seed, lengths,
                                                      data):
        """Lanes of different lengths each get their own pass; a lane
        left out (``None`` here) gets no tag and no block count.  The
        carried lanes are drawn in shuffled order."""
        keys = _lane_bytes(seed, len(lengths), 16)
        messages = [None if blocks is None else
                    data.draw(st.binary(min_size=8 * blocks,
                                        max_size=8 * blocks))
                    for blocks in lengths]
        carried = data.draw(st.permutations(
            [lane for lane, message in enumerate(messages)
             if message is not None]))
        packed = [Speck64_128(key) for key in keys]
        lanes = SpeckLanes(packed)
        # Twice through the same packed keys: the counters accumulate.
        for _ in range(2):
            tags = lanes.mac_chains({lane: messages[lane]
                                     for lane in carried})
        scalar = [Speck64_128(key) for key in keys]
        expected = {lane: cipher.mac_chain(message) for lane, (
            cipher, message) in enumerate(zip(scalar, messages))
            if message is not None}
        assert tags == expected
        assert ([c.blocks_encrypted for c in packed]
                == [2 * c.blocks_encrypted for c in scalar])

    def test_unaligned_lane_is_rejected_before_any_pass(self):
        ciphers = [Speck64_128(key) for key in _lane_bytes(1, 3, 16)]
        lanes = SpeckLanes(ciphers)
        with pytest.raises(InvalidBlockError, match="lane 2"):
            lanes.mac_chains({0: bytes(16), 1: bytes(8), 2: bytes(12)})
        assert [c.blocks_encrypted for c in ciphers] == [0, 0, 0]

    def test_lane_out_of_range_is_rejected_before_any_pass(self):
        ciphers = [Speck64_128(key) for key in _lane_bytes(2, 3, 16)]
        lanes = SpeckLanes(ciphers)
        for lane in (3, -1, 99, "2", 2.5):
            with pytest.raises(InvalidBlockError, match="lanes 0..2"):
                lanes.mac_chains({0: VEC_PT, 1: VEC_PT, lane: VEC_PT})
        assert [c.blocks_encrypted for c in ciphers] == [0, 0, 0]

    def test_published_vector_in_every_lane(self):
        lanes = SpeckLanes([Speck64_128(VEC_KEY) for _ in range(5)])
        assert lanes.mac_chains(dict.fromkeys(range(5), VEC_PT)) == (
            dict.fromkeys(range(5), VEC_CT))

    @pytest.mark.parametrize("ciphers", [[], [AES128(VEC_KEY)]],
                             ids=["empty", "aes"])
    def test_only_speck_ciphers_pack(self, ciphers):
        with pytest.raises(InvalidKeyError):
            SpeckLanes(ciphers)
