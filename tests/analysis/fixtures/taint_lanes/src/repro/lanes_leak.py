"""Deliberately leaky module: lane-packed Speck round keys are secret.

``test_taint.py::TestSeededLaneKeys`` analyses this file together with
the real ``repro/crypto/speck.py`` and fails unless printing the packed
round keys of a :class:`SpeckLanes` is KEY001.  This file lives under a
fixture root and is never imported.
"""

from repro.crypto.kdf import derive_device_key
from repro.crypto.speck import Speck64_128, SpeckLanes


def leak_packed_round_keys(master_key):
    """KEY001: packed round keys of one lane reach stdout."""
    key = derive_device_key(master_key, "device-000")
    lanes = SpeckLanes([Speck64_128(key)])
    print(lanes._round_keys)
