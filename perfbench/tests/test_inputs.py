"""Workload inputs are a pure function of the seed."""

import hashlib

from repro.services.attestd import ServiceRequest

from perfbench.inputs import attestd_schedule, fleet_seed, ota_digests, ota_plan


def inputs_digest(value) -> str:
    """SHA-256 over a canonical encoding of nested inputs (lists,
    tuples, bytes, str, numbers, ``ServiceRequest``)."""
    digest = hashlib.sha256()

    def feed(item) -> None:
        if isinstance(item, (list, tuple)):
            digest.update(b"[%d" % len(item))
            for element in item:
                feed(element)
            digest.update(b"]")
        elif isinstance(item, (bytes, bytearray)):
            digest.update(b"b%d:" % len(item) + bytes(item))
        elif isinstance(item, ServiceRequest):
            feed((item.arrival_seconds, item.device_index, item.request_id))
        else:
            text = repr(item).encode()
            digest.update(b"r%d:" % len(text) + text)

    feed(value)
    return digest.hexdigest()


WINDOWS = [("flash", 0, 20000), ("ram", 256, 16128)]


def plan(seed):
    return ota_plan(seed, rounds=3, members=5, windows=WINDOWS,
                    chunk_size=1024, dirty_fraction=0.1)


def schedule(seed):
    return attestd_schedule(seed, waves=6, devices=32, tenants=4,
                            heavy_per_wave=4, light_per_wave=1,
                            virtual_step_seconds=2.0)


def test_same_seed_gives_byte_identical_inputs():
    for make in (plan, schedule):
        assert inputs_digest(make(7)) == inputs_digest(make(7))
    assert fleet_seed("ota", 7) == fleet_seed("ota", 7)


def test_different_seed_gives_different_inputs():
    for make in (plan, schedule):
        assert inputs_digest(make(7)) != inputs_digest(make(8))
    assert fleet_seed("sweep", 7) != fleet_seed("sweep", 8)


def test_members_get_the_same_bytes_through_distinct_write_histories():
    rounds = plan(3)
    for per_member in rounds:
        images = []
        for writes in per_member:
            image = {"flash": bytearray(20000), "ram": bytearray(16384)}
            for name, offset, data in writes:
                image[name][offset:offset + len(data)] = data
            images.append(image)
        assert all(image == images[0] for image in images)
        histories = {tuple((n, o, len(d)) for n, o, d in writes)
                     for writes in per_member}
        assert len(histories) == len(per_member)


def test_reference_digests_track_the_cumulative_image():
    image = {"flash": bytearray(20000), "ram": bytearray(16384)}
    digests = ota_digests(image, WINDOWS, plan(3))
    assert len(set(digests)) == 3


def test_schedule_shares_and_unique_targets():
    waves = schedule(5)
    ids = [r.request_id for wave in waves for r in wave]
    assert ids == list(range(len(ids)))
    for number, wave in enumerate(waves):
        targets = [r.device_index for r in wave]
        assert len(targets) == len(set(targets)) == 7
        assert sum(1 for t in targets if t % 4 == 0) == 4
        assert {r.arrival_seconds for r in wave} == {(number + 1) * 2.0}
