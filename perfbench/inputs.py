"""Workload inputs, generated from the workload seed before timing.

Every generator here is a pure function of its arguments: the same seed
gives byte-identical inputs, a different seed gives different ones.
They use :class:`random.Random` seeded with a string (SHA-512 seeding,
independent of ``PYTHONHASHSEED``) rather than the program's own
``DeterministicRng``, so the benchmark never times its input generator.
"""

from __future__ import annotations

import hashlib
import random

from repro.services.attestd import ServiceRequest

__all__ = ["fleet_seed", "ota_plan", "ota_digests", "attestd_schedule"]


def fleet_seed(workload: str, seed: int) -> str:
    """The program-side seed (device keys, challenge streams) of a
    workload's fleet or service."""
    return f"perfbench-{workload}:{seed}"


def ota_plan(seed: int, *, rounds: int, members: int,
             windows: list[tuple[str, int, int]], chunk_size: int,
             dirty_fraction: float) -> list[list[list[tuple]]]:
    """Fleet-wide update writes: ``plan[round][member]`` is the list of
    ``(region name, region offset, bytes)`` loads for that member.

    Each round rewrites about ``dirty_fraction`` of every attested
    window (``windows`` holds ``(region, start, size)``) with the same
    content on every member.  Each member receives the chunks in its own
    order, and its first chunk split at its own offset, so no two
    members share a write history.
    """
    if not 0.0 < dirty_fraction <= 1.0:
        raise ValueError("dirty_fraction must be in (0, 1]")
    rng = random.Random(f"perfbench-ota-plan:{seed}")
    plan = []
    for _ in range(rounds):
        chunks = []
        for name, start, size in windows:
            count = (size + chunk_size - 1) // chunk_size
            dirty = max(1, round(count * dirty_fraction))
            for chunk in sorted(rng.sample(range(count), dirty)):
                length = min(chunk_size, size - chunk * chunk_size)
                chunks.append((name, start + chunk * chunk_size,
                               rng.randbytes(length)))
        base = rng.randrange(1 << 16)
        per_member = []
        for member in range(members):
            order = list(chunks)
            rng.shuffle(order)
            name, offset, data = order[0]
            split = 1 + (base + member) % (len(data) - 1)
            per_member.append([(name, offset, data[:split]),
                               (name, offset + split, data[split:])]
                              + order[1:])
        plan.append(per_member)
    return plan


def ota_digests(image: dict[str, bytearray],
                windows: list[tuple[str, int, int]],
                plan: list[list[list[tuple]]]) -> list[bytes]:
    """The verifier's reference digest after each plan round.

    ``image`` maps region name to the pre-update region bytes (it is
    updated in place).  The digest is SHA-1 over the attested windows in
    order -- what the verifier that shipped the update knows.
    """
    digests = []
    for per_member in plan:
        for name, offset, data in per_member[0]:
            image[name][offset:offset + len(data)] = data
        digest = hashlib.sha1()
        for name, start, size in windows:
            digest.update(image[name][start:start + size])
        digests.append(digest.digest())
    return digests


def attestd_schedule(seed: int, *, waves: int, devices: int, tenants: int,
                     heavy_per_wave: int, light_per_wave: int,
                     virtual_step_seconds: float
                     ) -> list[list[ServiceRequest]]:
    """Open-loop request waves for an ``AttestationService``.

    Tenant ``t`` owns the devices with ``index % tenants == t`` (the
    service's round-robin assignment).  Tenant 0 sends
    ``heavy_per_wave`` requests per wave and every other tenant
    ``light_per_wave``; within a wave no device is targeted twice.
    Wave ``w`` arrives at virtual time ``(w + 1) * virtual_step_seconds``.
    """
    owned = [list(range(t, devices, tenants)) for t in range(tenants)]
    shares = [heavy_per_wave] + [light_per_wave] * (tenants - 1)
    if any(share > len(own) for share, own in zip(shares, owned)):
        raise ValueError("a tenant's share exceeds its device count")
    rng = random.Random(f"perfbench-attestd-schedule:{seed}")
    schedule = []
    request_id = 0
    for wave in range(waves):
        arrival = (wave + 1) * virtual_step_seconds
        targets = [index for own, share in zip(owned, shares)
                   for index in rng.sample(own, share)]
        rng.shuffle(targets)
        requests = []
        for index in targets:
            requests.append(ServiceRequest(arrival, index, request_id))
            request_id += 1
        schedule.append(requests)
    return schedule
