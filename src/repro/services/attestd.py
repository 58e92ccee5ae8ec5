"""``attestd``: an async multi-tenant verifier service (future work 1).

The paper's Section 3.1 asymmetry argument cuts both ways: an
attestation round steals hundreds of prover-milliseconds, so a verifier
that attests too eagerly -- or lets one tenant's schedule starve the
fleet -- is itself the DoS vector the protocol defends against.  Up to
now that budget was enforced per-session; :class:`AttestationService`
lifts it to an operational tier that multiplexes many concurrent
sessions behind one front door:

* **Admission control** -- every tenant owns a :class:`TokenBucket`
  denominated in *prover-seconds*: it refills at
  ``duty_fraction x devices`` prover-seconds per (virtual) second, the
  Section 3.1 duty-cycle budget.  A request is charged its device's
  estimated measurement cost *before* any session work happens
  (reject-before-measure), so an over-budget tenant burns verifier
  arithmetic, never prover cycles.  Decisions are made synchronously in
  schedule order from the request's virtual arrival time -- never from
  a host clock -- so admission is a pure function of the schedule and
  replays byte-identically.
* **Sharded freshness state** -- devices are placed onto backends by
  consistent hashing over the device id.  Placement only ever chooses
  *where* a session runs: device ids, keys, RNG substreams and
  therefore verdicts derive from the global device index alone (the
  PR 5 shard-identity discipline), so re-sharding a deployment can
  never change what any device answers.
* **Async front door** -- :meth:`AttestationService.serve` multiplexes
  admitted requests across per-backend asyncio workers.  The event loop
  is a dispatch veneer: all simulated time lives in each session's
  discrete-event simulator, and the only awaits are queue handoffs, so
  the serviced run is equivalent to the sequential library path
  (:meth:`AttestationService.process`) -- the benchmark gates on the
  two being byte-identical at ``workers=1``.
* **Crash recovery** -- :meth:`AttestationService.snapshot` captures
  the whole service (member sessions, bucket levels, virtual clock,
  admission counters) as one ``repro.snapshot/v1`` document of kind
  ``service``; a killed service restores into a fresh build and
  continues byte-identically (see :mod:`repro.snapshot.service`).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
from dataclasses import dataclass, field

from ..core.messages import AttestationRequest
from ..core.protocol import RequestLanes, Session, build_session
from ..crypto.costmodel import CryptoCostModel
from ..crypto.kdf import derive_device_key
from ..crypto.rng import DeterministicRng
from ..errors import ConfigurationError
from ..mcu.device import DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from ..mcu.statecache import StateDigestCache
from ..obs.registry import MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["TokenBucket", "HashRing", "ServiceRequest", "RequestRecord",
           "ServiceMember", "AttestationService", "build_schedule",
           "service_spec", "build_service_from_spec"]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

@dataclass
class TokenBucket:
    """A token bucket denominated in prover-seconds of attestation work.

    ``rate`` is the tenant's Section 3.1 budget: how many prover-seconds
    of measurement the tenant may trigger per second of *virtual* time.
    Refill is driven by the request schedule's arrival times, never by a
    host clock, so ``try_take`` is a pure function of the schedule.
    """

    rate: float
    burst: float
    tokens: float = field(default=None)  # type: ignore[assignment]
    updated: float = 0.0

    def __post_init__(self):
        if self.rate <= 0 or self.burst <= 0:
            raise ConfigurationError("token bucket rate and burst must be "
                                     "positive")
        if self.tokens is None:
            self.tokens = self.burst

    def refill(self, now: float) -> None:
        if now < self.updated:
            raise ConfigurationError(
                f"token bucket time went backwards ({now} < {self.updated})")
        self.tokens = min(self.burst,
                          self.tokens + (now - self.updated) * self.rate)
        self.updated = now

    def try_take(self, now: float, cost: float) -> bool:
        """Charge ``cost`` prover-seconds at virtual time ``now``."""
        self.refill(now)
        if cost <= self.tokens:
            self.tokens -= cost
            return True
        return False


class HashRing:
    """Consistent hashing of device ids onto backend ids.

    Each backend owns ``vnodes`` points on a 64-bit ring; a device maps
    to the first point clockwise of its own hash.  Adding or removing a
    backend moves only the devices in the vacated arcs -- and because
    placement never feeds into key derivation or RNG seeding, moving a
    device is free of protocol consequences.
    """

    def __init__(self, backends: list[str], *, vnodes: int = 64):
        if not backends:
            raise ConfigurationError("hash ring needs at least one backend")
        if vnodes < 1:
            raise ConfigurationError("hash ring needs at least one vnode")
        points: list[tuple[int, str]] = []
        for backend in backends:
            for vnode in range(vnodes):
                points.append((self._point(f"{backend}#{vnode}"), backend))
        points.sort()
        self._keys = [point for point, _ in points]
        self._owners = [backend for _, backend in points]

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha256(label.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def backend_for(self, device_id: str) -> str:
        index = bisect.bisect_right(self._keys, self._point(device_id))
        if index == len(self._keys):
            index = 0
        return self._owners[index]


# ---------------------------------------------------------------------------
# Requests and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceRequest:
    """One attestation request offered to the service.

    ``arrival_seconds`` is *virtual* time on the service's admission
    clock (schedules are non-decreasing in it); ``device_index`` is the
    target device's global fleet index.
    """

    arrival_seconds: float
    device_index: int
    request_id: int


@dataclass
class RequestRecord:
    """The service's answer to one request, in picklable form.

    ``verdict`` is ``rejected-admission`` (never reached a prover) or a
    sweep-style category: ``trusted`` / ``untrusted`` / ``refused`` /
    ``no_response``.  ``host_latency_seconds`` is filled only when the
    benchmark injects a host clock; the deterministic path leaves it
    ``None``.
    """

    request_id: int
    device_id: str
    tenant: str
    backend: str
    admitted: bool
    verdict: str
    detail: str = ""
    host_latency_seconds: float | None = None

    def fingerprint(self) -> tuple:
        """The placement- and host-independent identity of this record
        (what the shard-equivalence and determinism gates compare)."""
        return (self.request_id, self.device_id, self.tenant,
                self.admitted, self.verdict, self.detail)


@dataclass
class ServiceMember:
    """One device the service fronts, plus its static placement."""

    device_id: str
    session: Session
    index: int
    tenant: str
    backend: str


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class AttestationService:
    """A multi-tenant verifier service over simulated prover fleets.

    ``size`` devices are built with the swarm identity discipline
    (device id, ``K_Attest`` derivation label and RNG seed are functions
    of the global index only) and assigned round-robin to ``tenants``
    tenants; each tenant gets a :class:`TokenBucket` whose refill rate
    is ``duty_fraction`` prover-seconds per second per device.  Devices
    are placed onto ``backends`` shards by consistent hashing; the shard
    only determines which asyncio worker runs the session.
    """

    def __init__(self, size: int, *, tenants: int = 4, backends: int = 4,
                 duty_fraction: float = 0.01, burst_seconds: float = 600.0,
                 profile: ProtectionProfile = ROAM_HARDENED,
                 auth_scheme: str = "speck-64/128-cbc-mac",
                 policy_name: str = "counter",
                 device_config: DeviceConfig | None = None,
                 master_key: bytes | None = None,
                 state_cache: StateDigestCache | None = None,
                 observe: bool = True, seed: str = "attestd"):
        if size < 1:
            raise ConfigurationError("service needs at least one device")
        if tenants < 1 or tenants > size:
            raise ConfigurationError("tenants must be in 1..size")
        if backends < 1:
            raise ConfigurationError("service needs at least one backend")
        if not 0.0 < duty_fraction <= 1.0:
            raise ConfigurationError("duty_fraction must be in (0, 1]")
        if burst_seconds <= 0:
            raise ConfigurationError("burst_seconds must be positive")
        config = device_config
        if config is None:
            config = DeviceConfig(ram_size=16 * 1024, flash_size=32 * 1024,
                                  app_size=4 * 1024)
        self.size = size
        self.tenant_count = tenants
        self.duty_fraction = duty_fraction
        self.burst_seconds = burst_seconds
        self.observe = observe
        self.state_cache = state_cache
        self.backends = [f"backend-{b:02d}" for b in range(backends)]
        self.ring = HashRing(self.backends)
        self.telemetry = Telemetry() if observe else NULL_TELEMETRY
        cost_model = CryptoCostModel(frequency_hz=config.frequency_hz)
        self.members: list[ServiceMember] = []
        self._members_by_id: dict[str, ServiceMember] = {}
        #: Estimated prover-seconds one round costs, per member index --
        #: the admission charge.  A pure function of the device config
        #: (Section 3.1: the measurement HMAC dominates the round).
        self.round_cost_seconds: list[float] = []
        tenant_sizes: dict[str, int] = {}
        for index in range(size):
            device_id = f"device-{index:03d}"
            tenant = f"tenant-{index % tenants:02d}"
            tenant_sizes[tenant] = tenant_sizes.get(tenant, 0) + 1
            key = None
            if master_key is not None:
                key = derive_device_key(master_key, device_id)
            telemetry = Telemetry() if observe else None
            session = build_session(
                profile=profile, auth_scheme=auth_scheme,
                policy_name=policy_name, device_config=config,
                key=key, telemetry=telemetry, seed=f"{seed}:{index}")
            if state_cache is not None:
                session.device.attach_state_cache(state_cache)
            session.learn_reference_state()
            member = ServiceMember(device_id, session, index,
                                   tenant, self.ring.backend_for(device_id))
            self.members.append(member)
            self._members_by_id[device_id] = member
            self.round_cost_seconds.append(cost_model.attestation_ms(
                session.device.writable_memory_bytes) / 1000.0)
        #: Per-tenant Section 3.1 budgets: ``duty_fraction`` of each
        #: member device's time, pooled per tenant.
        self.buckets: dict[str, TokenBucket] = {
            tenant: TokenBucket(rate=duty_fraction * count,
                                burst=duty_fraction * count * burst_seconds)
            for tenant, count in sorted(tenant_sizes.items())}
        #: The admission clock: the latest virtual arrival time seen.
        self.virtual_now = 0.0
        self.admitted = 0
        self.rejected = 0
        #: Most admitted-but-unfinished sessions observed at once (a
        #: host-side observation, deliberately kept out of the metrics
        #: registry so serviced and sequential telemetry stay
        #: byte-identical).
        self.peak_in_flight = 0
        self._request_lanes = RequestLanes([member.session
                                            for member in self.members])

    def member(self, device_id: str) -> ServiceMember:
        return self._members_by_id[device_id]

    def __len__(self) -> int:
        return len(self.members)

    # -- admission ------------------------------------------------------

    def admit(self, request: ServiceRequest) -> ServiceMember | None:
        """Decide one request; returns the member on admission.

        Reject-before-measure: a rejected request charges nothing and
        touches no session state, so over-budget tenants cannot spend
        prover cycles (the Section 3.1 defence, moved verifier-side).
        """
        if not 0 <= request.device_index < len(self.members):
            raise ConfigurationError(
                f"request {request.request_id} targets unknown device "
                f"index {request.device_index}")
        if request.arrival_seconds < self.virtual_now:
            raise ConfigurationError(
                "request schedule must be non-decreasing in arrival time")
        self.virtual_now = request.arrival_seconds
        member = self.members[request.device_index]
        bucket = self.buckets[member.tenant]
        cost = self.round_cost_seconds[member.index]
        if bucket.try_take(request.arrival_seconds, cost):
            self.admitted += 1
            self.telemetry.count("service.admitted", tenant=member.tenant)
            return member
        self.rejected += 1
        self.telemetry.count("service.rejected", tenant=member.tenant)
        return None

    def _rejected_record(self, request: ServiceRequest) -> RequestRecord:
        member = self.members[request.device_index]
        return RequestRecord(request.request_id, member.device_id,
                             member.tenant, member.backend, False,
                             "rejected-admission", "duty-budget-exhausted")

    def _attest_record(self, request: ServiceRequest, member: ServiceMember,
                       prepared: AttestationRequest | None = None
                       ) -> RequestRecord:
        """Run one admitted round and categorise the outcome (the same
        cause-bucketing the swarm sweep uses).  ``prepared`` is the
        round's request from :meth:`_prime_wave`, if it has one."""
        session = member.session
        rejected_before = session.anchor.stats.rejected_total
        result = session.attest_once(prepared=prepared)
        if result.trusted:
            category = "trusted"
        elif result.detail == "no-response":
            if session.anchor.stats.rejected_total > rejected_before:
                category = "refused"
            else:
                category = "no_response"
        elif not result.authentic:
            category = "refused"
        else:
            category = "untrusted"
        self.telemetry.count("service.rounds", verdict=category)
        return RequestRecord(request.request_id, member.device_id,
                             member.tenant, member.backend, True,
                             category, result.detail)

    def _prime_wave(self, members: list[ServiceMember]
                    ) -> list[AttestationRequest | None]:
        """Prepare the rounds of one wave's admitted ``members`` and take
        all their request MACs in one lane pass per side.

        Only a member's first round in the wave is prepared here; a
        member named again gets ``None`` and prepares that round itself,
        after the first one, on the scalar path.
        """
        requests: dict[int, AttestationRequest] = {}
        prepared: list[AttestationRequest | None] = []
        for member in members:
            request = None
            if member.index not in requests:
                request = member.session.prepare_request()
                requests[member.index] = request
            prepared.append(request)
        self._request_lanes.prime(requests)
        return prepared

    # -- sequential library path ----------------------------------------

    def process(self, requests: list[ServiceRequest]) -> list[RequestRecord]:
        """The sequential reference path: admit and (when admitted)
        attest each request in schedule order.  :meth:`serve` is gated
        on being byte-identical to this."""
        records = []
        for request in requests:
            member = self.admit(request)
            if member is None:
                records.append(self._rejected_record(request))
            else:
                records.append(self._attest_record(request, member))
        return records

    # -- async front door ------------------------------------------------

    async def serve(self, requests: list[ServiceRequest], *,
                    workers: int = 1, clock=None) -> list[RequestRecord]:
        """Serve a schedule through per-backend asyncio workers.

        Admission runs synchronously in schedule order (decisions are a
        pure function of the schedule); admitted requests fan out to
        their backend's queue and ``workers`` worker tasks per backend
        drain it.  Requests sharing an arrival instant form a *wave*:
        the whole wave is admitted (going in-flight together -- this is
        where concurrent-session counts come from) before the next
        instant is considered.  The admitted rounds are then prepared
        and their request MACs taken in one lane-packed pass per side
        (:meth:`_prime_wave`) before they are queued; :meth:`process`
        stays the scalar reference.

        ``clock`` is an optional host-clock callable injected by the
        benchmark to stamp per-request latency: it is read once per
        admitted request, in schedule order, at admission, and once when
        the request's round completes.  The deterministic path never
        passes one.
        """
        if workers < 1:
            raise ConfigurationError("serve needs at least one worker")
        records: list[RequestRecord | None] = [None] * len(requests)
        queues = {backend: asyncio.Queue() for backend in self.backends}
        in_flight = 0

        async def drain(queue: asyncio.Queue) -> None:
            nonlocal in_flight
            while True:
                item = await queue.get()
                if item is None:
                    queue.task_done()
                    return
                slot, request, member, started, prepared = item
                record = self._attest_record(request, member, prepared)
                if started is not None:
                    record.host_latency_seconds = clock() - started
                records[slot] = record
                in_flight -= 1
                queue.task_done()

        tasks = [asyncio.ensure_future(drain(queue))
                 for queue in queues.values() for _ in range(workers)]
        try:
            by_arrival = itertools.groupby(
                enumerate(requests),
                key=lambda pair: pair[1].arrival_seconds)
            for _, wave in by_arrival:
                admitted = []
                for slot, request in wave:
                    member = self.admit(request)
                    if member is None:
                        records[slot] = self._rejected_record(request)
                        continue
                    started = clock() if clock is not None else None
                    in_flight += 1
                    self.peak_in_flight = max(self.peak_in_flight, in_flight)
                    admitted.append((slot, request, member, started))
                members = [member for _, _, member, _ in admitted]
                for item, member, prepared in zip(
                        admitted, members, self._prime_wave(members)):
                    queues[member.backend].put_nowait((*item, prepared))
                # The wave must land before the next arrival instant is
                # admitted, or bucket refills would observe reordered
                # virtual time.
                for queue in queues.values():
                    await queue.join()
        finally:
            for queue in queues.values():
                for _ in range(workers):
                    queue.put_nowait(None)
            await asyncio.gather(*tasks)
        return records  # type: ignore[return-value]

    def serve_schedule(self, requests: list[ServiceRequest], *,
                       workers: int = 1, clock=None) -> list[RequestRecord]:
        """:meth:`serve`, run to completion on a private event loop."""
        return asyncio.run(self.serve(requests, workers=workers,
                                      clock=clock))

    # -- fingerprints (equivalence gates) --------------------------------

    def freshness_fingerprint(self) -> dict[str, dict]:
        """Per-device freshness and protocol state, placement-free."""
        out: dict[str, dict] = {}
        for member in self.members:
            anchor = member.session.anchor
            out[member.device_id] = {
                "counter": anchor.state.get_counter(),
                "nonce_count": anchor.state.nonce_count,
                "nonce_bytes": anchor.state.nonce_bytes,
                "received": anchor.stats.received,
                "accepted": anchor.stats.accepted,
                "rejected": dict(sorted(anchor.stats.rejected.items())),
            }
        return out

    def merged_registry(self) -> MetricsRegistry:
        """Service-level counters merged with every member's metrics (in
        member order; the merge itself is order-independent)."""
        if not self.observe:
            raise ConfigurationError(
                "merged_registry needs a service built with observe=True")
        merged = MetricsRegistry()
        merged.merge(self.telemetry.registry)
        for member in self.members:
            merged.merge(member.session.telemetry.registry)
        return merged

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the whole service between requests as one document."""
        from ..snapshot import BlobStore, make_document
        from ..snapshot.service import snapshot_service
        blobs = BlobStore()
        state = snapshot_service(self, blobs)
        return make_document("service", state, blobs)

    def restore(self, document: dict) -> None:
        """Overwrite this (freshly rebuilt) service from a document."""
        from ..snapshot import unwrap_document
        from ..snapshot.service import restore_service
        state, blobs = unwrap_document(document, "service")
        restore_service(self, state, blobs)


# ---------------------------------------------------------------------------
# Deterministic load generation
# ---------------------------------------------------------------------------

def build_schedule(size: int, *, waves: int, wave_devices: int | None = None,
                   spacing_seconds: float = 60.0, start_seconds: float = 0.0,
                   seed: str = "service-load") -> list[ServiceRequest]:
    """A deterministic request schedule: ``waves`` bursts, spaced
    ``spacing_seconds`` apart in virtual time, starting at
    ``start_seconds`` (a restored service's ``virtual_now``).

    Each wave targets every device (or a seeded sample of
    ``wave_devices`` of them) in a seeded shuffle, so the schedule --
    and therefore every admission decision -- replays exactly from
    ``seed``.
    """
    if size < 1 or waves < 1:
        raise ConfigurationError("schedule needs size >= 1 and waves >= 1")
    if wave_devices is not None and not 1 <= wave_devices <= size:
        raise ConfigurationError("wave_devices must be in 1..size")
    if spacing_seconds < 0 or start_seconds < 0:
        raise ConfigurationError("schedule times cannot be negative")
    rng = DeterministicRng(seed).substream("schedule")
    requests: list[ServiceRequest] = []
    for wave in range(waves):
        arrival = start_seconds + wave * spacing_seconds
        devices = list(range(size))
        rng.shuffle(devices)
        if wave_devices is not None:
            devices = devices[:wave_devices]
        for device_index in devices:
            requests.append(ServiceRequest(arrival, device_index,
                                           len(requests)))
    return requests


# ---------------------------------------------------------------------------
# Rebuild specs (CLI snapshot flow, mirroring ``swarm_spec``)
# ---------------------------------------------------------------------------

def service_spec(*, size: int, tenants: int = 4, backends: int = 4,
                 duty_fraction: float = 0.01, burst_seconds: float = 600.0,
                 profile: str = "roam-hardened",
                 auth_scheme: str = "speck-64/128-cbc-mac",
                 policy: str = "counter", ram_kb: int = 16,
                 flash_kb: int = 32, app_kb: int = 4,
                 seed: str = "attestd") -> dict:
    """A JSON-ready description of a CLI-built service."""
    return {"size": size, "tenants": tenants, "backends": backends,
            "duty_fraction": duty_fraction, "burst_seconds": burst_seconds,
            "profile": profile, "auth_scheme": auth_scheme, "policy": policy,
            "ram_kb": ram_kb, "flash_kb": flash_kb, "app_kb": app_kb,
            "seed": seed}


def build_service_from_spec(spec: dict) -> AttestationService:
    """Deterministically rebuild the service a spec describes."""
    from ..mcu.profiles import ALL_PROFILES
    profiles = {p.name: p for p in ALL_PROFILES}
    try:
        profile = profiles[spec["profile"]]
    except KeyError:
        raise ConfigurationError(
            f"unknown protection profile {spec['profile']!r}") from None
    return AttestationService(
        spec["size"], tenants=spec["tenants"], backends=spec["backends"],
        duty_fraction=spec["duty_fraction"],
        burst_seconds=spec["burst_seconds"], profile=profile,
        auth_scheme=spec["auth_scheme"], policy_name=spec["policy"],
        device_config=DeviceConfig(ram_size=spec["ram_kb"] * 1024,
                                   flash_size=spec["flash_kb"] * 1024,
                                   app_size=spec["app_kb"] * 1024),
        observe=True, seed=spec["seed"])
