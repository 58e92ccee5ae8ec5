"""End-to-end protocol sessions: verifier and prover on a Dolev-Yao channel.

:func:`build_session` is the library's main entry point: it assembles a
simulated deployment -- a provisioned, booted prover device with its
trust anchor, a verifier, and the channel between them -- from a handful
of choices (protection profile, request-auth scheme, freshness policy,
clock design).  Examples and attack scenarios all start from a session.

Time model: the network simulation clock is authoritative.  The prover
device sleeps between deliveries (:meth:`ProverNode.deliver` fast-forwards
the device to the simulation time before handling), and request handling
time feeds back as response latency, so a 754 ms measurement really does
delay the response by 754 simulated milliseconds.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from ..crypto.ecc import SECP160R1, generate_keypair
from ..crypto.rng import DeterministicRng
from ..errors import ConfigurationError
from ..mcu.device import Device, DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from ..net.channel import ChannelAdversary, DolevYaoChannel
from ..net.simulator import Simulation
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .authenticator import (EcdsaAuthenticator, RequestAuthenticator,
                            SpeckCbcMacAuthenticator, SpeckTagLanes,
                            make_symmetric_authenticator)
from .freshness import FreshnessPolicy, make_policy
from .messages import AttestationRequest, AttestationResponse
from .prover import ProverTrustAnchor
from .resilience import ResilientOutcome, RetryPolicy
from .verifier import VerificationResult, Verifier

__all__ = ["ProverNode", "VerifierNode", "Session", "RequestLanes",
           "build_session"]


class ProverNode:
    """Channel endpoint wrapping a :class:`ProverTrustAnchor`."""

    def __init__(self, name: str, anchor: ProverTrustAnchor,
                 channel: DolevYaoChannel, sim: Simulation):
        self.name = name
        self.anchor = anchor
        self.channel = channel
        self.sim = sim
        channel.attach(self)

    @property
    def device(self) -> Device:
        return self.anchor.device

    def _sync_device_time(self) -> None:
        lag = self.sim.now - self.device.cpu.elapsed_seconds
        if lag > 0:
            self.device.idle_seconds(lag)

    def deliver(self, message, sender: str) -> None:
        """Handle an inbound attestation request."""
        if not isinstance(message, AttestationRequest):
            return  # unknown traffic is dropped silently
        self._sync_device_time()
        response, reason = self.anchor.handle_request(message)
        if response is not None:
            # The response leaves the device when its CPU finishes -- in
            # absolute device time, so a request that queued behind an
            # earlier measurement is delayed by both (the device may be
            # ahead of the simulation clock after back-to-back requests).
            done_at = self.device.cpu.elapsed_seconds
            delay = max(0.0, done_at - self.sim.now)
            self.sim.schedule(
                delay,
                lambda: self.channel.send(self.name, sender, response))


class VerifierNode:
    """Channel endpoint wrapping a :class:`Verifier`."""

    def __init__(self, name: str, verifier: Verifier,
                 channel: DolevYaoChannel, prover_name: str,
                 sim: Simulation):
        self.name = name
        self.verifier = verifier
        self.channel = channel
        self.prover_name = prover_name
        self.sim = sim
        self._outstanding: list[AttestationRequest] = []
        self._request_times: dict[bytes, float] = {}
        self.results: list[VerificationResult] = []
        #: Simulation time the most recent result was appended (any
        #: verdict, including unsolicited), and the measured request ->
        #: response duration of the most recent *matched* response.
        #: Retry policies clamp their per-attempt deadline to the latter
        #: so retries never fire faster than a round trip completes.
        self.last_result_time: float | None = None
        self.last_round_seconds: float | None = None
        channel.attach(self)

    def request_attestation(self, prepared: AttestationRequest | None = None
                            ) -> AttestationRequest:
        """Issue one attestation request towards the prover (``prepared``
        from :meth:`Verifier.prepare_request` is tagged and sent)."""
        request = self.verifier.make_request(prepared)
        self._outstanding.append(request)
        self._request_times[request.challenge] = self.sim.now
        if len(self._request_times) > 4096:
            # Dropped requests never get popped; bound the map.
            oldest = next(iter(self._request_times))
            del self._request_times[oldest]
        self.channel.send(self.name, self.prover_name, request)
        return request

    def deliver(self, message, sender: str) -> None:
        if not isinstance(message, AttestationResponse):
            return
        request = self._match_request(message)
        if request is None:
            self.results.append(VerificationResult(
                False, None, "unsolicited-response"))
            self.last_result_time = self.sim.now
            return
        sent_at = self._request_times.pop(request.challenge, None)
        if sent_at is not None:
            self.last_round_seconds = self.sim.now - sent_at
        self.results.append(self.verifier.check_response(request, message))
        self.last_result_time = self.sim.now

    def _match_request(self, response: AttestationResponse
                       ) -> AttestationRequest | None:
        for request in self._outstanding:
            if request.challenge == response.challenge:
                self._outstanding.remove(request)
                return request
        return None


@dataclass
class Session:
    """A fully-wired attestation deployment."""

    sim: Simulation
    channel: DolevYaoChannel
    device: Device
    anchor: ProverTrustAnchor
    verifier: Verifier
    prover_node: ProverNode
    verifier_node: VerifierNode
    policy: FreshnessPolicy
    key: bytes
    #: The telemetry sink every layer reports into (the shared no-op
    #: sink when the session was built without observation).
    telemetry: Telemetry = field(default=NULL_TELEMETRY)

    def prepare_request(self) -> AttestationRequest:
        """The first half of :meth:`attest_once`: step past the epoch,
        then stamp the next request (untagged) at the current time."""
        if self.sim.now == 0.0:
            # A timestamp of exactly 0 is indistinguishable from the
            # prover's initial last-accepted value; start after the epoch.
            self.sim.run(until=0.001)
        return self.verifier.prepare_request()

    def attest_once(self, settle_seconds: float = 5.0, *,
                    prepared: AttestationRequest | None = None
                    ) -> VerificationResult:
        """Run one complete attestation round and return the verdict.

        ``prepared`` is a request from :meth:`prepare_request` made at
        the current simulated time; without it the round prepares its
        own.  A round in which no result arrives is ``no-response``,
        whatever an earlier round concluded.
        """
        if prepared is None:
            prepared = self.prepare_request()
        results = self.verifier_node.results
        baseline = len(results)
        self.verifier_node.request_attestation(prepared)
        self.sim.run(until=self.sim.now + settle_seconds)
        if len(results) == baseline:
            return VerificationResult(False, None, "no-response")
        return results[-1]

    def attest_resilient(self, retry: "RetryPolicy",
                         rng: DeterministicRng | None = None
                         ) -> ResilientOutcome:
        """One logical attestation with deadlines, backoff and a budget.

        Each attempt waits ``retry.effective_timeout(...)`` -- the
        configured per-attempt deadline, clamped up to the most recently
        measured round trip so a retry can never fire while the response
        it is retrying for is still in flight.  Failed attempts back off
        exponentially (with deterministic jitter when ``rng`` is given)
        until the retry count or the total time budget runs out.

        Telemetry: ``session.timeouts`` / ``session.retries`` /
        ``session.backoff_seconds`` counters and the matching
        ``session-*`` trace events, plus ``verifier.timeouts`` via
        :meth:`~repro.core.verifier.Verifier.record_timeout`.
        """
        node = self.verifier_node
        round_start = self.sim.now
        attempts = 0
        timeouts = 0
        backoff_total = 0.0
        gave_up = None
        while True:
            attempts += 1
            timeout = retry.effective_timeout(node.last_round_seconds)
            if retry.total_budget_seconds is not None:
                # The budget check between attempts alone lets the final
                # attempt wait a full deadline past the cap; clamp the
                # deadline to the remaining budget instead.
                remaining = retry.total_budget_seconds \
                    - (self.sim.now - round_start)
                timeout = min(timeout, max(remaining, 0.0))
            baseline = len(node.results)
            result = self.attest_once(settle_seconds=timeout)
            if len(node.results) == baseline:
                # Nothing arrived within this attempt's deadline.
                timeouts += 1
                self.verifier.record_timeout()
                self.telemetry.count("session.timeouts")
                self.telemetry.event("session-timeout", self.sim.now,
                                     attempt=attempts)
            if result.trusted:
                break
            if retry.budget_exhausted(self.sim.now - round_start):
                # Checked before the retry count: when both limits bind
                # on the same attempt the budget is the one that actually
                # stopped the round, and must be reported as such.
                gave_up = "budget-exhausted"
                break
            if attempts > retry.max_retries:
                gave_up = "retries-exhausted"
                break
            self.telemetry.count("session.retries")
            self.telemetry.event("session-retry", self.sim.now,
                                 attempt=attempts, detail=result.detail)
            delay = retry.backoff_delay(attempts, rng)
            if delay > 0.0:
                backoff_total += delay
                self.telemetry.count("session.backoff_seconds", delay)
                self.telemetry.event("session-backoff", self.sim.now,
                                     seconds=delay, attempt=attempts)
                self.sim.run(until=self.sim.now + delay)
        return ResilientOutcome(result=result, attempts=attempts,
                                timeouts=timeouts,
                                backoff_seconds=backoff_total,
                                elapsed_seconds=self.sim.now - round_start,
                                gave_up=gave_up)

    def snapshot(self, *, parent: dict | None = None) -> dict:
        """Capture the full session state as a snapshot document.

        The session must be quiescent (no scheduled simulation events,
        no context on the CPU stack) -- see :mod:`repro.snapshot`.
        With ``parent`` (a session-kind document this run descends
        from), the capture is a ``repro.snapshot.delta/v2`` delta
        storing only the chunks changed and the log records appended
        since the parent (see :mod:`repro.snapshot.delta`).
        """
        from ..snapshot import (BlobStore, DeltaBase, document_id,
                                make_delta_document, make_document,
                                snapshot_session)
        blobs = BlobStore()
        if parent is None:
            state = snapshot_session(self, blobs)
            return make_document("session", state, blobs)
        base = DeltaBase.from_document(parent, "session")
        state = snapshot_session(self, blobs, parent=base.member(0))
        return make_delta_document("session", state, blobs,
                                   document_id(parent))

    def restore(self, document: dict) -> None:
        """Overwrite this (freshly rebuilt) session from a document.

        The session must have been built with the same
        :func:`build_session` parameters as the captured one; after the
        restore, continuing the run is byte-identical to a run that was
        never interrupted.
        """
        from ..snapshot import restore_session, unwrap_document
        state, blobs = unwrap_document(document, "session")
        restore_session(self, state, blobs)

    def summary(self) -> dict:
        """Machine-readable snapshot of the deployment and its history.

        Stable keys for scripting/CI: device geometry, configuration
        choices, protocol statistics, and energy accounting.
        """
        self.device.sync_energy()
        stats = self.anchor.stats
        config = self.device.config
        return {
            "device": {
                "frequency_hz": config.frequency_hz,
                "ram_bytes": config.ram_size,
                "flash_bytes": config.flash_size,
                "writable_bytes": self.device.writable_memory_bytes,
                "clock_kind": config.clock_kind,
                "profile": self.device.boot_profile.name
                if self.device.boot_profile else None,
                "mpu_rules": self.device.mpu.active_rule_count,
            },
            "protocol": {
                "auth_scheme": self.anchor.authenticator.scheme,
                "freshness_policy": self.policy.name,
            },
            "stats": {
                "requests_received": stats.received,
                "accepted": stats.accepted,
                "rejected": dict(stats.rejected),
                "validation_ms": stats.validation_cycles
                / (config.frequency_hz / 1000),
                "attestation_ms": stats.attestation_cycles
                / (config.frequency_hz / 1000),
            },
            "energy": {
                "consumed_mj": self.device.battery.consumed_mj,
                "battery_fraction_remaining":
                    self.device.battery.fraction_remaining,
            },
            "time": {
                "simulated_seconds": self.sim.now,
                "device_seconds": self.device.cpu.elapsed_seconds,
            },
        }

    def learn_reference_state(self) -> bytes:
        """Deployment-time step: record the golden state digest.

        Reads the device directly (trusted provisioning environment, not
        the network path) so the verifier can later flag modified states.
        """
        digest = self.device.digest_writable_memory(
            self.device.context("Code_Attest"))
        self.verifier.learn_reference(digest)
        return digest


class RequestLanes:
    """Lane-packed request authentication for a fixed list of sessions.

    Lane ``i`` is ``sessions[i]``.  :meth:`prime` takes the verifier
    tags of a batch of prepared requests in one
    :class:`~repro.core.authenticator.SpeckTagLanes` pass, and the
    provers' checks of the same bytes in a second, each under its own
    cipher.  Each session's round (``attest_once(prepared=...)``) then
    answers both MACs from the memos; anything an adversary altered or
    injected misses them and is MAC'd on the scalar path.

    Each side's keys are packed once, for every session, and repacked
    only when a lane that carries a request no longer holds the
    authenticator and cipher it was packed from.  A side with any
    non-Speck authenticator stays scalar.
    """

    _SIDES = (attrgetter("verifier.authenticator"),
              attrgetter("anchor.authenticator"))

    def __init__(self, sessions: Sequence[Session]):
        self._sessions = tuple(sessions)
        self._packed: list[SpeckTagLanes | None] = [None] * len(self._SIDES)

    def prime(self, requests: Mapping[int, AttestationRequest]) -> None:
        """Memoise both sides' MACs of ``requests[i]`` (untagged, from
        :meth:`Session.prepare_request`) for session ``i``; sessions
        without a request are left alone."""
        if not requests:
            return
        sessions = self._sessions
        lanes = list(requests)
        payloads: list[bytes | None] = [None] * len(sessions)
        for lane, request in requests.items():
            payloads[lane] = request.signed_payload()
        for side, authenticator_of in enumerate(self._SIDES):
            carried = [authenticator_of(sessions[lane]) for lane in lanes]
            packed = self._packed[side]
            if packed is None or not packed.serves(lanes, carried):
                # The carried lanes first: a non-Speck service never
                # walks the whole fleet.
                if not _all_speck(carried):
                    continue
                every = [authenticator_of(session) for session in sessions]
                if not _all_speck(every):
                    continue
                packed = self._packed[side] = SpeckTagLanes(every)
            packed.precompute(payloads)


def _all_speck(authenticators: list[RequestAuthenticator]) -> bool:
    return all(isinstance(auth, SpeckCbcMacAuthenticator)
               for auth in authenticators)


def build_session(*, profile: ProtectionProfile = ROAM_HARDENED,
                  auth_scheme: str = "speck-64/128-cbc-mac",
                  policy_name: str = "counter",
                  device_config: DeviceConfig | None = None,
                  adversary: ChannelAdversary | None = None,
                  timestamp_window_seconds: float = 1.0,
                  monotonic_timestamps: bool = False,
                  latency_seconds: float = 0.005,
                  network_path=None,
                  key: bytes | None = None,
                  rate_limit_seconds: float = 0.0,
                  telemetry: Telemetry | None = None,
                  seed: str = "session-0") -> Session:
    """Assemble a simulated attestation deployment.

    Parameters mirror the paper's design space: ``profile`` picks the
    hardware protection level (Section 6), ``auth_scheme`` the request
    authentication primitive (Section 4.1, Table 1), ``policy_name`` the
    freshness feature (Section 4.2, Table 2), and
    ``device_config.clock_kind`` the clock implementation (Figure 1).
    ``key`` provisions an externally-derived ``K_Attest`` (e.g. from
    :func:`repro.crypto.kdf.derive_device_key`); by default a key is
    drawn from the session seed.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry`
    sink to every layer (device, channel, prover anchor, verifier); the
    default no-op sink observes nothing and costs nothing.
    """
    config = device_config if device_config is not None else DeviceConfig()
    if policy_name == "timestamp" and config.clock_kind == "none":
        raise ConfigurationError(
            "timestamp freshness requires a device clock")

    rng = DeterministicRng(seed)
    if key is None:
        key = rng.substream("k-attest").bytes(16)
    elif len(key) != 16:
        raise ConfigurationError("provisioned K_Attest must be 16 bytes")

    sink = telemetry if telemetry is not None else NULL_TELEMETRY

    device = Device(config)
    device.provision(key)
    device.boot(profile)
    device.attach_telemetry(sink)

    sim = Simulation()
    channel = DolevYaoChannel(sim, latency_seconds=latency_seconds,
                              adversary=adversary, path=network_path,
                              seed=seed, telemetry=sink)

    # Clock plumbing for timestamps: the verifier converts simulation
    # seconds into prover ticks (synchronised-clocks assumption).
    if device.clock is not None:
        resolution = device.clock.resolution_seconds
        clock_ticks = lambda: int(sim.now / resolution)  # noqa: E731
        window_ticks = max(1, int(timestamp_window_seconds / resolution))
    else:
        clock_ticks = None
        window_ticks = 1

    policy = make_policy(policy_name, window_ticks=window_ticks,
                         monotonic_timestamps=monotonic_timestamps)

    if auth_scheme == "ecdsa-secp160r1":
        keypair = generate_keypair(SECP160R1, rng.substream("ecdsa"))
        verifier_auth: RequestAuthenticator = EcdsaAuthenticator.signer(keypair)
        prover_auth: RequestAuthenticator = EcdsaAuthenticator.checker(
            keypair.public)
    else:
        verifier_auth = make_symmetric_authenticator(auth_scheme, key)
        prover_auth = make_symmetric_authenticator(auth_scheme, key)

    verifier = Verifier(key, verifier_auth, policy,
                        clock_ticks=clock_ticks, seed=seed + ":verifier",
                        telemetry=sink)
    anchor = ProverTrustAnchor(device, prover_auth, policy,
                               min_interval_seconds=rate_limit_seconds,
                               telemetry=sink)

    prover_node = ProverNode("prover", anchor, channel, sim)
    verifier_node = VerifierNode("verifier", verifier, channel, "prover", sim)

    return Session(sim=sim, channel=channel, device=device, anchor=anchor,
                   verifier=verifier, prover_node=prover_node,
                   verifier_node=verifier_node, policy=policy, key=key,
                   telemetry=sink)
