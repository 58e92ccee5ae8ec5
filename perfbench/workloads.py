"""The three benchmark workloads: ``sweep``, ``ota`` and ``attestd``.

Each workload drives the program only through its public API and times
those calls from here.  Each one:

* builds its inputs from the seed (:mod:`perfbench.inputs`) before any
  timing starts;
* sets up several times and keeps the last instance (``setup_s`` is the
  median);
* runs its timed phase for ``seconds`` of host time, but always at least
  the units its simulated fingerprint covers;
* checks every simulated outcome as it goes (:class:`Checks`) and
  records a fingerprint of its simulated outputs over a fixed prefix of
  the run, so the fingerprint does not depend on ``seconds``.

With a :class:`~perfbench.tracer.Tracer` the workload runs in trace
mode instead: a traced phase followed by an untraced phase of the same
fixed size, both after the same set-up.  The fingerprint prefix falls
in the traced phase, so every traced run is checked against the same
stored fingerprint as an untraced one.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import repro.snapshot
from repro.incremental import DEFAULT_CHUNK_SIZE
from repro.mcu.device import DeviceConfig
from repro.mcu.statecache import StateDigestCache
from repro.services.attestd import AttestationService
from repro.services.swarm import OUTCOME_CATEGORIES, Swarm

from .hostspeed import HostSpeed
from .inputs import attestd_schedule, fleet_seed, ota_digests, ota_plan
from .tracer import END, NAME, NOTE, START, Tracer

__all__ = ["DEFAULT_SEED", "percentile", "peak_rss_mb", "Durations", "Checks",
           "SweepConfig", "OtaConfig", "AttestdConfig", "run_sweep",
           "run_ota", "run_attestd", "WORKLOADS"]

#: The seed whose fingerprints are stored in ``fingerprints.json``.
DEFAULT_SEED = 0

perf_counter = time.perf_counter


class Durations:
    """Raw host durations and their host-speed-scaled values
    (:mod:`perfbench.hostspeed`); metrics use the scaled ones."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, raw: float, factor: float) -> float:
        self.raw.append(raw)
        self.scaled.append(raw * factor)
        return raw * factor

    def __len__(self) -> int:
        return len(self.raw)


class Checks:
    """Counts attempted and failed operations and keeps the first few
    failure messages.  A run with any failure reports no timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def sweep(self, report, members: int, where: str) -> None:
        """Every honest member must be trusted in every sweep."""
        self.attempted += members
        if report.trusted != members or not report.healthy:
            self.fail(f"{where}: {report.trusted}/{members} trusted "
                      f"(untrusted={report.untrusted[:3]}, "
                      f"no_response={report.no_response[:3]}, "
                      f"refused={report.refused[:3]})",
                      count=max(members - report.trusted, 1))


def _verdicts(report) -> Counter:
    """Sweep outcome counts per category (zero counts left out)."""
    counts = Counter(trusted=report.trusted)
    for category in OUTCOME_CATEGORIES[1:]:
        field = ("skipped_quarantined" if category == "skipped"
                 else category)
        counts[category] = len(getattr(report, field))
    return +counts


def _sessions_totals(sessions) -> dict:
    """Total prover cycles and consumed energy over ``sessions``."""
    cycles = 0
    energy = 0.0
    for session in sessions:
        device = session.device
        device.sync_energy()
        cycles += device.cpu.cycle_count
        energy += device.battery.consumed_mj
    return {"prover_cycles": cycles, "consumed_mj": energy}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _registry_sha1(registry) -> str:
    text = json.dumps(registry.dump(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def _events(sessions) -> int:
    return sum(session.telemetry.trace.emitted for session in sessions
               if session.telemetry.trace is not None)


def _attested_bytes(device) -> int:
    return sum(end - start for start, end in device.attested_spans())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _phases(tracer: Tracer | None, seconds: float, minimum: int,
            nominal_per_second: float) -> list[tuple]:
    """``(units, seconds, tracer)`` per phase.

    Untraced: one phase of at least ``minimum`` units lasting
    ``seconds``.  Trace mode: a traced then an untraced phase of the
    same fixed unit count, sized so both together take about
    ``seconds`` untraced; fixed sizes make per-layer counts repeat.
    """
    if tracer is None:
        return [(minimum, seconds, None)]
    units = max(minimum, round(seconds / 2 * nominal_per_second))
    return [(units, 0.0, tracer), (units, 0.0, None)]


def _installed(tracer: Tracer | None):
    return tracer if tracer is not None else contextlib.nullcontext()


def _result(checks: Checks, fingerprint, setups: Durations, metrics: dict,
            detail: dict, counters: dict | None, rounds: Durations,
            rss_mb: float) -> dict:
    """``rss_mb`` is the peak RSS when the fingerprinted prefix ended:
    later units only grow per-attestation history, so a later reading
    would grow with how many units a faster program fits in."""
    detail = {"raw_setup_s": _median(setups.raw), **detail}
    return {"attempted": checks.attempted, "failed": checks.failed,
            "errors": checks.errors, "fingerprint": fingerprint,
            "setup_s": _median(setups.scaled), "rss_mb": rss_mb,
            "metrics": metrics,
            "detail": detail, "counters": counters,
            "samples": {"setup_raw": setups.raw,
                        "setup_scaled": setups.scaled,
                        "round_raw": rounds.raw,
                        "round_scaled": rounds.scaled}}


# ---------------------------------------------------------------------------
# sweep: closed-loop sweeps over a cached, telemetry-off fleet
# ---------------------------------------------------------------------------

#: Nominal sweep rate on a 2-CPU host; sizes the trace-mode phases.
SWEEPS_PER_SECOND = 5.0


@dataclass(frozen=True)
class SweepConfig:
    members: int = 256
    setups: int = 3
    #: Timed sweeps the fingerprint covers.
    checked_sweeps: int = 8


def run_sweep(seed: int, seconds: float, *, tracer: Tracer | None = None,
              config: SweepConfig = SweepConfig()) -> dict:
    """One verifier sweeping a 256-member fleet back to back.

    Speck-64/128 CBC-MAC request tags, counter freshness, default
    16 KB RAM / 32 KB flash devices, one shared ``StateDigestCache``,
    telemetry off, one untimed warm-up sweep per set-up.
    """
    checks = Checks()
    bracket = HostSpeed(slices=5)
    setups = Durations()
    swarm = None
    for _ in range(config.setups if tracer is None else 1):
        swarm = None
        gc.collect()
        bracket.mark()
        start = perf_counter()
        swarm = Swarm(config.members,
                      state_cache=StateDigestCache(max_entries=0),
                      seed=fleet_seed("sweep", seed))
        warm = swarm.sweep()
        setups.add(perf_counter() - start, bracket.factor())
        checks.sweep(warm, config.members, "warm-up sweep")

    verdicts = Counter()
    fingerprint = None
    done = 0
    phase_out = []
    cache = swarm.state_cache
    speed = HostSpeed(slices=3)
    for units, phase_seconds, phase_tracer in _phases(
            tracer, seconds, config.checked_sweeps, SWEEPS_PER_SECOND):
        gc.collect()
        durations = Durations()
        trusted = 0
        hits, misses = cache.hits, cache.misses
        begin = perf_counter()
        speed.mark()
        with _installed(phase_tracer):
            while (len(durations) < units
                   or perf_counter() - begin < phase_seconds):
                start = perf_counter()
                report = swarm.sweep()
                durations.add(perf_counter() - start, speed.factor())
                checks.sweep(report, config.members, f"sweep {done}")
                trusted += report.trusted
                if done < config.checked_sweeps:
                    verdicts += _verdicts(report)
                done += 1
                if done == config.checked_sweeps:
                    fingerprint = {
                        "units": done,
                        "verdicts": dict(sorted(verdicts.items())),
                        **_sessions_totals(m.session
                                           for m in swarm.members)}
                    rss_mb = peak_rss_mb()
                    speed.mark()
        phase_out.append({"durations": durations, "trusted": trusted,
                          "hits": cache.hits - hits,
                          "misses": cache.misses - misses})

    def rate(out) -> float:
        return out["trusted"] / sum(out["durations"].scaled)

    main = phase_out[0]
    metrics = {"attest_per_s": rate(main),
               "round_ms": _median(main["durations"].scaled) * 1000.0}
    detail = {"sweeps": len(main["durations"]),
              "raw_attest_per_s": main["trusted"]
              / sum(main["durations"].raw),
              "raw_round_ms": _median(main["durations"].raw) * 1000.0}
    counters = None
    if tracer is not None:
        counters = {
            "phase_s": sum(main["durations"].raw),
            "attests": main["trusted"],
            "attest_per_s.traced": rate(main),
            "attest_per_s.untraced": rate(phase_out[1]),
            "statecache.hits": main["hits"],
            "statecache.misses": main["misses"],
            "measure_bytes_each": _attested_bytes(
                swarm.members[0].session.device),
            "telemetry.events": _events(m.session for m in swarm.members),
        }
    return _result(checks, fingerprint, setups, metrics, detail, counters,
                   main["durations"], rss_mb)


# ---------------------------------------------------------------------------
# ota: fleet-wide update rounds with delta checkpoints, then restore
# ---------------------------------------------------------------------------

#: Share of every attested window one OTA round rewrites.
OTA_DIRTY_FRACTION = 0.10
#: Update chunk size: the digest trees' default leaf size.
OTA_CHUNK_SIZE = DEFAULT_CHUNK_SIZE
#: Nominal episode rate on a 2-CPU host; sizes the trace-mode phases.
OTA_EPISODES_PER_SECOND = 0.125


@dataclass(frozen=True)
class OtaConfig:
    members: int = 128
    ram_kb: int = 256
    flash_kb: int = 256
    #: Update rounds per episode (one delta checkpoint each).
    rounds: int = 8


def _ota_fleet(seed: int, config: OtaConfig, size: int | None = None
               ) -> Swarm:
    master = hashlib.sha256(f"perfbench-ota-master:{seed}".encode()
                            ).digest()[:16]
    return Swarm(config.members if size is None else size,
                 device_config=DeviceConfig(
                     ram_size=config.ram_kb * 1024,
                     flash_size=config.flash_kb * 1024,
                     app_size=2 * 1024),
                 auth_scheme="hmac-sha1", master_key=master,
                 incremental=True, observe=True,
                 seed=fleet_seed("ota", seed))


def _tree_counters(swarm: Swarm) -> Counter:
    totals = Counter()
    for member in swarm.members:
        for region in member.session.device.memory.writable_regions():
            tree = region.digest_tree
            if tree is not None:
                totals["digesttree.leaf_hashes"] += tree.leaf_hashes
                totals["digesttree.refreshes"] += tree.refreshes
                totals["digesttree.full_builds"] += tree.full_builds
    return totals


def _ota_inputs(seed: int, config: OtaConfig):
    """Update plan and reference digests, from a one-member probe fleet
    that is identical to member 0 of every episode's fleet."""
    probe = _ota_fleet(seed, config, size=1)
    session = probe.members[0].session
    device = session.device
    windows = []
    image = {}
    for start, end in device.attested_spans():
        region = device.memory.find(start)
        windows.append((region.name, start - region.start, end - start))
        image[region.name] = bytearray(region.raw_read(0, region.size))
    base = hashlib.sha1(b"".join(
        bytes(image[name][start:start + size])
        for name, start, size in windows)).digest()
    if session.verifier.reference_measurements != {base}:
        raise RuntimeError("ota: host-side reference digest does not match "
                           "the learned reference state")
    plan = ota_plan(seed, rounds=config.rounds, members=config.members,
                    windows=windows, chunk_size=OTA_CHUNK_SIZE,
                    dirty_fraction=OTA_DIRTY_FRACTION)
    return plan, base, ota_digests(image, windows, plan)


def _ota_episode(seed: int, config: OtaConfig, inputs, checks: Checks,
                 tracer: Tracer | None, bracket: HostSpeed,
                 speed: HostSpeed) -> dict:
    plan, base, digests = inputs
    setup = Durations()
    gc.collect()
    bracket.mark()
    start = perf_counter()
    live = _ota_fleet(seed, config)
    warm = live.sweep()
    chain = [live.snapshot()]
    setup.add(perf_counter() - start, bracket.factor())
    checks.sweep(warm, config.members, "ota warm-up sweep")

    cache = live.state_cache
    hits, misses = cache.hits, cache.misses
    trees = _tree_counters(live)
    events = _events(m.session for m in live.members)
    rollout, checkpoint = Durations(), Durations()
    verdicts = Counter()
    trusted = 0
    reference = base
    speed.mark()
    with _installed(tracer):
        for index, per_member in enumerate(plan):
            begin = perf_counter()
            for member, writes in zip(live.members, per_member):
                memory = member.session.device.memory
                for name, offset, data in writes:
                    memory.region(name).load(offset, data)
            for member in live.members:
                member.session.verifier.rotate_reference(reference,
                                                         digests[index])
            reference = digests[index]
            report = live.sweep()
            rollout.add(perf_counter() - begin, speed.factor())
            begin = perf_counter()
            chain.append(live.snapshot(parent=chain[-1]))
            checkpoint.add(perf_counter() - begin, speed.factor())
            checks.sweep(report, config.members, f"ota round {index}")
            verdicts += _verdicts(report)
            trusted += report.trusted
    counters = None
    if tracer is not None:
        counters = {
            "statecache.hits": cache.hits - hits,
            "statecache.misses": cache.misses - misses,
            **(_tree_counters(live) - trees),
            "telemetry.events": _events(m.session for m in live.members)
            - events,
            "snapshot.delta_bytes": sum(
                len(json.dumps(document, separators=(",", ":")))
                for document in chain[1:]),
            "measure_bytes_each": _attested_bytes(
                live.members[0].session.device),
        }
    fingerprint = {"units": len(plan),
                   "verdicts": dict(sorted(verdicts.items())),
                   **_sessions_totals(m.session for m in live.members),
                   "registry_sha1": _registry_sha1(live.merged_registry())}
    live_next = live.sweep()
    del live
    gc.collect()

    bracket.mark()
    start = perf_counter()
    fresh = _ota_fleet(seed, config)
    setup.add(perf_counter() - start, bracket.factor())
    restore = Durations()
    with _installed(tracer):
        bracket.mark()
        start = perf_counter()
        full = repro.snapshot.materialize_chain(chain)
        fresh.restore(full)
        restore.add(perf_counter() - start, bracket.factor())
    del chain, full
    restored_next = fresh.sweep()
    checks.attempted += config.members
    if restored_next != live_next:
        checks.fail("ota: restored fleet's next sweep differs from the "
                    "live fleet's", count=config.members)
    fingerprint["next_sweep"] = {"verdicts": dict(sorted(
        _verdicts(live_next).items())),
        "fleet_energy_mj": live_next.fleet_energy_mj}
    return {"setup": setup, "rollout": rollout, "checkpoint": checkpoint,
            "restore": restore, "trusted": trusted,
            "fingerprint": fingerprint, "counters": counters}


def run_ota(seed: int, seconds: float, *, tracer: Tracer | None = None,
            config: OtaConfig = OtaConfig()) -> dict:
    """Episodes of ``rounds`` closed-loop OTA rounds on 128 members with
    256 KB RAM + 256 KB flash, HMAC-SHA1 request tags, per-member keys
    derived from a master key, incremental measurement and telemetry on.

    A round loads a fleet-wide update (about 10% of memory) through
    ``MemoryRegion.load``, rotates every verifier's reference digest,
    sweeps, and captures a delta checkpoint chained to the previous
    one.  After the last round the chain is materialized and restored
    into a freshly built fleet, whose next sweep must equal the live
    fleet's.  Every episode must give the same fingerprint.
    """
    checks = Checks()
    inputs = _ota_inputs(seed, config)
    bracket = HostSpeed(slices=5)
    speed = HostSpeed(slices=3)
    phase_out = []
    for units, phase_seconds, phase_tracer in _phases(
            tracer, seconds, 1, OTA_EPISODES_PER_SECOND):
        episodes = []
        begin = perf_counter()
        while (len(episodes) < units
               or perf_counter() - begin < phase_seconds):
            episodes.append(_ota_episode(seed, config, inputs, checks,
                                         phase_tracer, bracket, speed))
            if not phase_out and len(episodes) == 1:
                rss_mb = peak_rss_mb()
        phase_out.append(episodes)
    episodes = [episode for phase in phase_out for episode in phase]
    fingerprint = episodes[0]["fingerprint"]
    for index, episode in enumerate(episodes[1:], start=1):
        if episode["fingerprint"] != fingerprint:
            checks.fail(f"ota: episode {index} fingerprint differs from "
                        "episode 0")

    def pooled(group, key: str, kind: str = "scaled") -> list[float]:
        return [value for e in group for value in getattr(e[key], kind)]

    def rate(group, kind: str = "scaled") -> float:
        busy = sum(pooled(group, "rollout", kind)) \
            + sum(pooled(group, "checkpoint", kind))
        return sum(e["trusted"] for e in group) / busy

    main = phase_out[0]
    rounds = [r + c for r, c in zip(pooled(main, "rollout"),
                                    pooled(main, "checkpoint"))]
    raw_rounds = [r + c for r, c in zip(pooled(main, "rollout", "raw"),
                                        pooled(main, "checkpoint", "raw"))]
    metrics = {"attest_per_s": rate(main),
               "round_ms": _median(rounds) * 1000.0}
    detail = {
        "episodes": len(main),
        "rollout_ms": _median(pooled(main, "rollout")) * 1000.0,
        "checkpoint_ms": _median(pooled(main, "checkpoint")) * 1000.0,
        "restore_s": _median(pooled(main, "restore")),
        "raw_attest_per_s": rate(main, "raw"),
        "raw_round_ms": _median(raw_rounds) * 1000.0,
        "raw_restore_s": _median(pooled(main, "restore", "raw")),
    }
    counters = None
    if tracer is not None:
        traced = main[0]
        counters = {**traced["counters"],
                    "phase_s": sum(raw_rounds)
                    + sum(pooled(main, "restore", "raw")),
                    "attests": traced["trusted"],
                    "attest_per_s.traced": rate(main),
                    "attest_per_s.untraced": rate(phase_out[1])}
    # One set-up sample per episode: the live and the fresh build.
    setups = Durations()
    for episode in episodes:
        setups.raw.append(sum(episode["setup"].raw))
        setups.scaled.append(sum(episode["setup"].scaled))
    round_samples = Durations()
    round_samples.raw, round_samples.scaled = raw_rounds, rounds
    return _result(checks, fingerprint, setups, metrics, detail, counters,
                   round_samples, rss_mb)


# ---------------------------------------------------------------------------
# attestd: open-loop request waves against the multi-tenant service
# ---------------------------------------------------------------------------

ATTESTD_TENANTS = 4
ATTESTD_BACKENDS = 4
ATTESTD_DUTY_FRACTION = 0.01


@dataclass(frozen=True)
class AttestdConfig:
    devices: int = 512
    #: Small burst: the heavy tenant reaches its steady rejection share
    #: within the warm-up waves.
    burst_seconds: float = 1.0
    heavy_per_wave: int = 16
    light_per_wave: int = 4
    #: Virtual admission time between waves.  With 16 heavy requests per
    #: wave the heavy tenant asks for about twice its duty budget and
    #: the light tenants for under half of theirs.
    virtual_step_seconds: float = 0.5
    #: Host time between waves: 28 requests every 50 ms.  A wave keeps
    #: the service busy for 14-25 ms on a 2-CPU host, depending on how
    #: loaded the host is, so the service runs at about half capacity.
    spacing_seconds: float = 0.05
    warmup_waves: int = 10
    #: Timed waves the fingerprint covers.
    checked_waves: int = 20
    setups: int = 3


def _attestd_service(seed: int, config: AttestdConfig) -> AttestationService:
    return AttestationService(
        config.devices, tenants=ATTESTD_TENANTS, backends=ATTESTD_BACKENDS,
        duty_fraction=ATTESTD_DUTY_FRACTION,
        burst_seconds=config.burst_seconds,
        state_cache=StateDigestCache(max_entries=0), observe=True,
        seed=fleet_seed("attestd", seed))


def _check_wave(checks: Checks, wave, records, heavy: str,
                where: str) -> int:
    """Check one served wave; returns its trusted count."""
    checks.attempted += len(wave)
    trusted = 0
    for request, record in zip(wave, records):
        if record is None:
            checks.fail(f"{where}: request {request.request_id} has no "
                        "record")
        elif record.admitted:
            if record.verdict == "trusted":
                trusted += 1
            else:
                checks.fail(f"{where}: admitted request "
                            f"{request.request_id} got {record.verdict}")
        elif record.tenant != heavy:
            checks.fail(f"{where}: {record.tenant} request "
                        f"{request.request_id} rejected at admission")
    if len(records) != len(wave):
        checks.fail(f"{where}: {len(records)} records for {len(wave)} "
                    "requests")
    return trusted


def run_attestd(seed: int, seconds: float, *, tracer: Tracer | None = None,
                config: AttestdConfig = AttestdConfig()) -> dict:
    """Open-loop waves through ``AttestationService.serve_schedule``.

    512 devices, 4 tenants, 4 backends, telemetry on, one shared state
    cache.  Waves are sent on a fixed host-time schedule; latency is
    measured from when a request's wave was due.  Tenant 0 sends 4x the
    others' share, so a steady part of its requests is rejected at
    admission; the other tenants are never rejected.
    """
    checks = Checks()
    # Open loop: a phase is a fixed number of waves on the host-time
    # schedule, so its length in seconds is the schedule's.
    spacing = config.spacing_seconds
    if tracer is None:
        phases = [(max(config.checked_waves, round(seconds / spacing)),
                   None)]
    else:
        units = max(config.checked_waves, round(seconds / 2 / spacing))
        phases = [(units, tracer), (units, None)]
    warmup = config.warmup_waves
    schedule = attestd_schedule(
        seed, waves=warmup + sum(units for units, _ in phases),
        devices=config.devices, tenants=ATTESTD_TENANTS,
        heavy_per_wave=config.heavy_per_wave,
        light_per_wave=config.light_per_wave,
        virtual_step_seconds=config.virtual_step_seconds)
    heavy = "tenant-00"

    bracket = HostSpeed(slices=5)
    setups = Durations()
    service = None
    for _ in range(config.setups if tracer is None else 1):
        service = None
        gc.collect()
        bracket.mark()
        start = perf_counter()
        service = _attestd_service(seed, config)
        warm = [service.serve_schedule(wave) for wave in schedule[:warmup]]
        setups.add(perf_counter() - start, bracket.factor())
        for index, (wave, records) in enumerate(zip(schedule, warm)):
            _check_wave(checks, wave, records, heavy,
                        f"warm-up wave {index}")
        if service.admitted + service.rejected != sum(
                len(wave) for wave in schedule[:warmup]):
            checks.fail("warm-up: admitted + rejected != offered")
    gc.collect()

    sessions = [member.session for member in service.members]
    device_of = {id(member.session): member.index
                 for member in service.members}
    stamps: list[float] = []

    def clock() -> float:
        value = perf_counter()
        stamps.append(value)
        return value

    cursor = warmup
    paused = 0.0
    verdicts = Counter()
    fingerprint = None
    phase_out = []
    speed = HostSpeed(slices=3)
    origin = perf_counter() + spacing
    for units, phase_tracer in phases:
        out = {"latency": Durations(), "makespan": Durations(), "late": [],
               "busy": 0.0, "trusted": 0, "queue_wait": [], "paused": 0.0,
               "first_due": None, "last_done": None}
        hits = service.state_cache.hits
        misses = service.state_cache.misses
        events = _events(sessions) + service.telemetry.trace.emitted
        with _installed(phase_tracer):
            for _ in range(units):
                wave = schedule[cursor]
                timed = cursor - warmup
                where = f"wave {timed}"
                due = origin + timed * spacing + paused
                now = perf_counter()
                if now < due:
                    time.sleep(due - now)
                stamps.clear()
                first_span = len(phase_tracer.spans) if phase_tracer else 0
                offered = service.admitted + service.rejected
                sent = perf_counter()
                records = service.serve_schedule(wave, clock=clock)
                done = perf_counter()
                # The reference slice runs in the idle gap after a wave
                # and brackets this wave and the next.
                factor = speed.factor()
                if out["first_due"] is None:
                    out["first_due"] = due
                out["last_done"] = done
                out["late"].append(sent - due)
                out["makespan"].add(done - due, factor)
                out["busy"] += done - sent
                out["trusted"] += _check_wave(checks, wave, records, heavy,
                                              where)
                offered = service.admitted + service.rejected - offered
                if offered != len(wave):
                    checks.fail(f"{where}: admitted + rejected = {offered}, "
                                f"offered {len(wave)}")
                admitted = [r for r in records if r is not None
                            and r.admitted]
                latency = {}
                if len(stamps) != 2 * len(admitted):
                    checks.fail(f"{where}: serve_schedule stamped "
                                f"{len(stamps)} clock reads for "
                                f"{len(admitted)} admitted requests")
                else:
                    for k, record in enumerate(admitted):
                        latency[record.request_id] = (
                            stamps[k] + record.host_latency_seconds - due)
                        out["latency"].add(latency[record.request_id],
                                           factor)
                if phase_tracer is not None:
                    by_device = {request.device_index: request.request_id
                                 for request in wave}
                    for span in phase_tracer.spans[first_span:]:
                        if span[NAME] != "session.attest_once":
                            continue
                        request_id = by_device[device_of[span[NOTE]]]
                        if request_id in latency:
                            out["queue_wait"].append(
                                latency[request_id]
                                - (span[END] - span[START]))
                if timed < config.checked_waves:
                    verdicts.update(r.verdict for r in records
                                    if r is not None)
                cursor += 1
                if timed + 1 == config.checked_waves:
                    # The schedule clock stops while the fingerprint is
                    # read, so the read delays no later wave.
                    pause = perf_counter()
                    fingerprint = {
                        "units": config.checked_waves,
                        "verdicts": dict(sorted(verdicts.items())),
                        "admitted": service.admitted,
                        "admission_rejected": service.rejected,
                        **_sessions_totals(sessions),
                        "registry_sha1": _registry_sha1(
                            service.merged_registry())}
                    rss_mb = peak_rss_mb()
                    speed.mark()
                    pause = perf_counter() - pause
                    paused += pause
                    out["paused"] += pause
        out["hits"] = service.state_cache.hits - hits
        out["misses"] = service.state_cache.misses - misses
        out["events"] = (_events(sessions) + service.telemetry.trace.emitted
                         - events)
        phase_out.append(out)

    def rate(out) -> float:
        # Open loop: the schedule, not the host, sets this rate, so it
        # is not host-speed scaled.
        return out["trusted"] / (out["last_done"] - out["first_due"]
                                 - out["paused"])

    main = phase_out[0]
    metrics = {"attest_per_s": rate(main),
               "round_ms": _median(main["makespan"].scaled) * 1000.0}
    detail = {"waves": len(main["makespan"]),
              "requests": sum(len(wave) for wave in
                              schedule[warmup:warmup + len(main["late"])]),
              "p50_ms": percentile(main["latency"].scaled, 50) * 1000.0,
              "p99_ms": percentile(main["latency"].scaled, 99) * 1000.0,
              "late_ms": percentile(main["late"], 99) * 1000.0,
              "latency_samples": len(main["latency"]),
              "raw_round_ms": _median(main["makespan"].raw) * 1000.0,
              "raw_p50_ms": percentile(main["latency"].raw, 50) * 1000.0,
              "raw_p99_ms": percentile(main["latency"].raw, 99) * 1000.0}
    counters = None
    if tracer is not None:
        counters = {"phase_s": main["busy"], "attests": main["trusted"],
                    "attest_per_s.traced": rate(main),
                    "attest_per_s.untraced": rate(phase_out[1]),
                    "statecache.hits": main["hits"],
                    "statecache.misses": main["misses"],
                    "measure_bytes_each": _attested_bytes(
                        sessions[0].device),
                    "telemetry.events": main["events"],
                    "queue_wait_s": main["queue_wait"]}
        detail["untraced_p50_ms"] = percentile(
            phase_out[1]["latency"].scaled, 50) * 1000.0
    return _result(checks, fingerprint, setups, metrics, detail, counters,
                   main["makespan"], rss_mb)


#: Workload name -> runner.
WORKLOADS = {"sweep": run_sweep, "ota": run_ota, "attestd": run_attestd}
