"""Host wall-clock of the measurement engine, and the paired
naive/accel equivalence check.

The attestation measurement is re-executed by the host for every
simulated attestation, so host wall-clock of the measurement-heavy
experiments is dominated by :mod:`repro.crypto.sha1`.  This declaration
on :mod:`repro.perf.bench` times that engine (device build excluded,
measurement only) under the default engine over a sweep of sizes and
under the ``naive`` reference at the paper's 512 KB, and gates the
default engine at >= 3x the reference there.

The equivalence block runs a full protocol scenario under ``naive`` and
``accel`` and compares digests, response MACs, consumed cycles,
:class:`~repro.core.prover.ProverStats` and telemetry registry dumps
byte for byte; the timed digests of the two engines must agree too.
Simulated time lives in :mod:`repro.crypto.costmodel` and appears here
only as the invariant being checked.
"""

from __future__ import annotations

import json

from .. import fastpath
from ..core.protocol import build_session
from ..crypto.hmac import HmacSha1, clear_hmac_midstate_cache
from ..mcu.device import Device, DeviceConfig
from ..obs.telemetry import Telemetry
from . import bench

__all__ = ["DEFAULT_SWEEP_KB", "GATE_THRESHOLD", "time_measurement",
           "hmac_cache_timing", "equivalence_check", "run"]

#: RAM sizes (KB) of the default measurement sweep.
DEFAULT_SWEEP_KB = (64, 128, 256, 512, 1024)

#: The default engine must measure >= this many times faster than
#: ``naive`` at the naive baseline size.
GATE_THRESHOLD = 3.0

_KEY = b"wallclock-key-16"
_CHALLENGE = b"wallclock-challenge"


def _build_device(ram_kb: int) -> tuple[Device, object]:
    """A provisioned, booted prover whose writable memory is dominated
    by ``ram_kb`` of RAM (flash kept small, as in the paper-scale
    benchmarks)."""
    config = DeviceConfig(ram_size=ram_kb * 1024, flash_size=16 * 1024,
                          app_size=2 * 1024)
    device = Device(config)
    device.install_app()
    device.provision(_KEY)
    device.boot()
    return device, device.context("Code_Attest")


def time_measurement(ram_kb: int, engine: str) -> dict:
    """One point: ``measure_writable_memory`` under ``engine`` with a
    cold HMAC midstate cache, plus the digest so points cross-check."""
    device, context = _build_device(ram_kb)
    writable = device.writable_memory_bytes

    def body(lap):
        clear_hmac_midstate_cache()
        with lap("measure"):
            return device.measure_writable_memory(context, _KEY,
                                                  _CHALLENGE)

    with fastpath.forced(engine):
        digests, seconds = bench.sample(body)
    return {
        "ram_kb": ram_kb,
        "writable_kb": writable // 1024,
        "engine": engine,
        "digest": digests[0].hex(),
        "seconds": seconds,
        "mb_per_s": writable / seconds["measure"]["median"] / 1e6,
    }


def hmac_cache_timing(rounds: int = 500) -> dict:
    """Cold vs warm HMAC construction cost under the current engine.

    Cold constructs each :class:`HmacSha1` with an empty midstate cache
    (two key-pad blocks hashed per request); warm reuses the cached
    midstates.  Both then absorb and finalise a one-block message, the
    request-validation shape of Section 4.1.
    """
    message = b"m" * 64

    def body(lap):
        with lap("cold"):
            for _ in range(rounds):
                clear_hmac_midstate_cache()
                HmacSha1(_KEY, message).digest()
        HmacSha1(_KEY)  # populate the cache once
        with lap("warm"):
            for _ in range(rounds):
                HmacSha1(_KEY, message).digest()

    seconds = bench.sample(body)[1]
    return {"hmac_rounds": rounds, "seconds": seconds,
            "speedup": bench.ratio(seconds["cold"], seconds["warm"])}


def _scenario_fingerprint(engine: str, ram_kb: int, rounds: int) -> dict:
    """Everything observable about one quickstart-style run: response
    MACs, measurement digest, consumed cycles, ProverStats, and the full
    telemetry registry dump."""
    with fastpath.forced(engine):
        clear_hmac_midstate_cache()
        telemetry = Telemetry()
        session = build_session(
            device_config=DeviceConfig(ram_size=ram_kb * 1024),
            telemetry=telemetry, seed="perf-equivalence")
        reference = session.learn_reference_state()
        for _ in range(rounds):
            result = session.attest_once()
            assert result.trusted, "equivalence scenario must verify"
        # One direct round to capture the response MAC bytes themselves
        # (the channel consumes the responses of the rounds above).
        request = session.verifier.make_request()
        response, reason = session.anchor.handle_request(request)
        assert reason == "ok", f"direct round rejected: {reason}"
        session.device.sync_energy()
        stats = session.anchor.stats
        return {
            "reference_digest": reference.hex(),
            "response_measurement": response.measurement.hex(),
            "response_mac": response.tag.hex(),
            "cycle_count": session.device.cpu.cycle_count,
            "stats": {
                "received": stats.received,
                "accepted": stats.accepted,
                "rejected": dict(stats.rejected),
                "validation_cycles": stats.validation_cycles,
                "attestation_cycles": stats.attestation_cycles,
            },
            "registry": json.dumps(telemetry.registry.dump(),
                                   sort_keys=True),
        }


def equivalence_check(ram_kb: int = 16, rounds: int = 2) -> dict:
    """Prove ``accel`` changes no output and no simulated accounting.

    Runs the same seeded protocol scenario under ``naive`` and
    ``accel`` and compares response MACs, digests, consumed cycles,
    ``ProverStats`` and the telemetry registry dump byte for byte.
    """
    baseline = _scenario_fingerprint("naive", ram_kb, rounds)
    candidate = _scenario_fingerprint("accel", ram_kb, rounds)
    mismatched = sorted(key for key in baseline
                        if candidate[key] != baseline[key])
    return {"identical": not mismatched, "mismatched_fields": mismatched,
            "ram_kb": ram_kb, "rounds": rounds,
            "response_mac": baseline["response_mac"],
            "cycle_count": baseline["cycle_count"]}


def run(*, sweep_kb: tuple = DEFAULT_SWEEP_KB, naive_kb: int = 512,
        equivalence_ram_kb: int = 16) -> dict:
    """The ``BENCH_wallclock.json`` report: the default-engine sweep,
    the naive baseline at ``naive_kb``, cold-vs-warm HMAC midstate
    cache timing, the speedup gate and the equivalence block."""
    default_engine = fastpath.engine()
    sizes = sorted(set(sweep_kb) | {naive_kb})
    sweep = [time_measurement(kb, default_engine) for kb in sizes]
    naive = time_measurement(naive_kb, "naive")
    fast = next(point for point in sweep if point["ram_kb"] == naive_kb)
    equivalence = equivalence_check(ram_kb=equivalence_ram_kb)
    if naive["digest"] != fast["digest"]:
        equivalence["mismatched_fields"].append(f"digest@{naive_kb}KB")
        equivalence["identical"] = False
    speedup = bench.ratio(naive["seconds"]["measure"],
                          fast["seconds"]["measure"])
    return bench.report(
        "wallclock",
        params={"sweep_kb": sizes, "naive_kb": naive_kb,
                "engine_default": default_engine,
                "equivalence_ram_kb": equivalence_ram_kb},
        points=[*sweep, naive, hmac_cache_timing()],
        gates=[bench.gate(f"{default_engine}_vs_naive_{naive_kb}kb",
                          speedup, GATE_THRESHOLD)],
        equivalence=equivalence)
