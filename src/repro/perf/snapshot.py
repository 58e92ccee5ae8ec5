"""Delta-checkpoint benchmark: chained delta captures vs full snapshots.

The scenario is fleet operations under a rolling OTA campaign: every
round rewrites ``dirty_fraction`` of each member's attested memory,
then the operator checkpoints the whole :class:`FleetEngine`.  The full
path re-serializes every member's entire writable memory every time;
the delta path (``snapshot(parent=...)``) diffs each region's
digest-tree leaves against the previous checkpoint and ships only the
dirty chunks -- content-addressed, so fleet-shared update payloads are
stored once per fleet, not once per member.

Shared-content points model the realistic campaign (every member
receives the same bytes, in member-shuffled order); the
``shared_content: false`` point rewrites member-unique bytes instead --
the honest worst case where content-addressing dedups nothing across
the fleet and the delta win comes from dirty-chunk selection alone.

Three artefacts come out of this module:

* :func:`measure_point` -- paired full/delta capture timings at one
  dirty fraction, with the folded chain compared byte for byte to the
  final full snapshot;
* :func:`equivalence_check` -- materialize a depth-``rounds`` chain,
  byte-compare it to a direct full capture, then restore it into a
  fresh sharded engine and prove the continued run matches an
  uninterrupted one (sweep report, merged trace, merged registry);
* :func:`run` -- the ``BENCH_snapshot.json`` declaration on
  :mod:`repro.perf.bench`, with the headline >= 3x wall-clock and
  >= 10x bytes-written gates at <= 10% dirty.

Everything timed here is *host* time (capture plus canonical JSON
serialization -- what actually hits disk); simulated observables are
part of the equivalence invariant, never a knob.  See
``docs/checkpoint.md``.
"""

from __future__ import annotations

import itertools
import json

from ..crypto.rng import DeterministicRng
from ..crypto.sha1 import SHA1
from ..errors import ConfigurationError
from ..incremental import DEFAULT_CHUNK_SIZE
from ..mcu.device import DeviceConfig
from ..snapshot import materialize_chain
from . import bench
from . import fleet as fleet_mod
from .fleet import FleetEngine, FleetSpec
from .incremental import _attested_windows, apply_update, learn_update

__all__ = ["DEFAULT_POINTS", "GATE_DIRTY_FRACTION",
           "GATE_SPEEDUP_THRESHOLD", "GATE_BYTES_THRESHOLD",
           "apply_unique_update", "learn_unique_update", "measure_point",
           "equivalence_check", "run"]

#: (dirty fraction, fleet-shared content?) of the default sweep.  The
#: 0.50/unique point is the deliberate anti-cherry-pick: member-unique
#: content at high dirt is where delta checkpoints win least.
DEFAULT_POINTS = ((0.02, True), (0.10, True), (0.50, True), (0.50, False))

#: The headline gate: at the largest measured *shared* dirty fraction
#: <= GATE_DIRTY_FRACTION, delta capture must be >=
#: GATE_SPEEDUP_THRESHOLD x faster and write >= GATE_BYTES_THRESHOLD x
#: fewer bytes than full capture.
GATE_DIRTY_FRACTION = 0.10
GATE_SPEEDUP_THRESHOLD = 3.0
GATE_BYTES_THRESHOLD = 10.0

_MASTER_KEY = b"snapshot-bench-master-key"


def _bench_spec(fleet_size: int, ram_kb: int, *, observe: bool = False,
                seed: str = "snapshot-bench") -> FleetSpec:
    """Members mirroring the incremental benchmark fleet: per-member
    derived HMAC-SHA1 keys, RAM plus an equally large flash window, and
    digest trees on (``incremental=True``) -- delta capture diffs the
    same trees the incremental sweep path maintains."""
    flash_kb = min(ram_kb, 1024)
    return FleetSpec(
        size=fleet_size,
        device_config=DeviceConfig(ram_size=ram_kb * 1024,
                                   flash_size=flash_kb * 1024,
                                   app_size=2 * 1024),
        auth_scheme="hmac-sha1",
        master_key=_MASTER_KEY,
        observe=observe,
        incremental=True,
        seed=seed)


def apply_unique_update(swarm, round_index: int, dirty_fraction: float, *,
                        chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """One update round of member-*unique* content; returns the bytes
    rewritten per member.

    Unlike :func:`repro.perf.incremental.apply_update`, the payload is
    derived from the member's global index as well as the round, so no
    two members share a single post-update byte -- content-addressed
    chunk storage dedups nothing across the fleet and every stored
    chunk is unique.  Same ``region.load`` provisioning path, so
    fingerprints and digest trees account for every write.
    """
    if not 0.0 < dirty_fraction <= 1.0:
        raise ConfigurationError("dirty_fraction must be in (0, 1]")
    per_member = 0
    for member in swarm.members:
        per_member = 0
        for region, win_start, win_size in _attested_windows(
                member.session.device):
            chunks = (win_size + chunk_size - 1) // chunk_size
            dirty = min(chunks, max(1, int(dirty_fraction * chunks + 0.5)))
            rng = DeterministicRng(
                f"unique-ota:{member.index}:{round_index}:{region.name}")
            for chunk in range(dirty):
                offset = win_start + chunk * chunk_size
                length = min(chunk_size, win_size - chunk * chunk_size)
                region.load(offset, rng.substream(str(chunk)).bytes(length))
                per_member += length
    return per_member


def learn_unique_update(swarm) -> None:
    """Teach each verifier its *own* member's post-update digest (the
    per-member flavour of
    :func:`repro.perf.incremental.learn_update` -- with unique content
    there is no fleet-shared reference to share)."""
    for member in swarm.members:
        device = member.session.device
        digest = SHA1()
        for region, win_start, win_size in _attested_windows(device):
            digest.update(region.raw_read(win_start, win_size))
        member.session.verifier.learn_reference(digest.digest())


def _apply_round(swarm, round_index: int, dirty_fraction: float,
                 chunk_size: int, shared: bool) -> None:
    if shared:
        apply_update(swarm, round_index, dirty_fraction,
                     chunk_size=chunk_size)
        learn_update(swarm)
    else:
        apply_unique_update(swarm, round_index, dirty_fraction,
                            chunk_size=chunk_size)
        learn_unique_update(swarm)


def _shard_update(round_index: int, dirty_fraction: float,
                  chunk_size: int, shared: bool) -> None:
    """Run one update round on the resident shard swarm (member indices
    are global, so shard-local updates are byte-for-byte the updates a
    single in-process fleet would apply)."""
    _apply_round(fleet_mod._SHARD, round_index, dirty_fraction,
                 chunk_size, shared)


def _update_engine(engine: FleetEngine, round_index: int,
                   dirty_fraction: float, chunk_size: int,
                   shared: bool) -> None:
    engine.start()
    if engine._swarm is not None:
        _apply_round(engine._swarm, round_index, dirty_fraction,
                     chunk_size, shared)
    else:
        engine._gather(_shard_update, round_index, dirty_fraction,
                       chunk_size, shared)


def _canonical(document: dict) -> str:
    """The canonical serialized form whose length is the bytes-written
    axis (``save_document`` writes exactly this plus a newline)."""
    return json.dumps(document, sort_keys=True)


def measure_point(fleet_size: int, ram_kb: int, dirty_fraction: float, *,
                  shared: bool = True, rounds: int = 2, workers: int = 2,
                  chunk_size: int = DEFAULT_CHUNK_SIZE) -> dict:
    """Paired full/delta checkpoint timings at one dirty fraction.

    One untimed settling sweep, one untimed warm-up round (trees build,
    first full measurement of the content lineage), then an untimed
    full parent plus an untimed bootstrap delta -- the first delta
    against a full parent pays a one-off O(full) re-chunking of the
    parent's images to recover leaf digests; every later delta reads
    the parent's stored chunk-digest index instead, which is the
    steady state this point measures.  A timed sample is ``rounds``
    rounds; each updates and sweeps (untimed), then captures the engine
    twice: a full snapshot and a delta against the previous delta, both
    timed through canonical JSON serialization.  Bytes written come from
    the warm-up sample.  ``chain_identical`` records whether folding
    the whole chain reproduces the final full snapshot byte for byte.
    """
    flavour = "shared" if shared else "unique"
    spec = _bench_spec(fleet_size, ram_kb,
                       seed=f"snapshot-bench:{dirty_fraction}:{flavour}")
    with FleetEngine(spec, workers=workers) as engine:
        engine.sweep()                      # settle spin-up, untimed
        _update_engine(engine, 0, dirty_fraction, chunk_size, shared)
        engine.sweep()                      # warm-up round, untimed
        root = engine.snapshot()            # full parent, untimed
        chain = [root, engine.snapshot(parent=root)]    # bootstrap delta
        round_index = itertools.count(1)
        full_text = ""

        def body(lap):
            nonlocal full_text
            full_bytes = delta_bytes = 0
            for _ in range(rounds):
                _update_engine(engine, next(round_index), dirty_fraction,
                               chunk_size, shared)
                engine.sweep()
                with lap("full"):
                    full_text = _canonical(engine.snapshot())
                with lap("delta"):
                    delta = engine.snapshot(parent=chain[-1])
                    delta_text = _canonical(delta)
                full_bytes += len(full_text)
                delta_bytes += len(delta_text)
                chain.append(delta)
            return full_bytes, delta_bytes

        results, seconds = bench.sample(body)
        identical = _canonical(materialize_chain(chain)) == full_text
    full_bytes, delta_bytes = results[0]
    return {
        "dirty_fraction": dirty_fraction,
        "shared_content": shared,
        "seconds": seconds,
        "speedup": bench.ratio(seconds["full"], seconds["delta"]),
        "full_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "bytes_reduction": full_bytes / delta_bytes,
        "chain_identical": identical,
    }


def equivalence_check(*, size: int = 8, workers: int = 2, rounds: int = 3,
                      ram_kb: int = 16, dirty_fraction: float = 0.25,
                      chunk_size: int = DEFAULT_CHUNK_SIZE) -> dict:
    """Prove a delta chain is a real checkpoint, not just a diff.

    Runs a telemetry-on sharded fleet through ``rounds`` update+sweep
    rounds, capturing a delta after each; then (a) byte-compares the
    folded chain against a direct full capture of the same instant,
    and (b) restores the folded document into a *fresh* engine, sweeps
    both engines once more, and compares the sweep report, merged
    event trace and merged registry dump against the engine that never
    stopped.  Any mismatch names the field.
    """
    spec = _bench_spec(size, ram_kb, observe=True, seed="snapshot-eq")
    mismatched: list[str] = []
    with FleetEngine(spec, workers=workers) as engine:
        engine.sweep()
        chain = [engine.snapshot()]
        for round_index in range(rounds):
            _update_engine(engine, round_index, dirty_fraction,
                           chunk_size, True)
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
        full = engine.snapshot()
        materialized = materialize_chain(chain)
        if _canonical(materialized) != _canonical(full):
            mismatched.append("materialized_document")
        continued_report = engine.sweep()
        continued_trace = engine.merged_trace_records()
        continued_registry = json.dumps(engine.merged_registry().dump(),
                                        sort_keys=True)
    with FleetEngine(spec, workers=workers) as resumed:
        resumed.restore(materialized)
        if resumed.sweep() != continued_report:
            mismatched.append("resumed_sweep_report")
        if resumed.merged_trace_records() != continued_trace:
            mismatched.append("resumed_trace")
        if json.dumps(resumed.merged_registry().dump(),
                      sort_keys=True) != continued_registry:
            mismatched.append("resumed_registry")
    return {"identical": not mismatched, "mismatched_fields": mismatched}


def run(*, fleet_size: int = 256, ram_kb: int = 64, rounds: int = 2,
        workers: int = 2, points: tuple = DEFAULT_POINTS,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        equivalence_size: int = 8) -> dict:
    """The ``BENCH_snapshot.json`` report.

    One :func:`measure_point` per (dirty fraction, shared?) pair, the
    restore-and-continue :func:`equivalence_check` block (extended by
    any point whose chain did not fold back identically), and the
    headline gates: at the largest *shared-content* fraction <=
    ``GATE_DIRTY_FRACTION``, delta capture must beat full capture by
    ``GATE_SPEEDUP_THRESHOLD`` x wall-clock and
    ``GATE_BYTES_THRESHOLD`` x bytes written.
    """
    measured = [measure_point(fleet_size, ram_kb, fraction, shared=shared,
                              rounds=rounds, workers=workers,
                              chunk_size=chunk_size)
                for fraction, shared in points]
    eligible = [point for point in measured
                if point["shared_content"]
                and point["dirty_fraction"] <= GATE_DIRTY_FRACTION]
    if not eligible:
        raise ConfigurationError(
            f"no measured shared-content dirty fraction <= "
            f"{GATE_DIRTY_FRACTION}")
    gate_point = max(eligible, key=lambda point: point["dirty_fraction"])
    equivalence = equivalence_check(size=equivalence_size, workers=workers,
                                    chunk_size=chunk_size)
    equivalence["mismatched_fields"] += [
        f"points[{point['dirty_fraction']}:"
        f"{'shared' if point['shared_content'] else 'unique'}].chain"
        for point in measured if not point["chain_identical"]]
    equivalence["identical"] = not equivalence["mismatched_fields"]
    at = f"at_{gate_point['dirty_fraction']}_dirty"
    return bench.report(
        "snapshot",
        params={"fleet_size": fleet_size, "ram_kb": ram_kb,
                "workers": workers, "rounds": rounds,
                "chunk_size": chunk_size},
        points=measured,
        gates=[bench.gate(f"capture_speedup_{at}", gate_point["speedup"],
                          GATE_SPEEDUP_THRESHOLD),
               bench.gate(f"bytes_reduction_{at}",
                          gate_point["bytes_reduction"],
                          GATE_BYTES_THRESHOLD)],
        equivalence=equivalence)
