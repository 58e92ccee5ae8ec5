"""Delta checkpoints: dirty-chunk chains, compaction and bisection.

The contract under test is ``repro.snapshot.delta/v1``: a chain of
delta documents folds back (``materialize_chain``) into a document
byte-identical to a full snapshot of the same instant, for any
protection profile, clock kind, chain depth or shard layout -- and the
supporting machinery (atomic saves, content-addressed blob store,
digest-tree leaf addressing, replay bisection) holds its own edges.
"""

import json
import os

import pytest

from repro.core.resilience import RetryPolicy
from repro.errors import SnapshotError
from repro.incremental import DEFAULT_CHUNK_SIZE, DigestTree
from repro.mcu.device import DeviceConfig
from repro.mcu.profiles import ALL_PROFILES
from repro.obs.schema import (SNAPSHOT_DELTA_SCHEMA_ID,
                              validate_registry_dump,
                              validate_snapshot_delta)
from repro.obs.telemetry import Telemetry
from repro.perf.fleet import FleetEngine, FleetSpec, lossy_link
from repro.perf.snapshot import _update_engine
from repro.services.swarm import Swarm
from repro.snapshot import (BlobStore, bisect_replay,
                            checkpoint_trace_length, compact_chain,
                            document_id, linear_scan, load_chain,
                            load_document, materialize_chain,
                            save_document, verify_chain)
from repro.snapshot.delta import _session_states
from repro.snapshot.swarm import _decode_cache_key, _encode_cache_key


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def build_swarm(size=3, *, incremental=True, observe=True,
                seed="delta-test", **kwargs):
    return Swarm(size, incremental=incremental, observe=observe,
                 seed=seed, **kwargs)


def rewrite(swarm, round_index):
    """Dirty a couple of RAM chunks per member via provisioning."""
    for member in swarm.members:
        ram = member.session.device.ram
        payload = bytes((round_index + member.index + i) % 256
                        for i in range(300))
        ram.load(128, payload)
        ram.load(ram.size - 512, payload)


def capture_chain(swarm, links):
    chain = [swarm.snapshot()]
    for round_index in range(links):
        rewrite(swarm, round_index)
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
    return chain, swarm.snapshot()


class TestAtomicSave:
    def test_failed_write_leaves_existing_file_intact(self, tmp_path):
        """An exception mid-serialization must not clobber the
        previous checkpoint or leave temp litter behind."""
        path = tmp_path / "checkpoint.json"
        save_document({"good": 1}, path)
        before = path.read_text()
        with pytest.raises(TypeError):
            save_document({"bad": object()}, path)
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["checkpoint.json"]

    def test_replaces_atomically_and_round_trips(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_document({"v": 1}, path)
        save_document({"v": 2}, path)
        assert json.loads(path.read_text()) == {"v": 2}
        assert path.read_text().endswith("\n")
        assert os.listdir(tmp_path) == ["checkpoint.json"]


class TestBlobStore:
    def test_collision_names_both_images(self):
        store = BlobStore()
        store.put("ab" * 20, b"first-image")
        with pytest.raises(SnapshotError) as err:
            store.put("ab" * 20, b"second-image!")
        message = str(err.value)
        import hashlib
        assert hashlib.sha1(b"first-image").hexdigest() in message
        assert hashlib.sha1(b"second-image!").hexdigest() in message
        assert str(len(b"first-image")) in message
        assert str(len(b"second-image!")) in message

    def test_stats_and_publish_gauges(self):
        store = BlobStore()
        store.put("aa" * 20, b"x" * 10)
        store.put("bb" * 20, b"y" * 30)
        assert store.stats() == {"blobs": 2, "bytes": 40}
        telemetry = Telemetry()
        store.publish(telemetry)
        dump = telemetry.registry.dump()
        assert validate_registry_dump(dump) == []
        gauges = {entry["name"]: entry["value"]
                  for entry in dump["metrics"]
                  if entry["kind"] == "gauge"}
        assert gauges["snapshot.blobs"] == 2
        assert gauges["snapshot.bytes"] == 40
        # publishing is read-only for the store itself
        assert store.stats() == {"blobs": 2, "bytes": 40}

    def test_subset_skips_absent_keys(self):
        store = BlobStore()
        store.put("aa" * 20, b"x")
        subset = store.subset(["aa" * 20, "ff" * 20])
        assert len(subset) == 1
        assert subset.get("aa" * 20) == b"x"


class TestCacheKeyCodec:
    def test_span_key_round_trips(self):
        key = ((0, 64, b"\x01" * 20), (64, 256, b"\x02" * 20))
        assert _decode_cache_key(_encode_cache_key(key)) == key

    def test_content_key_round_trips(self):
        key = ("content", (0, 4096, 4096, 16, b"\x03" * 20))
        assert _decode_cache_key(_encode_cache_key(key)) == key


class TestDeltaChain:
    def test_chain_folds_to_the_full_snapshot(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, full = capture_chain(swarm, 2)
        for delta in chain[1:]:
            assert validate_snapshot_delta(delta) == []
            assert delta["schema"] == SNAPSHOT_DELTA_SCHEMA_ID
        assert canonical(materialize_chain(chain)) == canonical(full)

    def test_delta_records_use_chunk_mode_for_dirty_regions(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, _ = capture_chain(swarm, 1)
        modes = set()
        for session in _session_states(chain[1]["state"], "swarm"):
            for record in session["device"]["regions"]:
                modes.add(record["delta"]["mode"])
        assert "chunks" in modes      # the rewritten RAM
        assert "unchanged" in modes   # everything untouched

    def test_chunk_delta_is_much_smaller_than_full(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, full = capture_chain(swarm, 1)
        assert len(canonical(chain[1])) * 2 < len(canonical(full))

    def test_without_trees_falls_back_to_blob_mode(self):
        swarm = build_swarm(incremental=False)
        swarm.sweep()
        chain, full = capture_chain(swarm, 1)
        modes = set()
        for session in _session_states(chain[1]["state"], "swarm"):
            for record in session["device"]["regions"]:
                modes.add(record["delta"]["mode"])
        assert "blob" in modes
        assert "chunks" not in modes
        assert canonical(materialize_chain(chain)) == canonical(full)

    def test_compact_equals_materialize(self, tmp_path):
        """``compact_chain`` squashes a chain into one full document
        that matches the direct snapshot, survives a disk round trip
        and restores into a twin that continues identically."""
        swarm = build_swarm(seed="delta-compact")
        swarm.sweep()
        chain, full = capture_chain(swarm, 2)
        compacted = compact_chain(chain)
        assert canonical(compacted) == canonical(full)
        save_document(compacted, tmp_path / "compacted.json")
        assert load_document(tmp_path / "compacted.json") == compacted
        resumed = build_swarm(seed="delta-compact")
        resumed.restore(compacted)
        assert swarm.sweep() == resumed.sweep()

    def test_restore_plus_continue_equals_uninterrupted(self):
        live = build_swarm(seed="delta-continue")
        live.sweep()
        chain, _ = capture_chain(live, 2)
        resumed = build_swarm(seed="delta-continue")
        resumed.restore(materialize_chain(chain))
        assert live.sweep() == resumed.sweep()
        assert (live.merged_trace_records()
                == resumed.merged_trace_records())
        assert (live.freshness_fingerprint()
                == resumed.freshness_fingerprint())

    def test_verify_chain_rejects_broken_linkage(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, _ = capture_chain(swarm, 2)
        with pytest.raises(SnapshotError, match="parent"):
            verify_chain([chain[0], chain[2]])
        with pytest.raises(SnapshotError):
            verify_chain(chain[1:])          # delta cannot root a chain

    def test_delta_against_wrong_fleet_refuses(self):
        a = build_swarm(seed="fleet-a")
        b = build_swarm(size=4, seed="fleet-b")
        a.sweep()
        b.sweep()
        parent = a.snapshot()
        with pytest.raises(SnapshotError):
            b.snapshot(parent=parent)

    def test_document_id_is_content_addressed(self):
        swarm = build_swarm()
        swarm.sweep()
        document = swarm.snapshot()
        round_tripped = json.loads(json.dumps(document))
        assert document_id(document) == document_id(round_tripped)
        mutated = json.loads(json.dumps(document))
        mutated["state"]["sweeps_run"] += 1
        assert document_id(mutated) != document_id(document)

    def test_load_chain_follows_parent_paths(self, tmp_path):
        # parent_id hashes the parent *with* its meta, so each link's
        # parent_path must be in place before the next capture.
        swarm = build_swarm()
        swarm.sweep()
        root = swarm.snapshot()
        rewrite(swarm, 0)
        swarm.sweep()
        d1 = swarm.snapshot(parent=root)
        d1["meta"] = {"parent_path": "root.json"}
        rewrite(swarm, 1)
        swarm.sweep()
        d2 = swarm.snapshot(parent=d1)
        d2["meta"] = {"parent_path": "d1.json"}
        save_document(root, tmp_path / "root.json")
        save_document(d1, tmp_path / "d1.json")
        save_document(d2, tmp_path / "d2.json")
        loaded = load_chain(tmp_path / "d2.json")
        assert [document_id(doc) for doc in loaded] == \
            [document_id(doc) for doc in (root, d1, d2)]

    def test_load_chain_without_parent_path_refuses(self, tmp_path):
        swarm = build_swarm()
        swarm.sweep()
        chain, _ = capture_chain(swarm, 1)
        save_document(chain[1], tmp_path / "orphan.json")
        with pytest.raises(SnapshotError, match="parent_path"):
            load_chain(tmp_path / "orphan.json")


class TestInvalidateTimesDeltaRestore:
    def test_restored_trees_rebuild_byte_identical_roots(self):
        """Restore invalidates every digest tree; the lazily rebuilt
        roots and leaf rows must match a from-scratch tree over the
        same bytes -- stale leaves would silently corrupt the *next*
        delta capture."""
        live = build_swarm(seed="delta-trees")
        live.sweep()
        chain, _ = capture_chain(live, 2)
        resumed = build_swarm(seed="delta-trees")
        resumed.restore(materialize_chain(chain))
        for member in resumed.members:
            for region in member.session.device.memory:
                tree = getattr(region, "digest_tree", None)
                if tree is None:
                    continue
                fresh = DigestTree(tree.window_start, tree.window_size,
                                   chunk_size=tree.chunk_size,
                                   arity=tree.arity)
                assert tree.root(region._data) == \
                    fresh.root(region._data)
                assert tree.leaf_digests(region._data) == \
                    fresh.leaf_digests(region._data)

    def test_next_delta_after_restore_matches_uninterrupted(self):
        live = build_swarm(seed="delta-trees-2")
        live.sweep()
        chain, _ = capture_chain(live, 1)
        resumed = build_swarm(seed="delta-trees-2")
        resumed.restore(materialize_chain(chain))
        rewrite(live, 7)
        rewrite(resumed, 7)
        live.sweep()
        resumed.sweep()
        live_delta = live.snapshot(parent=chain[-1])
        resumed_delta = resumed.snapshot(parent=chain[-1])
        # Region deltas come from the rebuilt digest trees and must
        # match exactly; the restored object has no log memo, so its
        # logs travel in full where the live one writes tails.  Both
        # fold to the same full document.
        for live_member, resumed_member in zip(
                live_delta["state"]["members"],
                resumed_delta["state"]["members"]):
            assert (live_member["session"]["device"]
                    == resumed_member["session"]["device"])
            assert isinstance(
                live_member["session"]["channel"]["transcript"], dict)
            assert isinstance(
                resumed_member["session"]["channel"]["transcript"], list)
        assert live_delta["blobs"] == resumed_delta["blobs"]
        assert (canonical(materialize_chain(chain + [live_delta]))
                == canonical(materialize_chain(chain + [resumed_delta])))


class TestShardedFleetDelta:
    SMALL_DEVICE = DeviceConfig(ram_size=8 * 1024, flash_size=16 * 1024,
                                app_size=2 * 1024)

    def test_shard_parallel_chain_folds_and_restores(self):
        """Telemetry on: the shard-parallel chain folds to the full
        snapshot, and the restored engine continues with the same sweep
        report and the same merged trace."""
        spec = FleetSpec(size=4, device_config=self.SMALL_DEVICE,
                         observe=True, incremental=True,
                         seed="delta-fleet-test")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            chain = [engine.snapshot()]
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
            full = engine.snapshot()
            continued = engine.sweep()
            trace = engine.merged_trace_records()
        folded = materialize_chain(chain)
        assert canonical(folded) == canonical(full)
        with FleetEngine(spec, workers=2) as resumed:
            resumed.restore(folded)
            assert resumed.sweep() == continued
            assert resumed.merged_trace_records() == trace

    def test_ota_rounds_fold_restore_and_stay_small(self):
        """A 256-member fleet on two shard workers, two 10%-dirty OTA
        rounds: the shard-parallel chain folds to the full snapshot,
        restores and continues identically, and a delta link is less
        than half the size of a full checkpoint."""
        spec = FleetSpec(size=256, device_config=self.SMALL_DEVICE,
                         incremental=True, seed="delta-smoke-fleet")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            chain = [engine.snapshot()]
            for round_index in range(2):
                _update_engine(engine, round_index, 0.10, 4096, True)
                engine.sweep()
                chain.append(engine.snapshot(parent=chain[-1]))
            full = engine.snapshot()
            continued = engine.sweep()
            continued_states = engine.device_states()
        folded = materialize_chain(chain)
        assert canonical(folded) == canonical(full)
        with FleetEngine(spec, workers=2) as resumed:
            resumed.restore(folded)
            assert resumed.sweep() == continued
            assert resumed.device_states() == continued_states
        assert len(canonical(chain[-1])) * 2 < len(canonical(full))

    def test_worker_count_mismatch_refuses(self):
        spec = FleetSpec(size=4, incremental=True, seed="delta-fleet-wc")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            parent = engine.snapshot()
        with FleetEngine(spec, workers=1) as other:
            other.sweep()
            with pytest.raises(SnapshotError, match="shard"):
                other.snapshot(parent=parent)


class TestBisect:
    @staticmethod
    def run_with_checkpoints(seed, sweeps):
        recorded = build_swarm(size=2, seed=seed)
        documents = [recorded.snapshot()]
        for _ in range(sweeps):
            recorded.sweep()
            documents.append(recorded.snapshot(parent=documents[-1]))
        truth = build_swarm(size=2, seed=seed)
        for _ in range(sweeps):
            truth.sweep()
        return documents, truth.merged_trace_records()

    def test_finds_the_exact_first_flip_cheaper_than_linear(self):
        """A fault-injected, retrying fleet checkpointed every sweep for
        24 sweeps.  Bisection finds the exact first breaker transition
        (an early, non-monotone query) and the exact first record past
        80% of the run's simulated time; the deep search re-generates
        fewer events than a linear scan from the oldest checkpoint."""
        def build():
            return build_swarm(size=5, retry=RetryPolicy(
                attempt_timeout_seconds=5.0, max_retries=2,
                base_backoff_seconds=1.0, jitter_fraction=0.5),
                adversary_factory=lossy_link, seed="delta-smoke-bisect")

        recorded = build()
        documents = [recorded.snapshot()]
        truth = build()
        for _ in range(24):
            recorded.sweep()
            documents.append(recorded.snapshot(parent=documents[-1]))
            truth.sweep()
        records = truth.merged_trace_records()

        def first(predicate):
            expected = next(r for r in records if predicate(r))
            found = bisect_replay(build(), documents, predicate)
            assert found["seq"] == expected["seq"]
            assert found["record"] == expected
            assert found["probes"] > 0
            return found

        first(lambda record: record["kind"] == "breaker-state")
        threshold = records[-1]["time"] * 0.8
        deep = first(lambda record: record["time"] >= threshold)
        baseline = linear_scan(build(), documents[0],
                               lambda record: record["time"] >= threshold)
        assert baseline["seq"] == deep["seq"]
        assert deep["events_replayed"] < baseline["events_replayed"]

    def test_checkpoint_trace_length_anchors_the_axis(self):
        documents, records = self.run_with_checkpoints("bisect-len", 2)
        assert checkpoint_trace_length(documents[0]) == 0
        assert checkpoint_trace_length(documents[-1]) == len(records)

    def test_unobserved_checkpoints_refuse(self):
        swarm = build_swarm(size=2, observe=False, seed="bisect-blind")
        swarm.sweep()
        with pytest.raises(SnapshotError, match="observe"):
            bisect_replay(build_swarm(size=2, observe=False,
                                      seed="bisect-blind"),
                          [swarm.snapshot()], lambda record: True)

    def test_never_matching_predicate_refuses(self):
        documents, _ = self.run_with_checkpoints("bisect-never", 1)
        with pytest.raises(SnapshotError, match="never matched"):
            bisect_replay(build_swarm(size=2, seed="bisect-never"),
                          documents, lambda record: False, max_sweeps=2)


class TestRoundTripProperties:
    VARIANTS = [
        *((f"profile={profile.name}", {"profile": profile})
          for profile in ALL_PROFILES),
        *((f"clock={kind}", {"device_config": DeviceConfig(clock_kind=kind)})
          for kind in ("hw64", "hw32div", "sw", "none")),
    ]

    def test_chain_identity_across_profiles_and_clocks(self):
        """Under every protection profile and every clock design, a
        3-member swarm's two-link chain folds to the direct full
        snapshot, and restoring the fold continues with the same sweep
        report, merged trace and freshness fingerprint."""
        for label, variant in self.VARIANTS:
            live = build_swarm(seed=f"delta-variant:{label}", **variant)
            live.sweep()
            chain, full = capture_chain(live, 2)
            folded = materialize_chain(chain)
            assert canonical(folded) == canonical(full), label
            resumed = build_swarm(seed=f"delta-variant:{label}", **variant)
            resumed.restore(folded)
            assert live.sweep() == resumed.sweep(), label
            assert (live.merged_trace_records()
                    == resumed.merged_trace_records()), label
            assert (live.freshness_fingerprint()
                    == resumed.freshness_fingerprint()), label
