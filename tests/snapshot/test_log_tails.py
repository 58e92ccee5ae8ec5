"""Delta checkpoints store append-only logs as tails.

A delta document carries each of a member session's four append-only
logs -- the event trace, the channel transcript, the verifier results
and the prover's busy intervals -- as ``{"base", "sha1", "records"}``:
only what was appended since the parent.  The contract under test:

* a tail is written only when the capture can prove the parent holds
  the log's first ``base`` records; any doubt (a restored object, a
  foreign or tampered parent, a trace window that already dropped the
  tail's start) writes the full list instead;
* ``materialize_chain`` folds tails back byte-identically to a direct
  full capture, trace front-drop included, and re-checks the rolling
  digest at every link: bad tails raise ``SnapshotError`` naming the
  member and the log, never a bare ``KeyError``/``TypeError``;
* delta size stays flat as a run grows.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.obs.schema import SNAPSHOT_DELTA_SCHEMA_IDS
from repro.mcu.device import DeviceConfig
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.perf.snapshot import learn_unique_update
from repro.services.swarm import Swarm
from repro.snapshot import (BlobStore, DeltaBase, document_id,
                            materialize_chain)
from repro.snapshot.delta import LOG_NAMES, _log_container, _session_states

SMALL_DEVICE = DeviceConfig(ram_size=8 * 1024, flash_size=16 * 1024,
                            app_size=2 * 1024)


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def build(size=3, seed="log-tails", **kwargs):
    return Swarm(size, device_config=SMALL_DEVICE, incremental=True,
                 observe=True, seed=seed, **kwargs)


def dirty(swarm, round_index):
    """Rewrite a little RAM per member; verifiers learn the new state,
    so every sweep still attests and appends to every log."""
    for member in swarm.members:
        ram = member.session.device.ram
        ram.load(512, bytes((round_index + member.index + i) % 256
                            for i in range(200)))
    learn_unique_update(swarm)


def extend(swarm, chain, links):
    for _ in range(links):
        dirty(swarm, len(chain))
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
    return chain


def logs(document, member=0):
    session = _session_states(document["state"], document["kind"])[member]
    return {name: _log_container(session, name)[name.rsplit(".", 1)[1]]
            for name in LOG_NAMES}


def restamp(chain, start):
    """Re-link ``chain[start:]`` after editing ``chain[start - 1]``."""
    for position in range(start, len(chain)):
        chain[position]["parent_id"] = document_id(chain[position - 1])


class TestTails:
    def test_every_log_travels_as_a_tail_and_folds_identically(self):
        swarm = build()
        swarm.sweep()
        chain = extend(swarm, [swarm.snapshot()], 3)
        for position in range(1, 4):
            parent_doc = materialize_chain(chain[:position])
            for member in range(3):
                parent = logs(parent_doc, member)
                dropped = parent_doc["state"]["members"][member]["session"][
                    "telemetry"]["trace"]["dropped_events"]
                for name, value in logs(chain[position], member).items():
                    assert set(value) == {"base", "sha1", "records"}, name
                    offset = (dropped if name == "telemetry.trace.records"
                              else 0)
                    assert value["base"] == offset + len(parent[name])
        assert canonical(materialize_chain(chain)) == \
            canonical(swarm.snapshot())
        assert chain[-1]["schema"] == SNAPSHOT_DELTA_SCHEMA_IDS[0]

    def test_restore_mid_chain_falls_back_once_then_tails(self):
        """(a) A restored object has no memo: its first delta carries
        full logs, the next one tails again, and the chain still folds
        to the restored object's own full capture."""
        live = build(seed="log-tails-restore")
        live.sweep()
        chain = extend(live, [live.snapshot()], 2)
        resumed = build(seed="log-tails-restore")
        resumed.restore(materialize_chain(chain))
        extend(resumed, chain, 2)
        assert all(isinstance(value, list)
                   for value in logs(chain[3]).values())
        assert all(isinstance(value, dict)
                   for value in logs(chain[4]).values())
        assert canonical(materialize_chain(chain)) == \
            canonical(resumed.snapshot())

    def test_trace_window_drops_inside_a_tail(self):
        """(b) With a small ``max_events`` the trace front-drops between
        links; tails still fold to the direct full capture.  A link
        whose new events overflow the whole window cannot start a tail
        and stores the full list."""
        swarm = build(size=2, seed="log-tails-window")
        for member in swarm.members:
            member.session.telemetry.trace.max_events = 12
        swarm.sweep()
        chain = extend(swarm, [swarm.snapshot()], 3)
        assert all(isinstance(logs(document)["telemetry.trace.records"],
                              dict) for document in chain[1:])
        dropped = [document["state"]["members"][0]["session"]["telemetry"][
            "trace"]["dropped_events"] for document in chain]
        assert dropped[0] < dropped[1] < dropped[2] < dropped[3]
        assert canonical(materialize_chain(chain)) == \
            canonical(swarm.snapshot())
        for member in swarm.members:
            member.session.telemetry.trace.max_events = 3
        extend(swarm, chain, 1)
        assert isinstance(logs(chain[-1])["telemetry.trace.records"], list)
        assert canonical(materialize_chain(chain)) == \
            canonical(swarm.snapshot())


class TestParentTampering:
    """(c) A parent whose log changed after it was captured yields a
    full-log fallback or a ``SnapshotError``, never a silent fold."""

    def chain(self, seed):
        swarm = build(seed=seed)
        swarm.sweep()
        return swarm, extend(swarm, [swarm.snapshot()], 2)

    def test_tampered_tail_records_are_caught_by_the_fold(self):
        swarm, chain = self.chain("log-tails-records")
        tail = chain[-1]["state"]["members"][1]["session"]["channel"][
            "transcript"]
        tail["records"][0]["outcome"] = "dropped"
        extend(swarm, chain, 1)
        assert isinstance(logs(chain[-1], 1)["channel.transcript"], dict)
        with pytest.raises(SnapshotError,
                           match=r"member 1: channel\.transcript .*sha1"):
            materialize_chain(chain)

    def test_tampered_tail_digest_falls_back_and_fails_the_fold(self):
        swarm, chain = self.chain("log-tails-digest")
        tail = chain[-1]["state"]["members"][0]["session"]["anchor"][
            "busy_intervals"]
        tail["sha1"] = "0" * 40
        extend(swarm, chain, 1)
        assert isinstance(logs(chain[-1])["anchor.busy_intervals"], list)
        with pytest.raises(SnapshotError,
                           match=r"member 0: anchor\.busy_intervals"):
            materialize_chain(chain)

    def test_malformed_parent_tail_falls_back_at_capture(self):
        swarm, chain = self.chain("log-tails-malformed")
        chain[-1]["state"]["members"][2]["session"]["verifier_node"][
            "results"] = {"base": "x", "sha1": None, "records": 3}
        extend(swarm, chain, 1)
        assert isinstance(logs(chain[-1], 2)["verifier_node.results"], list)
        with pytest.raises(SnapshotError,
                           match=r"member 2: verifier_node\.results"):
            materialize_chain(chain)

    def test_edited_full_root_falls_back_and_folds(self):
        swarm = build(seed="log-tails-root")
        swarm.sweep()
        root = swarm.snapshot()
        root["state"]["members"][0]["session"]["channel"][
            "transcript"].pop()
        chain = extend(swarm, [root], 1)
        assert isinstance(logs(chain[1])["channel.transcript"], list)
        assert isinstance(logs(chain[1], 1)["channel.transcript"], dict)
        assert canonical(materialize_chain(chain)) == \
            canonical(swarm.snapshot())

    def test_replaced_or_truncated_live_log_falls_back(self):
        swarm, chain = self.chain("log-tails-live")
        session = swarm.members[0].session
        session.verifier_node.results = list(session.verifier_node.results)
        del session.anchor.busy_intervals[:]
        extend(swarm, chain, 1)
        values = logs(chain[-1])
        assert isinstance(values["verifier_node.results"], list)
        assert isinstance(values["anchor.busy_intervals"], list)
        assert isinstance(values["channel.transcript"], dict)
        assert canonical(materialize_chain(chain)) == \
            canonical(swarm.snapshot())

    def test_foreign_parent_proves_by_content_only(self):
        """A parent captured from an identical twin fleet carries its
        own digest chain: a log becomes a tail only where that chain
        hashes to one this fleet remembers (equal records under equal
        link structure), every other log travels in full, and the chain
        folds to the direct full capture."""
        swarm, chain = self.chain("log-tails-foreign")
        twin = build(seed="log-tails-foreign")
        twin.restore(materialize_chain(chain))
        twin_chain = extend(twin, [twin.snapshot()], 1)
        extend(swarm, chain, 1)
        dirty(swarm, 9)
        swarm.sweep()
        document = swarm.snapshot(parent=twin_chain[-1])
        values = logs(document)
        assert isinstance(values["channel.transcript"], list)
        assert isinstance(values["telemetry.trace.records"], list)
        assert canonical(materialize_chain(twin_chain + [document])) == \
            canonical(swarm.snapshot())


class TestKinds:
    """(d) Session, swarm and sharded-fleet chains all fold to the
    direct full capture."""

    def test_session_chain(self):
        swarm = build(size=1, seed="log-tails-session")
        session = swarm.members[0].session
        swarm.sweep()
        chain = [session.snapshot()]
        for round_index in range(3):
            dirty(swarm, round_index)
            session.attest_once(settle_seconds=10.0)
            chain.append(session.snapshot(parent=chain[-1]))
        assert all(isinstance(value, dict)
                   for value in logs(chain[-1]).values())
        assert canonical(materialize_chain(chain)) == \
            canonical(session.snapshot())

    def test_sharded_fleet_chain_and_workers_losing_the_memo(self):
        spec = FleetSpec(size=4, device_config=SMALL_DEVICE, observe=True,
                         incremental=True, seed="log-tails-fleet")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            chain = [engine.snapshot()]
            for _ in range(2):
                engine.sweep()
                chain.append(engine.snapshot(parent=chain[-1]))
            assert all(isinstance(value, dict)
                       for member in range(4)
                       for value in logs(chain[-1], member).values())
            assert canonical(materialize_chain(chain)) == \
                canonical(engine.snapshot())
            # Restoring replaces every worker's log objects: the memo
            # is gone and the next link falls back to full logs.
            engine.restore(materialize_chain(chain))
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
            assert all(isinstance(value, list)
                       for member in range(4)
                       for value in logs(chain[-1], member).values())
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
            assert all(isinstance(value, dict)
                       for value in logs(chain[-1], 3).values())
            assert canonical(materialize_chain(chain)) == \
                canonical(engine.snapshot())


class TestFlatSize:
    def test_delta_size_stays_flat_in_chain_depth(self):
        """(e) Every round appends the same kind of history, so delta k
        is about as large as delta 1; with full logs it grew by one
        round of history per link."""
        swarm = build(size=4, seed="log-tails-flat")
        swarm.sweep()
        chain = [swarm.snapshot()]
        for _ in range(8):
            swarm.sweep()
            chain.append(swarm.snapshot(parent=chain[-1]))
        sizes = [len(canonical(document)) for document in chain[1:]]
        assert max(sizes) - min(sizes) < 0.03 * min(sizes), sizes
        history = [sum(len(json.dumps(value))
                       for member in range(4)
                       for value in logs(materialize_chain(chain[:k + 1]),
                                         member).values())
                   for k in (1, 8)]
        # The folded history grew by far more than the deltas did.
        assert history[1] - history[0] > 10 * (max(sizes) - min(sizes))


class TestVersions:
    def test_v1_deltas_with_full_logs_still_fold(self):
        swarm = build(seed="log-tails-v1")
        swarm.sweep()
        chain = extend(swarm, [swarm.snapshot()], 2)
        v1 = copy.deepcopy(chain)
        for position in range(1, len(v1)):
            folded = materialize_chain(chain[:position + 1])
            for member in range(3):
                session = v1[position]["state"]["members"][member]["session"]
                full = folded["state"]["members"][member]["session"]
                for name in LOG_NAMES:
                    key = name.rsplit(".", 1)[1]
                    _log_container(session, name)[key] = \
                        _log_container(full, name)[key]
            v1[position]["schema"] = "repro.snapshot.delta/v1"
        restamp(v1, 2)
        assert canonical(materialize_chain(v1)) == \
            canonical(materialize_chain(chain))


class TestChunkMemo:
    def test_each_unique_parent_image_is_rechunked_once(self):
        swarm = build(size=4, seed="log-tails-chunks")
        swarm.sweep()
        root = swarm.snapshot()
        base = DeltaBase.from_document(root, "swarm")
        members = [base.member(i) for i in range(len(base))]
        tree = swarm.members[0].session.device.ram.digest_tree
        window = tree.window_size
        answers = [member.chunk_digests("ram", tree.chunk_size, window)
                   for member in members]
        memo = members[0]._chunk_memo
        assert all(member._chunk_memo is memo for member in members)
        fingerprints = {member.regions["ram"]["fingerprint"]
                        for member in members}
        assert len(memo) == len(fingerprints) < len(members)
        image = BlobStore.decode(root["blobs"]).get(
            members[0].regions["ram"]["fingerprint"])
        assert answers[0] == tree.leaf_digests(
            b"\0" * tree.window_start + image)


# ---------------------------------------------------------------------------
# Trust boundary: mutated tails raise SnapshotError or fold unchanged
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def three_link_chain():
    swarm = build(seed="log-tails-fuzz")
    swarm.sweep()
    chain = extend(swarm, [swarm.snapshot()], 3)
    return chain, canonical(materialize_chain(chain))


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 6),
                  st.floats(allow_nan=False), st.text(max_size=4),
                  st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=2))
_HEX = st.text(alphabet="0123456789abcdef", min_size=40, max_size=40)

_MUTATIONS = st.one_of(
    st.tuples(st.just("base"), st.one_of(_JUNK, st.integers(-5, 400))),
    st.tuples(st.just("sha1"), st.one_of(_JUNK, _HEX)),
    st.tuples(st.just("records"), _JUNK.filter(
        lambda value: not isinstance(value, list))),
    st.tuples(st.just("drop-record"), st.integers(0, 50)),
    st.tuples(st.just("duplicate-record"), st.integers(0, 50)),
    st.tuples(st.just("edit-record"), st.tuples(st.integers(0, 50), _JUNK)),
    st.tuples(st.just("missing-key"),
              st.sampled_from(["base", "sha1", "records"])),
    st.tuples(st.just("extra-key"), _JUNK),
    st.tuples(st.just("replace-tail"), _JUNK.filter(
        lambda value: not isinstance(value, (list, dict)))),
)


def _mutate(tail: dict, mutation) -> object:
    kind, arg = mutation
    records = tail["records"]
    if kind in ("base", "sha1", "records"):
        tail[kind] = arg
    elif kind == "drop-record" and records:
        del records[arg % len(records)]
    elif kind == "duplicate-record" and records:
        records.append(copy.deepcopy(records[arg % len(records)]))
    elif kind == "edit-record" and records:
        index, value = arg
        records[index % len(records)] = value
    elif kind == "missing-key":
        del tail[arg]
    elif kind == "extra-key":
        tail["extra"] = arg
    elif kind == "replace-tail":
        return arg
    return tail


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(position=st.integers(1, 3), member=st.integers(0, 2),
       name=st.sampled_from(LOG_NAMES), mutation=_MUTATIONS)
def test_mutated_tails_raise_snapshot_error_or_fold_unchanged(
        three_link_chain, position, member, name, mutation):
    chain, expected = three_link_chain
    chain = copy.deepcopy(chain)
    session = chain[position]["state"]["members"][member]["session"]
    container = _log_container(session, name)
    key = name.rsplit(".", 1)[1]
    container[key] = _mutate(container[key], mutation)
    restamp(chain, position + 1)
    try:
        folded = materialize_chain(chain)
    except SnapshotError as error:
        assert f"member {member}: {name}" in str(error)
    else:
        assert canonical(folded) == expected
