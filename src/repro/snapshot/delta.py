"""Delta checkpoints: O(change) snapshots chained off a parent document.

A full ``repro.snapshot/v1`` document stores every region window image
and every log since boot.  At fleet scale that is O(members * writable
bytes) of hashing and encoding per checkpoint, plus O(run length) of
history, even when only a few freshness words moved since the last
one.  This module adds ``repro.snapshot.delta/v2``: a checkpoint
captured *against a parent document* that records, per region, only
the chunks whose :class:`~repro.incremental.DigestTree` leaves changed
since the parent -- the same dirty-leaf machinery that makes
incremental measurement O(dirty + log N) makes checkpointing O(dirty)
too -- and, per append-only log, only the records appended since.

Per-region delta record (the ``delta`` key on a region record):

``{"mode": "unchanged"}``
    The region's write-chain fingerprint equals the parent's: nothing
    stored at all (equal fingerprints imply byte-identical contents at
    and above the exclude bound).
``{"mode": "chunks", "chunk_size": C, "index": H, "dirty": [i, ...]}``
    Only chunks whose leaf digests differ from the parent's are stored,
    each keyed in the :class:`~repro.snapshot.blobs.BlobStore` by its
    own SHA-1 (its *content address*) -- so the identical OTA payload
    applied across a fleet is stored once no matter how many members
    dirtied it.  ``index`` keys the concatenated 20-byte leaf-digest
    row, which both materialization and the *next* delta capture read.
``{"mode": "blob"}``
    Whole-window fallback: no digest tree attached (or its geometry
    does not span the fingerprinted window), or the parent offers no
    chunk digests to diff against.  The window travels under the
    region fingerprint exactly like a full snapshot.

The per-member excluded prefix (IDT / ``counter_R`` / ``Clock_MSB``)
always travels verbatim on the region record -- it is tiny, genuinely
per-device, and below the fingerprint bound, so no chunk diffing
applies.

Per-log record (the value at each of :data:`LOG_NAMES` in a member
session payload):

``[record, ...]``
    The full list, exactly as a full snapshot stores it.  Written when
    the capture cannot prove what the parent holds (a restored object,
    a foreign or edited parent, a trace window that already dropped
    the tail's start), and the only form a ``v1`` delta carries.
``{"base": n, "sha1": hex, "records": [record, ...]}``
    A tail: the records appended after the parent's first ``n`` (for
    the trace, ``n`` counts front-dropped events too).  ``sha1`` is
    the rolling digest ``SHA-1(parent digest || canonical JSON of
    records)``; a full list's digest is ``SHA-1(canonical JSON of the
    list)``.  Written only when a host-side memo left on the live log
    by an earlier capture matches the parent's count and digest (see
    :func:`capture_log`).

Chain identity: every document is addressed by :func:`document_id`, the
SHA-1 of its canonical JSON; a delta's ``parent_id`` must equal its
parent's id, so a chain is verified end to end before any folding.
:func:`materialize_chain` folds parent -> child overlays and log tails
into a plain full document that is **byte-identical** to one captured
directly (the equivalence gates in ``tests/snapshot/test_delta.py``,
``tests/snapshot/test_log_tails.py`` and ``repro.perf.snapshot``
enforce this), re-checking every tail's rolling digest on the way;
:func:`compact_chain` is the user-facing squash.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from ..errors import SnapshotError
from ..obs.schema import (SNAPSHOT_DELTA_SCHEMA_ID,
                          SNAPSHOT_DELTA_SCHEMA_IDS, validate_snapshot,
                          validate_snapshot_delta)
from .blobs import BlobStore
from .document import load_document, make_document

__all__ = ["DeltaBase", "ParentMember", "capture_region_delta",
           "compact_chain", "document_id", "load_chain",
           "make_delta_document", "materialize_chain", "parent_blob_keys",
           "unwrap_parent", "verify_chain"]

_DIGEST_LEN = 20


def document_id(document: dict) -> str:
    """Content address of a snapshot document: SHA-1 of its canonical
    JSON (sorted keys, no whitespace).  Saving and reloading a document
    preserves its id -- ``save_document`` writes sorted keys and JSON
    scalars round-trip exactly."""
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha1(payload).hexdigest()


def make_delta_document(kind: str, state: dict, blobs: BlobStore,
                        parent_id: str, meta: dict | None = None) -> dict:
    """Assemble a ``repro.snapshot.delta/v2`` envelope."""
    document = {"schema": SNAPSHOT_DELTA_SCHEMA_ID, "kind": kind,
                "blobs": blobs.encode(), "state": state,
                "parent_id": parent_id}
    if meta is not None:
        document["meta"] = meta
    return document


def unwrap_parent(document: dict, kind: str) -> tuple[dict, BlobStore]:
    """Validate a parent document (full *or* delta) and return
    ``(state, blobs)``.  A delta parent is fine: diffing only needs the
    parent's fingerprints and chunk-digest indexes, not its images."""
    if (isinstance(document, dict)
            and document.get("schema") in SNAPSHOT_DELTA_SCHEMA_IDS):
        errors = validate_snapshot_delta(document)
    else:
        errors = validate_snapshot(document)
    if errors:
        raise SnapshotError("invalid delta parent document: "
                            + "; ".join(errors))
    if document["kind"] != kind:
        raise SnapshotError(
            f"delta parent kind mismatch: document is "
            f"{document['kind']!r}, expected {kind!r}")
    return document["state"], BlobStore.decode(document["blobs"])


def _session_states(state: dict, kind: str) -> list[dict]:
    """The per-member session payloads of a document state, in fleet
    order (fleet shards are contiguous index blocks, so shard-major
    order is global member order)."""
    if kind == "session":
        return [state]
    if kind == "swarm":
        return [member["session"] for member in state["members"]]
    if kind == "fleet":
        return [member["session"] for shard in state["shards"]
                for member in shard["swarm"]["members"]]
    raise SnapshotError(
        f"snapshot kind {kind!r} has no delta form (no region images)")


def _identity(state: dict, kind: str) -> list | None:
    if kind == "session":
        return None
    if kind == "swarm":
        return [(member["device_id"], member["index"])
                for member in state["members"]]
    return [(member["device_id"], member["index"])
            for shard in state["shards"]
            for member in shard["swarm"]["members"]]


# ---------------------------------------------------------------------------
# Append-only logs: tails
# ---------------------------------------------------------------------------

#: The append-only logs of a session payload, named by their JSON path
#: from the session payload.  A delta stores each as a tail when it can.
LOG_NAMES = ("telemetry.trace.records", "channel.transcript",
             "verifier_node.results", "anchor.busy_intervals")
#: The one log with a front-drop window (``max_events``): its records
#: are the newest of ``dropped_events + len(records)`` ever appended.
_WINDOWED_LOG = "telemetry.trace.records"
#: Each log's container path and list key within a session payload.
_LOG_PATHS = {name: (tuple(name.split(".")[:-1]), name.rsplit(".", 1)[1])
              for name in LOG_NAMES}
_SHA1_HEX = re.compile(r"[0-9a-f]{40}")
_TAIL_KEYS = frozenset({"base", "sha1", "records"})
#: Session attribute holding the capture-side memos (host-side only;
#: simulated code never reads it).
_LOG_MEMO_ATTR = "_snapshot_log_memos"
#: Rolling digests remembered per live log: enough for a capture
#: against any of the last few checkpoints of the same object.
_LOG_MEMO_DEPTH = 4


def _log_digest(previous: bytes, records: list) -> bytes:
    """One link of a log's rolling digest: SHA-1 of the previous link's
    digest (empty for a full list) followed by the canonical JSON of
    the link's records."""
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(previous + payload.encode()).digest()


def _is_sha1_hex(value) -> bool:
    return isinstance(value, str) and _SHA1_HEX.fullmatch(value) is not None


def _log_container(session: dict, name: str) -> dict | None:
    """The dict holding log ``name`` in a session payload, or ``None``
    when absent (an unobserved session has no trace)."""
    node = session
    for key in _LOG_PATHS[name][0]:
        node = node.get(key) if isinstance(node, dict) else None
    return node if isinstance(node, dict) else None


def _log_key(name: str) -> str:
    return _LOG_PATHS[name][1]


def _log_offset(container: dict, name: str):
    """Records appended before the container's list starts (the trace's
    front-dropped events; zero for every other log)."""
    return container.get("dropped_events") if name == _WINDOWED_LOG else 0


def capture_log(session, name: str, live: list, encode, parent,
                offset: int = 0):
    """The snapshot value of one live append-only log.

    A full capture, or a delta that cannot prove its parent holds this
    log's first records, stores the whole list.  Otherwise the value is
    the tail ``{"base", "sha1", "records"}``: the records appended
    since the parent's ``base`` and the rolling digest extended over
    them.  The proof is a memo of ``(count, digest)`` pairs kept per
    live list object on ``session``, one per recent capture: when one
    of them equals the parent's count and digest, the log's first
    ``base`` entries are the parent's (the log only ever appends, and a
    restore replaces the list object, which voids the memo).

    ``offset`` is the number of records ``live`` no longer holds at its
    front (the trace window); a tail must start inside ``live``.
    """
    memos = session.__dict__.setdefault(_LOG_MEMO_ATTR, {})
    count = offset + len(live)
    pinned, known = memos.get(name, (None, {}))
    # Another list object (a restore), or an entry for more records
    # than the log now holds (truncated in place): trust nothing.
    if pinned is not live or any(n > count for n in known.values()):
        known = {}
    base = digest = None
    if parent is not None:
        counts = {n for n in known.values() if n >= offset}
        head = parent.log_head(name, counts)
        if head is not None and known.get(head[1]) == head[0]:
            base, digest = head
    if base is None:
        value = [encode(entry) for entry in live]
        digest = _log_digest(b"", value)
    else:
        records = [encode(entry) for entry in live[base - offset:]]
        digest = _log_digest(digest, records)
        value = {"base": base, "sha1": digest.hex(), "records": records}
    known[digest] = count
    while len(known) > _LOG_MEMO_DEPTH:
        del known[next(iter(known))]
    memos[name] = (live, known)
    return value


def log_length(session: dict, name: str) -> int:
    """Records a session payload's log ``name`` holds once folded
    (a tail's ``base`` plus its records, less the front-dropped)."""
    container = _log_container(session, name)
    value = container[_log_key(name)]
    if isinstance(value, dict):
        return (value["base"] + len(value["records"])
                - _log_offset(container, name))
    return len(value)


def _fold_log(where: str, name: str, containers: list) -> None:
    """Fold one log through a chain, root-first; the last container is
    the (already copied) tip's and receives the full folded list.

    Every tail must start exactly at its parent's record count and its
    ``sha1`` must equal the rolling digest recomputed over the parent's
    records and its own; the trace window then front-drops to
    ``max_events`` and must land on the tip's ``dropped_events``.  Any
    mismatch raises :class:`SnapshotError` naming ``where`` and the
    chain position.
    """
    key = _log_key(name)
    records = offset = digest = None
    owned = False
    for position, container in enumerate(containers):
        at = f"{where}: {name} at chain document {position}"
        if container is None:
            if records is not None:
                raise SnapshotError(f"{at}: log missing")
            continue
        if records is None and position:
            raise SnapshotError(f"{at}: log absent from the parent")
        value = container.get(key)
        link_offset = _log_offset(container, name)
        if type(link_offset) is not int or link_offset < 0:
            raise SnapshotError(f"{at}: malformed dropped_events")
        if isinstance(value, list):
            records, offset, digest, owned = value, link_offset, None, False
            continue
        if position == 0:
            raise SnapshotError(f"{at}: log must be a list")
        if not isinstance(value, dict):
            raise SnapshotError(
                f"{at}: log must be a list or a {{base, sha1, records}} "
                f"tail")
        if set(value) != _TAIL_KEYS:
            raise SnapshotError(
                f"{at}: malformed tail keys {sorted(map(str, value))}")
        base, sha1, tail = value["base"], value["sha1"], value["records"]
        if not isinstance(tail, list):
            raise SnapshotError(f"{at}: tail records must be a list")
        count = offset + len(records)
        if type(base) is not int or base != count:
            raise SnapshotError(
                f"{at}: tail base {base!r} does not match the parent's "
                f"record count {count}")
        if not _is_sha1_hex(sha1):
            raise SnapshotError(f"{at}: tail sha1 {sha1!r} is not a "
                                f"SHA-1 hex digest")
        if digest is None:
            digest = _log_digest(b"", records)
        digest = _log_digest(digest, tail)
        if digest.hex() != sha1:
            raise SnapshotError(
                f"{at}: tail sha1 does not match the rolling digest of "
                f"the parent's records and the tail")
        if not owned:
            records, owned = list(records), True
        records.extend(tail)
        if name == _WINDOWED_LOG:
            window = container.get("max_events")
            if type(window) is not int or window < 1:
                raise SnapshotError(f"{at}: malformed max_events")
            if len(records) > window:
                offset += len(records) - window
                del records[:len(records) - window]
        if offset != link_offset:
            raise SnapshotError(
                f"{at}: folded log has dropped {offset} record(s), the "
                f"document says {link_offset}")
    if containers[-1] is not None and owned:
        containers[-1][key] = json.loads(json.dumps(records))


class ParentMember:
    """One member's view of a parent checkpoint: its session payload
    (region records and append-only logs) plus the parent's blob store
    (for chunk-digest indexes and fallback image chunking).

    ``chunk_memo`` is shared by every member of one :class:`DeltaBase`:
    leaf digests recovered from a parent image or index blob depend only
    on its content address and the chunk size, so a fleet of members
    sharing an image re-chunks it once, not once per member.
    """

    __slots__ = ("session", "regions", "blobs", "_chunk_memo")

    def __init__(self, session: dict, blobs: BlobStore,
                 chunk_memo: dict | None = None):
        self.session = session
        self.regions = {record["name"]: record
                        for record in session["device"]["regions"]}
        self.blobs = blobs
        self._chunk_memo = {} if chunk_memo is None else chunk_memo

    def chunk_digests(self, name: str, chunk_size: int,
                      window_size: int) -> list[bytes] | None:
        """The parent's per-chunk leaf digests for region ``name``
        under the given geometry, or ``None`` when the parent cannot
        provide them (capture then falls back to a whole blob).

        Two sources, cheapest first: a recorded chunk-digest index
        (any delta mode may carry one), or the parent's whole window
        image re-chunked on the fly (full snapshots and blob-mode
        deltas).
        """
        record = self.regions.get(name)
        if record is None:
            return None
        delta = record.get("delta")
        if delta is not None and "index" in delta:
            if delta.get("chunk_size") != chunk_size:
                return None
            source = ("index", delta["index"])
        elif delta is None or delta.get("mode") == "blob":
            source = ("image", record["fingerprint"])
        else:
            return None
        key = (source, chunk_size, window_size)
        if key not in self._chunk_memo:
            self._chunk_memo[key] = self._recover(source, chunk_size,
                                                  window_size)
        return self._chunk_memo[key]

    def _recover(self, source: tuple, chunk_size: int,
                 window_size: int) -> list[bytes] | None:
        kind, address = source
        try:
            payload = self.blobs.get(address)
        except SnapshotError:
            return None
        if kind == "index":
            if len(payload) % _DIGEST_LEN:
                return None
            digests = [payload[i:i + _DIGEST_LEN]
                       for i in range(0, len(payload), _DIGEST_LEN)]
        else:
            if len(payload) != window_size:
                return None
            digests = [hashlib.sha1(payload[lo:lo + chunk_size]).digest()
                       for lo in range(0, len(payload), chunk_size)]
        expected = (window_size + chunk_size - 1) // chunk_size
        if len(digests) != expected:
            return None
        return digests

    def log_head(self, name: str, counts) -> tuple[int, bytes] | None:
        """``(count, digest)`` of the parent's log ``name`` when its
        record count is one of ``counts``, else ``None``.

        A tail's digest is read from the document (the fold re-checks
        it); a full list's is computed here, and only once the cheap
        count check has passed.  A malformed parent log answers
        ``None``, so the capture falls back to the full list.
        """
        container = _log_container(self.session, name)
        if container is None:
            return None
        value = container.get(_log_key(name))
        if isinstance(value, list):
            offset = _log_offset(container, name)
            if type(offset) is not int or offset + len(value) not in counts:
                return None
            return offset + len(value), _log_digest(b"", value)
        if not (isinstance(value, dict) and set(value) == _TAIL_KEYS
                and type(value["base"]) is int
                and isinstance(value["records"], list)
                and _is_sha1_hex(value["sha1"])):
            return None
        count = value["base"] + len(value["records"])
        if count not in counts:
            return None
        return count, bytes.fromhex(value["sha1"])


class DeltaBase:
    """A parent checkpoint unpacked for delta capture.

    Holds one :class:`ParentMember` per member session (sharing the
    parent's blob store) plus the member identity list used to refuse
    capture against a mismatched fleet.
    """

    __slots__ = ("_members", "identity")

    def __init__(self, members: list[ParentMember], identity: list | None):
        self._members = members
        self.identity = identity

    def member(self, index: int) -> ParentMember:
        return self._members[index]

    def __len__(self) -> int:
        return len(self._members)

    @classmethod
    def from_document(cls, document: dict, kind: str) -> "DeltaBase":
        state, blobs = unwrap_parent(document, kind)
        return cls._from_state(state, kind, blobs)

    @classmethod
    def for_swarm_state(cls, state: dict, blobs: BlobStore) -> "DeltaBase":
        """Build from a bare swarm-kind state payload (fleet shard
        workers receive their shard's slice this way)."""
        return cls._from_state(state, "swarm", blobs)

    @classmethod
    def _from_state(cls, state: dict, kind: str,
                    blobs: BlobStore) -> "DeltaBase":
        chunk_memo = {}
        members = [ParentMember(session, blobs, chunk_memo)
                   for session in _session_states(state, kind)]
        return cls(members, _identity(state, kind))


def parent_blob_keys(swarm_state: dict) -> list[str]:
    """Every blob key a swarm-kind parent state may reference during
    delta capture: region fingerprints (image fallback / re-chunking)
    and chunk-digest indexes.  Used to ship each fleet shard only the
    parent payloads its members need."""
    keys = []
    seen = set()
    for member in swarm_state["members"]:
        for record in member["session"]["device"]["regions"]:
            for key in (record["fingerprint"],
                        record.get("delta", {}).get("index")):
                if key is not None and key not in seen:
                    seen.add(key)
                    keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

def capture_region_delta(region, parent: ParentMember,
                         blobs: BlobStore) -> dict:
    """Record one region against a parent checkpoint; returns the
    ``delta`` entry for the region record, storing chunk payloads and
    the leaf-digest index into ``blobs`` as needed."""
    exclude = region.fingerprint_exclude_below
    window_size = region.size - exclude
    fingerprint_hex = region._fingerprint.hex()
    tree = region.digest_tree
    # The tree must span exactly the fingerprinted window, or its
    # leaves do not address the bytes the fingerprint witnesses.
    eligible = (tree is not None and tree.window_start == exclude
                and tree.window_size == window_size)
    index_hex = None
    leaves = None
    if eligible:
        leaves = tree.leaf_digests(region._data)
        index_payload = b"".join(leaves)
        index_hex = hashlib.sha1(index_payload).hexdigest()
        blobs.put(index_hex, index_payload)

    parent_record = parent.regions.get(region.name)
    geometry_matches = (parent_record is not None
                        and parent_record["size"] == region.size
                        and parent_record["exclude"] == exclude)
    if geometry_matches and parent_record["fingerprint"] == fingerprint_hex:
        delta = {"mode": "unchanged"}
        if eligible:
            delta["chunk_size"] = tree.chunk_size
            delta["index"] = index_hex
        return delta
    if geometry_matches and eligible:
        parent_leaves = parent.chunk_digests(region.name, tree.chunk_size,
                                             window_size)
        if parent_leaves is not None and len(parent_leaves) == len(leaves):
            dirty = [i for i, (old, new)
                     in enumerate(zip(parent_leaves, leaves)) if old != new]
            window = memoryview(region._data)[exclude:]
            for i in dirty:
                lo = i * tree.chunk_size
                hi = min(lo + tree.chunk_size, window_size)
                blobs.put(leaves[i].hex(), bytes(window[lo:hi]))
            return {"mode": "chunks", "chunk_size": tree.chunk_size,
                    "index": index_hex, "dirty": dirty}
    # Fallback: whole window under the fingerprint, as a full snapshot
    # would.  Still carries the index when a tree is attached, so the
    # *next* delta against this one is O(dirty).
    blobs.put(fingerprint_hex, bytes(region._data[exclude:]))
    delta = {"mode": "blob"}
    if eligible:
        delta["chunk_size"] = tree.chunk_size
        delta["index"] = index_hex
    return delta


# ---------------------------------------------------------------------------
# Chains: verify, materialize, compact, load
# ---------------------------------------------------------------------------

def verify_chain(documents: list[dict]) -> None:
    """Check a root-first document list is a well-formed delta chain:
    full root, delta descendants of one kind, each ``parent_id``
    matching the :func:`document_id` of the document before it."""
    if not documents:
        raise SnapshotError("delta chain is empty")
    root = documents[0]
    errors = validate_snapshot(root)
    if errors:
        raise SnapshotError("invalid chain root: " + "; ".join(errors))
    if root["kind"] not in ("session", "swarm", "fleet"):
        raise SnapshotError(
            f"snapshot kind {root['kind']!r} has no delta form")
    previous_id = document_id(root)
    for position, document in enumerate(documents[1:], start=1):
        errors = validate_snapshot_delta(document)
        if errors:
            raise SnapshotError(f"invalid chain document {position}: "
                                + "; ".join(errors))
        if document["kind"] != root["kind"]:
            raise SnapshotError(
                f"chain document {position} kind {document['kind']!r} "
                f"does not match root kind {root['kind']!r}")
        if document["parent_id"] != previous_id:
            raise SnapshotError(
                f"chain broken at document {position}: parent_id "
                f"{document['parent_id']} does not match the previous "
                f"document's id {previous_id}")
        previous_id = document_id(document)


def materialize_chain(documents: list[dict]) -> dict:
    """Fold a root-first delta chain into one full document.

    The result is byte-identical (canonical JSON) to a full snapshot
    captured at the tip: the tip's non-region, non-log state travels
    verbatim; each append-only log is the root's list with every tail
    appended in chain order, its rolling digest re-checked at every
    link; and each region image is the root image with every chunk
    overlay applied in chain order, verified against the tip's
    chunk-digest index when one was recorded.
    """
    verify_chain(documents)
    root = documents[0]
    kind = root["kind"]
    tip = documents[-1]
    # Deep copy via JSON round-trip: the fold strips "delta" keys from
    # the tip's region records in place and must not mutate the input.
    state = json.loads(json.dumps(tip["state"]))
    doc_states = [document["state"] for document in documents[:-1]]
    doc_states.append(state)
    doc_sessions = [_session_states(s, kind) for s in doc_states]
    doc_blobs = [BlobStore.decode(document["blobs"])
                 for document in documents]
    member_count = len(doc_sessions[0])
    for position, sessions in enumerate(doc_sessions):
        if len(sessions) != member_count:
            raise SnapshotError(
                f"chain document {position} has {len(sessions)} members; "
                f"root has {member_count}")
    out = BlobStore()
    for m in range(member_count):
        for name in LOG_NAMES:
            _fold_log(f"member {m}", name,
                      [_log_container(sessions[m], name)
                       for sessions in doc_sessions])
        record_maps = [{record["name"]: record
                        for record in sessions[m]["device"]["regions"]}
                       for sessions in doc_sessions]
        for record in doc_sessions[-1][m]["device"]["regions"]:
            name = record["name"]
            records = []
            for position, record_map in enumerate(record_maps):
                link = record_map.get(name)
                if link is None:
                    raise SnapshotError(
                        f"region {name!r} missing from chain document "
                        f"{position}")
                records.append(link)
            image = _fold_region(name, records, doc_blobs)
            record.pop("delta", None)
            # Collision-checked: members sharing a fingerprint must
            # fold to identical images or the chain is corrupt.
            out.put(record["fingerprint"], image)
    meta = tip.get("meta")
    if meta is not None:
        meta = {key: value for key, value in meta.items()
                if key != "parent_path"}
        meta = meta or None
    return make_document(kind, state, out, meta)


def _fold_region(name: str, records: list[dict],
                 doc_blobs: list[BlobStore]) -> bytes:
    base = records[0]
    window_size = base["size"] - base["exclude"]
    image = bytearray(doc_blobs[0].get(base["fingerprint"]))
    if len(image) != window_size:
        raise SnapshotError(
            f"region {name!r}: root image is {len(image)} bytes, window "
            f"is {window_size}")
    for position, (record, blobs) in enumerate(
            zip(records[1:], doc_blobs[1:]), start=1):
        if (record["size"] != base["size"]
                or record["exclude"] != base["exclude"]):
            raise SnapshotError(
                f"region {name!r} geometry changed at chain document "
                f"{position}; delta chains require stable geometry")
        delta = record.get("delta")
        if delta is None:
            raise SnapshotError(
                f"region {name!r} has no delta record in chain document "
                f"{position}")
        mode = delta["mode"]
        if mode == "unchanged":
            continue
        if mode == "blob":
            image = bytearray(blobs.get(record["fingerprint"]))
            if len(image) != window_size:
                raise SnapshotError(
                    f"region {name!r}: blob at chain document {position} "
                    f"is {len(image)} bytes, window is {window_size}")
            continue
        if mode != "chunks":
            raise SnapshotError(
                f"region {name!r}: unknown delta mode {mode!r} at chain "
                f"document {position}")
        chunk_size = delta["chunk_size"]
        payload = blobs.get(delta["index"])
        if len(payload) % _DIGEST_LEN:
            raise SnapshotError(
                f"region {name!r}: malformed chunk-digest index at chain "
                f"document {position}")
        digests = [payload[i:i + _DIGEST_LEN]
                   for i in range(0, len(payload), _DIGEST_LEN)]
        expected = (window_size + chunk_size - 1) // chunk_size
        if len(digests) != expected:
            raise SnapshotError(
                f"region {name!r}: chunk-digest index at chain document "
                f"{position} has {len(digests)} entries, window needs "
                f"{expected}")
        for i in delta["dirty"]:
            if not 0 <= i < expected:
                raise SnapshotError(
                    f"region {name!r}: dirty chunk {i} out of range at "
                    f"chain document {position}")
            chunk = blobs.get(digests[i].hex())
            lo = i * chunk_size
            if len(chunk) != min(chunk_size, window_size - lo):
                raise SnapshotError(
                    f"region {name!r}: chunk {i} at chain document "
                    f"{position} has wrong length")
            image[lo:lo + len(chunk)] = chunk
    tip_delta = records[-1].get("delta")
    if tip_delta is not None and "index" in tip_delta:
        # End-to-end check: the folded image must hash chunk-for-chunk
        # to the tip's recorded leaf digests.
        chunk_size = tip_delta["chunk_size"]
        payload = doc_blobs[-1].get(tip_delta["index"])
        digests = [payload[i:i + _DIGEST_LEN]
                   for i in range(0, len(payload), _DIGEST_LEN)]
        for i, digest in enumerate(digests):
            lo = i * chunk_size
            chunk = bytes(image[lo:lo + chunk_size])
            if hashlib.sha1(chunk).digest() != digest:
                raise SnapshotError(
                    f"region {name!r}: folded chunk {i} does not match "
                    f"the tip checkpoint's digest index")
    return bytes(image)


def compact_chain(documents: list[dict]) -> dict:
    """Squash a root-first delta chain into one full snapshot document
    (restorable everywhere a directly captured one is)."""
    return materialize_chain(documents)


def load_chain(path: str) -> list[dict]:
    """Load a delta document and every ancestor, following each
    document's ``meta.parent_path`` (relative to the file that names
    it) until a full snapshot roots the chain.  Returns the documents
    root-first, linkage verified."""
    documents = []
    seen = set()
    current = os.path.abspath(os.fspath(path))
    while True:
        if current in seen:
            raise SnapshotError(f"delta parent chain cycles at {current}")
        seen.add(current)
        document = load_document(current)
        documents.append(document)
        if document.get("schema") not in SNAPSHOT_DELTA_SCHEMA_IDS:
            break
        parent_path = (document.get("meta") or {}).get("parent_path")
        if parent_path is None:
            raise SnapshotError(
                f"delta document {current} carries no meta.parent_path; "
                f"pass its parent explicitly")
        current = os.path.normpath(
            os.path.join(os.path.dirname(current), parent_path))
    documents.reverse()
    verify_chain(documents)
    return documents
