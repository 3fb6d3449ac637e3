"""The ``mongod`` storage process: collections, B-tree index, global lock.

The functional layer stores real BSON-encoded documents indexed by ``_id``.
The concurrency behaviour the paper blames for workload A — MongoDB 1.8's
**per-process global write lock** ("a write operation can block all other
operations") — is modelled by :class:`GlobalLock`, whose acquisition counters
feed both the tests and the performance layer (the paper measured 25-45% of
time spent in this lock under workload A via mongostat).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.btree import BTree
from repro.common.errors import ServerCrashed, StorageError
from repro.docstore import bson


@dataclass
class GlobalLock:
    """MongoDB 1.8 semantics: many readers OR one writer, process-wide."""

    readers: int = 0
    writer_held: bool = False
    read_acquisitions: int = 0
    write_acquisitions: int = 0
    write_blocked_reads: int = 0

    def acquire_read(self) -> None:
        if self.writer_held:
            # In the real server the reader would block; the functional layer
            # is single-threaded so this only happens on re-entrant misuse.
            self.write_blocked_reads += 1
            raise StorageError("global lock held by a writer")
        self.readers += 1
        self.read_acquisitions += 1

    def release_read(self) -> None:
        if self.readers <= 0:
            raise StorageError("release_read without acquire")
        self.readers -= 1

    def acquire_write(self) -> None:
        if self.writer_held or self.readers:
            raise StorageError("global lock busy")
        self.writer_held = True
        self.write_acquisitions += 1

    def release_write(self) -> None:
        if not self.writer_held:
            raise StorageError("release_write without acquire")
        self.writer_held = False


class Collection:
    """Documents in insertion-independent ``_id`` order with a B-tree index,
    stored as BSON bytes (:class:`Mongod` encodes and decodes them)."""

    def __init__(self, name: str):
        self.name = name
        self._index = BTree()
        self.bytes_stored = 0

    def __len__(self) -> int:
        return len(self._index)

    def insert_encoded(self, key, data: bytes) -> None:
        """Store one document's BSON bytes under its ``_id``, as given; a
        duplicate ``_id`` raises and leaves the stored document as it was."""
        if not self._index.insert_if_absent(key, data):
            raise StorageError(f"duplicate _id {key!r}")
        self.bytes_stored += len(data)

    def find_encoded(self, key) -> bytes | None:
        """The stored BSON bytes of one document, or None."""
        return self._index.get(key)

    def update_field(self, key, fieldname: str, value) -> bool:
        """Set one field by rewriting it in the stored bytes
        (:func:`bson.with_field`); no value is decoded."""
        data = self._index.get(key)
        if data is None:
            return False
        new_data = bson.with_field(data, fieldname, value)
        self._index.insert(key, new_data)
        self.bytes_stored += len(new_data) - len(data)
        return True

    def scan_entries(self, start_key, count: int) -> list[tuple]:
        """Up to ``count`` ``(_id, BSON bytes)`` entries from ``start_key``,
        in key order, still encoded."""
        return self._index.range_scan(start_key, count)

    def remove(self, key) -> bool:
        data = self._index.get(key)
        if data is None:
            return False
        self._index.delete(key)
        self.bytes_stored -= len(data)
        return True

    def key_range(self):
        if len(self._index) == 0:
            return None
        return self._index.min_key(), self._index.max_key()

    def keys_in_range(self, low, high=None) -> list:
        """All keys in [low, high), ``high=None`` meaning no upper bound —
        used when migrating a chunk off a shard."""
        return self._index.keys_in_range(low, high)


class Mongod:
    """One mongod process: named collections guarded by one global lock.

    ``tracer``/``metrics`` (see :mod:`repro.obs`) record every global-lock
    hold as a span on a **logical clock** (the per-process op counter): op
    ``n`` holds the lock over ``[n, n+1)``.  A ``sampler`` additionally
    accumulates the *write*-hold fraction on the same clock — the
    per-process series mongostat's lock%% column summarizes.  All default
    to off.
    """

    def __init__(self, name: str, tracer=None, metrics=None, sampler=None):
        self.name = name
        self.lock = GlobalLock()
        self._collections: dict[str, Collection] = {}
        self.ops = 0
        self.alive = True
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        self._last_hold_span = None

    def _record_hold(self, mode: str) -> None:
        """One global-lock hold just completed as op ``self.ops - 1``."""
        if self.tracer:
            span = self.tracer.add(
                f"lock.{mode}.hold", float(self.ops - 1), float(self.ops),
                cat="lock", node=self.name, lane="global-lock", mode=mode,
            )
            # The global lock serializes every op: each hold is handed the
            # lock by the previous one — the causal chain the critical-path
            # layer walks.
            if self._last_hold_span is not None:
                self.tracer.link(self._last_hold_span, span, "lock-handoff")
            self._last_hold_span = span
        if self.metrics:
            self.metrics.counter(f"docstore.lock.{mode}_holds").inc()
        if self.sampler and mode == "write":
            self.sampler.accumulate(
                self.name, "global-lock", float(self.ops - 1), float(self.ops)
            )

    def kill(self) -> None:
        """Fault injection: the process stops answering (socket exceptions)."""
        self.alive = False

    def restart(self) -> None:
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise ServerCrashed(f"{self.name} is down")

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    # Each operation takes the global lock in the required mode — reads share,
    # writes exclude everything (the 1.8 behaviour).

    def insert(self, collection: str, document: dict) -> None:
        if "_id" not in document:
            raise StorageError("document needs an _id")
        self.insert_encoded(collection, document["_id"], bson.encode(document))

    def insert_encoded(self, collection: str, key, data: bytes) -> None:
        """Store one document's BSON bytes under ``key`` (its ``_id``) as
        given: the op ``insert`` runs once it has encoded the document."""
        self._check_alive()
        self.lock.acquire_write()
        try:
            self.ops += 1
            self._record_hold("write")
            self.collection(collection).insert_encoded(key, data)
        finally:
            self.lock.release_write()

    def find_one(self, collection: str, key):
        data = self.find_encoded(collection, key)
        return bson.decode(data) if data is not None else None

    def find_encoded(self, collection: str, key) -> bytes | None:
        """One document's stored BSON bytes, or None: the op ``find_one``
        runs before it decodes them."""
        self._check_alive()
        self.lock.acquire_read()
        try:
            self.ops += 1
            self._record_hold("read")
            return self.collection(collection).find_encoded(key)
        finally:
            self.lock.release_read()

    def update(self, collection: str, key, fieldname: str, value) -> bool:
        self._check_alive()
        self.lock.acquire_write()
        try:
            self.ops += 1
            self._record_hold("write")
            return self.collection(collection).update_field(key, fieldname, value)
        finally:
            self.lock.release_write()

    def scan_entries(self, collection: str, start_key, count: int) -> list[tuple]:
        """A range scan under the shared lock that leaves decoding to the
        caller: ``(_id, BSON bytes)`` entries in key order, so a merging
        client decodes only the documents it keeps."""
        self._check_alive()
        self.lock.acquire_read()
        try:
            self.ops += 1
            self._record_hold("read")
            return self.collection(collection).scan_entries(start_key, count)
        finally:
            self.lock.release_read()

    def scan(self, collection: str, start_key, count: int) -> list[dict]:
        return [bson.decode(data)
                for _, data in self.scan_entries(collection, start_key, count)]

    def remove(self, collection: str, key) -> bool:
        self._check_alive()
        self.lock.acquire_write()
        try:
            self.ops += 1
            self._record_hold("write")
            return self.collection(collection).remove(key)
        finally:
            self.lock.release_write()

    @property
    def bytes_stored(self) -> int:
        return sum(c.bytes_stored for c in self._collections.values())
