"""MongoDB's write-ahead journal, with its 100 ms durability window.

Section 3.4.1: "The version of MongoDB that we used supports durability via
write-ahead journaling.  The journal is flushed to disk every 100 ms.  This
100 ms delay means that the redo log by itself does not fully support
durability, unless a commit acknowledgement is provided.  For our
experiments, we elected to run MongoDB without logging."

This module implements that journal functionally so the difference from SQL
Server's force-at-commit WAL is *demonstrable*: a write acknowledged in safe
mode (without a journal ack) can be lost if the process dies inside the
flush interval, while SQL Server's committed writes never are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import StorageError
from repro.docstore import bson

FLUSH_INTERVAL = 0.1  # seconds (the 100 ms the paper quotes)


class JournalOp(Enum):
    INSERT = "insert"
    UPDATE = "update"
    REMOVE = "remove"


@dataclass(frozen=True)
class JournalEntry:
    sequence: int
    timestamp: float  # virtual time the write happened
    op: JournalOp
    collection: str
    key: str
    document: bytes | None = None  # BSON after-image (None for removes)


@dataclass
class Journal:
    """An append-only journal flushed on a 100 ms group cycle.

    ``now`` is a virtual clock the caller advances; ``append`` buffers an
    entry, ``maybe_flush``/``flush`` make buffered entries durable.  After a
    simulated crash, only entries with ``sequence <= durable_sequence``
    survive.
    """

    flush_interval: float = FLUSH_INTERVAL
    entries: list[JournalEntry] = field(default_factory=list)
    durable_sequence: int = 0
    flushes: int = 0
    _next_sequence: int = 1
    _last_flush_time: float = 0.0

    def append(self, now: float, op: JournalOp, collection: str, key: str,
               document: bytes | None = None) -> JournalEntry:
        if now < self._last_flush_time:
            raise StorageError("journal clock went backwards")
        entry = JournalEntry(self._next_sequence, now, op, collection, key, document)
        self._next_sequence += 1
        self.entries.append(entry)
        return entry

    def maybe_flush(self, now: float) -> bool:
        """Flush if the 100 ms interval elapsed; returns True if it did."""
        if now - self._last_flush_time >= self.flush_interval:
            self.flush(now)
            return True
        return False

    def flush(self, now: float) -> None:
        self._last_flush_time = now
        if self.entries:
            self.durable_sequence = self.entries[-1].sequence
        self.flushes += 1

    @property
    def next_flush_time(self) -> float:
        """When the next group flush is due on the journal's own cycle."""
        return self._last_flush_time + self.flush_interval

    # -- crash behaviour ---------------------------------------------------------

    def crash(self) -> None:
        """The process dies: acknowledged-but-unflushed entries are gone.

        What remains is exactly the durable prefix — the on-disk journal a
        restart recovers from.  Sequence numbering continues after the
        discarded tail so replayed histories stay monotonic.
        """
        self.entries = self.surviving_entries()

    def surviving_entries(self) -> list[JournalEntry]:
        """What a restart can recover: entries flushed before the crash."""
        return [e for e in self.entries if e.sequence <= self.durable_sequence]

    def lost_entries(self) -> list[JournalEntry]:
        """Acknowledged-but-unflushed writes — the paper's durability gap."""
        return [e for e in self.entries if e.sequence > self.durable_sequence]

    @property
    def max_loss_window(self) -> float:
        """Worst-case seconds of acknowledged writes a crash can lose."""
        return self.flush_interval

    def replay(self) -> dict[tuple[str, str], bytes | None]:
        """Redo the surviving entries: final after-image per (collection, key)."""
        images: dict[tuple[str, str], bytes | None] = {}
        for entry in self.surviving_entries():
            if entry.op is JournalOp.REMOVE:
                images[(entry.collection, entry.key)] = None
            else:
                images[(entry.collection, entry.key)] = entry.document
        return images


class JournaledMongod:
    """A mongod wrapper that journals every write against a virtual clock.

    Reads pass through; writes append to the journal before applying (write
    ahead), and the journal flushes on its own 100 ms cycle — acknowledging
    the client *before* the flush, exactly the safe-mode-without-journal-ack
    behaviour the paper benchmarked.
    """

    def __init__(self, mongod, journal: Journal | None = None):
        self.mongod = mongod
        self.journal = journal or Journal()
        self.clock = 0.0

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise StorageError("cannot rewind the clock")
        self.clock += seconds
        self.journal.maybe_flush(self.clock)

    def insert(self, collection: str, document: dict) -> None:
        """Encode once: the journal entry and mongod hold the same bytes.

        Only an insert mongod will accept is journaled.  A duplicate
        ``_id`` leaves no entry for recovery to bring back, and mongod
        refuses it as a bare mongod does: one op and a write hold, then
        ``StorageError``.  The check reads the collection directly, so no
        insert counts an extra op."""
        key = document["_id"]
        data = bson.encode(document)
        if self.mongod.collection(collection).find_encoded(key) is None:
            self.journal.append(self.clock, JournalOp.INSERT, collection,
                                key, data)
        self.mongod.insert_encoded(collection, key, data)

    def update(self, collection: str, key, fieldname: str, value) -> bool:
        # Write-ahead: the intended after-image goes to the journal *before*
        # mongod mutates the document, so a crash between the two steps can
        # only ever lose the un-journaled application (which redo replays),
        # never an applied-but-unjournaled write.  The image is the stored
        # bytes with one field rewritten (``bson.with_field``), as mongod's
        # own update builds it.
        before = self.mongod.find_encoded(collection, key)
        if before is None:
            return False
        self.journal.append(
            self.clock, JournalOp.UPDATE, collection, key,
            bson.with_field(before, fieldname, value),
        )
        ok = self.mongod.update(collection, key, fieldname, value)
        if not ok:
            raise StorageError(
                f"{collection}/{key!r} vanished between journal append and apply"
            )
        return ok

    def remove(self, collection: str, key) -> bool:
        """Journal a tombstone (write-ahead), then remove from mongod."""
        if self.mongod.find_encoded(collection, key) is None:
            return False
        self.journal.append(self.clock, JournalOp.REMOVE, collection, key)
        ok = self.mongod.remove(collection, key)
        if not ok:
            raise StorageError(
                f"{collection}/{key!r} vanished between journal append and apply"
            )
        return ok

    def find_one(self, collection: str, key):
        return self.mongod.find_one(collection, key)

    def crash_and_recover(self):
        """Kill the process; rebuild a fresh mongod from the journal alone
        (its after-images are stored as they are, not decoded)."""
        from repro.docstore.mongod import Mongod

        recovered = Mongod(f"{self.mongod.name}.recovered")
        for (collection, key), image in self.journal.replay().items():
            if image is not None:
                recovered.insert_encoded(collection, key, image)
        return recovered
