"""One SQL Server node: clustered B-tree, pages, buffer pool, WAL, locks.

Every public operation runs as an autocommit transaction with full ACID
semantics — shared locks under READ COMMITTED, exclusive locks to commit,
log flush at commit — matching how the paper ran SQL-CS ("SQL Server
supports ACID transaction semantics at the default READ COMMITTED level").
"""

from __future__ import annotations

from typing import Optional

from repro.common.btree import BTree
from repro.common.errors import (
    LockWait,
    ServerCrashed,
    StorageError,
    TransactionAborted,
)
from repro.sqlstore.bufferpool import BufferPool
from repro.sqlstore.locks import IsolationLevel, LockManager, LockMode
from repro.sqlstore.pages import (
    MAX_ROW_BYTES,
    PAGE_SIZE,
    PageManager,
    decode_row,
    encode_row,
    row_with_field,
)
from repro.sqlstore.wal import LogOp, WriteAheadLog

DEFAULT_POOL_PAGES = 4096  # scaled-down functional default (32 MB)


def decode_entry(key: str, data: bytes) -> dict[str, str]:
    """One scanned ``(key, row bytes)`` entry as the row a scan returns:
    the decoded columns plus the clustering key under ``_key``."""
    row = decode_row(data)
    row["_key"] = key
    return row


class SqlServerNode:
    """A single-node SQL Server instance serving YCSB-style operations."""

    def __init__(
        self,
        name: str = "sql",
        pool_pages: int = DEFAULT_POOL_PAGES,
        isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
        checkpoint_interval_ops: int = 10_000,
        blocking_locks: bool = False,
        tracer=None,
        metrics=None,
        sampler=None,
    ):
        from repro.sqlstore.locks import BlockingLockManager

        self.name = name
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        self.lock_wait_events = 0
        self.isolation = isolation
        self.pages = PageManager()
        self.pool = BufferPool(pool_pages)
        self.wal = WriteAheadLog()
        self.locks = BlockingLockManager() if blocking_locks else LockManager()
        self.index = BTree()  # key -> page_id
        self.checkpoint_interval_ops = checkpoint_interval_ops
        self._next_txid = 1
        self._ops_since_checkpoint = 0
        self.ops = 0
        self.alive = True
        self._last_wait_span: dict = {}  # lock key -> last lock.wait span
        self._last_checkpoint_span = None

    def kill(self) -> None:
        """Fault injection: the server process stops accepting connections."""
        self.alive = False

    def restart(self) -> None:
        """The operator restarts the process; committed state is durable."""
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise ServerCrashed(f"{self.name} is down")

    def _begin(self) -> int:
        txid = self._next_txid
        self._next_txid += 1
        self.wal.append(txid, LogOp.BEGIN)
        return txid

    def _commit(self, txid: int) -> None:
        self.wal.append(txid, LogOp.COMMIT)
        self.wal.flush()  # durability: the log is forced at commit
        self.locks.release_all(txid)
        self._tick()

    def _tick(self) -> None:
        self.ops += 1
        self._ops_since_checkpoint += 1
        if self.metrics:
            self.metrics.counter("sqlstore.ops").inc()
        if self.sampler:
            # Gauges on the logical op clock: the running buffer-pool hit
            # rate and the fraction of ops that hit a lock wait so far.
            clock = float(self.ops)
            self.sampler.sample(self.name, "bufferpool-hit", clock,
                                self.pool.hit_rate)
            self.sampler.sample(self.name, "lock-wait-fraction", clock,
                                self.lock_wait_events / self.ops)
        if self._ops_since_checkpoint >= self.checkpoint_interval_ops:
            self.checkpoint()

    def _access(self, page_id: int, dirty: bool = False) -> bool:
        """Buffer-pool access; a miss is a page read off disk (span + IO)."""
        hit = self.pool.access(page_id, dirty=dirty)
        if not hit:
            if self.tracer:
                clock = float(self.ops)
                self.tracer.add(
                    "page.read", clock, clock + 1.0,
                    cat="io", node=self.name, lane="buffer-pool",
                    page=page_id, bytes=PAGE_SIZE,
                )
            if self.metrics:
                self.metrics.counter("sqlstore.page_reads").inc()
                self.metrics.counter("sqlstore.read_io_bytes").inc(PAGE_SIZE)
        return hit

    def _acquire(self, txid: int, key: str, mode: LockMode) -> None:
        """Lock acquisition; a conflict becomes a lock-wait span."""
        try:
            self.locks.acquire(txid, key, mode)
        except (LockWait, TransactionAborted):
            self.lock_wait_events += 1
            if self.tracer:
                clock = float(self.ops)
                span = self.tracer.add(
                    "lock.wait", clock, clock + 1.0,
                    cat="lock", node=self.name, lane="locks",
                    key=key, mode=mode.value,
                )
                # Waiters on the same key queue behind each other: a
                # lock-handoff chain per contended key.  (Waits within the
                # same logical tick have no order, so no link.)
                prev = self._last_wait_span.get(key)
                if prev is not None and prev.end <= span.start + 1e-9:
                    self.tracer.link(prev, span, "lock-handoff")
                self._last_wait_span[key] = span
            if self.metrics:
                self.metrics.counter("sqlstore.lock_waits").inc()
            raise

    def checkpoint(self) -> int:
        """Write back all dirty pages and truncate the log."""
        written = self.pool.flush_all()
        for page in self.pages.dirty_pages():
            page.dirty = False
        self.wal.checkpoint()
        self._ops_since_checkpoint = 0
        if self.tracer:
            clock = float(self.ops)
            span = self.tracer.add(
                "checkpoint", clock, clock,
                cat="checkpoint", node=self.name, lane="checkpoint",
                pages=written,
            )
            # Checkpoints form their own causal sequence: each one flushes
            # the dirty pages accumulated since the previous.
            if self._last_checkpoint_span is not None:
                self.tracer.link(self._last_checkpoint_span, span, "seq")
            self._last_checkpoint_span = span
        if self.metrics:
            self.metrics.counter("sqlstore.checkpoints").inc()
            self.metrics.counter("sqlstore.checkpoint_pages").inc(written)
        return written

    # -- operations -----------------------------------------------------------------

    def insert(self, key: str, record: dict[str, str]) -> None:
        self._check_alive()
        txid = self._begin()
        data = encode_row(record)
        if len(data) > MAX_ROW_BYTES:
            raise StorageError("row larger than a page")
        self._acquire(txid, key, LockMode.EXCLUSIVE)
        if key in self.index:
            self.locks.release_all(txid)
            raise StorageError(f"duplicate key {key!r}")
        page = self.pages.page_for_insert(data)
        page.put(key, data)
        self.index.insert(key, page.page_id)
        self._access(page.page_id, dirty=True)
        self.wal.append(txid, LogOp.INSERT, key=key, after=data)
        self._commit(txid)

    def read(self, key: str) -> Optional[dict[str, str]]:
        self._check_alive()
        txid = self._begin()
        try:
            if self.isolation is IsolationLevel.READ_COMMITTED:
                self._acquire(txid, key, LockMode.SHARED)
            page_id = self.index.get(key)
            if page_id is None:
                return None
            self._access(page_id)
            data = self.pages.get(page_id).get(key)
            return decode_row(data) if data is not None else None
        finally:
            self._commit(txid)

    def update(self, key: str, fieldname: str, value: str) -> bool:
        self._check_alive()
        txid = self._begin()
        try:
            self._acquire(txid, key, LockMode.EXCLUSIVE)
            page_id = self.index.get(key)
            if page_id is None:
                return False
            self._access(page_id, dirty=True)
            page = self.pages.get(page_id)
            before = page.get(key)
            after = row_with_field(before, fieldname, value)
            if len(after) > MAX_ROW_BYTES:
                raise StorageError("row larger than a page")
            if page.fits(after, before):
                page.put(key, after)
            else:
                # The grown row no longer fits its page: move it to the
                # insertion target and repoint the index.
                page.delete(key)
                page = self.pages.page_for_insert(after)
                page.put(key, after)
                self.index.insert(key, page.page_id)
                self._access(page.page_id, dirty=True)
            self.wal.append(txid, LogOp.UPDATE, key=key, before=before, after=after)
            return True
        finally:
            self._commit(txid)

    def remove(self, key: str) -> bool:
        """Delete one row transactionally (used by elastic shard handoff)."""
        self._check_alive()
        txid = self._begin()
        try:
            self._acquire(txid, key, LockMode.EXCLUSIVE)
            page_id = self.index.get(key)
            if page_id is None:
                return False
            self._access(page_id, dirty=True)
            page = self.pages.get(page_id)
            before = page.get(key)
            page.delete(key)
            self.index.delete(key)
            self.wal.append(txid, LogOp.DELETE, key=key, before=before)
            return True
        finally:
            self._commit(txid)

    def keys_in_range(self, low: str, high: str) -> list[str]:
        """All keys in [low, high), sorted — migration snapshot enumeration.

        Metadata-only (walks the index, touches no pages); the data-plane
        cost of actually moving the rows is modelled by the migration
        engine's throttled copy batches.
        """
        self._check_alive()
        return [k for k, _ in self.index.items() if low <= k < high]

    def scan_entries(self, start_key: str, count: int) -> list[tuple[str, bytes]]:
        """A range scan as one transaction that leaves decoding to the
        caller: ``(key, row bytes)`` entries in key order, each S-locked and
        read through the buffer pool, so a merging client decodes only the
        rows it keeps (:func:`decode_entry`)."""
        self._check_alive()
        txid = self._begin()
        try:
            out = []
            for key, page_id in self.index.range_scan(start_key, count):
                if self.isolation is IsolationLevel.READ_COMMITTED:
                    self._acquire(txid, key, LockMode.SHARED)
                self._access(page_id)
                out.append((key, self.pages.get(page_id).get(key)))
            return out
        finally:
            self._commit(txid)

    def scan(self, start_key: str, count: int) -> list[dict[str, str]]:
        return [decode_entry(key, data)
                for key, data in self.scan_entries(start_key, count)]

    @property
    def row_count(self) -> int:
        return len(self.index)
