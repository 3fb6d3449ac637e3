"""Write-ahead logging with periodic checkpoints.

SQL Server flushes the log at commit (full durability — the paper stresses
that SQL ran with ACID semantics while MongoDB ran with journaling off) and
periodically checkpoints dirty pages, which is the throughput dip the paper
observed in workload B ("during the checkpointing interval the throughput
decreases to 7,000-8,000 ops/sec").
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from repro.common.errors import StorageError


class LogOp(Enum):
    BEGIN = "begin"
    UPDATE = "update"
    INSERT = "insert"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


#: Bytes every log record takes before its key and images.
HEADER_BYTES = 32


def record_size(key, before, after) -> int:
    """A log record's bytes: the header plus the UTF-8 or raw length of
    each payload present (key, before image, after image)."""
    size = HEADER_BYTES
    for payload in (key, before, after):
        if payload is not None:
            size += len(payload) if isinstance(payload, bytes) else len(payload.encode())
    return size


class LogRecord(NamedTuple):
    """One immutable log record (a named tuple: cheap to build, one per
    logged operation)."""

    lsn: int
    txid: int
    op: LogOp
    key: Optional[str] = None
    before: Optional[bytes] = None
    after: Optional[bytes] = None

    @property
    def byte_size(self) -> int:
        return record_size(self.key, self.before, self.after)


class WriteAheadLog:
    """An append-only log with flush-at-commit and checkpoint truncation."""

    def __init__(self):
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        self.flushed_lsn = 0
        self.bytes_written = 0
        self.flushes = 0
        self.checkpoints = 0

    def append(self, txid: int, op: LogOp, key=None, before=None, after=None) -> LogRecord:
        record = LogRecord(self._next_lsn, txid, op, key, before, after)
        self._next_lsn += 1
        self._records.append(record)
        self.bytes_written += record_size(key, before, after)
        return record

    def flush(self) -> None:
        """Force the log to stable storage (called at every commit)."""
        if self._records:
            self.flushed_lsn = self._records[-1].lsn
        self.flushes += 1

    def checkpoint(self) -> None:
        """Record a checkpoint and truncate records no longer needed."""
        self.append(0, LogOp.CHECKPOINT)
        self.flush()
        self.checkpoints += 1
        # All earlier records are reclaimable once dirty pages are on disk.
        self._records = self._records[-1:]

    @property
    def record_count(self) -> int:
        return len(self._records)

    def records_since(self, lsn: int) -> list[LogRecord]:
        return [r for r in self._records if r.lsn > lsn]

    def replay_committed(self) -> dict[str, bytes]:
        """Redo pass: the after-images of committed transactions, in order.

        Used by the crash-recovery test: uncommitted transactions' effects
        must not survive.
        """
        committed = {
            r.txid for r in self._records
            if r.op is LogOp.COMMIT and r.lsn <= self.flushed_lsn
        }
        images: dict[str, bytes] = {}
        for record in self._records:
            if record.lsn > self.flushed_lsn:
                break
            if record.op in (LogOp.UPDATE, LogOp.INSERT) and record.txid in committed:
                if record.key is None or record.after is None:
                    raise StorageError("malformed log record")
                images[record.key] = record.after
        return images
