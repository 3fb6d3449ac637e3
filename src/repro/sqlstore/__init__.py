"""SQL Server model: pages, buffer pool, WAL, locks, server, SQL-CS cluster."""

from repro.sqlstore.bufferpool import BufferPool
from repro.sqlstore.cluster import SqlCsCluster
from repro.sqlstore.locks import IsolationLevel, LockManager, LockMode
from repro.sqlstore.pages import (
    PAGE_SIZE,
    Page,
    PageManager,
    decode_row,
    encode_row,
    row_with_field,
)
from repro.sqlstore.server import SqlServerNode
from repro.sqlstore.wal import LogOp, LogRecord, WriteAheadLog

__all__ = [
    "BufferPool",
    "SqlCsCluster",
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "PAGE_SIZE",
    "Page",
    "PageManager",
    "decode_row",
    "encode_row",
    "row_with_field",
    "SqlServerNode",
    "LogOp",
    "LogRecord",
    "WriteAheadLog",
]
