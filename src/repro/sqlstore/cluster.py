"""SQL-CS: the paper's client-side hash-sharded SQL Server deployment.

The client hashes each key to one of the server nodes (the same crc32
routing Mongo-CS uses, so the two are directly comparable); scans must be
broadcast to every node and merged, which is why SQL-CS loses workload E to
the range-partitioned Mongo-AS.

Routing, elastic resharding, shard-failure mapping, the broadcast scan and
the replication surface are :class:`~repro.docstore.cluster.HashShardedCluster`'s,
shared with Mongo-CS, so the two differ only in the storage engine.  This
module supplies the SQL Server side: how to build a shard and the one-shard
storage calls.  Under ``elastic=True`` each handed-off arc is copied row by
row through real transactions (X locks, WAL DELETE records on the source),
so the elephants pay full ACID freight for their elasticity.
"""

from __future__ import annotations

from repro.docstore.cluster import HashShardedCluster
from repro.sqlstore.locks import IsolationLevel
from repro.sqlstore.server import SqlServerNode

_KEY_MAX = "￿"  # sorts after every YCSB key


class SqlCsCluster(HashShardedCluster):
    """Client-side sharded SQL Server (one SqlServerNode per shard)."""

    _key_field = "_key"

    def __init__(
        self,
        shard_count: int = 8,
        pool_pages: int = 4096,
        isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
        mirrored: bool = False,
        tracer=None,
        metrics=None,
        elastic: bool = False,
    ):
        self.mirrored = mirrored
        self.pool_pages = pool_pages
        self.isolation = isolation
        # A mirrored shard keeps ack bookkeeping, but commits synchronously:
        # there is no replica clock to tick.
        super().__init__(shard_count, tracer=tracer, metrics=metrics,
                         acked=mirrored, elastic=elastic)

    def _build_shard(self, index: int):
        if self.mirrored:
            from repro.sqlstore.mirroring import MirroredSqlServerNode

            return MirroredSqlServerNode(
                f"sql-{index}", pool_pages=self.pool_pages,
                isolation=self.isolation,
            )
        return SqlServerNode(
            f"sql-{index}", pool_pages=self.pool_pages,
            isolation=self.isolation,
        )

    def _insert(self, shard: int, key: str, record: dict) -> None:
        self.shards[shard].insert(key, record)

    def _read(self, shard: int, key: str) -> dict | None:
        return self.shards[shard].read(key)

    def _update(self, shard: int, key: str, fieldname: str, value: str) -> bool:
        return self.shards[shard].update(key, fieldname, value)

    def _scan(self, shard: int, start_key: str, count: int) -> list[dict]:
        return self.shards[shard].scan(start_key, count)

    def _keys(self, shard: int) -> list[str]:
        return self.shards[shard].keys_in_range("", _KEY_MAX)

    def _remove(self, shard: int, key: str) -> bool:
        return self.shards[shard].remove(key)

    @property
    def row_count(self) -> int:
        return sum(s.row_count for s in self.shards)
