"""SQL Server synchronous database mirroring (log-shipping HA).

The paper's SQL Server deployments were single nodes per shard — durable
through the force-at-commit WAL, but a dead node takes its key range down
exactly like the paper's bare mongods.  This module adds the production
counterpart the Elephants actually ship: synchronous mirroring, where every
commit's log records are hardened on a mirror before the client is
acknowledged, so a principal crash loses *nothing* and the mirror promotes
immediately.

Functionally, the mirror replays each committed operation as it commits on
the principal (redo shipping); the latency cost of the synchronous round
trip is surfaced through :meth:`consume_ack_delay` so the YCSB runner can
charge it on the virtual clock.  Contrast with the Mongo replica set, where
``safe``-mode acks race the 100 ms journal flush and a failover can roll
acknowledged writes back.
"""

from __future__ import annotations

from repro.common.errors import ServerCrashed
from repro.replication.replicaset import LastWrite
from repro.sqlstore.locks import IsolationLevel
from repro.sqlstore.server import SqlServerNode

#: Default synchronous-commit round trip to the mirror (seconds).
MIRROR_COMMIT_LATENCY = 0.001


class MirroredSqlServerNode:
    """A principal/mirror pair with synchronous commit and auto-failover.

    Presents the same surface as a bare :class:`SqlServerNode` (``insert``,
    ``read``, ``update``, ``scan``, ``remove``, ``keys_in_range``, ``kill``,
    ``restart``, ``row_count``, ``alive``) so
    :class:`repro.sqlstore.cluster.SqlCsCluster` can use one per shard
    unchanged; its ack bookkeeping (``consume_ack_delay``,
    ``take_last_write``) feeds the replication surface the cluster shares
    with Mongo-CS through
    :class:`~repro.docstore.cluster.HashShardedCluster`.  ``kill`` downs
    the current principal; if the mirror is up it promotes at once, so the
    client sees retries at worst, never lost committed writes.
    """

    def __init__(
        self,
        name: str = "sql",
        pool_pages: int = 4096,
        isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
        mirror_commit_latency: float = MIRROR_COMMIT_LATENCY,
    ):
        self.name = name
        self.principal = SqlServerNode(
            f"{name}.principal", pool_pages=pool_pages, isolation=isolation
        )
        self.mirror = SqlServerNode(
            f"{name}.mirror", pool_pages=pool_pages, isolation=isolation
        )
        self.mirror_commit_latency = mirror_commit_latency
        self.failovers = 0
        self._last_ack_delay = 0.0
        self._last_write: LastWrite | None = None

    # -- mirroring ----------------------------------------------------------------

    def _ship(self, operation) -> None:
        """Synchronous commit: the mirror hardens the op before the ack."""
        if self.mirror.alive:
            operation(self.mirror)
            self._last_ack_delay = self.mirror_commit_latency
        else:
            # Degraded (mirror down): the principal keeps serving alone,
            # which is how SQL Server's high-safety mode behaves once the
            # witness confirms the partner is gone.
            self._last_ack_delay = 0.0

    def consume_ack_delay(self) -> float:
        delay, self._last_ack_delay = self._last_ack_delay, 0.0
        return delay

    def take_last_write(self) -> LastWrite | None:
        write, self._last_write = self._last_write, None
        return write

    # -- operations ---------------------------------------------------------------

    def insert(self, key: str, record: dict) -> None:
        self.principal.insert(key, record)
        self._ship(lambda node: node.insert(key, record))
        self._last_write = LastWrite(
            seq=self.principal.ops, op="insert", collection="usertable",
            key=key, fieldname=None, value=None, write_time=0.0,
            ack_time=0.0, concern="mirrored",
        )

    def read(self, key: str):
        return self.principal.read(key)

    def update(self, key: str, fieldname: str, value: str) -> bool:
        ok = self.principal.update(key, fieldname, value)
        if ok:
            self._ship(lambda node: node.update(key, fieldname, value))
            self._last_write = LastWrite(
                seq=self.principal.ops, op="update", collection="usertable",
                key=key, fieldname=fieldname, value=value, write_time=0.0,
                ack_time=0.0, concern="mirrored",
            )
        return ok

    def remove(self, key: str) -> bool:
        ok = self.principal.remove(key)
        if ok:
            self._ship(lambda node: node.remove(key))
        return ok

    def keys_in_range(self, low: str, high: str) -> list[str]:
        return self.principal.keys_in_range(low, high)

    def scan(self, start_key: str, count: int) -> list[dict]:
        return self.principal.scan(start_key, count)

    @property
    def row_count(self) -> int:
        return self.principal.row_count

    @property
    def alive(self) -> bool:
        return self.principal.alive

    # -- failover -----------------------------------------------------------------

    def kill(self) -> None:
        """Down the principal; the mirror (if up) promotes immediately."""
        self.principal.kill()
        if self.mirror.alive:
            self.principal, self.mirror = self.mirror, self.principal
            self.failovers += 1

    def restart(self) -> None:
        """Restart whichever partner is down and resync it from the principal."""
        if not self.principal.alive and not self.mirror.alive:
            # Total outage: bring the principal back from its durable log.
            self.principal.restart()
        if not self.mirror.alive:
            self.mirror = self._resync_mirror()

    def _resync_mirror(self) -> SqlServerNode:
        """Rebuild the mirror as a full copy of the principal's rows.

        (A restore-plus-log-tail in real SQL Server; here the principal's
        current committed state *is* that restore, since every committed
        write is already applied in place.)
        """
        fresh = SqlServerNode(
            self.mirror.name,
            pool_pages=self.mirror.pool.capacity,
            isolation=self.mirror.isolation,
        )
        count = self.principal.row_count
        for row in (self.principal.scan("", count) if count else []):
            key = row.pop("_key")
            fresh.insert(key, row)
        return fresh

    def crash_principal_and_verify(self) -> int:
        """Test hook: kill the principal, return rows visible after failover."""
        self.kill()
        if not self.principal.alive:
            raise ServerCrashed(f"{self.name}: no surviving partner")
        return self.principal.row_count
