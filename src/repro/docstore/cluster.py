"""The two MongoDB deployments the paper benchmarks, and the sharded-cluster
bases they share with SQL-CS.

* :class:`MongoAsCluster` — the stock deployment: 128 mongod shards behind
  mongos routers, a config server holding range-partitioned chunks, auto
  split, and a balancer.  Range partitioning is what wins workload E (a
  short scan touches one chunk) and what melts down on appends (every new
  key lands in the last chunk — one hot shard).
* :class:`MongoCsCluster` — the authors' client-side variant: the same
  mongod processes, but the client hash-routes keys itself; no mongos, no
  config server, no balancer, and scans must broadcast to every shard.
  Each shard returns its ``count`` entries still encoded; the client
  merges them on keys and decodes only the rows it returns.

The paper runs Mongo-CS and SQL-CS (:class:`repro.sqlstore.cluster.SqlCsCluster`)
under the same client-side hash sharding, so only the storage engine
differs.  That sameness lives in one place: :class:`ShardedCluster` holds
what all three deployments share (the shard list, the typed shard-failure
mapping, fault hooks, live-resharding plumbing, the replication surface)
and :class:`HashShardedCluster` adds what the two hash-sharded ones share
(mod-N or ring routing, arc handoffs, the broadcast scan, point ops).  A
deployment supplies only how to build a shard and a few one-shard storage
calls.

Every cluster optionally supports **live elastic resharding**: attach a
:class:`~repro.docstore.reshard.MigrationEngine` and call
``scale_to``/``drain_shard`` mid-run.  Mongo-AS hands off range chunks; the
hash-sharded clusters (constructed with ``elastic=True``) hand off
consistent-hash-ring arcs — the range-vs-hash elasticity comparison the
reshard report measures.  Without an engine attached nothing changes:
routing, placement, and every counter behave exactly as before.
"""

from __future__ import annotations

import heapq
import zlib
from itertools import islice
from operator import itemgetter

from repro.common.errors import (
    ChunkMoving,
    ConfigurationError,
    ServerCrashed,
    ShardUnavailable,
    ShardingError,
    StaleConfigError,
)
from repro.docstore import bson
from repro.docstore.chunks import (
    Balancer,
    Chunk,
    ConfigServer,
    MongosRouter,
    migrate_chunk,
)
from repro.docstore.mongod import Mongod
from repro.docstore.reshard import Migration, MigrationEngine
from repro.docstore.ring import HashRing, vnode_point

DEFAULT_COLLECTION = "usertable"


def hash_shard(key: str, shard_count: int) -> int:
    """Deterministic client-side hash routing (crc32, stable across runs)."""
    return zlib.crc32(key.encode("utf-8")) % shard_count


class ShardedCluster:
    """What every functional deployment shares: the shard list, the typed
    shard-failure mapping, fault hooks, live-resharding plumbing (inert
    until an engine is attached), and the replication surface.

    A subclass supplies ``_build_shard(index)``, ``_remove(shard, key)``
    (the post-flip stray delete), ``_shard_share(shard)`` (the engine's IO
    model) and ``_plan_handoffs(changed, adding, now)`` (the migrations a
    scale-up or drain queues).

    ``replication`` makes every shard a replica set, ticked with the run
    clock; ``acked`` marks shards that keep write-concern bookkeeping
    without a clock (SQL Server mirroring pairs).
    """

    def __init__(self, shard_count: int, tracer=None, metrics=None,
                 replication=None, seed: int = 0, acked: bool = False):
        if shard_count < 1:
            raise ShardingError("need at least one shard")
        self.tracer = tracer
        self.metrics = metrics
        self.replication = replication
        self._acked = acked or replication is not None
        self._seed = seed
        self._engine: MigrationEngine | None = None
        self._retired: set[int] = set()
        self._pending_cleanup: list[tuple[int, list[str]]] = []
        self._pending_io = 0.0
        self._now = 0.0
        self.shards = [self._build_shard(i) for i in range(shard_count)]

    # -- shard access -------------------------------------------------------------

    def _on_shard(self, index: int, operation):
        """Run one shard call; a dead server surfaces as the typed routing
        failure the client sees (the shard is *unavailable*, not failing
        over — the paper's deployments had no replicas)."""
        try:
            return operation()
        except ServerCrashed as exc:
            raise ShardUnavailable(
                f"shard {index} ({self.shards[index].name}) is unavailable: {exc}",
                shard=index,
            ) from exc

    def kill_shard(self, index: int) -> None:
        """Fault injection: one shard server stops responding.  A replica-set
        shard loses its current *primary* (which triggers a failover), a
        mirrored SQL shard its principal (the mirror promotes)."""
        self.shards[index].kill()

    def restart_shard(self, index: int) -> None:
        """The operator brings the dead server back (data intact on disk)."""
        self.shards[index].restart()

    # -- live resharding ----------------------------------------------------------

    @property
    def reshard_engine(self) -> MigrationEngine | None:
        return self._engine

    @property
    def retired_shards(self) -> set[int]:
        return set(self._retired)

    def attach_reshard(self, throttle: float = 1.0,
                       offered_load: float = 0.7) -> MigrationEngine:
        """Create and wire the engine that executes handoffs live."""
        self._engine = MigrationEngine(
            self._shard_share, len(self.shards), throttle=throttle,
            offered_load=offered_load, tracer=self.tracer,
            metrics=self.metrics,
        )
        return self._engine

    def _require_engine(self) -> MigrationEngine:
        if self._engine is None:
            raise ConfigurationError(
                "live resharding requires a migration engine "
                "(run with --reshard, or call attach_reshard())"
            )
        return self._engine

    def scale_to(self, count: int, now: float = 0.0) -> int:
        """Grow to ``count`` total shards; returns the migrations queued.

        The new shards start empty and cold — data only arrives through the
        throttled engine, so the capacity gain phases in as commits land.
        """
        self._require_engine()
        if count <= len(self.shards):
            raise ShardingError(
                f"scale target {count} does not grow the {len(self.shards)}-"
                f"shard cluster; use drain_shard to scale down"
            )
        added = list(range(len(self.shards), count))
        self.shards.extend(self._build_shard(i) for i in added)
        return self._plan_handoffs(added, adding=True, now=now)

    def drain_shard(self, index: int, now: float = 0.0) -> int:
        """Evacuate and retire one shard; returns the migrations queued."""
        self._require_engine()
        if not 0 <= index < len(self.shards):
            raise ShardingError(f"no shard {index} to drain")
        if index in self._retired:
            raise ShardingError(f"shard {index} is already drained")
        if len(self.shards) - len(self._retired) < 2:
            raise ShardingError("cannot drain the last active shard")
        self._retired.add(index)
        return self._plan_handoffs([index], adding=False, now=now)

    def _guard_moving(self, key: str) -> None:
        if self._engine is None:
            return
        frozen = self._engine.frozen_shard(key, self._now)
        if frozen is not None:
            raise ChunkMoving(
                f"key {key!r} is inside a migration commit window",
                shard=frozen,
            )

    def _charge_io(self, shard: int) -> None:
        if self._engine is not None:
            self._pending_io += self._engine.op_cost(shard, self._now)

    def _note_write(self, key: str) -> None:
        if self._engine is not None:
            self._engine.note_write(key)

    def consume_io_wait(self) -> float:
        """Disk-queueing + utilization latency owed by the ops since the
        last call (zero unless a migration engine is attached)."""
        owed, self._pending_io = self._pending_io, 0.0
        return owed

    def _retry_cleanup(self) -> None:
        """Delete migrated-away strays once their shard is reachable again.

        Source-side deletes always run *after* the ownership flip, so a
        crash can only ever leave extra copies that routing no longer sees —
        never lose the authoritative one."""
        if not self._pending_cleanup:
            return
        remaining = []
        for shard_index, keys in self._pending_cleanup:
            try:
                for key in keys:
                    self._remove(shard_index, key)
            except ServerCrashed:
                remaining.append((shard_index, keys))
        self._pending_cleanup = remaining

    def _drain_backfill_noise(self, *shard_indices: int) -> None:
        """Migration traffic must not leak into client-facing replication
        bookkeeping: absorb ack delays and last-write records the engine's
        copies produced on replicated shards."""
        if not self._acked:
            return
        for index in shard_indices:
            shard = self.shards[index]
            shard.consume_ack_delay()
            while shard.take_last_write() is not None:
                pass

    # -- replication surface (no-ops without replicas) ---------------------------

    def tick(self, now: float) -> None:
        """Advance the virtual clock: migrations, then replica-set oplogs
        (SQL mirroring is synchronous, so its shards accrue nothing)."""
        self._now = max(self._now, now)
        if self._engine is not None:
            self._engine.advance(self._now)
            self._retry_cleanup()
        if self.replication is not None:
            for shard in self.shards:
                shard.tick(now)

    def consume_ack_delay(self) -> float:
        """Write-concern latency owed by the most recent write, if any."""
        if not self._acked:
            return 0.0
        return sum(s.consume_ack_delay() for s in self.shards)

    def take_last_write(self):
        """The acknowledged-write record of the most recent write, if any."""
        if not self._acked:
            return None
        for shard in self.shards:
            write = shard.take_last_write()
            if write is not None:
                return write
        return None


class HashShardedCluster(ShardedCluster):
    """Client-side hash sharding, shared by Mongo-CS and SQL-CS.

    ``elastic=True`` swaps the paper's mod-N routing for a consistent-hash
    ring with the *same* crc32 key hash, which is what makes live scaling
    possible: resizing mod-N reshuffles nearly every key, while the ring
    only hands off the arcs the new topology claims.  Placement differs
    from mod-N, so elastic mode is opt-in (reshard scenarios) and the
    default stays byte-identical to the paper's deployment.

    A subclass supplies the one-shard storage calls ``_insert``, ``_read``,
    ``_update``, ``_scan_entries`` (``(key, encoded)`` entries in key
    order), ``_keys`` (every key on the shard) and ``_remove``, plus
    ``_decode(key, data)``, which turns one kept entry into a scan row, and
    the arc handoff's copy step: ``_copy_out(shard, key)`` reads one row in
    the form the store copies it (None if absent) and ``_copy_in(shard,
    key, item)`` writes it to the new owner.
    """

    def __init__(self, shard_count: int, *, elastic: bool = False, **kwargs):
        super().__init__(shard_count, **kwargs)
        self.ring: HashRing | None = (
            HashRing(range(shard_count)) if elastic else None
        )

    # -- live resharding ----------------------------------------------------------

    def attach_reshard(self, throttle: float = 1.0,
                       offered_load: float = 0.7) -> MigrationEngine:
        if self.ring is None:
            raise ConfigurationError(
                "live resharding needs the consistent-hash ring; construct "
                "the cluster with elastic=True"
            )
        return super().attach_reshard(throttle, offered_load)

    def _shard_share(self, shard: int) -> float:
        """Hash routing spreads by ring arc, not data: the share is the
        fraction of the ring the shard owns (uniform-ish by construction)."""
        if self.ring is None:
            return 1.0 / len(self.shards)
        return self.ring.shares().get(shard, 0.0)

    def _plan_handoffs(self, changed: list[int], adding: bool,
                       now: float) -> int:
        """Reshape the ring to the active shards; queue one migration per
        (source, dest) pair whose arcs change hands.

        Because both rings hash the same vnode points, every arc a changed
        node gains or loses has exactly one owner on the other ring, so the
        pair set is computable from ring geometry alone — no key inventory
        needed.  Membership is the pure predicate "old ring says source AND
        new ring says dest", which automatically covers keys inserted while
        the handoff is still queued.
        """
        old_ring = self.ring
        new_ring = self.ring = old_ring.with_nodes(
            [i for i in range(len(self.shards)) if i not in self._retired])
        pairs: set[tuple[int, int]] = set()
        for node in changed:
            for replica in range(old_ring.vnodes):
                point = vnode_point(node, replica)
                if adding:
                    pairs.add((old_ring.owner_of_hash(point), node))
                else:
                    pairs.add((node, new_ring.owner_of_hash(point)))
        queued = 0
        for source, dest in sorted(p for p in pairs if p[0] != p[1]):
            def covers(key: str, s=source, d=dest) -> bool:
                return (old_ring.node_for(key) == s
                        and new_ring.node_for(key) == d)
            self._engine.submit(Migration(
                source=source, target=dest,
                label=f"arc@{source}->{dest}",
                covers=covers,
                count_docs=lambda s=source, c=covers: len(
                    self._keys_on(s, c)),
                commit=lambda s=source, d=dest, c=covers:
                    self._commit_arc(s, d, c),
            ), now)
            queued += 1
        return queued

    def _keys_on(self, shard: int, covers) -> list[str]:
        try:
            keys = self._keys(shard)
        except ServerCrashed:
            return []  # sizing only; the commit path retries until reachable
        return [k for k in keys if covers(k)]

    def _commit_arc(self, source: int, dest: int, covers) -> int:
        """Atomically copy an arc's rows to their new owner.

        Source-side deletes are *deferred* to the post-flip cleanup queue:
        ownership flips the moment this returns, so deleting first could
        strand a read between a partial delete and the flip.  Until cleanup
        runs, the strays are invisible — routing prefers the new owner and
        elastic scans filter every row through current ownership.

        A dead source must raise here (not return an empty snapshot): a
        vacuous commit would flip ownership away from rows that still only
        exist on the crashed shard — exactly the acknowledged-write loss
        the abort path exists to prevent.
        """
        try:
            keys = [k for k in self._keys(source) if covers(k)]
        except ServerCrashed as exc:
            raise ShardUnavailable(
                f"arc handoff aborted: source shard {source} is "
                f"unavailable: {exc}", shard=source,
            ) from exc
        copied: list[str] = []
        try:
            for key in keys:
                item = self._copy_out(source, key)
                if item is None:
                    continue
                self._remove(dest, key)
                self._copy_in(dest, key, item)
                copied.append(key)
        except ServerCrashed as exc:
            try:
                for key in copied:
                    self._remove(dest, key)
            except ServerCrashed:
                pass  # dest died holding strays; the next attempt clears them
            dead = dest if not self._alive(dest) else source
            raise ShardUnavailable(
                f"arc handoff aborted: shard {dead} is unavailable: {exc}",
                shard=dead,
            ) from exc
        finally:
            self._drain_backfill_noise(source, dest)
        if copied:
            self._pending_cleanup.append((source, copied))
        return len(copied)

    def _alive(self, index: int) -> bool:
        shard = self.shards[index]
        alive = getattr(shard, "alive", True)
        return alive() if callable(alive) else bool(alive)

    # -- routing --------------------------------------------------------------------

    def _shard_index(self, key: str) -> int:
        if self.ring is None:
            return hash_shard(key, len(self.shards))
        if self._engine is not None and not self._engine.idle:
            override = self._engine.route_override(key)
            if override is not None:
                return override  # mid-handoff keys stay with the old owner
        return self.ring.node_for(key)

    def _owner(self, key: str) -> int:
        """Route one point op: bounce it inside a commit window, charge the
        migration IO it queues behind, and return its shard."""
        self._guard_moving(key)
        index = self._shard_index(key)
        self._charge_io(index)
        return index

    def insert(self, key: str, record: dict) -> None:
        index = self._owner(key)
        self._on_shard(index, lambda: self._insert(index, key, record))
        self._note_write(key)

    def read(self, key: str) -> dict | None:
        index = self._owner(key)
        return self._on_shard(index, lambda: self._read(index, key))

    def update(self, key: str, fieldname: str, value: str) -> bool:
        index = self._owner(key)
        changed = self._on_shard(
            index, lambda: self._update(index, key, fieldname, value)
        )
        if changed:
            self._note_write(key)
        return changed

    def scan(self, start_key: str, count: int) -> list[dict]:
        """Hash sharding scatters ranges: every shard must be queried, and
        each returns ``count`` entries.  Each key lives on exactly one shard
        (once strays are filtered), so merging the key-ordered lists on keys
        gives the scan order, and only the first ``count`` are decoded."""
        partials: list[list[tuple]] = []
        for index in range(len(self.shards)):
            if index in self._retired and self.ring is not None:
                continue  # a drained shard holds at most already-moved strays
            entries = self._on_shard(
                index, lambda i=index: self._scan_entries(i, start_key, count)
            )
            if self.ring is not None:
                # Elastic mode can leave short-lived strays (post-flip,
                # pre-cleanup); ownership filtering keeps scans exact.
                entries = [e for e in entries
                           if self._shard_index(e[0]) == index]
            partials.append(entries)
        merged = heapq.merge(*partials, key=itemgetter(0))
        return [self._decode(key, data)
                for key, data in islice(merged, max(count, 0))]

    def shards_touched_by_scan(self, start_key: str, count: int) -> int:
        return len(self.shards) - len(self._retired)


class _MongoShards:
    """Mongo storage: one mongod per shard (a replica set with
    ``replication``), documents keyed by ``_id`` in one collection."""

    def _build_shard(self, index: int):
        if self.replication is None:
            # Paper-faithful (§3.4.1): bare mongods, no failover.
            return Mongod(f"mongod-{index}", tracer=self.tracer,
                          metrics=self.metrics, sampler=self.sampler)
        # Failover: the driver retries until the new primary is elected.
        return self.replication.build_shard(
            f"rs-{index}", seed=self._seed, tracer=self.tracer)

    def _insert(self, shard: int, key: str, record: dict) -> None:
        self.shards[shard].insert(self.collection, {"_id": key, **record})

    def _read(self, shard: int, key: str) -> dict | None:
        document = self.shards[shard].find_one(self.collection, key)
        if document is not None:
            document = {k: v for k, v in document.items() if k != "_id"}
        return document

    def _update(self, shard: int, key: str, fieldname: str, value) -> bool:
        return self.shards[shard].update(self.collection, key, fieldname, value)

    # An arc handoff copies the stored BSON bytes, neither decoded nor
    # re-encoded (the document carries its own _id).
    def _copy_out(self, shard: int, key: str) -> bytes | None:
        return self.shards[shard].find_encoded(self.collection, key)

    def _copy_in(self, shard: int, key: str, data: bytes) -> None:
        self.shards[shard].insert_encoded(self.collection, key, data)

    def _scan_entries(self, shard: int, start_key: str,
                      count: int) -> list[tuple]:
        return self.shards[shard].scan_entries(self.collection, start_key,
                                               count)

    @staticmethod
    def _decode(key: str, data: bytes) -> dict:
        return bson.decode(data)  # the document carries its own _id

    def _keys(self, shard: int) -> list[str]:
        return self.shards[shard].collection(self.collection).keys_in_range(
            "", None)

    def _remove(self, shard: int, key: str) -> bool:
        return self.shards[shard].remove(self.collection, key)

    @property
    def doc_count(self) -> int:
        return sum(len(s.collection(self.collection)) for s in self.shards)


class MongoAsCluster(_MongoShards, ShardedCluster):
    """Auto-sharded MongoDB: chunks + mongos routing + balancer."""

    def __init__(
        self,
        shard_count: int = 128,
        max_chunk_docs: int = 2000,
        balancer_threshold: int = 8,
        collection: str = DEFAULT_COLLECTION,
        mongos_count: int = 8,
        tracer=None,
        metrics=None,
        sampler=None,
        replication=None,
        seed: int = 0,
    ):
        self.sampler = sampler
        self.collection = collection
        super().__init__(shard_count, tracer=tracer, metrics=metrics,
                         replication=replication, seed=seed)
        if mongos_count < 1:
            raise ShardingError("need at least one mongos")
        self.config = ConfigServer()
        self.config.bootstrap(shard=0)
        self.balancer = Balancer(threshold=balancer_threshold)
        self.max_chunk_docs = max_chunk_docs
        self.routed_ops = 0  # mongos request counter
        # One mongos per client node (the paper ran 8, §3.2.3); clients
        # round-robin across them and each keeps its own chunk-table cache.
        self.routers = [
            MongosRouter(self.config, f"mongos-{i}") for i in range(mongos_count)
        ]
        self._next_router = 0

    def _router(self) -> MongosRouter:
        router = self.routers[self._next_router]
        self._next_router = (self._next_router + 1) % len(self.routers)
        return router

    @property
    def stale_routes(self) -> int:
        """Metadata refreshes forced by splits/migrations, across all mongos."""
        return sum(r.stale_routes for r in self.routers)

    # -- live resharding ---------------------------------------------------------

    def _shard_share(self, shard: int) -> float:
        """This shard's fraction of the data — range sharding follows the
        *document* distribution, so a hot chunk means a hot shard."""
        total = 0
        mine = 0
        for chunk in self.config.chunks:
            total += chunk.doc_count
            if chunk.shard == shard:
                mine += chunk.doc_count
        if total <= 0:
            active = len(self.shards) - len(self._retired)
            return 1.0 / max(1, active)
        return mine / total

    def _plan_handoffs(self, changed: list[int], adding: bool,
                       now: float) -> int:
        """Chunks migrate to even the spread after a scale-up, or each to
        the least-loaded survivor when a shard drains."""
        if adding:
            return self._plan_even_spread(now)
        counts = {i: 0 for i in range(len(self.shards))
                  if i not in self._retired}
        for chunk in self.config.chunks:
            if chunk.shard in counts:
                counts[chunk.shard] += 1
        queued = 0
        for chunk in [c for c in self.config.chunks if c.shard == changed[0]]:
            target = min(counts, key=lambda i: (counts[i], i))
            counts[target] += 1
            self._submit_chunk_migration(chunk, target, now)
            queued += 1
        return queued

    def _plan_even_spread(self, now: float) -> int:
        active = [i for i in range(len(self.shards))
                  if i not in self._retired]
        counts = {i: 0 for i in active}
        by_shard: dict[int, list[Chunk]] = {i: [] for i in active}
        for chunk in self.config.chunks:
            counts.setdefault(chunk.shard, 0)
            counts[chunk.shard] += 1
            by_shard.setdefault(chunk.shard, []).append(chunk)
        queued = 0
        while True:
            source = max(active, key=lambda i: (counts[i], -i))
            target = min(active, key=lambda i: (counts[i], i))
            if counts[source] - counts[target] <= 1 or not by_shard[source]:
                break
            chunk = by_shard[source].pop(0)
            counts[source] -= 1
            counts[target] += 1
            self._submit_chunk_migration(chunk, target, now)
            queued += 1
        return queued

    def _submit_chunk_migration(self, chunk: Chunk, target: int,
                                now: float) -> None:
        label = f"chunk[{chunk.low or ''}..{chunk.high or '+inf'})@{chunk.shard}->{target}"
        self._engine.submit(Migration(
            source=chunk.shard, target=target, label=label,
            covers=chunk.contains,
            count_docs=lambda c=chunk: c.doc_count,
            commit=lambda c=chunk, t=target: self._commit_chunk(c, t),
        ), now)

    def _commit_chunk(self, chunk: Chunk, target: int) -> int:
        source = chunk.shard
        try:
            return migrate_chunk(
                self.config, chunk, self.shards, target, self.collection,
                tracer=None, metrics=None,  # the engine records spans/counters
                cleanup=self._pending_cleanup,
            )
        finally:
            self._drain_backfill_noise(source, target)

    # -- chunk maintenance -------------------------------------------------------

    def pre_split(self, boundaries: list[str]) -> None:
        """Pre-create empty chunks (the paper's load strategy, §3.4.2)."""
        self.config = ConfigServer()
        self.config.pre_split(boundaries, len(self.shards))
        self.routers = [
            MongosRouter(self.config, r.name) for r in self.routers
        ]

    def _maybe_split(self, chunk: Chunk) -> None:
        if chunk.doc_count <= self.max_chunk_docs:
            return
        if chunk.shard in self._retired:
            return  # the whole chunk is queued to leave; splitting races it
        if self._engine is not None and not self._engine.idle:
            probe = chunk.low if chunk.low is not None else ""
            if self._engine.is_migrating(probe):
                return  # a migrating chunk cannot split (mongos refuses too)
        shard = self.shards[chunk.shard]
        low = chunk.low if chunk.low is not None else ""
        keys = shard.collection(self.collection).keys_in_range(low, chunk.high)
        if len(keys) < 2:
            return
        median = keys[len(keys) // 2]
        if median == chunk.low or (chunk.low is None and median == ""):
            return
        self.config.split_chunk(chunk, median)

    def run_balancer(self) -> int:
        return self.balancer.rebalance(
            self.config, self.shards, self.collection,
            tracer=self.tracer, metrics=self.metrics,
            exclude=self._retired or None,
        )

    # -- mongos operations ----------------------------------------------------------

    def _route(self, key: str) -> Chunk:
        """Route through a mongos cache, then verify at the shard.

        The verification models the setShardVersion handshake: when the
        cached route and the config server disagree on the owner (the cache
        snapshot predates a migration commit), the shard bounces the request,
        the mongos refreshes once and retries; a second disagreement
        surfaces the typed :class:`StaleConfigError`.  Returns the
        *authoritative* chunk so callers' bookkeeping (doc counts, splits)
        lands on the config server's copy, not a cache snapshot.
        """
        router = self._router()
        cached = router.route(key)
        self._guard_moving(key)
        chunk = self.config.chunk_for(key)
        if cached.shard != chunk.shard:
            router.stale_routes += 1
            router.refresh()
            cached = router.route(key)
            if cached.shard != chunk.shard:
                raise StaleConfigError(
                    f"router {router.name} cannot converge on an owner "
                    f"for key {key!r}"
                )
        self._charge_io(chunk.shard)
        return chunk

    def insert(self, key: str, record: dict) -> None:
        self.routed_ops += 1
        chunk = self._route(key)
        self._on_shard(chunk.shard,
                       lambda: self._insert(chunk.shard, key, record))
        chunk.doc_count += 1
        self._note_write(key)
        self._maybe_split(chunk)

    def read(self, key: str) -> dict | None:
        self.routed_ops += 1
        chunk = self._route(key)
        return self._on_shard(chunk.shard,
                              lambda: self._read(chunk.shard, key))

    def update(self, key: str, fieldname: str, value: str) -> bool:
        self.routed_ops += 1
        chunk = self._route(key)
        changed = self._on_shard(
            chunk.shard,
            lambda: self._update(chunk.shard, key, fieldname, value),
        )
        if changed:
            self._note_write(key)
        return changed

    def scan(self, start_key: str, count: int) -> list[dict]:
        """Range scan: visits chunks in key order, usually just one.  Each
        chunk's shard is asked for the entries still missing; those past the
        chunk's high key are dropped undecoded."""
        self.routed_ops += 1
        out: list[dict] = []
        for chunk in self.config.chunks_from(start_key):
            if len(out) >= count:
                break
            low = start_key if chunk.contains(start_key) else (chunk.low or "")
            entries = self._on_shard(
                chunk.shard,
                lambda c=chunk, lo=low: self._scan_entries(
                    c.shard, lo, count - len(out)
                ),
            )
            for key, data in entries:
                if chunk.high is not None and key >= chunk.high:
                    break
                out.append(self._decode(key, data))
        return out[:count]

    def shards_touched_by_scan(self, start_key: str, count: int) -> int:
        """How many shards a scan fans out to (the workload E differentiator)."""
        touched = set()
        remaining = count
        for chunk in self.config.chunks_from(start_key):
            if remaining <= 0:
                break
            touched.add(chunk.shard)
            remaining -= max(1, chunk.doc_count)
        return max(1, len(touched))


class MongoCsCluster(_MongoShards, HashShardedCluster):
    """Client-side hash-sharded MongoDB (the paper's Mongo-CS).

    Routing, elastic mode and the broadcast scan are
    :class:`HashShardedCluster`'s; this class only puts mongods under it.
    """

    def __init__(self, shard_count: int = 128, collection: str = DEFAULT_COLLECTION,
                 tracer=None, metrics=None, sampler=None,
                 replication=None, seed: int = 0, elastic: bool = False):
        self.sampler = sampler
        self.collection = collection
        super().__init__(shard_count, tracer=tracer, metrics=metrics,
                         replication=replication, seed=seed, elastic=elastic)
