"""Mongo-AS sharding metadata: chunks, the config server, and the balancer.

Data is range-partitioned into chunks ([low, high) key intervals), each owned
by one shard.  The config server holds the chunk table; the balancer moves
chunks from overloaded shards to underloaded ones, exactly the machinery the
paper describes (including the pre-split optimization used for loading —
Section 3.4.2 — which avoids paying chunk-migration costs mid-load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import (
    ServerCrashed,
    ShardUnavailable,
    ShardingError,
    StaleConfigError,
)


@dataclass
class Chunk:
    """One key interval [low, high) assigned to a shard.

    ``low=None`` means -inf and ``high=None`` means +inf.
    """

    low: Optional[str]
    high: Optional[str]
    shard: int
    doc_count: int = 0

    def contains(self, key: str) -> bool:
        if self.low is not None and key < self.low:
            return False
        if self.high is not None and key >= self.high:
            return False
        return True


@dataclass
class ConfigServer:
    """The cluster's chunk table plus change counters.

    ``version`` is the chunk-metadata epoch: every split or migration bumps
    it, and a mongos holding an older epoch must refresh before routing
    (the real protocol's staleConfig/setShardVersion dance).
    """

    chunks: list[Chunk] = field(default_factory=list)
    splits: int = 0
    migrations: int = 0
    migrated_docs: int = 0
    version: int = 1

    def bootstrap(self, shard: int = 0) -> None:
        """Start with one chunk covering the whole key space."""
        if self.chunks:
            raise ShardingError("config server already bootstrapped")
        self.chunks = [Chunk(low=None, high=None, shard=shard)]

    def pre_split(self, boundaries: list[str], shard_count: int) -> None:
        """Create empty chunks at known key boundaries, round-robin on shards.

        This is the documented load-time technique the paper used: with the
        key distribution known in advance, chunks are created empty and
        spread evenly, so loading never migrates data.
        """
        if self.chunks:
            raise ShardingError("pre_split requires an empty config server")
        if sorted(boundaries) != list(boundaries) or len(set(boundaries)) != len(boundaries):
            raise ShardingError("boundaries must be strictly increasing")
        edges: list[Optional[str]] = [None] + list(boundaries) + [None]
        for i, (low, high) in enumerate(zip(edges, edges[1:])):
            self.chunks.append(Chunk(low=low, high=high, shard=i % shard_count))

    def chunk_for(self, key: str) -> Chunk:
        for chunk in self.chunks:
            if chunk.contains(key):
                return chunk
        raise ShardingError(f"no chunk covers key {key!r}")

    def chunks_from(self, key: str) -> list[Chunk]:
        """Chunks covering [key, +inf), in key order (for range scans)."""
        out = [c for c in self.chunks if c.high is None or c.high > key]
        return sorted(out, key=lambda c: (c.low is not None, c.low))

    def split_chunk(self, chunk: Chunk, at_key: str) -> tuple[Chunk, Chunk]:
        """Split one chunk at a key; both halves stay on the same shard.

        A split key equal to either boundary is rejected: it would create an
        empty chunk that the balancer then migrates forever (every rebalance
        round picks it up at zero cost and the spread never closes).
        ``low=None`` means -inf, so the degenerate left half also appears
        when splitting the unbounded first chunk at the empty string.
        """
        if not chunk.contains(at_key):
            raise ShardingError(f"split key {at_key!r} outside chunk")
        if chunk.low == at_key or (chunk.low is None and at_key == ""):
            raise ShardingError("split key equals chunk lower bound")
        index = self.chunks.index(chunk)
        left = Chunk(low=chunk.low, high=at_key, shard=chunk.shard,
                     doc_count=chunk.doc_count // 2)
        right = Chunk(low=at_key, high=chunk.high, shard=chunk.shard,
                      doc_count=chunk.doc_count - chunk.doc_count // 2)
        self.chunks[index : index + 1] = [left, right]
        self.splits += 1
        self.version += 1
        return left, right

    def shard_chunk_counts(self, shard_count: int) -> list[int]:
        counts = [0] * shard_count
        for chunk in self.chunks:
            counts[chunk.shard] += 1
        return counts


def migrate_chunk(config: ConfigServer, chunk: Chunk, shards: list,
                  target: int, collection: str, tracer=None, metrics=None,
                  cleanup: list | None = None) -> int:
    """Move one chunk's documents abort-safely; returns the docs moved.

    The copy→commit order is what makes a crash mid-migration lose nothing:

    1. read the whole snapshot from the source (a dead source aborts here —
       ownership and data untouched);
    2. write every document to the destination, clearing any stray copy a
       previously aborted attempt left behind (a dead destination aborts
       here, rolling back what landed — ownership stays at the source);
    3. only then flip ownership and bump the metadata version, and finally
       delete from the source.  A source crash during the deletes leaves
       strays that routing can no longer see; they are queued on ``cleanup``
       as ``(shard, keys)`` for retry rather than ever deleting before the
       flip.

    Both abort paths surface as the typed :class:`ShardUnavailable` naming
    the dead shard, so a balancer round racing a ``kill_shard`` fails
    cleanly and succeeds after ``restart_shard``.
    """
    source = chunk.shard
    low = chunk.low if chunk.low is not None else ""
    high = chunk.high if chunk.high is not None else "￿"
    try:
        keys = shards[source].collection(collection).keys_in_range(low, high)
        documents = [shards[source].find_one(collection, key) for key in keys]
    except ServerCrashed as exc:
        raise ShardUnavailable(
            f"chunk migration aborted: source shard {source} is "
            f"unavailable: {exc}", shard=source,
        ) from exc
    copied: list = []
    try:
        for key, document in zip(keys, documents):
            if document is None:
                continue
            shards[target].remove(collection, key)
            shards[target].insert(collection, document)
            copied.append(key)
    except ServerCrashed as exc:
        try:
            for key in copied:
                shards[target].remove(collection, key)
        except ServerCrashed:
            pass  # destination died holding strays; next attempt clears them
        raise ShardUnavailable(
            f"chunk migration aborted: destination shard {target} is "
            f"unavailable: {exc}", shard=target,
        ) from exc
    chunk.shard = target
    index = config.migrations
    config.migrations += 1
    config.migrated_docs += len(copied)
    config.version += 1
    try:
        for key in copied:
            shards[source].remove(collection, key)
    except ServerCrashed:
        if cleanup is not None:
            cleanup.append((source, list(copied)))
    if tracer:
        tracer.add(
            "chunk.migrate", float(index), float(index + 1),
            cat="migration", node="balancer", lane="migrations",
            source=source, target=target, docs=len(copied),
        )
    if metrics:
        metrics.counter("docstore.migrations").inc()
        metrics.counter("docstore.migrated_docs").inc(len(copied))
    return len(copied)


class Balancer:
    """Moves chunks from the most- to the least-loaded shard until balanced.

    MongoDB's balancer triggers when the chunk-count spread exceeds a
    threshold (8 in 1.8); each migration physically copies the documents and
    deletes them from the source — the expensive part the pre-split avoids.
    """

    def __init__(self, threshold: int = 8):
        if threshold < 2:
            raise ShardingError("balancer threshold must be >= 2")
        self.threshold = threshold

    def _counts(self, config: ConfigServer, shard_count: int,
                exclude: set | None) -> dict:
        """Chunk counts per *eligible* shard (drained shards are excluded
        so the balancer never refills a shard being retired)."""
        counts = config.shard_chunk_counts(shard_count)
        return {i: c for i, c in enumerate(counts)
                if not exclude or i not in exclude}

    def needs_balancing(self, config: ConfigServer, shard_count: int,
                        exclude: set | None = None) -> bool:
        counts = self._counts(config, shard_count, exclude)
        if len(counts) < 2:
            return False
        return max(counts.values()) - min(counts.values()) >= self.threshold

    def rebalance(self, config: ConfigServer, shards: list, collection: str,
                  tracer=None, metrics=None, exclude: set | None = None) -> int:
        """Run migrations until balanced; returns number of chunks moved.

        With a ``tracer`` attached each migration becomes a span on the
        balancer's logical clock (migration index), recording the source and
        target shards and the document count moved.
        """
        moved = 0
        while self.needs_balancing(config, len(shards), exclude):
            counts = self._counts(config, len(shards), exclude)
            source = max(counts, key=lambda i: (counts[i], -i))
            target = min(counts, key=lambda i: (counts[i], i))
            chunk = next(c for c in config.chunks if c.shard == source)
            self._migrate(config, chunk, shards, target, collection,
                          tracer=tracer, metrics=metrics)
            moved += 1
        return moved

    def _migrate(self, config: ConfigServer, chunk: Chunk, shards: list,
                 target: int, collection: str, tracer=None, metrics=None) -> None:
        migrate_chunk(config, chunk, shards, target, collection,
                      tracer=tracer, metrics=metrics)


class MongosRouter:
    """A mongos routing cache with the stale-config refresh protocol.

    Each mongos caches the chunk table at some metadata epoch; when a split
    or migration bumps the config server's version, the next routed request
    detects the stale cache, refreshes, and retries — counting the extra
    metadata round trips the real system pays.
    """

    def __init__(self, config: ConfigServer, name: str = "mongos"):
        self.name = name
        self._config = config
        self._cached_chunks: list[Chunk] = []
        self._cached_version = 0
        self.refreshes = 0
        self.stale_routes = 0
        self.refresh()

    def refresh(self) -> None:
        # A *snapshot*, not shared Chunk objects: a later migration flipping
        # ``chunk.shard`` on the config server must not magically update a
        # cache that never refreshed — that coherence is exactly what the
        # stale-config protocol pays for.
        self._cached_chunks = [
            Chunk(low=c.low, high=c.high, shard=c.shard,
                  doc_count=c.doc_count)
            for c in self._config.chunks
        ]
        self._cached_version = self._config.version
        self.refreshes += 1

    @property
    def is_stale(self) -> bool:
        return self._cached_version != self._config.version

    def _lookup(self, key: str) -> Optional[Chunk]:
        for chunk in self._cached_chunks:
            if chunk.contains(key):
                return chunk
        return None

    def route(self, key: str) -> Chunk:
        """Resolve the chunk for a key, refreshing a stale cache first.

        A cache whose epoch lags the config server refreshes before routing
        (the staleConfig/setShardVersion bounce, counted in
        ``stale_routes``).  If the snapshot still cannot cover the key —
        its chunk map predates a split/merge the epoch check missed — the
        router retries exactly once after another ``refresh()`` and then
        surfaces the typed :class:`StaleConfigError` instead of silently
        routing to the wrong shard.
        """
        if self.is_stale:
            self.stale_routes += 1
            self.refresh()
        chunk = self._lookup(key)
        if chunk is None:
            self.stale_routes += 1
            self.refresh()
            chunk = self._lookup(key)
        if chunk is None:
            raise StaleConfigError(
                f"no chunk covers key {key!r} at metadata version "
                f"{self._cached_version} (after refresh)"
            )
        return chunk
