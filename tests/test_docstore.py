"""Tests for BSON, mongod, chunks/balancer, and the two Mongo clusters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ShardUnavailable, ShardingError, StorageError
from repro.docstore import (
    ConfigServer,
    GlobalLock,
    Mongod,
    MongoAsCluster,
    MongoCsCluster,
)
from repro.docstore import bson
from repro.ycsb.workloads import make_key


class TestBson:
    def test_roundtrip_all_types(self):
        doc = {
            "_id": "user1",
            "count": 42,
            "big": 2**40,
            "ratio": 3.25,
            "flag": True,
            "missing": None,
            "nested": {"x": 1, "y": "two"},
        }
        assert bson.decode(bson.encode(doc)) == doc

    def test_ycsb_record_shape(self):
        doc = {"_id": make_key(123), **{f"field{i}": "v" * 100 for i in range(10)}}
        data = bson.encode(doc)
        # 24-byte key + 10 x 100-byte fields plus framing: ~1.1 KB.
        assert 1000 < len(data) < 1400
        assert bson.decode(data) == doc

    def test_rejects_bad_buffers(self):
        with pytest.raises(StorageError):
            bson.decode(b"xx")
        good = bson.encode({"a": 1})
        with pytest.raises(StorageError):
            bson.decode(good[:-1])

    def test_rejects_unsupported_types(self):
        with pytest.raises(StorageError):
            bson.encode({"a": [1, 2]})

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10).filter(lambda s: "\x00" not in s),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**62), max_value=2**62),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=50).filter(lambda s: "\x00" not in s),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, doc):
        assert bson.decode(bson.encode(doc)) == doc


class TestGlobalLock:
    def test_readers_share(self):
        lock = GlobalLock()
        lock.acquire_read()
        lock.acquire_read()
        assert lock.readers == 2
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = GlobalLock()
        lock.acquire_write()
        with pytest.raises(StorageError):
            lock.acquire_read()
        lock.release_write()
        lock.acquire_read()
        with pytest.raises(StorageError):
            lock.acquire_write()

    def test_counters(self):
        mongod = Mongod("m0")
        mongod.insert("c", {"_id": "a", "v": 1})
        mongod.find_one("c", "a")
        mongod.update("c", "a", "v", 2)
        assert mongod.lock.write_acquisitions == 2
        assert mongod.lock.read_acquisitions == 1


class TestMongod:
    def test_crud(self):
        m = Mongod("m0")
        m.insert("c", {"_id": "k1", "f": "v"})
        assert m.find_one("c", "k1") == {"_id": "k1", "f": "v"}
        assert m.update("c", "k1", "f", "w")
        assert m.find_one("c", "k1")["f"] == "w"
        assert m.remove("c", "k1")
        assert m.find_one("c", "k1") is None

    def test_duplicate_id_rejected(self):
        m = Mongod("m0")
        m.insert("c", {"_id": "k", "v": 1})
        with pytest.raises(StorageError):
            m.insert("c", {"_id": "k", "v": 2})

    def test_scan_ordered(self):
        m = Mongod("m0")
        for i in (5, 1, 3, 2, 4):
            m.insert("c", {"_id": make_key(i), "v": i})
        docs = m.scan("c", make_key(2), 3)
        assert [d["v"] for d in docs] == [2, 3, 4]
        entries = m.scan_entries("c", make_key(2), 3)  # the same, encoded
        assert docs == [bson.decode(data) for _, data in entries]
        assert [key for key, _ in entries] == [d["_id"] for d in docs]

    def test_bytes_tracked(self):
        m = Mongod("m0")
        m.insert("c", {"_id": "k", "field": "x" * 100})
        assert m.bytes_stored > 100


class TestChunks:
    def test_bootstrap_and_split(self):
        cfg = ConfigServer()
        cfg.bootstrap()
        chunk = cfg.chunk_for("anything")
        left, right = cfg.split_chunk(chunk, "m")
        assert cfg.chunk_for("a") is left
        assert cfg.chunk_for("z") is right
        assert cfg.splits == 1

    def test_pre_split_round_robin(self):
        cfg = ConfigServer()
        cfg.pre_split(["b", "d", "f"], shard_count=2)
        assert len(cfg.chunks) == 4
        assert cfg.shard_chunk_counts(2) == [2, 2]
        assert cfg.chunk_for("a").low is None
        assert cfg.chunk_for("e").low == "d"

    def test_pre_split_validates(self):
        cfg = ConfigServer()
        with pytest.raises(ShardingError):
            cfg.pre_split(["b", "a"], 2)
        cfg2 = ConfigServer()
        cfg2.bootstrap()
        with pytest.raises(ShardingError):
            cfg2.pre_split(["a"], 2)

    def test_split_at_lower_bound_rejected(self):
        """A degenerate split (key == lower bound) would mint an empty chunk
        the balancer then shuffles forever; the config server refuses it."""
        cfg = ConfigServer()
        cfg.bootstrap()
        chunk = cfg.chunk_for("anything")
        with pytest.raises(ShardingError):
            cfg.split_chunk(chunk, "")  # low=None means -inf: "" degenerates
        cfg.split_chunk(chunk, "m")
        right = cfg.chunk_for("m")
        with pytest.raises(ShardingError):
            cfg.split_chunk(right, "m")
        assert cfg.splits == 1

    def test_balancer_moves_chunks_and_docs(self):
        cluster = MongoAsCluster(shard_count=2, max_chunk_docs=10, balancer_threshold=2)
        for i in range(200):
            cluster.insert(make_key(i), {"f": "v"})
        # Ordered inserts pile chunks onto the growing side; rebalance.
        before = cluster.config.shard_chunk_counts(2)
        assert max(before) - min(before) >= 2
        moved = cluster.run_balancer()
        assert moved > 0
        after = cluster.config.shard_chunk_counts(2)
        assert max(after) - min(after) < 2
        assert cluster.config.migrated_docs > 0
        # No documents lost in migration.
        assert cluster.doc_count == 200
        for i in (0, 57, 199):
            assert cluster.read(make_key(i)) is not None


class TestBalancerFaultRace:
    @staticmethod
    def _skewed_cluster():
        cluster = MongoAsCluster(shard_count=2, max_chunk_docs=10,
                                 balancer_threshold=2, mongos_count=1)
        for i in range(120):
            cluster.insert(make_key(i), {"f": "v"})
        assert cluster.balancer.needs_balancing(cluster.config, 2)
        return cluster

    def test_kill_source_aborts_round_and_restart_recovers(self):
        cluster = self._skewed_cluster()
        heavy = max(range(2),
                    key=lambda i: cluster.config.shard_chunk_counts(2)[i])
        cluster.kill_shard(heavy)
        with pytest.raises(ShardUnavailable) as exc:
            cluster.run_balancer()
        assert exc.value.shard == heavy
        # The aborted round flipped no ownership off the dead shard.
        assert cluster.balancer.needs_balancing(cluster.config, 2)
        cluster.restart_shard(heavy)
        assert cluster.run_balancer() > 0
        counts = cluster.config.shard_chunk_counts(2)
        assert max(counts) - min(counts) < 2
        assert cluster.doc_count == 120
        for i in (0, 59, 119):
            assert cluster.read(make_key(i)) is not None

    def test_kill_target_aborts_round_and_restart_recovers(self):
        cluster = self._skewed_cluster()
        light = min(range(2),
                    key=lambda i: cluster.config.shard_chunk_counts(2)[i])
        cluster.kill_shard(light)
        with pytest.raises(ShardUnavailable) as exc:
            cluster.run_balancer()
        assert exc.value.shard == light
        cluster.restart_shard(light)
        assert cluster.run_balancer() > 0
        assert cluster.doc_count == 120

    def test_chunk_counts_stay_consistent_over_split_migrate_cycles(self):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=8,
                                 balancer_threshold=2, mongos_count=1)
        for i in range(300):
            cluster.insert(make_key(i), {"f": "v"})
            if i % 50 == 49:
                cluster.run_balancer()
        counts = cluster.config.shard_chunk_counts(4)
        assert sum(counts) == len(cluster.config.chunks)
        assert max(counts) - min(counts) < cluster.balancer.threshold
        assert sum(c.doc_count for c in cluster.config.chunks) == 300
        assert cluster.doc_count == 300
        # Every chunk's doc_count matches what its shard actually holds.
        for chunk in cluster.config.chunks:
            low = chunk.low if chunk.low is not None else ""
            high = chunk.high if chunk.high is not None else "￿"
            held = cluster.shards[chunk.shard].collection(
                "usertable").keys_in_range(low, high)
            assert len(held) == chunk.doc_count


class TestMongoAsCluster:
    def test_crud_roundtrip(self):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=50)
        for i in range(300):
            cluster.insert(make_key(i), {"field0": f"v{i}"})
        assert cluster.doc_count == 300
        assert cluster.read(make_key(250))["field0"] == "v250"
        assert cluster.update(make_key(250), "field0", "new")
        assert cluster.read(make_key(250))["field0"] == "new"

    def test_chunks_split_as_data_grows(self):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=20)
        for i in range(500):
            cluster.insert(make_key(i), {"f": "v"})
        assert len(cluster.config.chunks) > 5

    def test_scan_is_ordered_and_range_routed(self):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=50)
        for i in range(400):
            cluster.insert(make_key(i), {"f": str(i)})
        cluster.run_balancer()
        rows = cluster.scan(make_key(100), 20)
        assert [r["_id"] for r in rows] == [make_key(i) for i in range(100, 120)]
        # A short scan touches far fewer shards than the cluster has.
        assert cluster.shards_touched_by_scan(make_key(100), 20) <= 2

    def test_pre_split_spreads_load(self):
        cluster = MongoAsCluster(shard_count=4)
        boundaries = [make_key(i) for i in (100, 200, 300)]
        cluster.pre_split(boundaries)
        for i in range(400):
            cluster.insert(make_key(i), {"f": "v"})
        counts = [len(s.collection("usertable")) for s in cluster.shards]
        assert min(counts) > 0  # every shard got data with zero migrations
        assert cluster.config.migrations == 0


class TestMongoCsCluster:
    def test_hash_routing_spreads_keys(self):
        cluster = MongoCsCluster(shard_count=8)
        for i in range(800):
            cluster.insert(make_key(i), {"f": str(i)})
        counts = [len(s.collection("usertable")) for s in cluster.shards]
        assert min(counts) > 50  # roughly even

    def test_scan_broadcasts_but_returns_ordered(self):
        cluster = MongoCsCluster(shard_count=8)
        for i in range(500):
            cluster.insert(make_key(i), {"f": str(i)})
        rows = cluster.scan(make_key(100), 10)
        assert [r["_id"] for r in rows] == [make_key(i) for i in range(100, 110)]
        assert cluster.shards_touched_by_scan(make_key(100), 10) == 8

    def test_read_update(self):
        cluster = MongoCsCluster(shard_count=3)
        cluster.insert(make_key(5), {"field1": "a"})
        assert cluster.read(make_key(5)) == {"field1": "a"}
        assert cluster.update(make_key(5), "field1", "b")
        assert cluster.read(make_key(5))["field1"] == "b"
        assert cluster.read(make_key(99)) is None


class TestScanContract:
    """Scans decode only the documents they return, and each mongod does
    the same modelled work as a decoding scan (``ops`` and shared-lock
    acquisitions are the values the decoding scan produced)."""

    @staticmethod
    def _loaded(cluster, docs):
        """Insert ``docs`` keys in a scattered order; returns the documents
        a scan must return, by key."""
        shadow = {}
        for i in range(docs):
            j = i * 37 % docs
            key = make_key(j)
            cluster.insert(key, {"field0": f"v{j}"})
            shadow[key] = {"_id": key, "field0": f"v{j}"}
        return shadow

    @staticmethod
    def _lock_work(cluster):
        return [(m.ops, m.lock.read_acquisitions) for m in cluster.shards]

    def test_mongo_cs_broadcast(self, assert_scan_contract):
        cluster = MongoCsCluster(shard_count=4)
        assert_scan_contract(cluster, self._loaded(cluster, 200))
        assert self._lock_work(cluster) == [(57, 7)] * 4

    def test_mongo_cs_elastic_with_strays(self, assert_scan_contract):
        cluster = MongoCsCluster(shard_count=2, elastic=True, seed=7)
        shadow = self._loaded(cluster, 120)
        engine = cluster.attach_reshard(throttle=1.0)
        cluster.scale_to(3, now=0.0)
        engine.run_to_completion(0.0)
        assert cluster._pending_cleanup  # no tick yet: the strays remain
        assert_scan_contract(cluster, shadow)
        assert self._lock_work(cluster) == [(95, 32), (74, 17), (77, 7)]

    def test_mongo_as_chunk_scan(self, assert_scan_contract):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=10_000,
                                 mongos_count=2)
        cluster.pre_split([make_key(i * 25) for i in range(1, 8)])
        assert_scan_contract(cluster, self._loaded(cluster, 200))
        assert self._lock_work(cluster) == [(53, 3), (52, 2), (53, 3), (55, 5)]


class TestMongosCaching:
    def test_stale_routes_counted_during_splitting_load(self):
        """An ordered load without pre-split keeps splitting chunks; every
        split invalidates the mongos caches and costs refresh round trips."""
        cluster = MongoAsCluster(shard_count=2, max_chunk_docs=20, mongos_count=2)
        for i in range(300):
            cluster.insert(make_key(i), {"f": "v"})
        assert cluster.config.splits > 3
        assert cluster.stale_routes > 3

    def test_pre_split_load_avoids_staleness(self):
        cluster = MongoAsCluster(shard_count=2, mongos_count=2)
        cluster.pre_split([make_key(i) for i in range(50, 300, 50)])
        for i in range(300):
            cluster.insert(make_key(i), {"f": "v"})
        assert cluster.config.splits == 0
        assert cluster.stale_routes == 0

    def test_round_robin_across_routers(self):
        cluster = MongoAsCluster(shard_count=2, max_chunk_docs=10**9,
                                 mongos_count=4)
        for i in range(40):
            cluster.insert(make_key(i), {"f": "v"})
        refreshes = [r.refreshes for r in cluster.routers]
        assert len(cluster.routers) == 4
        assert all(r == 1 for r in refreshes)  # no splits -> no refreshes
