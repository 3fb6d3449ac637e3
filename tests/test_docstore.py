"""Tests for BSON, mongod, chunks/balancer, and the two Mongo clusters."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ShardUnavailable,
    ShardingError,
    StaleConfigError,
    StorageError,
)
from repro.docstore import (
    ConfigServer,
    GlobalLock,
    Mongod,
    MongoAsCluster,
    MongoCsCluster,
)
from repro.docstore import bson
from repro.docstore.chunks import MongosRouter, covering_index, migrate_chunk
from repro.sqlstore import (
    SqlCsCluster,
    decode_row,
    encode_row,
    row_with_field,
)
from repro.ycsb.workloads import make_key

_NAMES = st.text(max_size=8).filter(lambda s: "\x00" not in s)
#: Every type the codec stores, nested documents and int64 included.
_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(),
        st.text(max_size=20),
    ),
    lambda inner: st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=6,
)
_DOCUMENTS = st.dictionaries(_NAMES, _VALUES, max_size=6)
_ROWS = st.dictionaries(st.text(max_size=8), st.text(max_size=40), max_size=6)


def _mutants(good: bytes, mask: int) -> list[bytes]:
    """Every truncation of ``good`` and, at every position, the byte
    flipped by ``mask`` and replaced by 0x00, 0x01, 0x7f and 0xff."""
    out = [good[:i] for i in range(len(good))]
    for i, byte in enumerate(good):
        for new in {byte ^ mask, 0x00, 0x01, 0x7F, 0xFF} - {byte}:
            out.append(good[:i] + bytes([new]) + good[i + 1:])
    return out


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

    @given(_DOCUMENTS)
    @settings(max_examples=200, deadline=None)
    def test_reencoding_a_decoded_document_gives_its_bytes(self, doc):
        """``encode(decode(encode(doc))) == encode(doc)`` over every stored
        type: what makes copying a stored document's bytes (a chunk
        migration, an oplog or journal image) equal to decoding and
        re-encoding it."""
        data = bson.encode(doc)
        assert bson.encode(bson.decode(data)) == data

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

    def test_refuses_nul_in_field_name(self):
        """decode would stop the name at the NUL and misread the rest."""
        for value in (1, "x", None):
            with pytest.raises(StorageError, match=r"'a\\x00b'"):
                bson.encode({"a\x00b": value})
        with pytest.raises(StorageError, match=r"'a\\x00b'"):
            bson.with_field(bson.encode({"a": 1}), "a\x00b", 1)

    def test_refuses_integers_beyond_int64(self):
        for value in (2**70, 2**63, -(2**63) - 1):
            with pytest.raises(StorageError, match="int64"):
                bson.encode({"a": value})
        edges = {"hi": 2**63 - 1, "lo": -(2**63)}
        assert bson.decode(bson.encode(edges)) == edges

    def test_refuses_string_running_past_the_frame(self):
        data = bytearray(bson.encode({"a": "hello", "b": 1}))
        assert len(data) == 25
        data[7:11] = struct.pack("<i", 200)
        with pytest.raises(StorageError):
            bson.decode(bytes(data))

    def test_refuses_string_without_terminator(self):
        data = bytearray(bson.encode({"a": "hello", "b": 1}))
        data[16] = ord("!")  # the NUL ending "hello"
        with pytest.raises(StorageError, match="does not end in NUL"):
            bson.decode(bytes(data))
        with pytest.raises(StorageError):
            bson.with_field(bytes(data), "b", 2)

    def test_refuses_elements_not_ending_on_the_trailing_nul(self):
        # A null element whose name runs into the trailing NUL.
        with pytest.raises(StorageError, match="trailing NUL"):
            bson.decode(struct.pack("<i", 10) + b"\x0aabcd\x00")
        # An int32 element whose value overlaps the trailing NUL.
        with pytest.raises(StorageError):
            bson.decode(struct.pack("<i", 10) + b"\x10a\x00\x01\x00\x00")

    def test_refuses_invalid_utf8_name(self):
        with pytest.raises(StorageError):
            bson.decode(struct.pack("<i", 8) + b"\x0a\xff\x00\x00")


class TestCodecFuzz:
    @given(_DOCUMENTS, _ROWS, st.binary(max_size=48), st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_codecs_raise_only_storage_error(self, doc, row, noise, mask):
        """Random bytes (bare and inside a sound BSON frame), every
        truncation of a valid encoding and every single-byte change of one:
        decode, with_field, decode_row and row_with_field each return a
        value or raise StorageError, nothing else."""
        framed = struct.pack("<i", len(noise) + 5) + noise + b"\x00"
        calls = (
            (bson.decode,),
            (bson.with_field, next(iter(doc), "field0"), "x"),
            (bson.with_field, "new", 7),
            (decode_row,),
            (row_with_field, next(iter(row), "field0"), "x"),
            (row_with_field, "new", "y"),
        )
        for candidate in [noise, framed, *_mutants(bson.encode(doc), mask),
                          *_mutants(encode_row(row), mask)]:
            for call, *args in calls:
                try:
                    call(candidate, *args)
                except StorageError:
                    pass


class TestWithField:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_reencoding(self, data):
        """An existing or a new name, and a value that may change the
        field's type: the same bytes as decode, set, encode."""
        doc = data.draw(_DOCUMENTS)
        names = st.sampled_from(sorted(doc)) | _NAMES if doc else _NAMES
        name = data.draw(names)
        value = data.draw(_VALUES)
        assert (bson.with_field(bson.encode(doc), name, value)
                == bson.encode({**doc, name: value}))

    def test_splices_in_place_and_appends_new_names(self):
        doc = {"_id": "k", "a": "xyz", "b": 1}
        data = bson.encode(doc)
        assert bson.decode(bson.with_field(data, "a", 2**40)) == {
            "_id": "k", "a": 2**40, "b": 1}
        assert list(bson.decode(bson.with_field(data, "c", {"n": None}))) == [
            "_id", "a", "b", "c"]

    def test_refuses_unencodable_values(self):
        data = bson.encode({"a": 1})
        with pytest.raises(StorageError):
            bson.with_field(data, "a", [1, 2])
        with pytest.raises(StorageError):
            bson.with_field(data, "a", 2**64)


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
        # A refused insert writes nothing: the stored bytes and the byte
        # count stay those of the original, even for a longer replacement.
        original = {"_id": "k", "f": "original"}
        m.insert("d", original)
        stored = m.find_encoded("d", "k")
        with pytest.raises(StorageError):
            m.insert("d", {"_id": "k", "f": "a much longer replacement value"})
        assert m.find_encoded("d", "k") == stored == bson.encode(original)
        assert m.find_one("d", "k") == original
        assert m.collection("d").bytes_stored == len(stored)
        assert len(m.collection("d")) == 1

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

    def test_refused_update_keeps_document_and_bytes(self):
        m = Mongod("m0")
        m.insert("c", {"_id": "k", "field": "x"})
        stored = m.bytes_stored
        with pytest.raises(StorageError):
            m.update("c", "k", "field", [1, 2])
        assert m.bytes_stored == stored
        assert m.find_one("c", "k") == {"_id": "k", "field": "x"}
        assert m.update("c", "k", "field", "yy")
        assert m.bytes_stored == stored + 1


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
            held = cluster.shards[chunk.shard].collection(
                "usertable").keys_in_range(low, chunk.high)
            assert len(held) == chunk.doc_count


class TestMongoAsCluster:
    def test_unbounded_chunk_migration_moves_keys_past_uffff(self):
        """``high=None`` is no upper bound.  With "\\uffff" standing for
        +inf, the last three keys stayed behind on the source: 10 of 13
        documents moved, and reads of the three returned None."""
        cluster = MongoAsCluster(shard_count=2)
        keys = [f"user{i:04d}" for i in range(10)]
        keys += ["\uffff", "\uffffz", "\U0001F600k"]
        for key in keys:
            cluster.insert(key, {"field0": key})
        (chunk,) = cluster.config.chunks
        assert migrate_chunk(cluster.config, chunk, cluster.shards, 1,
                             cluster.collection) == 13
        assert len(cluster.shards[0].collection(cluster.collection)) == 0
        assert cluster.doc_count == 13
        for key in keys:
            assert cluster.read(key) == {"field0": key}

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


def _linear_chunk(chunks, key):
    """The reference router: the first chunk containing ``key``."""
    for chunk in chunks:
        if chunk.contains(key):
            return chunk
    return None


def _filtered_and_sorted(chunks, key):
    """The reference ``chunks_from``: every chunk ending past ``key``, in
    key order."""
    out = [c for c in chunks if c.high is None or c.high > key]
    return sorted(out, key=lambda c: (c.low is not None, c.low))


def _bounds(chunk):
    return None if chunk is None else (chunk.low, chunk.high, chunk.shard)


_SHORT_KEYS = st.text(alphabet="abz", max_size=3)


class TestChunkRouting:
    """Routing bisects the key-ordered chunk table; a linear scan over the
    same table is the reference."""

    @given(st.lists(_SHORT_KEYS, unique=True, max_size=6),
           st.lists(_SHORT_KEYS, max_size=10),
           st.lists(_SHORT_KEYS, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_bisection_matches_linear_reference(self, boundaries, splits,
                                                probes):
        cfg = ConfigServer()
        if boundaries:
            cfg.pre_split(sorted(boundaries), shard_count=3)
        else:
            cfg.bootstrap(shard=1)
        for key in splits:
            try:
                cfg.split_chunk(cfg.chunk_for(key), key)
            except ShardingError:
                pass  # a split at a chunk's lower bound is refused
        router = MongosRouter(cfg)
        keys = {"", "\uffff", *probes}
        for chunk in cfg.chunks:
            low = chunk.low
            if low:  # below, equal to and above every boundary
                keys |= {low, low[:-1], low + "a",
                         low[:-1] + chr(ord(low[-1]) - 1)}
        for key in sorted(keys):
            expected = _linear_chunk(cfg.chunks, key)
            assert expected is not None  # the table partitions the keys
            assert cfg.chunks[covering_index(cfg.chunks, key)] is expected
            assert cfg.chunk_for(key) is expected
            assert _bounds(router.route(key)) == _bounds(expected)
            assert ([id(c) for c in cfg.chunks_from(key)]
                    == [id(c) for c in _filtered_and_sorted(cfg.chunks, key)])

    def test_empty_table_raises_as_before(self):
        cfg = ConfigServer()
        assert covering_index(cfg.chunks, "a") == -1
        with pytest.raises(ShardingError, match="no chunk covers"):
            cfg.chunk_for("a")
        assert cfg.chunks_from("a") == []
        with pytest.raises(StaleConfigError):
            MongosRouter(cfg).route("a")


def _build(system):
    if system == "mongo-as":
        return MongoAsCluster(shard_count=3, max_chunk_docs=20,
                              balancer_threshold=2, mongos_count=2)
    if system == "mongo-cs":
        return MongoCsCluster(shard_count=3)
    return SqlCsCluster(shard_count=3, pool_pages=2)


class TestUpdateContract:
    """An update rewrites one field in the stored bytes: it decodes and
    encodes nothing, and every mongod and SQL node does the modelled work
    the decode-set-encode update did."""

    @pytest.mark.parametrize("system", ["mongo-as", "mongo-cs", "sql-cs"])
    def test_update_decodes_and_encodes_nothing(self, system, monkeypatch,
                                                spy_calls):
        from repro.sqlstore import server

        cluster = _build(system)
        for i in range(60):
            cluster.insert(make_key(i), {"field0": "a" * 100,
                                         "field1": "b" * 100})
        calls = spy_calls((bson, "decode"), (bson, "encode"),
                          (server, "decode_row"), (server, "encode_row"))
        for i in range(60):  # field2 is new: the update appends it
            assert cluster.update(make_key(i), f"field{i % 3}", f"new{i}")
        assert not cluster.update(make_key(999), "field0", "x")
        assert calls == []
        monkeypatch.undo()
        for i in range(60):
            row = cluster.read(make_key(i))
            assert row[f"field{i % 3}"] == f"new{i}"
            assert len(row) == (3 if i % 3 == 2 else 2)

    @staticmethod
    def _drive(cluster, balance=False):
        """A fixed sequence: 120 inserts of ~900-byte records in a
        scattered order, then 240 alternating reads and updates over 130
        keys (10 missing), a quarter of the updates adding a new field."""
        for i in range(120):
            j = i * 7 % 120
            cluster.insert(make_key(j), {f"field{f}": f"v{j}-{f}".ljust(300, "x")
                                         for f in range(3)})
        if balance:
            cluster.run_balancer()
        for i in range(240):
            key = make_key(i * 13 % 130)
            if i % 2:
                cluster.update(key, f"field{i % 4}", "u" * (i % 50))
            else:
                cluster.read(key)

    def test_mongo_as_modelled_work(self):
        cluster = _build("mongo-as")
        self._drive(cluster, balance=True)
        assert (cluster.config.splits, cluster.config.migrations) == (7, 5)
        assert [(m.ops, m.lock.write_acquisitions, m.bytes_stored)
                for m in cluster.shards] == [
            (350, 235, 51392), (178, 106, 39871), (100, 100, 24962)]

    def test_mongo_cs_modelled_work(self):
        cluster = _build("mongo-cs")
        self._drive(cluster)
        assert [(m.ops, m.lock.write_acquisitions, m.bytes_stored)
                for m in cluster.shards] == [
            (163, 91, 41596), (161, 113, 39421), (36, 36, 35208)]

    def test_sql_cs_modelled_work(self):
        cluster = _build("sql-cs")
        self._drive(cluster)
        assert [(n.wal.record_count, n.wal.bytes_written, n.pool.hits,
                 n.pool.misses) for n in cluster.shards] == [
            (417, 123610, 61, 102), (435, 156860, 59, 102), (108, 38088, 31, 5)]


class TestMigrationContract:
    """A chunk migration copies each document's stored BSON bytes
    (``find_encoded`` on the source, ``insert_encoded`` on the target): it
    decodes and encodes nothing, moves the same documents, and every mongod
    does the modelled work of the copy through ``find_one`` and ``insert``
    it replaced (the literals below were recorded with that copy)."""

    @staticmethod
    def _loaded(replication=None):
        """120 inserts of ~900-byte records in a scattered order into three
        shards with 20-document chunks: the splits pile chunks on shard 0."""
        cluster = MongoAsCluster(shard_count=3, max_chunk_docs=20,
                                 balancer_threshold=2, mongos_count=2,
                                 replication=replication, seed=3)
        for i in range(120):
            j = i * 7 % 120
            cluster.insert(make_key(j), {f"field{f}": f"v{j}-{f}".ljust(300, "x")
                                         for f in range(3)})
        return cluster

    @staticmethod
    def _majority():
        from repro.replication import MAJORITY, ReplicationConfig

        # Majority acks apply every write on one secondary as well.
        return ReplicationConfig(replicas=3, concern=MAJORITY)

    @staticmethod
    def _owned_bytes(cluster) -> dict:
        """Each document's stored bytes, read (without counting an op) from
        the shard whose chunk owns its key."""
        out = {}
        for chunk in cluster.config.chunks:
            stored = cluster.shards[chunk.shard].collection(cluster.collection)
            for key in stored.keys_in_range(chunk.low or "", chunk.high):
                out[key] = stored.find_encoded(key)
        return out

    @pytest.mark.parametrize("replicated", [False, True])
    def test_balancer_decodes_and_encodes_nothing(self, replicated,
                                                  spy_calls):
        """The copy through ``find_one`` and ``insert`` made one
        ``bson.decode`` and one ``bson.encode`` per moved document on bare
        shards (67 of each here); on replica-set shards it made 268 decodes
        and 201 encodes (the oplog apply decoded and re-encoded too)."""
        cluster = self._loaded(self._majority() if replicated else None)
        calls = spy_calls((bson, "decode"), (bson, "encode"))
        assert cluster.run_balancer() == 5
        assert calls == []
        assert cluster.config.migrated_docs == 67

    @pytest.mark.parametrize("replicated", [False, True])
    def test_moves_the_same_documents_byte_for_byte(self, replicated):
        cluster = self._loaded(self._majority() if replicated else None)
        before = self._owned_bytes(cluster)
        assert len(before) == 120
        cluster.run_balancer()
        assert self._owned_bytes(cluster) == before
        assert cluster.config.shard_chunk_counts(3) == [3, 3, 2]
        assert [len(s.collection(cluster.collection))
                for s in cluster.shards] == [53, 41, 26]

    def test_bare_shards_do_the_same_work(self):
        cluster = self._loaded()
        cluster.run_balancer()
        assert [(m.ops, m.lock.read_acquisitions, m.lock.write_acquisitions)
                for m in cluster.shards] == [
            (254, 67, 187), (82, 0, 82), (52, 0, 52)]

    def test_replica_set_shards_do_the_same_work(self):
        """Per member: the primary, the majority-ack secondary, and the
        secondary no tick has reached."""
        cluster = self._loaded(self._majority())
        cluster.run_balancer()
        assert [[(m.mongod.ops, m.mongod.lock.read_acquisitions,
                  m.mongod.lock.write_acquisitions) for m in s.members]
                for s in cluster.shards] == [
            [(441, 254, 187), (307, 120, 187), (0, 0, 0)],
            [(123, 82, 41), (82, 41, 41), (0, 0, 0)],
            [(78, 52, 26), (52, 26, 26), (0, 0, 0)]]
