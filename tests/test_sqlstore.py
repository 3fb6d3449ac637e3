"""Tests for pages, buffer pool, WAL, locks, the server, and SQL-CS."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError, TransactionAborted
from repro.sqlstore import (
    BufferPool,
    IsolationLevel,
    LockManager,
    LockMode,
    PAGE_SIZE,
    Page,
    SqlCsCluster,
    SqlServerNode,
    WriteAheadLog,
    decode_row,
    encode_row,
    row_with_field,
)
from repro.sqlstore.pages import MAX_ROW_BYTES, PAGE_HEADER
from repro.sqlstore.wal import LogOp
from repro.ycsb.workloads import make_key, make_record
from repro.common.rng import TpchRandom64


_ROWS = st.dictionaries(st.text(max_size=8), st.text(max_size=40), max_size=8)


class TestRowCodec:
    def test_roundtrip(self):
        row = {"field0": "abc", "field1": "x" * 100}
        assert decode_row(encode_row(row)) == row

    def test_rejects_non_strings(self):
        with pytest.raises(StorageError):
            encode_row({"a": 1})

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8), st.text(max_size=200), max_size=12
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, row):
        assert decode_row(encode_row(row)) == row

    def test_decode_refuses_truncated_row(self):
        with pytest.raises(StorageError, match="end at byte 12 of 10"):
            decode_row(encode_row({"a": "xyz"})[:-2])

    def test_decode_refuses_empty_and_trailing_bytes(self):
        with pytest.raises(StorageError):
            decode_row(b"")
        with pytest.raises(StorageError):
            decode_row(encode_row({"a": "xyz"}) + b"!")

    def test_decode_refuses_invalid_utf8(self):
        with pytest.raises(StorageError):
            decode_row(struct.pack("<HHI", 1, 1, 0) + b"\xff")

    def test_encode_refuses_what_it_cannot_frame(self):
        with pytest.raises(StorageError):
            encode_row({"n" * 70_000: "x"})  # a name length is 16 bits
        with pytest.raises(StorageError):
            encode_row({1: "x"})
        with pytest.raises(StorageError):
            row_with_field(encode_row({"a": "x"}), "n" * 70_000, "x")


class TestRowWithField:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_reencoding(self, data):
        row = data.draw(_ROWS)
        names = st.text(max_size=8)
        name = data.draw(st.sampled_from(sorted(row)) | names if row else names)
        value = data.draw(st.text(max_size=40))
        encoded = encode_row(row)
        assert (row_with_field(encoded, name, value)
                == encode_row({**decode_row(encoded), name: value}))

    def test_refuses_non_strings_like_encode_row(self):
        with pytest.raises(StorageError, match="all-string"):
            row_with_field(encode_row({"a": "x"}), "a", 1)


class TestPage:
    def test_put_get_delete(self):
        page = Page(0)
        page.put("k", b"data")
        assert page.get("k") == b"data"
        assert page.delete("k")
        assert not page.delete("k")

    def test_capacity_about_seven_1kb_rows(self):
        """A 1 KB YCSB record fits ~7 times into an 8 KB page."""
        page = Page(0)
        rng = TpchRandom64(3)
        data = encode_row(make_record(rng))
        count = 0
        while page.fits(data):
            page.put(f"key{count}", data)
            count += 1
        assert 6 <= count <= 8

    def test_overflow_rejected(self):
        page = Page(0)
        with pytest.raises(StorageError):
            page.put("k", b"x" * PAGE_SIZE)

    def test_overwrite_that_does_not_fit_is_refused(self):
        page = Page(0)
        page.put("a", b"a" * 4000)
        page.put("b", b"b" * 3000)
        page.dirty = False
        used = page.used
        with pytest.raises(StorageError):
            page.put("b", b"B" * 4200)
        assert (page.get("b"), page.used, page.dirty) == (b"b" * 3000, used, False)
        page.put("b", b"B" * 4088)  # exactly fills the page, slot included
        assert page.used + 8 == PAGE_SIZE and page.dirty
        page.put("b", b"B" * 10)  # shrinking always fits
        assert page.used == PAGE_HEADER + 4010


class TestBufferPool:
    def test_hit_miss_lru(self):
        pool = BufferPool(2)
        assert not pool.access(1)
        assert not pool.access(2)
        assert pool.access(1)  # hit
        assert not pool.access(3)  # evicts 2 (LRU)
        assert not pool.access(2)
        assert pool.evictions == 2

    def test_dirty_writeback_on_eviction(self):
        pool = BufferPool(1)
        pool.access(1, dirty=True)
        pool.access(2)
        assert pool.dirty_writebacks == 1

    def test_flush_all(self):
        pool = BufferPool(10)
        pool.access(1, dirty=True)
        pool.access(2, dirty=True)
        pool.access(3)
        assert pool.flush_all() == 2
        assert pool.flush_all() == 0

    def test_hit_rate(self):
        pool = BufferPool(10)
        pool.access(1)
        pool.access(1)
        assert pool.hit_rate == pytest.approx(0.5)


class TestWal:
    def test_commit_flushes(self):
        wal = WriteAheadLog()
        wal.append(1, LogOp.BEGIN)
        wal.append(1, LogOp.UPDATE, key="k", before=b"a", after=b"b")
        wal.append(1, LogOp.COMMIT)
        wal.flush()
        assert wal.flushed_lsn == 3
        assert wal.bytes_written > 0

    def test_replay_ignores_uncommitted(self):
        """Crash recovery: only committed transactions' effects survive."""
        wal = WriteAheadLog()
        wal.append(1, LogOp.BEGIN)
        wal.append(1, LogOp.UPDATE, key="a", before=b"", after=b"committed")
        wal.append(1, LogOp.COMMIT)
        wal.flush()
        wal.append(2, LogOp.BEGIN)
        wal.append(2, LogOp.UPDATE, key="b", before=b"", after=b"lost")
        # tx 2 never commits; crash here.
        images = wal.replay_committed()
        assert images == {"a": b"committed"}

    def test_checkpoint_truncates(self):
        wal = WriteAheadLog()
        for i in range(10):
            wal.append(1, LogOp.UPDATE, key=f"k{i}", after=b"x")
        wal.checkpoint()
        assert wal.record_count == 1
        assert wal.checkpoints == 1


class TestLockManager:
    def test_shared_locks_compatible(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.SHARED)
        lm.acquire(2, "k", LockMode.SHARED)
        assert lm.shared_acquired == 2

    def test_exclusive_conflicts(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.EXCLUSIVE)
        with pytest.raises(TransactionAborted):
            lm.acquire(2, "k", LockMode.SHARED)
        with pytest.raises(TransactionAborted):
            lm.acquire(2, "k", LockMode.EXCLUSIVE)
        assert lm.conflicts == 2

    def test_same_tx_reentrant_and_upgrade(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.SHARED)
        lm.acquire(1, "k", LockMode.EXCLUSIVE)  # upgrade allowed, sole owner
        with pytest.raises(TransactionAborted):
            lm.acquire(2, "k", LockMode.SHARED)

    def test_release_all(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(1, "b", LockMode.SHARED)
        lm.release_all(1)
        assert lm.active_locks == 0
        lm.acquire(2, "a", LockMode.EXCLUSIVE)


class TestSqlServerNode:
    def test_insert_read_update(self):
        node = SqlServerNode()
        rng = TpchRandom64(1)
        node.insert(make_key(1), make_record(rng))
        record = node.read(make_key(1))
        assert len(record) == 10
        assert node.update(make_key(1), "field3", "updated")
        assert node.read(make_key(1))["field3"] == "updated"
        assert node.read(make_key(404)) is None
        assert not node.update(make_key(404), "field0", "x")

    def test_duplicate_insert_rejected(self):
        node = SqlServerNode()
        node.insert("k", {"f": "v"})
        with pytest.raises(StorageError):
            node.insert("k", {"f": "w"})

    def test_scan_ordered(self):
        node = SqlServerNode()
        for i in (5, 2, 9, 1, 7):
            node.insert(make_key(i), {"f": str(i)})
        rows = node.scan(make_key(2), 3)
        assert [r["f"] for r in rows] == ["2", "5", "7"]
        entries = node.scan_entries(make_key(2), 3)  # the same, encoded
        assert rows == [{**decode_row(data), "_key": key}
                        for key, data in entries]

    def test_wal_grows_and_checkpoint_resets(self):
        node = SqlServerNode(checkpoint_interval_ops=50)
        for i in range(60):
            node.insert(make_key(i), {"f": "v"})
        assert node.wal.checkpoints >= 1
        assert node.pool.dirty_writebacks >= 0

    def test_locks_released_after_autocommit(self):
        node = SqlServerNode()
        node.insert("k", {"f": "v"})
        node.read("k")
        node.update("k", "f", "w")
        assert node.locks.active_locks == 0

    def test_read_uncommitted_takes_no_shared_locks(self):
        node = SqlServerNode(isolation=IsolationLevel.READ_UNCOMMITTED)
        node.insert("k", {"f": "v"})
        before = node.locks.shared_acquired
        node.read("k")
        assert node.locks.shared_acquired == before

    def test_buffer_pool_sees_traffic(self):
        node = SqlServerNode(pool_pages=16)
        rng = TpchRandom64(2)
        for i in range(500):
            node.insert(make_key(i), make_record(rng))
        for i in range(0, 500, 7):
            node.read(make_key(i))
        assert node.pool.misses > 0
        assert node.pool.hits > 0


class TestGrowingUpdates:
    """An update that grows a row past its page's free space moves it."""

    def _node(self, rows=7):
        node = SqlServerNode(pool_pages=64)
        for i in range(rows):
            node.insert(make_key(i), {"f": "x" * 1000})
        assert node.pages.page_count == 1
        return node

    def test_grown_rows_move_and_every_page_fits(self):
        node = self._node()
        for i in range(7):
            assert node.update(make_key(i), "f", "y" * 3000)
        pages = list(node.pages._pages.values())
        assert len(pages) > 1
        assert all(page.used + 8 <= PAGE_SIZE for page in pages)
        assert sum(page.row_count for page in pages) == node.row_count == 7
        for i in range(7):
            page_id = node.index.get(make_key(i))
            assert make_key(i) in node.pages.get(page_id).rows
            assert node.read(make_key(i)) == {"f": "y" * 3000}
        assert [row["_key"] for row in node.scan(make_key(0), 10)] == [
            make_key(i) for i in range(7)]

    def test_move_writes_the_same_wal_images_and_dirties_the_new_page(self):
        node = self._node()
        before = node.pages.get(0).get(make_key(0))
        assert node.update(make_key(0), "f", "y" * 3000)
        record = [r for r in node.wal.records_since(0) if r.op is LogOp.UPDATE][-1]
        assert record.before == before
        assert record.after == row_with_field(before, "f", "y" * 3000)
        new_page = node.index.get(make_key(0))
        assert new_page != 0
        assert node.pages.get(new_page).get(make_key(0)) == record.after
        assert make_key(0) not in node.pages.get(0).rows
        assert node.pool._resident[new_page] is True

    # {"f": value} encodes to 9 + len(value) bytes: from one byte more than
    # an empty page holds, through a row plus its slot filling a whole page,
    # to more than a page.
    @pytest.mark.parametrize("length", [MAX_ROW_BYTES + 1 - 9,
                                        PAGE_SIZE - 8 - 9, PAGE_SIZE])
    def test_row_larger_than_a_page_is_refused(self, length):
        node = self._node(rows=2)
        before = node.pages.get(0).get(make_key(1))
        with pytest.raises(StorageError, match="larger than a page"):
            node.update(make_key(1), "f", "z" * length)
        with pytest.raises(StorageError, match="larger than a page"):
            node.insert(make_key(9), {"f": "z" * length})
        assert node.pages.get(0).get(make_key(1)) == before
        assert node.read(make_key(1)) == {"f": "x" * 1000}
        assert node.pages.page_count == 1
        assert node.locks.active_locks == 0

    def test_row_that_fills_an_empty_page_moves_there(self):
        node = self._node(rows=2)
        assert node.update(make_key(1), "f", "z" * (MAX_ROW_BYTES - 9))
        page = node.pages.get(node.index.get(make_key(1)))
        assert page.page_id == 1 and page.used + 8 == PAGE_SIZE
        assert node.read(make_key(1)) == {"f": "z" * (MAX_ROW_BYTES - 9)}

    def test_same_size_updates_stay_in_place(self):
        node = self._node()
        for i in range(7):
            assert node.update(make_key(i), "f", "z" * 1000)
        assert node.pages.page_count == 1
        assert {node.index.get(make_key(i)) for i in range(7)} == {0}


class TestSqlCsCluster:
    def test_routing_and_crud(self):
        cluster = SqlCsCluster(shard_count=4)
        for i in range(200):
            cluster.insert(make_key(i), {"field0": str(i)})
        assert cluster.row_count == 200
        counts = [s.row_count for s in cluster.shards]
        assert min(counts) > 20
        assert cluster.read(make_key(77))["field0"] == "77"
        assert cluster.update(make_key(77), "field0", "new")
        assert cluster.read(make_key(77))["field0"] == "new"

    def test_scan_broadcasts_and_merges(self):
        cluster = SqlCsCluster(shard_count=4)
        for i in range(300):
            cluster.insert(make_key(i), {"f": str(i)})
        rows = cluster.scan(make_key(50), 10)
        assert [r["_key"] for r in rows] == [make_key(i) for i in range(50, 60)]
        assert cluster.shards_touched_by_scan(make_key(50), 10) == 4


class TestScanContract:
    """Broadcast scans decode only the rows they return, and every node runs
    the same scan transaction as a decoding scan: buffer-pool hits and
    misses and WAL record counts are the values the decoding scan
    produced."""

    @staticmethod
    def _loaded(cluster, rows):
        """Insert ``rows`` 400-byte rows in a scattered key order; returns
        the rows a scan must return, by key."""
        shadow = {}
        for i in range(rows):
            j = i * 37 % rows
            key = make_key(j)
            cluster.insert(key, {"field0": f"{j:04d}" * 100})
            shadow[key] = {"field0": f"{j:04d}" * 100, "_key": key}
        return shadow

    @staticmethod
    def _node_work(cluster):
        return [(s.pool.hits, s.pool.misses, s.wal.record_count)
                for s in cluster.shards]

    def test_broadcast(self, assert_scan_contract):
        cluster = SqlCsCluster(shard_count=4, pool_pages=2)
        assert_scan_contract(cluster, self._loaded(cluster, 200))
        assert self._node_work(cluster) == [
            (104, 22, 164), (105, 22, 164), (102, 24, 164), (91, 35, 164)]

    def test_elastic_with_strays(self, assert_scan_contract):
        cluster = SqlCsCluster(shard_count=2, pool_pages=2, elastic=True)
        shadow = self._loaded(cluster, 120)
        engine = cluster.attach_reshard(throttle=1.0)
        cluster.scale_to(3, now=0.0)
        engine.run_to_completion(0.0)
        assert cluster._pending_cleanup  # no tick yet: the strays remain
        assert_scan_contract(cluster, shadow)
        assert self._node_work(cluster) == [
            (111, 34, 253), (89, 23, 205), (76, 2, 189)]


class TestBlockingLocksOption:
    def test_node_with_blocking_lock_manager(self):
        from repro.sqlstore.locks import BlockingLockManager

        node = SqlServerNode(blocking_locks=True)
        assert isinstance(node.locks, BlockingLockManager)
        node.insert(make_key(1), {"field0": "v"})
        assert node.read(make_key(1))["field0"] == "v"
        assert node.update(make_key(1), "field0", "w")
        assert node.locks.deadlocks == 0
