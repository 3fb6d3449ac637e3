"""Tests for MongoDB's 100 ms journal — the paper's durability gap, live."""

import pytest

from repro.common.errors import StorageError
from repro.docstore.journal import (
    FLUSH_INTERVAL,
    Journal,
    JournaledMongod,
    JournalOp,
)
from repro.docstore.mongod import Mongod
from repro.sqlstore.recovery import crash
from repro.sqlstore.server import SqlServerNode
from repro.ycsb.workloads import make_key


class TestJournal:
    def test_append_and_flush_cycle(self):
        j = Journal()
        j.append(0.01, JournalOp.INSERT, "c", "k1", b"doc")
        assert j.durable_sequence == 0  # not yet flushed
        assert not j.maybe_flush(0.05)  # inside the 100 ms window
        assert j.maybe_flush(0.11)
        assert j.durable_sequence == 1
        assert j.flushes == 1

    def test_loss_window_is_100ms(self):
        assert Journal().max_loss_window == pytest.approx(0.1)
        assert FLUSH_INTERVAL == pytest.approx(0.1)

    def test_surviving_vs_lost(self):
        j = Journal()
        j.append(0.01, JournalOp.INSERT, "c", "k1", b"a")
        j.flush(0.02)
        j.append(0.03, JournalOp.INSERT, "c", "k2", b"b")
        assert [e.key for e in j.surviving_entries()] == ["k1"]
        assert [e.key for e in j.lost_entries()] == ["k2"]

    def test_replay_keeps_last_image_and_removes(self):
        j = Journal()
        j.append(0.0, JournalOp.INSERT, "c", "k", b"v1")
        j.append(0.01, JournalOp.UPDATE, "c", "k", b"v2")
        j.append(0.02, JournalOp.REMOVE, "c", "gone")
        j.flush(0.03)
        images = j.replay()
        assert images[("c", "k")] == b"v2"
        assert images[("c", "gone")] is None

    def test_clock_monotonicity(self):
        j = Journal()
        j.flush(1.0)
        with pytest.raises(StorageError):
            j.append(0.5, JournalOp.INSERT, "c", "k")


class TestWriteAhead:
    """Writes hit the journal before the mongod — order is the guarantee."""

    def test_update_survives_once_flushed(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": "k", "field0": "v1"})
        node.advance(0.15)
        node.update("c", "k", "field0", "v2")
        node.advance(0.15)
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", "k")["field0"] == "v2"

    def test_failed_journal_append_leaves_mongod_untouched(self):
        """If the journal write fails, the data page must not change."""
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": "k", "field0": "v1"})
        node.advance(0.15)
        node.journal.flush(10.0)  # journal clock runs ahead of node.clock
        with pytest.raises(StorageError):
            node.update("c", "k", "field0", "v2")
        assert node.find_one("c", "k")["field0"] == "v1"

    def test_update_of_missing_key_is_not_journaled(self):
        node = JournaledMongod(Mongod("m0"))
        assert node.update("c", "ghost", "field0", "v") is False
        assert node.journal.entries == []

    def test_remove_within_window_resurrects_on_recovery(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": "k", "field0": "v"})
        node.advance(0.15)  # the insert is durable
        assert node.remove("c", "k") is True
        assert node.find_one("c", "k") is None  # gone on the live node...
        node.advance(0.05)  # ...but the tombstone never flushed
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", "k") is not None

    def test_flushed_remove_stays_removed(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": "k", "field0": "v"})
        node.advance(0.15)
        node.remove("c", "k")
        node.advance(0.15)
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", "k") is None

    def test_remove_of_missing_key_is_not_journaled(self):
        node = JournaledMongod(Mongod("m0"))
        assert node.remove("c", "ghost") is False
        assert node.journal.entries == []

    def test_replay_interleaves_updates_and_removes(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": "keep", "field0": "v1"})
        node.insert("c", {"_id": "drop", "field0": "v1"})
        node.advance(0.15)
        node.update("c", "keep", "field0", "v2")
        node.remove("c", "drop")
        node.insert("c", {"_id": "drop", "field0": "v3"})  # re-insert
        node.advance(0.15)
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", "keep")["field0"] == "v2"
        assert recovered.find_one("c", "drop")["field0"] == "v3"


class TestStoredImages:
    """The journal holds the bytes mongod stores: an insert encodes once,
    an update's after-image is ``bson.with_field`` over the stored bytes,
    and recovery stores the images as they are.  Decoding and re-encoding
    them made 2 encodes per insert, 1 decode and 1 encode per update and
    per recovered image, with the same mongod ops and lock counts."""

    def test_codec_calls_and_images(self, monkeypatch, spy_calls):
        from repro.docstore import bson

        node = JournaledMongod(Mongod("m0"))
        calls = spy_calls((bson, "encode"), (bson, "decode"))
        node.insert("c", {"_id": "k", "field0": "v1", "n": 2**40})
        assert calls == ["encode"]
        node.advance(0.15)
        node.update("c", "k", "field0", "v2")
        node.update("c", "k", "field1", None)
        node.advance(0.15)
        assert calls == ["encode"]
        recovered = node.crash_and_recover()
        assert calls == ["encode"]
        monkeypatch.undo()
        assert (node.mongod.ops, node.mongod.lock.read_acquisitions,
                node.mongod.lock.write_acquisitions) == (5, 2, 3)
        image = bson.encode({"_id": "k", "field0": "v2", "n": 2**40,
                             "field1": None})
        assert node.journal.entries[-1].document == image
        assert recovered.collection("c").find_encoded("k") == image
        assert node.mongod.collection("c").find_encoded("k") == image


class TestRefusedInsert:
    def test_refused_duplicate_is_not_journaled(self):
        """A refused duplicate insert used to reach the journal before
        mongod refused it: the live store kept the original, but recovery
        replayed the refused replacement (2 journal entries)."""
        node = JournaledMongod(Mongod("m"))
        original = {"_id": "k", "f": "original"}
        node.insert("c", original)
        with pytest.raises(StorageError, match="duplicate _id"):
            node.insert("c", {"_id": "k",
                              "f": "a much longer replacement value"})
        assert node.find_one("c", "k") == original
        assert [e.key for e in node.journal.entries] == ["k"]
        node.advance(0.15)
        assert node.crash_and_recover().find_one("c", "k") == original
        # Refused by mongod itself: one op and a write hold, as before.
        assert (node.mongod.ops, node.mongod.lock.read_acquisitions,
                node.mongod.lock.write_acquisitions) == (3, 1, 2)


class TestDurabilityGap:
    """The paper's §3.4.1 argument, executed."""

    def test_acknowledged_mongo_write_can_be_lost(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": make_key(1), "field0": "v"})
        # The client got its safe-mode ack; the read sees the write...
        assert node.find_one("c", make_key(1)) is not None
        # ...but the process dies 50 ms later, inside the flush window.
        node.advance(0.05)
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", make_key(1)) is None  # LOST

    def test_flushed_mongo_write_survives(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": make_key(1), "field0": "v"})
        node.advance(0.15)  # a flush cycle passes
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", make_key(1))["field0"] == "v"

    def test_updates_recover_to_last_flushed_image(self):
        node = JournaledMongod(Mongod("m0"))
        node.insert("c", {"_id": "k", "field0": "v1"})
        node.advance(0.15)
        node.update("c", "k", "field0", "v2")
        node.advance(0.15)
        node.update("c", "k", "field0", "v3-unflushed")
        node.advance(0.05)  # crash before the next flush
        recovered = node.crash_and_recover()
        assert recovered.find_one("c", "k")["field0"] == "v2"

    def test_sql_server_has_no_such_window(self):
        """The contrast: SQL forces the log at commit — zero loss window."""
        sql = SqlServerNode(checkpoint_interval_ops=10**9)
        sql.insert(make_key(1), {"field0": "v"})
        # Crash immediately; the commit already forced the log.
        recovered, _ = crash(sql).recover()
        assert recovered.read(make_key(1))["field0"] == "v"

    def test_loss_bounded_by_flush_interval(self):
        node = JournaledMongod(Mongod("m0"))
        lost_batches = []
        for batch in range(5):
            for i in range(10):
                node.insert("c", {"_id": make_key(batch * 10 + i), "v": "x"})
            node.advance(0.11)  # flush between batches
        # Everything flushed so far survives; now one unflushed batch.
        for i in range(50, 60):
            node.insert("c", {"_id": make_key(i), "v": "x"})
        recovered = node.crash_and_recover()
        survivors = sum(
            1 for i in range(60) if recovered.find_one("c", make_key(i)) is not None
        )
        assert survivors == 50  # exactly the unflushed 100 ms batch is gone
