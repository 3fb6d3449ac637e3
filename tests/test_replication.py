"""Replica sets, write concerns, and SQL mirroring — the HA layer's contract."""

import pytest

from repro.common.errors import ConfigurationError, ReplicaSetUnavailable
from repro.replication import (
    CONCERNS,
    DEFAULT_ELECTION_TIMEOUT,
    JOURNAL_LOSS_WINDOW,
    JOURNALED,
    MAJORITY,
    SAFE,
    SPECTRUM,
    UNACKED,
    ReplicaSet,
    ReplicationConfig,
    WriteConcern,
    parse_concern_list,
)
from repro.sqlstore.mirroring import MirroredSqlServerNode


class TestWriteConcern:
    def test_spectrum_is_ordered_weakest_to_strongest(self):
        assert [c.name for c in SPECTRUM] == [
            "unacked", "safe", "journaled", "majority",
        ]

    def test_parse_names_and_aliases(self):
        assert WriteConcern.parse("safe") is SAFE
        assert WriteConcern.parse("replicated") is MAJORITY
        custom = WriteConcern.parse("w:2")
        assert custom.w == 2 and custom.journal

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            WriteConcern.parse("fsync-everything")
        with pytest.raises(ConfigurationError):
            WriteConcern.parse("w:1")  # w:N is for N >= 2

    def test_loss_windows(self):
        assert UNACKED.loss_window == pytest.approx(JOURNAL_LOSS_WINDOW)
        assert SAFE.loss_window == pytest.approx(JOURNAL_LOSS_WINDOW)
        assert JOURNALED.loss_window == 0.0
        assert MAJORITY.loss_window == 0.0

    def test_required_members(self):
        assert MAJORITY.required_members(3) == 2
        assert MAJORITY.required_members(5) == 3
        assert SAFE.required_members(3) == 1

    def test_parse_concern_list(self):
        assert tuple(parse_concern_list("all")) == SPECTRUM
        assert tuple(parse_concern_list("safe,majority")) == (SAFE, MAJORITY)
        assert set(CONCERNS) >= {"unacked", "safe", "journaled", "majority"}


class TestReplicationConfig:
    def test_parse_off_and_on(self):
        assert ReplicationConfig.parse("off") is None
        assert ReplicationConfig.parse("on") == ReplicationConfig()

    def test_parse_key_values(self):
        config = ReplicationConfig.parse("replicas=5,lag=0.02,timeout=0.5")
        assert config.replicas == 5
        assert config.lag == pytest.approx(0.02)
        assert config.election_timeout == pytest.approx(0.5)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig.parse("replicas=many")
        with pytest.raises(ConfigurationError):
            ReplicationConfig.parse("flux=1")

    def test_concern_must_fit_membership(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(replicas=1, concern=WriteConcern.parse("w:2"))

    def test_spec_string_round_trips(self):
        config = ReplicationConfig(replicas=3)
        assert ReplicationConfig.parse(config.spec_string()) == config


def make_set(**kwargs) -> ReplicaSet:
    kwargs.setdefault("members", 3)
    kwargs.setdefault("seed", 5)
    return ReplicaSet("rs-test", **kwargs)


def write_some(rs: ReplicaSet, count: int, start: int = 0,
               step: float = 0.002) -> None:
    for i in range(start, start + count):
        rs.insert("c", {"_id": f"k{i:04d}", "field0": "v"})
        rs.tick(rs.now + step)


class TestReplicaSet:
    def test_writes_replicate_to_secondaries(self):
        rs = make_set(concern=SAFE)
        write_some(rs, 20)
        rs.settle(rs.now + 1.0)
        assert all(m.applied_seq == 20 for m in rs.members)

    def test_secondary_reads_can_be_stale(self):
        rs = make_set(concern=SAFE, lag=0.5)
        rs.insert("c", {"_id": "fresh", "field0": "v"})
        # Before the lag elapses the secondaries have not applied the write.
        found = rs.find_one("c", "fresh", prefer_secondary=True)
        assert found is None
        assert rs.stale_reads >= 1

    def test_kill_primary_elects_a_new_one(self):
        rs = make_set(concern=SAFE)
        write_some(rs, 30)
        rs.settle(rs.now + 1.0)
        old_primary = rs.primary_index
        rs.kill_member(old_primary)
        with pytest.raises(ReplicaSetUnavailable):
            rs.insert("c", {"_id": "during-outage", "field0": "v"})
        rs.tick(rs.now + rs.election_timeout + 0.01)
        assert rs.elections == 1
        assert rs.primary_index != old_primary
        rs.insert("c", {"_id": "after-failover", "field0": "v"})

    def test_election_emits_failover_span(self):
        from repro.obs import Tracer

        tracer = Tracer()
        rs = ReplicaSet("rs-span", members=3, seed=5, tracer=tracer)
        write_some(rs, 10)
        rs.settle(rs.now + 1.0)
        rs.kill_member(rs.primary_index)
        rs.tick(rs.now + rs.election_timeout + 0.01)
        spans = [s for s in tracer.spans if s.name == "election.failover"]
        assert len(spans) == 1
        assert spans[0].cat == "election"
        assert spans[0].args["term"] == rs.term

    def test_safe_mode_loss_bounded_by_flush_window(self):
        rs = make_set(concern=SAFE)
        write_some(rs, 200)
        kill_time = rs.now
        rs.kill_member(rs.primary_index)
        for lost in rs.lost_records():
            assert kill_time - lost.entry.time <= JOURNAL_LOSS_WINDOW + 1e-9

    def test_majority_acked_writes_survive_any_single_failover(self):
        rs = make_set(concern=MAJORITY)
        write_some(rs, 50)
        rs.kill_member(rs.primary_index)
        rs.tick(rs.now + rs.election_timeout + 0.01)
        rs.settle(rs.now + 1.0)
        assert rs.lost_records() == []
        for i in range(50):
            assert rs.find_one("c", f"k{i:04d}") is not None

    def test_no_quorum_means_unavailable(self):
        rs = make_set(concern=SAFE)
        write_some(rs, 5)
        rs.partition_member(1)
        rs.partition_member(2)
        rs.kill_member(rs.primary_index)
        rs.tick(rs.now + rs.election_timeout + 0.01)
        assert rs.elections == 0  # one reachable member is not a quorum
        with pytest.raises(ReplicaSetUnavailable):
            rs.insert("c", {"_id": "nope", "field0": "v"})

    def test_majority_ack_needs_reachable_secondaries(self):
        rs = make_set(concern=MAJORITY)
        rs.partition_member(1)
        rs.partition_member(2)
        with pytest.raises(ReplicaSetUnavailable):
            rs.insert("c", {"_id": "w-needs-quorum", "field0": "v"})

    def test_ack_delay_orders_concern_spectrum(self):
        """Stronger concerns cost more acknowledged latency."""
        delays = {}
        for concern in SPECTRUM:
            rs = make_set(concern=concern)
            total = 0.0
            for i in range(40):
                rs.insert("c", {"_id": f"k{i:04d}", "field0": "v"})
                total += rs.consume_ack_delay()
                rs.tick(rs.now + 0.002)
            delays[concern.name] = total
        assert delays["unacked"] == 0.0
        assert delays["unacked"] <= delays["safe"] <= delays["journaled"]
        assert delays["safe"] < delays["majority"]

    def test_rolled_back_entries_recover_from_returning_member(self):
        """A member that durably holds rolled-back writes re-applies them."""
        rs = make_set(concern=SAFE, lag=0.001)
        write_some(rs, 100, step=0.005)
        rs.settle(rs.now + 1.0)
        # Now a burst the secondaries never see: partition both, write, kill.
        rs.partition_member(1)
        rs.partition_member(2)
        victim = rs.primary_index
        burst_start = rs.now
        while rs.now - burst_start < 0.25:  # crosses a journal flush
            rs.insert("c", {"_id": f"burst{rs.oplog[-1].seq}", "field0": "v"})
            rs.tick(rs.now + 0.02)
        rs.kill_member(victim)
        assert rs.rolled_back  # durably-journaled burst writes rolled back
        rs.heal_member(1)
        rs.heal_member(2)
        rs.tick(rs.now + rs.election_timeout + 0.01)
        rs.restart_member(victim)
        rs.settle(rs.now + 1.0)
        recovered = [r for r in rs.rolled_back if r.recovered]
        assert recovered
        for record in recovered:
            assert rs.find_one("c", record.entry.key) is not None

    def test_replication_copies_stored_bytes(self, monkeypatch, spy_calls):
        """A majority insert, delivered to every member, makes one
        ``bson.encode`` and no ``bson.decode``; an update makes neither
        (its image is ``bson.with_field`` over the stored bytes).  Decoding
        each oplog image to apply it made 4 encodes and 3 decodes for the
        insert, and 1 of each for the update, with the same per-mongod ops
        and lock counts."""
        from repro.docstore import bson

        rs = make_set(concern=MAJORITY)
        calls = spy_calls((bson, "encode"), (bson, "decode"))
        rs.insert("c", {"_id": "k", "field0": "v", "n": 1})
        rs.settle(rs.now + 1.0)
        assert calls == ["encode"]
        rs.update("c", "k", "field0", "w")
        rs.settle(rs.now + 1.0)
        assert calls == ["encode"]
        monkeypatch.undo()
        assert [(m.mongod.ops, m.mongod.lock.read_acquisitions,
                 m.mongod.lock.write_acquisitions) for m in rs.members] == [
            (4, 2, 2), (3, 1, 2), (3, 1, 2)]
        image = bson.encode({"_id": "k", "field0": "w", "n": 1})
        assert [m.mongod.collection("c").find_encoded("k")
                for m in rs.members] == [image] * 3
        assert rs.find_encoded("c", "k") == image

    def test_unavailable_seconds_accrue_during_failover(self):
        rs = make_set(concern=SAFE)
        write_some(rs, 10)
        rs.settle(rs.now + 1.0)
        rs.kill_member(rs.primary_index)
        rs.tick(rs.now + rs.election_timeout + 0.05)
        assert rs.unavailable_seconds() >= DEFAULT_ELECTION_TIMEOUT


    @pytest.mark.parametrize("concern", [SAFE, MAJORITY],
                             ids=["w1", "majority"])
    def test_duplicate_insert_is_refused_at_the_primary(self, concern):
        """A duplicate ``_id`` used to be acknowledged: every member
        journaled the replacement before ``apply`` skipped it, so a journal
        replay gave the replacement.  It is refused before the oplog."""
        from repro.common.errors import StorageError

        rs = make_set(concern=concern)
        rs.insert("c", {"_id": "k", "f": "original"})
        rs.settle(rs.now + 1.0)
        before = [(m.journal.replay(), m.mongod.collection("c")
                   .find_encoded("k"), m.mongod.ops) for m in rs.members]
        oplog = len(rs.oplog)
        with pytest.raises(StorageError, match="duplicate _id 'k'"):
            rs.insert("c", {"_id": "k",
                            "f": "a much longer replacement value"})
        rs.settle(rs.now + 1.0)
        assert len(rs.oplog) == oplog
        assert [(m.journal.replay(), m.mongod.collection("c")
                 .find_encoded("k"), m.mongod.ops)
                for m in rs.members] == before
        assert rs.find_one("c", "k") == {"_id": "k", "f": "original"}


class TestMirroredSqlServer:
    def test_synchronous_commit_charges_latency(self):
        node = MirroredSqlServerNode("m")
        node.insert("k1", {"field0": "v"})
        assert node.consume_ack_delay() == pytest.approx(
            node.mirror_commit_latency
        )
        assert node.consume_ack_delay() == 0.0  # drained

    def test_principal_crash_loses_nothing(self):
        node = MirroredSqlServerNode("m")
        for i in range(25):
            node.insert(f"k{i:03d}", {"field0": "v"})
        node.update("k000", "field0", "v2")
        rows = node.crash_principal_and_verify()
        assert rows == 25
        assert node.failovers == 1
        assert node.read("k000")["field0"] == "v2"

    def test_degraded_solo_mode_then_resync(self):
        node = MirroredSqlServerNode("m")
        node.insert("k0", {"field0": "v"})
        node.kill()  # mirror promotes
        # Old principal is down: writes keep landing, unmirrored (delay 0).
        node.insert("k1", {"field0": "v"})
        assert node.consume_ack_delay() == 0.0
        node.restart()
        assert node.mirror.alive
        # The resynced mirror holds everything, including the solo write.
        node.kill()
        assert node.row_count == 2

    def test_resync_copies_row_bytes(self, monkeypatch, spy_calls):
        """The rebuilt mirror holds the principal's rows byte for byte, and
        building it decodes and encodes no row."""
        from repro.sqlstore import server

        node = MirroredSqlServerNode("m")
        for i in range(30):
            node.insert(f"k{i:03d}", {"field0": f"v{i}", "f\u00e9": "\u00fc" * i})
        node.update("k007", "field1", "grown")
        node.kill()  # the mirror promotes; the old principal is down
        node.insert("k100", {"field0": "solo"})
        calls = spy_calls((server, "encode_row"), (server, "decode_row"))
        node.restart()
        assert calls == []
        monkeypatch.undo()
        assert node.mirror.row_count == node.principal.row_count == 31
        assert (node.mirror.scan_entries("", 31)
                == node.principal.scan_entries("", 31))

    def test_total_outage_recovers_from_wal(self):
        node = MirroredSqlServerNode("m")
        node.insert("k0", {"field0": "v"})
        node.kill()
        node.kill()  # both partners down now
        assert not node.alive
        node.restart()
        assert node.alive
        assert node.read("k0")["field0"] == "v"


class TestClusterWiring:
    def test_mongo_as_replicated_shards_fail_over(self):
        from repro.docstore.cluster import MongoAsCluster
        from repro.faults.availability import CHAOS_RETRY_POLICY
        from repro.faults.plan import FaultPlan
        from repro.faults.runner import FaultedYcsbRun
        from repro.ycsb.workloads import WORKLOADS, make_key

        record_count = 300
        cluster = MongoAsCluster(
            shard_count=4, max_chunk_docs=10 * record_count, mongos_count=2,
            replication=ReplicationConfig(replicas=3), seed=3,
        )
        boundaries = [make_key(i * record_count // 32) for i in range(1, 32)]
        cluster.pre_split(boundaries)
        plan = FaultPlan.parse("kill-shard:1@0.4", seed=3)
        runner = FaultedYcsbRun(
            cluster, WORKLOADS["A"], record_count=record_count,
            operations=400, plan=plan, policy=CHAOS_RETRY_POLICY, seed=3,
        )
        runner.load()
        stats = runner.run()
        # The replica set elects a new primary inside the retry budget:
        # zero client-visible errors, availability 1.0.
        assert stats.error_count == 0
        assert stats.availability == 1.0
        assert sum(s.elections for s in cluster.shards) >= 1

    def test_bare_cluster_baseline_accounting_unchanged(self):
        """replication=None must reproduce the PR 3 error accounting."""
        from repro.faults.plan import FaultPlan
        from repro.common.envelope import dumps_report
        from repro.faults.report import oltp_fault_report

        plan = FaultPlan.parse("kill-shard:0@0.25;restart-shard:0@0.75",
                               seed=7)

        def run(**kwargs):
            return dumps_report(oltp_fault_report(
                plan, workload="A", system="mongo-as", shard_count=8,
                record_count=600, operations=1200, **kwargs,
            ).to_dict())

        assert run() == run(replication=None)

    def test_sql_cs_mirrored_cluster(self):
        from repro.sqlstore.cluster import SqlCsCluster

        cluster = SqlCsCluster(shard_count=2, mirrored=True)
        cluster.insert("user0000000001", {"field0": "v"})
        assert cluster.consume_ack_delay() > 0.0
        write = cluster.take_last_write()
        assert write is not None and write.concern == "mirrored"
        cluster.kill_shard(0)
        cluster.kill_shard(1)
        assert cluster.read("user0000000001")["field0"] == "v"
