"""Elastic resharding: topology plans, the migration engine, ring/chunk
handoffs, write safety under chaos, and the repro-reshard/1 report."""

import json

import pytest

from repro.cli import main
from repro.common.envelope import dumps_report
from repro.common.errors import (
    ChunkMoving,
    ConfigurationError,
    FaultPlanError,
    ServerCrashed,
    ShardingError,
)
from repro.docstore.cluster import MongoAsCluster, MongoCsCluster
from repro.docstore.reshard import COMMIT_CRITICAL_S, Migration, MigrationEngine
from repro.docstore.ring import HashRing, vnode_point
from repro.faults.chaos import ChaosConfig
from repro.faults.plan import TOPOLOGY_KINDS, FaultPlan, FaultSpec
from repro.faults.reshard import (
    SCHEMA,
    render_reshard_report,
    reshard_report,
    reshard_row,
    validate_reshard_report,
)
from repro.replication import JOURNALED
from repro.sqlstore.cluster import SqlCsCluster
from repro.ycsb.workloads import make_key


class TestTopologyPlan:
    def test_scale_and_drain_parse(self):
        plan = FaultPlan.parse("scale:shards=6@0.3;drain:shard=1@0.6", seed=1)
        kinds = [f.kind for f in plan.faults]
        assert kinds == ["scale", "drain"]
        assert all(k in TOPOLOGY_KINDS for k in kinds)
        assert tuple(plan.topology_faults) == plan.faults

    def test_scale_target_extraction(self):
        spec = FaultSpec("scale", "shards=6", 0.3)
        assert spec.scale_target() == 6
        drain = FaultSpec("drain", "shard=2", 0.4)
        assert drain.drain_target() == 2

    @pytest.mark.parametrize("bad", [
        "scale:shards=x@0.3",     # non-numeric count
        "scale:shards=0@0.3",     # must grow to >= 1
        "scale:count=6@0.3",      # wrong knob name
        "drain:shards=1@0.3",     # drain takes shard=K
        "drain:shard=@0.3",       # empty index
    ])
    def test_malformed_topology_specs_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad, seed=1)


class TestHashRingElasticity:
    def test_owner_of_hash_agrees_with_vnode_points(self):
        ring = HashRing(range(4))
        for node in range(4):
            for replica in range(0, ring.vnodes, 7):
                point = vnode_point(node, replica)
                assert ring.owner_of_hash(point) == node

    def test_growing_the_ring_moves_only_arcs_to_the_new_node(self):
        old = HashRing(range(4))
        new = old.with_nodes(range(5))
        keys = [make_key(i) for i in range(500)]
        moved = 0
        for key in keys:
            before, after = old.node_for(key), new.node_for(key)
            if after != before:
                assert after == 4  # minimal movement: arcs only hand *to* it
                moved += 1
        assert 0 < moved < len(keys) // 2

    def test_shrinking_moves_only_the_removed_nodes_keys(self):
        old = HashRing(range(4))
        new = old.with_nodes([0, 1, 3])
        for key in (make_key(i) for i in range(500)):
            if old.node_for(key) != 2:
                assert new.node_for(key) == old.node_for(key)
            else:
                assert new.node_for(key) != 2


class TestMigrationEngine:
    @staticmethod
    def _engine(**kwargs):
        kwargs.setdefault("throttle", 1.0)
        return MigrationEngine(lambda shard: 0.5, 2, **kwargs)

    def test_throttle_validated(self):
        with pytest.raises(ShardingError):
            self._engine(throttle=0.0)
        with pytest.raises(ShardingError):
            self._engine(throttle=1.5)

    def test_copy_catchup_commit_lifecycle(self):
        engine = self._engine()
        engine.submit(Migration(
            source=0, target=1, label="m0",
            covers=lambda key: True,
            count_docs=lambda: 64,
            commit=lambda: 64,
        ), now=0.0)
        assert not engine.idle
        end = engine.run_to_completion(0.0)
        assert engine.idle
        assert engine.migrations == 1
        assert engine.moved_docs == 64
        assert engine.aborted_commits == 0
        assert engine.time_to_rebalance == pytest.approx(end, abs=1e-6)
        assert engine.time_to_rebalance > COMMIT_CRITICAL_S

    def test_throttle_slows_the_rebalance(self):
        def runtime(throttle):
            engine = self._engine(throttle=throttle)
            engine.submit(Migration(
                source=0, target=1, label="m",
                covers=lambda key: True,
                count_docs=lambda: 256,
                commit=lambda: 256,
            ), now=0.0)
            engine.run_to_completion(0.0)
            return engine.time_to_rebalance

        assert runtime(0.25) > runtime(1.0)

    def test_copy_traffic_queues_foreground_ops(self):
        engine = self._engine()
        engine.submit(Migration(
            source=0, target=1, label="m",
            covers=lambda key: True,
            count_docs=lambda: 256,
            commit=lambda: 256,
        ), now=0.0)
        engine.advance(1e-6)  # first batch occupies both FIFOs
        quiet = engine.op_cost(3, 1e-6)   # uninvolved shard: no queueing
        busy = engine.op_cost(0, 1e-6)    # migration source: queues
        assert busy > quiet > 0.0

    def test_dead_shard_aborts_commit_then_retries(self):
        state = {"down": True, "commits": 0}

        def commit():
            if state["down"]:
                raise ServerCrashed("shard is down")
            state["commits"] += 1
            return 10

        engine = self._engine()
        engine.submit(Migration(
            source=0, target=1, label="m",
            covers=lambda key: True,
            count_docs=lambda: 10,
            commit=commit,
        ), now=0.0)
        engine.advance(0.0)   # copy batch in flight
        engine.advance(0.5)   # copy + catchup done; commit window opens
        engine.advance(1.0)   # window elapsed, shard dead: abort
        assert engine.aborted_commits >= 1
        assert engine.migrations == 0
        state["down"] = False
        engine.run_to_completion(1.0)
        assert engine.migrations == 1
        assert state["commits"] == 1
        assert engine.moved_docs == 10

    def test_note_write_becomes_catchup_work(self):
        engine = self._engine()
        migration = Migration(
            source=0, target=1, label="m",
            covers=lambda key: key.startswith("a"),
            count_docs=lambda: 64,
            commit=lambda: 64,
        )
        engine.submit(migration, now=0.0)
        engine.advance(1e-6)  # begins copying
        engine.note_write("abc")    # on the moving range
        engine.note_write("zzz")    # elsewhere: ignored
        assert migration.mods == 1
        engine.run_to_completion(0.0)
        assert engine.stats()["mods_replayed"] == 1


class _ElasticCases:
    """Cases every elastic cluster passes; a subclass's ``_loaded_cluster``
    builds a loaded two-shard cluster (at least 120 keys)."""

    def test_drain_guards(self):
        cluster = self._loaded_cluster()
        cluster.attach_reshard()
        with pytest.raises(ShardingError):
            cluster.drain_shard(9)
        cluster.drain_shard(1)
        with pytest.raises(ShardingError):
            cluster.drain_shard(1)  # already drained
        with pytest.raises(ShardingError):
            cluster.drain_shard(0)  # would leave zero active shards


class _HashElasticCases(_ElasticCases):
    """Cases both hash clusters pass through the shared ring handoff; a
    subclass names the row field its scans return keys in."""

    key_field: str

    def test_scan_stays_exact_mid_migration(self):
        cluster = self._loaded_cluster()
        engine = cluster.attach_reshard(throttle=1.0)
        cluster.scale_to(3, now=0.0)
        # Sample the scan at several points of the handoff, including
        # post-commit/pre-cleanup moments when strays exist: the engine
        # flips ownership, and only the cluster's tick deletes the strays.
        t = 0.0
        while not engine.idle and t < 30.0:
            engine.advance(t)
            try:
                rows = cluster.scan(make_key(0), 120)
            except ChunkMoving:
                t += 0.004
                continue
            assert ([r[self.key_field] for r in rows]
                    == [make_key(i) for i in range(120)])
            cluster.tick(t)
            t += 0.004

    def test_commit_window_bounces_with_chunk_moving(self):
        cluster = self._loaded_cluster()
        engine = cluster.attach_reshard(throttle=1.0)
        cluster.scale_to(3, now=0.0)
        keys = [make_key(i) for i in range(120)]
        frozen_key, frozen_at = None, None
        t = 0.0
        while engine.migrations < 8 and frozen_key is None and t < 30.0:
            engine.advance(t)
            for key in keys:
                if engine.frozen_shard(key, t) is not None:
                    frozen_key, frozen_at = key, t
                    break
            t += COMMIT_CRITICAL_S / 4
        assert frozen_key is not None, "no commit window covered a live key"
        cluster.tick(frozen_at)
        with pytest.raises(ChunkMoving) as exc:
            cluster.read(frozen_key)
        assert isinstance(exc.value.shard, int)


class TestMongoAsElastic(_ElasticCases):
    @staticmethod
    def _loaded_cluster(shard_count=2, docs=200):
        cluster = MongoAsCluster(
            shard_count=shard_count, max_chunk_docs=10_000,
            mongos_count=2, seed=7,
        )
        cluster.pre_split([make_key(i * docs // 8) for i in range(1, 8)])
        for i in range(docs):
            cluster.insert(make_key(i), {"field0": "v"})
        return cluster

    def test_scale_to_requires_an_engine(self):
        cluster = self._loaded_cluster()
        with pytest.raises(ConfigurationError):
            cluster.scale_to(4)

    def test_scale_up_levels_chunks_and_loses_nothing(self):
        cluster = self._loaded_cluster()
        engine = cluster.attach_reshard(throttle=1.0)
        queued = cluster.scale_to(4, now=0.0)
        assert queued >= 2
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)  # deferred stray cleanup
        counts = cluster.config.shard_chunk_counts(4)
        assert max(counts) - min(counts) <= 1
        assert cluster.doc_count == 200  # strays deleted, nothing lost
        for i in range(0, 200, 7):
            assert cluster.read(make_key(i)) == {"field0": "v"}

    def test_drain_evacuates_and_retires_the_shard(self):
        cluster = self._loaded_cluster()
        engine = cluster.attach_reshard(throttle=1.0)
        queued = cluster.drain_shard(0, now=0.0)
        assert queued >= 1
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        assert cluster.retired_shards == {0}
        assert all(c.shard != 0 for c in cluster.config.chunks)
        assert len(cluster.shards[0].collection(cluster.collection)) == 0
        for i in range(0, 200, 7):
            assert cluster.read(make_key(i)) == {"field0": "v"}

    def test_scale_down_is_drain_not_scale(self):
        cluster = self._loaded_cluster(shard_count=4)
        cluster.attach_reshard()
        with pytest.raises(ShardingError):
            cluster.scale_to(2)


class TestMongoCsElastic(_HashElasticCases):
    key_field = "_id"

    @staticmethod
    def _loaded_cluster(shard_count=2, docs=120):
        cluster = MongoCsCluster(shard_count=shard_count, seed=7,
                                 elastic=True)
        for i in range(docs):
            cluster.insert(make_key(i), {"field0": "v"})
        return cluster

    def test_attach_requires_elastic_ring(self):
        cluster = MongoCsCluster(shard_count=2)
        with pytest.raises(ConfigurationError):
            cluster.attach_reshard()

    def test_default_mode_keeps_mod_n_routing(self):
        plain = MongoCsCluster(shard_count=4)
        assert plain.ring is None
        from repro.docstore.cluster import hash_shard
        key = make_key(3)
        assert plain._shard_index(key) == hash_shard(key, 4)

    def test_scale_up_hands_off_arcs_and_loses_nothing(self):
        cluster = self._loaded_cluster()
        engine = cluster.attach_reshard(throttle=1.0)
        queued = cluster.scale_to(3, now=0.0)
        assert queued >= 1
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        assert cluster.doc_count == 120
        new_shard = cluster.shards[2].collection(cluster.collection)
        assert len(new_shard) > 0  # the new node actually took arcs
        for i in range(120):
            assert cluster.read(make_key(i)) == {"field0": "v"}

    def test_drain_hands_arcs_to_survivors(self):
        cluster = self._loaded_cluster(shard_count=3)
        engine = cluster.attach_reshard(throttle=1.0)
        cluster.drain_shard(1, now=0.0)
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        assert cluster.retired_shards == {1}
        assert 1 not in cluster.ring.nodes
        assert len(cluster.shards[1].collection(cluster.collection)) == 0
        for i in range(120):
            assert cluster.read(make_key(i)) == {"field0": "v"}


class TestSqlCsElastic(_HashElasticCases):
    key_field = "_key"

    @staticmethod
    def _loaded_cluster(shard_count=2, docs=120):
        cluster = SqlCsCluster(shard_count=shard_count, elastic=True)
        for i in range(docs):
            cluster.insert(make_key(i), {"field0": "v"})
        return cluster

    def test_scale_up_moves_rows_transactionally(self):
        cluster = SqlCsCluster(shard_count=2, elastic=True)
        for i in range(80):
            cluster.insert(make_key(i), {"field0": "v"})
        engine = cluster.attach_reshard(throttle=1.0)
        queued = cluster.scale_to(3, now=0.0)
        assert queued >= 1
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        assert engine.moved_docs > 0
        for i in range(80):
            assert cluster.read(make_key(i)) == {"field0": "v"}
        rows = cluster.scan(make_key(0), 10)
        assert [r["_key"] for r in rows] == [make_key(i) for i in range(10)]

    def test_drain_and_retire(self):
        cluster = SqlCsCluster(shard_count=3, elastic=True)
        for i in range(80):
            cluster.insert(make_key(i), {"field0": "v"})
        engine = cluster.attach_reshard(throttle=1.0)
        cluster.drain_shard(2, now=0.0)
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        assert cluster.retired_shards == {2}
        assert cluster.shards[2].keys_in_range("") == []
        for i in range(80):
            assert cluster.read(make_key(i)) == {"field0": "v"}

    def test_attach_requires_elastic(self):
        cluster = SqlCsCluster(shard_count=2)
        with pytest.raises(ConfigurationError):
            cluster.attach_reshard()


@pytest.fixture(scope="module")
def report():
    return reshard_report(
        systems=["mongo-as", "mongo-cs"], reshard="scale:shards=3@0.3",
        shard_count=2, record_count=150, operations=300, seed=11,
    )


class TestArcHandoffKeyBounds:
    @pytest.mark.parametrize("cluster_class", [MongoCsCluster, SqlCsCluster])
    def test_scale_up_hands_off_keys_past_uffff(self, cluster_class):
        """A shard's key inventory has no upper bound.  Bounded by
        "\\uffff", it left out "\\uffff" and "\\uffffz", which read None
        once their arcs had moved."""
        cluster = cluster_class(shard_count=2, elastic=True)
        keys = [f"user{i:04d}" for i in range(10)]
        keys += ["\uffff", "\uffffz", "\U0001F600k"]
        for key in keys:
            cluster.insert(key, {"field0": key})
        engine = cluster.attach_reshard()
        cluster.scale_to(4, now=0.0)
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        for key in keys:
            assert cluster.read(key) == {"field0": key}


class TestArcHandoffCopiesStoredBytes:
    def test_mongo_cs_handoff_neither_decodes_nor_encodes(self, monkeypatch,
                                                          spy_calls):
        """Scaling an elastic 2-shard Mongo-CS cluster of 200 records to 4
        hands off 111 documents.  Each was copied through a decoding read
        and an encoding insert (111 ``bson.decode`` and 111 ``bson.encode``
        calls); the copy step now moves the stored bytes as they are."""
        from repro.docstore import bson

        cluster = MongoCsCluster(shard_count=2, elastic=True)
        records = {make_key(i): {"field0": f"v{i}", "field1": "x" * (i % 7)}
                   for i in range(200)}
        for key, record in records.items():
            cluster.insert(key, record)
        engine = cluster.attach_reshard()
        calls = spy_calls((bson, "encode"), (bson, "decode"))
        cluster.scale_to(4, now=0.0)
        end = engine.run_to_completion(0.0)
        cluster.tick(end + 1.0)
        assert calls == []
        monkeypatch.undo()
        assert engine.moved_docs == 111
        # Every document sits on its new owner as the bytes decoding and
        # re-encoding stored, and nowhere else.
        for key, record in records.items():
            held = [shard.collection(cluster.collection).find_encoded(key)
                    for shard in cluster.shards]
            owner = cluster.ring.node_for(key)
            assert held[owner] == bson.encode({"_id": key, **record})
            assert sum(data is not None for data in held) == 1


class TestReshardReport:
    def test_validates(self, report):
        validate_reshard_report(report)
        assert report["schema"] == SCHEMA

    def test_topology_actually_changed(self, report):
        for row in report["rows"]:
            assert row["shards_before"] == 2
            assert row["shards_after"] == 3
            assert row["migrations"] >= 1
            assert row["migrated_docs"] > 0
            assert row["time_to_rebalance_s"] > 0.0

    def test_range_and_hash_elasticity_differ(self, report):
        by_system = {r["system"]: r for r in report["rows"]}
        ranged = by_system["mongo-as"]
        hashed = by_system["mongo-cs"]
        assert ranged["sharding"] == "range"
        assert hashed["sharding"] == "hash"
        assert (ranged["migrations"], ranged["migrated_docs"],
                ranged["time_to_rebalance_s"]) != \
               (hashed["migrations"], hashed["migrated_docs"],
                hashed["time_to_rebalance_s"])

    def test_invariant_holds_without_chaos(self, report):
        assert report["invariant_ok"]
        for row in report["rows"]:
            assert row["violations"] == 0
            # Bare clusters make no durability promises, so the ledger has
            # nothing to check — the audit is only non-trivial under
            # replication (TestWriteSafetyUnderChaos covers that).
            assert row["lost_writes"] == 0

    def test_deterministic_bytes(self, report):
        again = reshard_report(
            systems=["mongo-as", "mongo-cs"], reshard="scale:shards=3@0.3",
            shard_count=2, record_count=150, operations=300, seed=11,
        )
        assert dumps_report(report) == dumps_report(again)

    def test_render_smoke(self, report):
        text = render_reshard_report(report)
        assert "write-safety invariant across migration: holds" in text
        assert "range" in text and "hash" in text

    def test_reshard_plan_must_contain_a_topology_event(self):
        with pytest.raises(FaultPlanError):
            reshard_row("mongo-as", "kill-shard:0@0.3",
                        shard_count=2, record_count=150, operations=300)


class TestRebalanceCeiling:
    def test_scale_up_rebalances_within_ceiling(self):
        # Virtual seconds, so deterministic per seed and machine-neutral
        # (0.380327 at seed 11). Past 1.5 s the throttled migration engine
        # stalls foreground traffic far longer than the scenario intends.
        row = reshard_row("mongo-as", "scale:shards=6@0.3", shard_count=4,
                          record_count=300, operations=600, seed=11)
        assert row["time_to_rebalance_s"] <= 1.5


class TestValidation:
    def test_rejects_wrong_schema(self, report):
        bad = dict(report, schema="repro-availability/1")
        with pytest.raises(ConfigurationError):
            validate_reshard_report(bad)

    def test_rejects_missing_row_field(self, report):
        bad = json.loads(dumps_report(report))
        del bad["rows"][0]["time_to_rebalance_s"]
        with pytest.raises(ConfigurationError):
            validate_reshard_report(bad)

    def test_rejects_zero_migrations(self, report):
        bad = json.loads(dumps_report(report))
        bad["rows"][0]["migrations"] = 0
        with pytest.raises(ConfigurationError):
            validate_reshard_report(bad)

    def test_rejects_inconsistent_invariant(self, report):
        bad = json.loads(dumps_report(report))
        bad["rows"][0]["violations"] = 2
        with pytest.raises(ConfigurationError):
            validate_reshard_report(bad)

    def test_field_replacements_only_raise_configuration_errors(
            self, report, assert_validator_total):
        assert_validator_total(validate_reshard_report, report)


class TestWriteSafetyUnderChaos:
    """The acceptance scenario: kills land during the migration — including
    on a primary mid-commit — and no write acked at its concern is lost."""

    def test_mongo_as_chaos_during_reshard_loses_nothing(self):
        from repro.replication.config import ReplicationConfig

        row = reshard_row(
            "mongo-as", "scale:shards=3@0.25",
            chaos=ChaosConfig(kills=2, partitions=0, lag_spikes=0),
            concern=JOURNALED,
            replication=ReplicationConfig(replicas=3),
            shard_count=2, record_count=150, operations=400, seed=11,
        )
        assert row["violations"] == 0
        assert row["invariant_ok"]
        assert row["acked_writes"] > 0
        assert row["migrations"] >= 1

    def test_sql_cs_kill_during_commit_aborts_and_retries(self):
        # Bare (unmirrored) SQL shards make kills real outages: chaos lands
        # inside the migration window, the commit aborts (never vacuously
        # flips ownership off a dead source) and retries until it lands.
        row = reshard_row(
            "sql-cs", "scale:shards=6@0.3",
            chaos=ChaosConfig(kills=2, partitions=1, lag_spikes=0),
            shard_count=4, record_count=300, operations=600, seed=11,
        )
        assert row["aborted_commits"] > 0
        assert row["violations"] == 0
        assert row["invariant_ok"]

    def test_primary_kill_during_commit_keeps_acked_writes(self):
        # The acceptance scenario verbatim: a replica-set primary dies while
        # its arc is committing (seed 7 lands a kill inside the window —
        # visible as aborted commits), and the audit still finds every
        # journaled write after recovery.
        from repro.replication.config import ReplicationConfig

        row = reshard_row(
            "mongo-cs", "scale:shards=6@0.3",
            chaos=ChaosConfig(kills=2, partitions=1, lag_spikes=0),
            concern=JOURNALED,
            replication=ReplicationConfig(replicas=3),
            shard_count=4, record_count=300, operations=600, seed=7,
        )
        assert row["aborted_commits"] > 0
        assert row["acked_writes"] > 0
        assert row["checked_writes"] > 0
        assert row["violations"] == 0
        assert row["invariant_ok"]


class TestCli:
    def test_reshard_report_writes_and_validates(self, tmp_path, capsys):
        out = tmp_path / "reshard.json"
        code = main([
            "oltp", "--reshard", "scale:shards=6@0.3",
            "--reshard-report", str(out),
        ])
        assert code == 0
        validate_reshard_report(json.loads(out.read_text()))
        captured = capsys.readouterr().out
        assert "write-safety invariant across migration: holds" in captured

    def test_malformed_spec_is_a_usage_error(self, capsys):
        # A parse-time rejection, then plans the 4-shard cluster's own
        # topology guards reject mid-run (no such shard, a scale target
        # that does not grow, a second drain of one shard).
        for spec in ("scale:shards=x@0.3", "drain:shard=99@0.3",
                     "scale:shards=2@0.3",
                     "drain:shard=0@0.3;drain:shard=0@0.5"):
            assert main(["oltp", "--reshard", spec]) == 2, spec
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_bad_throttle_is_a_usage_error(self, capsys):
        assert main(["oltp", "--reshard", "--reshard-throttle", "1.5"]) == 2

    def test_write_concern_composes_with_reshard(self):
        # The lone --write-concern guard must accept --reshard company;
        # parsing alone proves it (a bad concern name still exits 2).
        assert main(["oltp", "--reshard", "--write-concern", "bogus"]) == 2
