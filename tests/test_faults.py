"""Fault plans, retry policy, shard unavailability, and CLI validation."""

import pytest

from repro.cli import main as cli_main
from repro.common.errors import (
    ConfigurationError,
    FaultPlanError,
    ServerCrashed,
    ShardingError,
    ShardUnavailable,
)
from repro.docstore.cluster import MongoAsCluster, MongoCsCluster, hash_shard
from repro.faults import (
    FaultedYcsbRun,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    StationFaults,
    backoff_delay,
)
from repro.obs import Tracer
from repro.sqlstore.cluster import SqlCsCluster
from repro.ycsb import WORKLOADS, YcsbClient, make_key, make_record
from repro.common.rng import SeedStream


class TestFaultPlan:
    def test_parse_round_trip(self):
        text = "crash:n3@0.5;disk-stall:disk@20+10x8;op-error:cpu@30+20x0.2"
        plan = FaultPlan.parse(text, seed=9)
        assert len(plan) == 3
        crash, stall, oerr = plan.faults
        assert (crash.kind, crash.target, crash.at) == ("crash", "n3", 0.5)
        assert crash.target_index() == 3
        assert (stall.duration, stall.magnitude) == (10.0, 8.0)
        assert stall.end == 30.0
        assert oerr.magnitude == pytest.approx(0.2)
        assert plan.spec_string() == text
        assert FaultPlan.parse(plan.spec_string(), seed=9) == plan

    def test_comma_separator_and_whitespace(self):
        plan = FaultPlan.parse(" kill-shard:0@0.25 , restart-shard:0@0.75 ")
        assert [f.kind for f in plan] == ["kill-shard", "restart-shard"]

    @pytest.mark.parametrize("bad", [
        "bogus",
        "crash:n3",            # no @at
        "melt:n1@3",           # unknown kind
        "crash:n3@-1",         # regex rejects negative times
        "",
        "  ;  ",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_fault_plan_error_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("nope")

    def test_spec_validation(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="crash", target="n1", at=0.5, magnitude=0.0)
        with pytest.raises(FaultPlanError):
            FaultSpec(kind="crash", target="n1", at=-1.0)

    def test_target_index_requires_digits(self):
        spec = FaultSpec(kind="disk-stall", target="disk", at=1.0)
        with pytest.raises(FaultPlanError):
            spec.target_index()

    def test_station_and_shard_partition(self):
        plan = FaultPlan.parse("kill-shard:0@0.5;disk-stall:disk@5+5x2")
        assert [f.kind for f in plan.shard_faults] == ["kill-shard"]
        assert [f.kind for f in plan.station_faults] == ["disk-stall"]

    def test_to_json_deterministic(self):
        plan = FaultPlan.parse("crash:n1@0.5", seed=3)
        assert plan.to_json() == FaultPlan.parse("crash:n1@0.5", seed=3).to_json()

    def test_station_faults_windows(self):
        plan = FaultPlan.parse("disk-stall:disk@10+5x4;net-spike:log@2+2x3")
        sf = StationFaults(plan)
        assert sf.slowdown("disk", 12.0) == pytest.approx(4.0)
        assert sf.slowdown("disk", 16.0) == pytest.approx(1.0)  # window closed
        assert sf.slowdown("log", 3.0) == pytest.approx(3.0)
        assert [w.kind for w in sf.windows] == ["net-spike", "disk-stall"]

    def test_op_error_probability_capped(self):
        with pytest.raises(FaultPlanError):
            StationFaults(FaultPlan.parse("op-error:cpu@0+10x2"))


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        assert backoff_delay(0, 0.05, 1.0) == pytest.approx(0.05)
        assert backoff_delay(1, 0.05, 1.0) == pytest.approx(0.10)
        assert backoff_delay(10, 0.05, 1.0) == pytest.approx(1.0)

    def test_huge_attempt_counts_do_not_overflow(self):
        # 2**2000 overflows float; deep retry loops must still get the cap.
        assert backoff_delay(2000, 0.05, 1.0) == pytest.approx(1.0)
        policy = RetryPolicy(max_attempts=10_000)
        assert policy.delay(2000) == pytest.approx(policy.backoff_cap)

    def test_degenerate_cap_at_or_below_base(self):
        assert backoff_delay(0, 0.5, 0.5) == pytest.approx(0.5)
        assert backoff_delay(7, 0.5, 0.1) == pytest.approx(0.1)

    def test_gives_up_on_attempts_and_timeout(self):
        policy = RetryPolicy(max_attempts=3, op_timeout=2.0)
        assert not policy.gives_up(2, 0.5)
        assert policy.gives_up(3, 0.5)
        assert policy.gives_up(1, 2.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff=-1.0)


class TestShardUnavailable:
    """Satellite: ops routed to a killed shard raise the typed error."""

    def _mongo_as(self):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=100)
        client = YcsbClient(cluster, WORKLOADS["A"], record_count=400, seed=21)
        client.load()
        return cluster

    def _dead_key(self, cluster, shard):
        """A key routed to the killed shard (read raises)."""
        for i in range(400):
            key = make_key(i)
            try:
                cluster.read(key)
            except ShardUnavailable:
                return key
        pytest.fail("no key routed to the dead shard")

    def test_mongo_as_read_write_scan(self):
        cluster = self._mongo_as()
        cluster.kill_shard(0)
        key = self._dead_key(cluster, 0)
        with pytest.raises(ShardUnavailable) as info:
            cluster.read(key)
        assert info.value.shard == 0
        with pytest.raises(ShardUnavailable):
            cluster.update(key, "field0", "x")
        # A range scan over the whole keyspace must cross the dead shard.
        with pytest.raises(ShardUnavailable):
            cluster.scan(make_key(0), 400)

    def test_mongo_as_restart_heals(self):
        cluster = self._mongo_as()
        cluster.kill_shard(1)
        cluster.restart_shard(1)
        for i in range(0, 400, 7):
            assert cluster.read(make_key(i)) is not None
        assert len(cluster.scan(make_key(0), 50)) == 50

    def test_typed_error_is_both_families(self):
        exc = ShardUnavailable("gone", shard=3)
        assert isinstance(exc, ShardingError)
        assert isinstance(exc, ServerCrashed)
        assert exc.shard == 3

    def test_mongo_cs_hash_routed(self):
        cluster = MongoCsCluster(shard_count=4)
        rng = SeedStream(5).rng_for("data")
        for i in range(60):
            cluster.insert(make_key(i), make_record(rng))
        cluster.kill_shard(2)
        key = next(
            make_key(i) for i in range(60) if hash_shard(make_key(i), 4) == 2
        )
        with pytest.raises(ShardUnavailable) as info:
            cluster.read(key)
        assert info.value.shard == 2
        with pytest.raises(ShardUnavailable):
            cluster.scan(make_key(0), 60)  # broadcast hits every shard
        cluster.restart_shard(2)
        assert cluster.read(key) is not None

    def test_sql_cs_cluster(self):
        cluster = SqlCsCluster(shard_count=4)
        rng = SeedStream(5).rng_for("data")
        for i in range(60):
            cluster.insert(make_key(i), make_record(rng))
        cluster.kill_shard(1)
        key = next(
            make_key(i) for i in range(60) if hash_shard(make_key(i), 4) == 1
        )
        with pytest.raises(ShardUnavailable):
            cluster.read(key)
        with pytest.raises(ShardUnavailable):
            cluster.update(key, "field0", "x")
        with pytest.raises(ShardUnavailable):
            cluster.scan(make_key(0), 60)
        cluster.restart_shard(1)
        assert cluster.read(key) is not None


class TestFaultedYcsbRun:
    def _report(self, plan_text, **kwargs):
        from repro.faults.report import oltp_fault_report

        plan = FaultPlan.parse(plan_text, seed=7)
        return oltp_fault_report(plan, workload="A", system="mongo-as",
                                 shard_count=8, record_count=800,
                                 operations=1600, **kwargs)

    def test_one_dead_shard_costs_about_an_eighth(self):
        # The expectation is 1/8 = 0.125; scrambled-zipfian hot keys put a
        # large share of traffic on a few records, so the per-shard rate
        # lands in a wide band around it.
        report = self._report("kill-shard:0@0")
        rate = report.comparison["error_rate"]
        assert 0.03 < rate < 0.30
        assert report.faulted["availability"] == pytest.approx(1.0 - rate)
        assert report.healthy["availability"] == 1.0
        assert report.comparison["retried_ops"] > 0
        assert report.comparison["backoff_seconds"] > 0.0

    def test_restart_restores_availability(self):
        killed = self._report("kill-shard:0@0.25")
        healed = self._report("kill-shard:0@0.25;restart-shard:0@0.5")
        assert healed.comparison["error_rate"] < killed.comparison["error_rate"]

    def test_errors_folded_into_histograms(self):
        tracer = Tracer()
        report = self._report("kill-shard:0@0", tracer=tracer)
        total_errors = sum(report.faulted["errors"].values())
        assert total_errors > 0
        names = {s.name for s in tracer.spans}
        assert "fault.kill-shard" in names
        assert "retry.backoff" in names

    def test_healthy_run_unchanged_by_empty_plan(self):
        cluster = MongoAsCluster(shard_count=4, max_chunk_docs=4000)
        run = FaultedYcsbRun(cluster, WORKLOADS["A"], record_count=200,
                             operations=400, plan=FaultPlan(), seed=11)
        run.load()
        stats = run.run()
        assert stats.availability == 1.0
        assert stats.retries == 0
        assert stats.error_count == 0
        assert stats.attempted == 400


class TestCliValidation:
    """Satellite: bad input exits 2 with a one-line error, no traceback."""

    def _error(self, capsys, argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        return captured.err

    def test_unknown_workload(self, capsys):
        err = self._error(capsys, ["oltp", "--workload", "Z"])
        assert "unknown workload" in err

    def test_negative_scale_factor(self, capsys):
        self._error(capsys, ["dbgen", "--sf", "-1"])
        self._error(capsys, ["query", "1", "--sf", "0"])
        self._error(capsys, ["dss", "--trace-sf", "-5", "--faults",
                             "crash:n1@0.5"])

    def test_bad_fault_plan(self, capsys):
        err = self._error(capsys, ["oltp", "--faults", "bogus"])
        assert "bad fault spec" in err

    def test_fault_report_requires_faults(self, capsys):
        self._error(capsys, ["oltp", "--fault-report", "x.json"])

    def test_arrival_spike_needs_overload(self, capsys):
        # Only the overload simulator models arrivals: the closed loop and
        # the plain frontier used to run as if the spike were not there.
        err = self._error(capsys, ["oltp", "--faults",
                                   "arrival-spike:clients@5+5x3",
                                   "--duration", "20"])
        assert "arrival-spike" in err and "--overload" in err
        self._error(capsys, ["oltp", "--frontier",
                             "--frontier-systems", "mongo-as",
                             "--frontier-workloads", "A",
                             "--frontier-ops", "2000", "--faults",
                             "arrival-spike:clients@0.05+0.1x3"])

    def test_bad_target(self, capsys):
        self._error(capsys, ["oltp", "--target", "-100"])
