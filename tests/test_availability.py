"""The repro-availability/1 report: schema, determinism, CLI, what-if."""

import json

import pytest

from repro.cli import main
from repro.common.envelope import dumps_report
from repro.common.errors import ConfigurationError
from repro.faults.availability import (
    SCHEMA,
    availability_report,
    availability_row,
    render_availability_report,
    validate_availability_report,
)
from repro.faults.chaos import ChaosConfig
from repro.replication import JOURNALED, SAFE


@pytest.fixture(scope="module")
def report():
    return availability_report(
        systems=["mongo-as", "sql-cs"], concerns=[SAFE, JOURNALED],
        chaos=ChaosConfig(kills=1, partitions=0, lag_spikes=0),
        operations=120, record_count=150, seed=11,
    )


class TestAvailabilityReport:
    def test_validates(self, report):
        validate_availability_report(report)
        assert report["schema"] == SCHEMA

    def test_one_row_per_system_concern_cell(self, report):
        cells = [(r["system"], r["concern"]) for r in report["rows"]]
        assert cells == [
            ("mongo-as", "safe"), ("mongo-as", "journaled"),
            ("sql-cs", "mirrored"),
        ]

    def test_durability_cost_shows_in_the_rows(self, report):
        by_cell = {(r["system"], r["concern"]): r for r in report["rows"]}
        safe = by_cell[("mongo-as", "safe")]
        journaled = by_cell[("mongo-as", "journaled")]
        # Stronger concern: zero documented loss window, slower acks.
        assert safe["loss_window_seconds"] > 0.0
        assert journaled["loss_window_seconds"] == 0.0
        assert journaled["lost_writes"] == 0
        assert journaled["duration_seconds"] >= safe["duration_seconds"]

    def test_invariant_holds_end_to_end(self, report):
        assert report["invariant_ok"]
        assert all(row["violations"] == 0 for row in report["rows"])

    def test_deterministic_bytes(self, report):
        again = availability_report(
            systems=["mongo-as", "sql-cs"], concerns=[SAFE, JOURNALED],
            chaos=ChaosConfig(kills=1, partitions=0, lag_spikes=0),
            operations=120, record_count=150, seed=11,
        )
        assert dumps_report(report) == dumps_report(again)

    def test_render_smoke(self, report):
        text = render_availability_report(report)
        assert "safety invariant: holds" in text
        assert "mirrored" in text

    def test_row_requires_concern_for_mongo(self):
        with pytest.raises(ConfigurationError):
            availability_row("mongo-as", None, chaos=ChaosConfig(),
                             operations=120, record_count=150)


class TestValidation:
    def test_rejects_wrong_schema(self, report):
        bad = dict(report, schema="repro-faults/1")
        with pytest.raises(ConfigurationError):
            validate_availability_report(bad)

    def test_rejects_missing_row_field(self, report):
        bad = json.loads(dumps_report(report))
        del bad["rows"][0]["lost_writes"]
        with pytest.raises(ConfigurationError):
            validate_availability_report(bad)

    def test_rejects_inconsistent_invariant(self, report):
        bad = json.loads(dumps_report(report))
        bad["rows"][0]["violations"] = 3
        with pytest.raises(ConfigurationError):
            validate_availability_report(bad)

    def test_rejects_wrong_types(self, report):
        bad = json.loads(dumps_report(report))
        bad["rows"][0]["elections"] = "one"
        with pytest.raises(ConfigurationError):
            validate_availability_report(bad)

    def test_field_replacements_only_raise_configuration_errors(
            self, report, assert_validator_total):
        assert_validator_total(validate_availability_report, report)


class TestStudyHook:
    def test_oltp_study_delegates(self):
        from repro.core.oltp import OltpStudy

        report = OltpStudy().availability_report(
            systems=["sql-cs"], operations=120, record_count=150, seed=11,
        )
        validate_availability_report(report)
        assert report["rows"][0]["system"] == "sql-cs"


class TestCli:
    def test_chaos_sweep_writes_and_validates(self, tmp_path, capsys):
        out = tmp_path / "availability.json"
        code = main([
            "oltp", "--chaos", "kills=1,partitions=0,lag-spikes=0",
            "--write-concern", "safe,journaled", "--operations", "120",
            "--availability-report", str(out),
        ])
        assert code == 0
        validate_availability_report(json.loads(out.read_text()))
        assert "safety invariant: holds" in capsys.readouterr().out

    def test_replication_off_with_chaos_is_a_usage_error(self, capsys):
        assert main(["oltp", "--chaos", "--replication", "off"]) == 2

    def test_lone_write_concern_is_a_usage_error(self, capsys):
        assert main(["oltp", "--write-concern", "safe"]) == 2

    def test_bad_chaos_spec_is_a_usage_error(self, capsys):
        assert main(["oltp", "--chaos", "kills=lots"]) == 2

    def test_member_fault_needs_replication(self, capsys):
        assert main([
            "oltp", "--workload", "A", "--faults", "kill-member:1.0@0.4",
        ]) == 2


class TestWhatIfElection:
    def test_election_mechanism_registered(self):
        from repro.obs.whatif import MECHANISMS, parse_whatif

        assert MECHANISMS["election"][0] == "oltp"
        assert parse_whatif("election=0") == {"election": 0.0}

    def test_replay_subtracts_election_waits(self):
        from repro.obs import Tracer
        from repro.obs.whatif import replay_oltp

        tracer = Tracer()
        request = tracer.add("request.update", 1.0, 1.5, cat="request",
                             node="client", lane="ops", cls="update")
        wait = tracer.add("election.wait", 1.1, 1.4, cat="election",
                          node="client", lane="ops")
        wait.parent = request.span_id
        base = replay_oltp(tracer, {}, warmup=0.0)
        halved = replay_oltp(tracer, {"election": 0.5}, warmup=0.0)
        gone = replay_oltp(tracer, {"election": 0.0}, warmup=0.0)
        assert base["mean"] == pytest.approx(0.5)
        assert halved["mean"] == pytest.approx(0.35)
        assert gone["mean"] == pytest.approx(0.2)

    def test_chaos_run_emits_linked_election_waits(self):
        from repro.faults.availability import (
            CHAOS_RETRY_POLICY,
            _build_chaos_cluster,
        )
        from repro.faults.chaos import ChaosYcsbRun, chaos_plan
        from repro.obs import Tracer
        from repro.replication.config import ReplicationConfig
        from repro.ycsb.workloads import WORKLOADS

        tracer = Tracer()
        replication = ReplicationConfig(replicas=3)
        plan = chaos_plan(ChaosConfig(kills=1, partitions=0, lag_spikes=0),
                          300, 4, 3, 11)
        cluster = _build_chaos_cluster("mongo-as", 4, 300, replication, 11,
                                       tracer=tracer)
        runner = ChaosYcsbRun(
            cluster, WORKLOADS["A"], record_count=300, operations=300,
            plan=plan, policy=CHAOS_RETRY_POLICY, seed=11, tracer=tracer,
        )
        runner.load()
        runner.run()
        waits = [s for s in tracer.spans if s.name == "election.wait"]
        failovers = [s for s in tracer.spans
                     if s.name == "election.failover"]
        assert waits and failovers
        by_id = {s.span_id: s for s in tracer.spans}
        for wait in waits:
            assert by_id[wait.parent].cat == "request"
        assert any(
            by_id[src].name == "election.failover"
            for wait in waits for src, kind in wait.links
            if kind == "handoff"
        )
