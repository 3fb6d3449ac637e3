"""Same seed + same fault plan => byte-identical reports and traces."""

import pytest

from repro.common.envelope import dumps_report
from repro.core.dss import DssStudy
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.report import (
    dss_fault_report,
    oltp_fault_report,
)
from repro.obs import MetricsRegistry, Tracer, dumps_chrome_trace
from repro.ycsb.eventsim import SimStation, simulate_closed_loop

STATIONS = [
    SimStation("cpu", 4, {"read": 0.002, "update": 0.003}),
    SimStation("disk", 2, {"read": 0.004, "update": 0.004}),
]
MIX = {"read": 0.5, "update": 0.5}


@pytest.fixture(scope="module")
def study():
    return DssStudy()


class TestDssFaultDeterminism:
    def _run(self, study):
        tracer, metrics = Tracer(), MetricsRegistry()
        plan = FaultPlan.parse("crash:n3@0.5", seed=11)
        report = dss_fault_report(study, 1, 1000.0, plan, tracer=tracer,
                                  metrics=metrics)
        return (dumps_report(report.to_dict()),
                dumps_chrome_trace(tracer, metrics))

    def test_byte_identical_report_and_trace(self, study):
        report_a, trace_a = self._run(study)
        report_b, trace_b = self._run(study)
        assert report_a == report_b
        assert trace_a == trace_b

    def test_fresh_study_same_bytes(self, study):
        """Even a separately calibrated study produces the same bytes."""
        report_a, trace_a = self._run(study)
        report_b, trace_b = self._run(DssStudy())
        assert report_a == report_b
        assert trace_a == trace_b


class TestOltpFaultDeterminism:
    def _run(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        plan = FaultPlan.parse("kill-shard:0@0.25;restart-shard:0@0.75",
                               seed=7)
        report = oltp_fault_report(plan, workload="A", system="mongo-as",
                                   shard_count=8, record_count=600,
                                   operations=1200, tracer=tracer,
                                   metrics=metrics)
        return (dumps_report(report.to_dict()),
                dumps_chrome_trace(tracer, metrics))

    def test_byte_identical_report_and_trace(self):
        report_a, trace_a = self._run()
        report_b, trace_b = self._run()
        assert report_a == report_b
        assert trace_a == trace_b


class TestChaosDeterminism:
    """Same seed + same chaos schedule => byte-identical availability report."""

    def _run(self):
        from repro.faults.availability import availability_report
        from repro.faults.chaos import ChaosConfig

        report = availability_report(
            systems=["mongo-as", "sql-cs"],
            chaos=ChaosConfig(kills=1, partitions=1, lag_spikes=1),
            operations=150, record_count=150, seed=23,
        )
        return dumps_report(report)

    def test_byte_identical_availability_report(self):
        assert self._run() == self._run()

    def test_schedule_is_a_pure_function_of_the_seed(self):
        from repro.faults.chaos import ChaosConfig, chaos_plan

        specs = {
            chaos_plan(ChaosConfig(), 500, 4, 3, seed).spec_string()
            for _ in range(3)
            for seed in (41,)
        }
        assert len(specs) == 1


class TestEventSimFaultDeterminism:
    def _run(self, faults):
        tracer, metrics = Tracer(), MetricsRegistry()
        result = simulate_closed_loop(
            STATIONS, MIX, clients=6, think_time=0.01,
            duration=8.0, warmup=2.0, windows=2, seed=31,
            tracer=tracer, metrics=metrics,
            faults=faults, retry_policy=RetryPolicy(),
        )
        return result, dumps_chrome_trace(tracer, metrics)

    def test_faulted_run_byte_identical(self):
        plan = FaultPlan.parse(
            "disk-stall:disk@3+2x6;op-error:cpu@4+2x0.3;crash:cpu@6+1x0.5"
        )
        result_a, trace_a = self._run(plan)
        result_b, trace_b = self._run(plan)
        assert trace_a == trace_b
        assert result_a.throughput == result_b.throughput
        assert result_a.errors == result_b.errors
        assert result_a.retried_ops == result_b.retried_ops

    def test_no_fault_machinery_is_strictly_opt_in(self):
        """A plan with no station faults must not perturb a single byte."""
        _, bare = self._run(None)
        # kill-shard specs target the functional layer, so the event sim
        # sees an effectively empty plan and must take the healthy path.
        _, empty = self._run(FaultPlan.parse("kill-shard:0@0.5"))
        assert bare == empty

    def test_fault_annotations_present(self):
        plan = FaultPlan.parse("disk-stall:disk@3+2x6")
        result, trace = self._run(plan)
        assert "fault.disk-stall" in trace
        assert result.availability == 1.0  # stalls slow ops, never fail them
