"""The live telemetry pipeline end to end (repro.obs.live).

Covers the collector, the ``repro-live/1`` report shape, the headline
chaos scenario (a primary kill fires a burn-rate alert attributed to the
kill and clears after failover), CLI wiring, and the zero-cost-off
contract: runs without ``live=`` must not touch the digest layer at all.
"""

import inspect
import json

import pytest

from repro.common.envelope import dumps_report
from repro.common.errors import ConfigurationError
from repro.obs import (
    LiveTelemetry,
    build_live_report,
    parse_slo_rules,
    render_live_report,
    validate_live_report,
)


def collect_simple(rules=None):
    live = LiveTelemetry(slice_s=1.0, rules=rules)
    for i in range(40):
        live.record_op(i * 0.1, 0.002, cls="read")
    live.record_op(4.05, 0.5, error=True, cls="update")
    live.record_censored(5.0, 0.3)
    live.finish(5.0)
    return live


class TestCollector:
    def test_counters_and_windows(self):
        live = collect_simple()
        assert live.ops == 40
        assert live.errors == 1
        assert live.censored == 1
        assert live.record_calls == 42
        # First slice holds completions at t in [0, 1): i = 0..9.
        assert live.window(0.0, 1.0).count == 10
        assert live.errors_in(4.0, 5.0) == 1
        assert live.errors_in(0.0, 4.0) == 0
        assert live.class_digests["read"].count == 40
        assert live.class_errors == {"update": 1}

    def test_monitor_evaluated_online_at_boundaries(self):
        rules = parse_slo_rules("p99<=100ms@1s,2s")
        live = LiveTelemetry(slice_s=1.0, rules=rules)
        for i in range(20):
            live.record_op(i * 0.1, 0.002)
        for i in range(20):
            live.record_op(2.0 + i * 0.05, 0.5)
        # The bad slice's boundary evaluation happens as soon as a later
        # record crosses it — before finish().
        live.record_op(3.05, 0.002)
        assert live.monitor.alerts, "alert must fire online, not at finish"
        live.finish(4.0)
        assert live.alerts[0].cleared_at is not None

    def test_report_roundtrip_and_determinism(self):
        def build():
            live = collect_simple(parse_slo_rules("p99<=100ms@1s,2s"))
            return build_live_report(live, {"kind": "unit"})

        report = build()
        validate_live_report(report)
        assert dumps_report(report) == dumps_report(build())
        text = render_live_report(report)
        assert "live telemetry" in text
        assert "telemetry overhead" in text

    def test_unfinished_collector_rejected(self):
        live = LiveTelemetry()
        live.record_op(0.5, 0.001)
        with pytest.raises(ConfigurationError):
            build_live_report(live, {})

    def test_validate_rejects_missing_fields(self):
        live = collect_simple()
        report = build_live_report(live, {"kind": "unit"})
        del report["totals"]["p99"]
        with pytest.raises(ConfigurationError):
            validate_live_report(report)


class TestChaosLiveReport:
    """The PR's acceptance scenario, via the study entry point."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.core.oltp import OltpStudy

        return OltpStudy().live_report(span_sample="0.05")

    def test_schema_and_determinism(self, report):
        from repro.core.oltp import OltpStudy

        validate_live_report(report)
        again = OltpStudy().live_report(span_sample="0.05")
        assert dumps_report(report) == dumps_report(again)

    def test_field_replacements_only_raise_configuration_errors(
            self, report, assert_validator_total):
        # An alert whose fired_at or cleared_at is not a number used to
        # raise TypeError in the clears-before-it-fires comparison.
        assert report["alerts"], "the chaos run must fire an alert"
        assert_validator_total(validate_live_report, report)

    def test_kill_fires_attributed_alert_that_clears(self, report):
        kill_alerts = [
            a for a in report["alerts"]
            if a["event"] and a["event"].startswith(("kill-member",
                                                     "partition-member"))
        ]
        assert kill_alerts, f"no attributed alerts in {report['alerts']}"
        for alert in kill_alerts:
            assert alert["cleared_at"] is not None
            assert alert["peak_burn"] >= 1.0

    def test_events_cover_the_fault_log(self, report):
        labels = [e["label"] for e in report["events"]]
        assert any(label.startswith("kill-member") for label in labels)

    def test_span_sampling_stats_present(self, report):
        stats = report["telemetry"]["span_sampling"]
        assert stats["kept"] + stats["dropped"] == stats["recorded"]
        assert stats["kept"] < stats["recorded"]  # it actually sampled

    def test_memory_stays_bounded(self, report):
        # 500 ops over ~0.85 s in 0.1 s slices: a handful of digests, each
        # a handful of buckets — nowhere near one entry per op.
        telemetry = report["telemetry"]
        assert telemetry["record_calls"] == 500
        assert telemetry["digest_buckets"] < 100


class TestCli:
    def test_live_report_writes_valid_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "live.json"
        assert main(["oltp", "--live-report", str(path),
                     "--span-sample", "0.05"]) == 0
        report = json.loads(path.read_text())
        validate_live_report(report)
        out = capsys.readouterr().out
        assert "live telemetry" in out
        assert "alerts" in out

    def test_malformed_slo_rules_exit_2(self, capsys):
        from repro.cli import main

        assert main(["oltp", "--live-report", "-",
                     "--slo-rules", "p99<=bogus@5s"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_slo_rules_require_live_report(self, capsys):
        from repro.cli import main

        assert main(["oltp", "--slo-rules", "p99<=250ms@5s"]) == 2
        assert "--live-report" in capsys.readouterr().err


class TestZeroCostOff:
    def test_hooks_default_off(self):
        from repro.faults.runner import FaultedYcsbRun
        from repro.ycsb.eventsim import simulate_closed_loop, simulate_open_loop

        for fn in (simulate_closed_loop, simulate_open_loop):
            params = inspect.signature(fn).parameters
            assert params["live"].default is None
            assert params["bounded"].default is False
        assert inspect.signature(
            FaultedYcsbRun.__init__).parameters["live"].default is None

    def test_off_path_allocates_no_digests(self, monkeypatch):
        """A run without live= must never touch the digest layer."""
        import repro.obs.digest as digest_mod
        from repro.ycsb.eventsim import SimStation, simulate_open_loop

        calls = {"n": 0}
        original = digest_mod.QuantileDigest.__init__

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(digest_mod.QuantileDigest, "__init__", counting)
        stations = [SimStation("disk", 2, {"read": 0.001})]
        simulate_open_loop(stations, {"read": 1.0}, rate=500.0,
                           duration=4.0, warmup=1.0, seed=3)
        assert calls["n"] == 0

    def test_bounded_mode_matches_exact_results(self):
        from repro.ycsb.eventsim import SimStation, simulate_open_loop

        stations = [SimStation("disk", 2, {"read": 0.001})]
        kwargs = dict(rate=500.0, duration=4.0, warmup=1.0, seed=3)
        exact = simulate_open_loop(stations, {"read": 1.0}, **kwargs)
        live = LiveTelemetry(slice_s=0.5)
        bounded = simulate_open_loop(stations, {"read": 1.0}, live=live,
                                     bounded=True, **kwargs)
        # Counting stats are byte-identical; percentiles within the
        # digest's one-log-bucket bound.
        assert bounded.throughput == exact.throughput
        assert bounded.completed_ops == exact.completed_ops
        assert bounded.window_throughputs == exact.window_throughputs
        assert exact.p99 <= bounded.p99 <= exact.p99 * live.growth * 1.001
        assert bounded.mean == pytest.approx(exact.mean, rel=0.01)

    def test_bounded_mode_requires_live(self):
        from repro.common.errors import SimulationError
        from repro.ycsb.eventsim import SimStation, simulate_open_loop

        stations = [SimStation("disk", 2, {"read": 0.001})]
        with pytest.raises(SimulationError):
            simulate_open_loop(stations, {"read": 1.0}, rate=500.0,
                               duration=4.0, warmup=1.0, bounded=True)
