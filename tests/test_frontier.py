"""The repro-frontier/1 report: knee search, schema, determinism, CLI."""

import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.envelope import dumps_report, write_report
from repro.common.errors import ConfigurationError, SloUnreachableError
from repro.ycsb.eventsim import SimStation, simulate_open_loop
from repro.ycsb.frontier import (
    FRONTIER_SYSTEMS,
    LADDER_FRACTIONS,
    SCHEMA,
    apply_concern,
    check_slo_window,
    find_knee,
    frontier_report,
    frontier_row,
    frontier_system_models,
    render_frontier_report,
    validate_frontier_report,
)

# Smoke budget: with only a 0.2 s measured window the backlog above the
# peak is small, so the SLO must be proportionally tight (20 ms, not the
# CLI's 250 ms default) for the knee bracket to close.
SMOKE = dict(systems=["mongo-as"], workloads=["A"], seed=11, slo_ms=20.0,
             measure_ops=1500, warmup_ops=300, min_window_s=0.2)


@pytest.fixture(scope="module")
def report():
    return frontier_report(**SMOKE)


class TestKneeSearch:
    def test_step_curve_converges_on_known_knee(self):
        """p99 jumps from 1 ms to 1 s at rate 5000: the knee must land
        within rel_tol below 5000."""
        measure = lambda rate: 0.001 if rate <= 5000.0 else 1.0
        knee = find_knee(measure, slo=0.010, lo=500.0, rel_tol=0.02)
        assert knee.bracketed
        assert 4900.0 <= knee.rate <= 5000.0
        assert knee.p99 == 0.001

    def test_queueing_curve_converges_on_analytic_knee(self):
        """M/M/1-shaped p99 ~ s/(1 - rate/cap): the SLO crossing has a
        closed form the bisection must find."""
        cap, service, slo = 10_000.0, 0.002, 0.050
        measure = lambda rate: (service / (1.0 - rate / cap)
                                if rate < cap else 60.0)
        knee = find_knee(measure, slo=slo, lo=1000.0, rel_tol=0.01)
        analytic = cap * (1.0 - service / slo)  # p99(rate) == slo
        assert knee.bracketed
        assert knee.rate == pytest.approx(analytic, rel=0.02)
        assert knee.p99 <= slo

    def test_probe_trail_is_recorded(self):
        measure = lambda rate: 0.001 if rate <= 5000.0 else 1.0
        knee = find_knee(measure, slo=0.010, lo=500.0)
        assert knee.evaluations == len(knee.probes) >= 3
        assert knee.probes[0][0] == 500.0  # search starts at the bracket lo

    def test_slo_boundary_exactly_met_passes(self):
        """p99 == SLO is inside the objective, not a violation."""
        knee = find_knee(lambda rate: 0.010, slo=0.010, lo=100.0,
                         max_doublings=3)
        assert not knee.bracketed  # never violated, bracket ran out
        assert knee.rate == 800.0  # lo doubled three times

    def test_unreachable_slo_raises(self):
        with pytest.raises(SloUnreachableError):
            find_knee(lambda rate: 1.0, slo=0.010, lo=100.0)

    def test_unreachable_is_a_configuration_error(self):
        """The CLI maps ConfigurationError to exit 2; unreachable SLOs must
        ride that path."""
        assert issubclass(SloUnreachableError, ConfigurationError)

    def test_explicit_hi_that_passes_is_unbracketed(self):
        knee = find_knee(lambda rate: 0.001, slo=0.010, lo=100.0, hi=1000.0)
        assert not knee.bracketed
        assert knee.rate == 1000.0

    def test_explicit_hi_that_fails_bisects(self):
        measure = lambda rate: 0.001 if rate <= 600.0 else 1.0
        knee = find_knee(measure, slo=0.010, lo=100.0, hi=1000.0,
                         rel_tol=0.02)
        assert knee.bracketed
        assert 580.0 <= knee.rate <= 600.0

    @pytest.mark.parametrize("kwargs", [
        dict(lo=0.0), dict(lo=-5.0),
        dict(lo=100.0, hi=50.0), dict(lo=100.0, hi=100.0),
        dict(lo=100.0, rel_tol=0.0), dict(lo=100.0, rel_tol=-1.0),
    ])
    def test_bad_brackets_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            find_knee(lambda rate: 0.001, slo=0.010, **kwargs)

    def test_bad_slo_rejected(self):
        with pytest.raises(ConfigurationError):
            find_knee(lambda rate: 0.001, slo=0.0, lo=100.0)


class TestSystemsAndConcerns:
    def test_default_sweep_has_four_systems(self):
        models = frontier_system_models()
        assert set(FRONTIER_SYSTEMS) <= set(models)
        assert len(FRONTIER_SYSTEMS) == 4

    def test_mongo_as_safe_is_journaled_mongo_as(self):
        models = frontier_system_models()
        safe, base = models["mongo-as-safe"], models["mongo-as"]
        assert safe.journaled and not base.journaled
        assert safe.read_io_bytes == base.read_io_bytes
        assert safe.uses_global_lock == base.uses_global_lock

    def test_safe_concern_enables_journal_on_mongo(self):
        models = frontier_system_models()
        assert apply_concern(models["mongo-as"], "safe").journaled

    def test_safe_concern_is_noop_on_sql(self):
        """SQL-CS always forces its commit log; there is nothing to add."""
        models = frontier_system_models()
        assert apply_concern(models["sql-cs"], "safe") is models["sql-cs"]

    def test_majority_concern_adds_replication(self):
        models = frontier_system_models()
        majority = apply_concern(models["mongo-as"], "majority")
        assert majority.replicated and majority.journaled

    def test_paper_concern_changes_nothing(self):
        models = frontier_system_models()
        assert apply_concern(models["mongo-as"], "paper") is models["mongo-as"]
        assert apply_concern(models["mongo-as"], None) is models["mongo-as"]

    def test_unknown_concern_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_concern(frontier_system_models()["mongo-as"], "yolo")


class TestReport:
    def test_schema_and_shape(self, report):
        validate_frontier_report(report)
        assert report["schema"] == SCHEMA
        assert len(report["rows"]) == 1
        row = report["rows"][0]
        assert row["system"] == "mongo-as"
        assert row["workload"] == "A"
        assert len(row["points"]) == len(LADDER_FRACTIONS)

    def test_knee_meets_slo_and_sits_above_the_ladder_floor(self, report):
        row = report["rows"][0]
        knee = row["knee"]
        assert knee["p99_ms"] <= row["slo_ms"]
        assert knee["rate_ops_per_s"] >= row["points"][0]["offered_ops_per_s"]
        assert knee["bracketed"]
        assert knee["evaluations"] == len(knee["probes"])

    def test_ladder_tracks_the_mva_peak(self, report):
        row = report["rows"][0]
        offered = [p["offered_ops_per_s"] for p in row["points"]]
        for rate, fraction in zip(offered, LADDER_FRACTIONS):
            assert rate == pytest.approx(
                fraction * row["mva_peak_ops_per_s"], rel=1e-6)

    def test_saturation_shows_up_past_the_peak(self, report):
        """The 1.1x-peak rung cannot sustain its offered rate."""
        last = report["rows"][0]["points"][-1]
        assert last["saturated"]
        assert last["p99_ms"] > report["rows"][0]["points"][0]["p99_ms"]

    def test_byte_deterministic_per_seed(self, report):
        again = frontier_report(**SMOKE)
        assert dumps_report(again) == dumps_report(report)

    def test_seed_changes_the_bytes(self, report):
        other = frontier_report(**dict(SMOKE, seed=12))
        assert dumps_report(other) != dumps_report(report)

    def test_json_round_trip_validates(self, report):
        parsed = json.loads(dumps_report(report))
        validate_frontier_report(parsed)

    def test_write_and_reload(self, report, tmp_path):
        path = tmp_path / "frontier.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            dumps_report(report))

    def test_render_mentions_the_essentials(self, report):
        text = render_frontier_report(report)
        assert "mongo-as" in text
        assert "knee ops/s" in text
        assert "no coordinated omission" in text
        assert "Workload A" in text

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            frontier_report(**dict(SMOKE, systems=["riak"]))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            frontier_report(**dict(SMOKE, workloads=["Z"]))

    @pytest.mark.parametrize("override", [
        dict(slo_ms=0.0), dict(measure_ops=0), dict(warmup_ops=-1),
        dict(min_window_s=0.0), dict(scale=0.0),
    ])
    def test_bad_budgets_rejected(self, override):
        with pytest.raises(ConfigurationError):
            frontier_report(**dict(SMOKE, **override))


class _StuckStudy:
    """A study whose one station never finishes an op within a probe: every
    measured arrival is still in flight at cutoff.  The ladder's probes run;
    a knee search that passed its first probe would double past them."""

    PEAK = 2000.0

    def peak_throughput(self, system_name, workload):
        return self.PEAK

    def open_loop_point(self, system_name, workload, rate, *, duration,
                        warmup, seed, **_):
        assert rate <= max(LADDER_FRACTIONS) * self.PEAK, (
            f"a probe that completed nothing passed; searching on at {rate:g}")
        stuck = SimStation("stuck", 1, {"read": 1e12, "update": 1e12})
        return simulate_open_loop([stuck], {"read": 0.5, "update": 0.5},
                                  rate, duration=duration, warmup=warmup,
                                  seed=seed)


class TestSloAgainstWindow:
    """An SLO must sit well below the measured window: a probe that
    completes nothing reports a censored p99 of about the window."""

    def test_half_the_window_is_refused(self):
        with pytest.raises(ConfigurationError, match="--frontier-window"):
            check_slo_window(100.0, 0.2)
        with pytest.raises(ConfigurationError):
            frontier_report(**dict(SMOKE, slo_ms=100.0))
        check_slo_window(99.999, 0.2)

    @given(st.floats(0.01, 1.0), st.floats(0.01, 600.0))
    @example(0.2, 99.9)  # just below half the window
    @settings(max_examples=25, deadline=None)
    def test_accepted_slos_fail_a_zero_completion_probe(self, window, slo_ms):
        try:
            check_slo_window(slo_ms, window)
        except ConfigurationError:
            assume(False)
        # The lowest probe completes nothing, so knee_p99 must fail it: the
        # search stops there instead of passing the saturated rate.
        with pytest.raises(SloUnreachableError):
            frontier_row(_StuckStudy(), "stuck", "A", slo_ms=slo_ms, seed=11,
                         measure_ops=200, warmup_ops=50, min_window_s=window)


class TestValidationRejections:
    def mutated(self, report, **changes):
        clone = json.loads(dumps_report(report))
        clone.update(changes)
        return clone

    def test_wrong_schema(self, report):
        bad = self.mutated(report, schema="repro-frontier/0")
        with pytest.raises(ConfigurationError):
            validate_frontier_report(bad)

    def test_empty_rows(self, report):
        bad = self.mutated(report, rows=[])
        with pytest.raises(ConfigurationError):
            validate_frontier_report(bad)

    def test_missing_point_field(self, report):
        bad = json.loads(dumps_report(report))
        del bad["rows"][0]["points"][0]["p99_ms"]
        with pytest.raises(ConfigurationError):
            validate_frontier_report(bad)

    def test_knee_violating_its_own_slo(self, report):
        bad = json.loads(dumps_report(report))
        bad["rows"][0]["knee"]["p99_ms"] = bad["rows"][0]["slo_ms"] + 1.0
        with pytest.raises(ConfigurationError):
            validate_frontier_report(bad)

    def test_wrong_field_type(self, report):
        bad = json.loads(dumps_report(report))
        bad["rows"][0]["knee"]["bracketed"] = "yes"
        with pytest.raises(ConfigurationError):
            validate_frontier_report(bad)

    def test_not_an_object(self):
        with pytest.raises(ConfigurationError):
            validate_frontier_report([])

    def test_field_replacements_only_raise_configuration_errors(
            self, report, assert_validator_total):
        # A sweep point or knee probe that is not an object used to raise
        # TypeError.
        assert_validator_total(validate_frontier_report, report)


class TestCli:
    ARGS = ["oltp", "--frontier", "--frontier-systems", "mongo-as",
            "--frontier-workloads", "A", "--frontier-ops", "1200",
            "--frontier-window", "0.1", "--slo-ms", "20", "--seed", "11"]

    def test_frontier_writes_a_valid_report(self, tmp_path, capsys):
        path = tmp_path / "frontier.json"
        assert main(self.ARGS + ["--frontier-report", str(path)]) == 0
        data = json.loads(path.read_text())
        validate_frontier_report(data)
        out = capsys.readouterr().out
        assert "knee ops/s" in out
        assert str(path) in out

    def test_report_path_implies_frontier(self, tmp_path, capsys):
        path = tmp_path / "implied.json"
        args = [a for a in self.ARGS if a != "--frontier"]
        assert main(args + ["--frontier-report", str(path)]) == 0
        validate_frontier_report(json.loads(path.read_text()))

    def test_unreachable_slo_exits_2(self, capsys):
        assert main(self.ARGS + ["--slo-ms", "0.01"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_unknown_system_exits_2(self, capsys):
        args = list(self.ARGS)
        args[args.index("mongo-as")] = "riak"
        assert main(args) == 2

    def test_write_concern_composes_with_frontier(self, tmp_path, capsys):
        # Journaled writes wait on the 100 ms group flush, so the smoke
        # SLO must come back up to the default, and the window above twice
        # the SLO (the last --slo-ms and --frontier-window win).
        path = tmp_path / "safe.json"
        assert main(self.ARGS + ["--write-concern", "safe",
                                 "--slo-ms", "250", "--frontier-window", "1.0",
                                 "--frontier-report", str(path)]) == 0
        assert "concern safe" in capsys.readouterr().out
        assert json.loads(path.read_text())["rows"][0]["knee"]["bracketed"]

    def test_slo_not_below_the_window_exits_2(self, capsys):
        # A 250 ms SLO against a 0.1 s window passed every probed rate and
        # reported an unbracketed knee hundreds of times the MVA peak.
        assert main(self.ARGS + ["--write-concern", "safe",
                                 "--slo-ms", "250"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "--frontier-window" in err[0]

    def test_write_concern_still_gated_without_a_mode(self, capsys):
        assert main(["oltp", "--write-concern", "safe"]) == 2
