"""Fixed-vs-variable decomposition: fitting, growth factors, paper's finding."""

import json

import pytest

from repro.common.envelope import dumps_report
from repro.common.errors import ConfigurationError
from repro.obs import (
    Tracer,
    decompose_query,
    fit_fixed_variable,
    render_decomposition,
)
from repro.obs.decompose import DecompositionReport, phase_times


class TestFitFixedVariable:
    def test_exact_linear_points(self):
        points = [(250.0, 35.0), (1000.0, 110.0), (4000.0, 410.0)]
        fixed, per_sf = fit_fixed_variable(points)
        assert fixed == pytest.approx(10.0)
        assert per_sf == pytest.approx(0.1)

    def test_pure_fixed_phase(self):
        fixed, per_sf = fit_fixed_variable([(250.0, 28.0), (1000.0, 28.0),
                                            (4000.0, 28.0)])
        assert fixed == pytest.approx(28.0)
        assert per_sf == 0.0

    def test_superlinear_phase_clamps_intercept_at_zero(self):
        # Growth faster than the SF ratio fits a negative intercept; the
        # clamp refits the slope through the origin instead.
        points = [(250.0, 10.0), (1000.0, 80.0), (4000.0, 1400.0)]
        fixed, per_sf = fit_fixed_variable(points)
        assert fixed == 0.0
        assert per_sf > 0.0

    def test_single_point_is_all_slope(self):
        assert fit_fixed_variable([(250.0, 50.0)]) == (0.0, 0.2)

    def test_empty_points(self):
        assert fit_fixed_variable([]) == (0.0, 0.0)


class TestDecomposeQuery:
    def _tracer(self, engine, phase_seconds):
        tracer = Tracer()
        t, root_end = 0.0, sum(phase_seconds.values())
        if engine == "hive":
            root = tracer.add("hive.q1", 0.0, root_end, cat="query",
                              node="hive")
            for name, seconds in phase_seconds.items():
                tracer.add(name, t, t + seconds, cat="phase", node="hive",
                           parent=root.span_id)
                t += seconds
        return tracer

    def test_missing_sfs_are_skipped_not_fitted(self):
        runs = {
            250.0: self._tracer("hive", {"j.map": 30.0, "j.overhead": 28.0}),
            1000.0: self._tracer("hive", {"j.map": 120.0, "j.overhead": 28.0}),
            16000.0: None,  # DNF
        }
        q = decompose_query("hive", 1, runs)
        assert q.sfs == [250.0, 1000.0]
        assert q.skipped_sfs == [16000.0]
        assert q.phases["j.overhead"]["fixed"] == pytest.approx(28.0)

    def test_all_runs_missing_rejected(self):
        with pytest.raises(ConfigurationError):
            decompose_query("hive", 1, {250.0: None})

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            phase_times(Tracer(), "sparkle")

    def test_backup_phases_fold_into_stable_keys(self):
        tracer = Tracer()
        root = tracer.add("hive.q7", 0.0, 20.0, cat="query", node="hive")
        tracer.add("join.a.map", 0.0, 10.0, cat="phase", node="hive",
                   parent=root.span_id)
        tracer.add("join.a.map.backup", 10.0, 20.0, cat="phase", node="hive",
                   parent=root.span_id)
        assert phase_times(tracer, "hive") == {"join.a.map": 20.0}


class TestPaperGrowthFactorFinding:
    """The tentpole assertion: Hive's fixed share shrinks with SF, PDW's
    was never large — mechanically reproducing the paper's Table 3 story."""

    @pytest.fixture(scope="class")
    def report(self, causal_study):
        return causal_study.decomposition([1, 22])

    def test_hive_fixed_share_shrinks_with_sf(self, report):
        for number in (1, 22):
            q = report.find("hive", number)
            assert q.fixed_share(250.0) > q.fixed_share(16000.0)
            assert q.fixed_share(250.0) > 0.4  # a large fixed cost at SF 250

    def test_pdw_fixed_share_is_small_and_stays_small(self, report):
        hive = report.find("hive", 1)
        pdw = report.find("pdw", 1)
        assert pdw.fixed_share(250.0) < 0.2
        hive_drop = hive.fixed_share(250.0) - hive.fixed_share(16000.0)
        pdw_drop = pdw.fixed_share(250.0) - pdw.fixed_share(16000.0)
        assert hive_drop > pdw_drop

    def test_growth_factors_reproduce_the_table(self, report):
        # PDW tracks the 4x data growth; Hive starts well below it because
        # the fixed costs amortize (Section 4.2's argument).
        pdw = report.find("pdw", 1).growth_factors()
        hive = report.find("hive", 1).growth_factors()
        assert pdw["250->1000"] > 3.4
        assert pdw["4000->16000"] > 3.8
        assert hive["250->1000"] < 2.5
        assert hive["250->1000"] < hive["4000->16000"] <= 4.0

    def test_q9_hive_dnf_at_16tb_is_skipped(self, causal_study):
        report = causal_study.decomposition([9])
        q9 = report.find("hive", 9)
        assert 16000.0 in q9.skipped_sfs
        assert 16000.0 not in q9.sfs
        assert report.find("pdw", 9).skipped_sfs == []

    def test_totals_match_traced_runtimes(self, report, causal_study):
        q = report.find("hive", 1)
        assert q.totals[250.0] == pytest.approx(
            causal_study.hive_time(1, 250.0), rel=1e-6)
        pdw = report.find("pdw", 1)
        assert pdw.totals[1000.0] == pytest.approx(
            causal_study.pdw_time(1, 1000.0), rel=1e-6)

    def test_serialization_and_render(self, report):
        text = dumps_report(report.to_dict())
        assert text == dumps_report(report.to_dict())
        doc = json.loads(text)
        assert doc["schema"] == "repro-decompose/1"
        assert len(doc["queries"]) == 4  # {hive,pdw} x {1,22}
        rendered = render_decomposition(report)
        assert "growth factors" in rendered
        assert "hive" in rendered and "pdw" in rendered

    def test_find_unknown_query_raises(self, report):
        with pytest.raises(KeyError):
            report.find("hive", 13)

    def test_empty_report_serializes(self):
        report = DecompositionReport(sfs=[250.0])
        doc = json.loads(dumps_report(report.to_dict()))
        assert doc["queries"] == []
