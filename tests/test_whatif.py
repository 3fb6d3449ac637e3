"""What-if replay: spec parsing, prediction-vs-reality validation, CLI."""

import json
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.common.envelope import dumps_report
from repro.common.errors import ConfigurationError
from repro.obs import (
    MECHANISMS,
    Tracer,
    dss_whatif_report,
    oltp_whatif_report,
    parse_whatif,
    render_whatif_report,
    replay_oltp,
)


class TestParseWhatif:
    def test_single_mechanism(self):
        assert parse_whatif("map-startup=0") == {"map-startup": 0.0}

    def test_trailing_x_and_lists(self):
        assert parse_whatif("shuffle=0.5x,lock-wait=0") == {
            "shuffle": 0.5, "lock-wait": 0.0,
        }
        assert parse_whatif("dms=2X") == {"dms": 2.0}

    def test_whitespace_tolerated(self):
        assert parse_whatif(" shuffle = 0.5 , dms = 1 ") == {
            "shuffle": 0.5, "dms": 1.0,
        }

    @pytest.mark.parametrize("bad", [
        "",
        " , ",
        "shuffle",             # no =FACTOR
        "nope=0.5",            # unknown mechanism
        "shuffle=fast",        # not a number
        "shuffle=-1",          # negative factor
    ])
    def test_errors(self, bad):
        with pytest.raises(ConfigurationError):
            parse_whatif(bad)

    def test_every_mechanism_has_a_family_and_description(self):
        for name, (family, description) in MECHANISMS.items():
            assert family in ("hive", "pdw", "oltp")
            assert description


class TestDssWhatif:
    """Predictions must agree with actually re-running the cost model."""

    def test_identity_scales_reproduce_the_baseline(self, causal_study):
        _, _, report = causal_study.whatif_query(
            1, 250.0, {"map-startup": 1.0, "shuffle": 1.0}, engine="hive")
        assert report.predicted == pytest.approx(report.baseline)
        assert report.delta == pytest.approx(0.0)

    def test_hive_baseline_matches_query_time(self, causal_study):
        result, _, report = causal_study.whatif_query(
            1, 250.0, {"shuffle": 1.0}, engine="hive")
        assert report.baseline == pytest.approx(result.total_time)

    def test_q1_map_startup_zero_matches_rerun_within_5pct(self, causal_study):
        """The acceptance experiment: predict map-startup=0, then do it."""
        from repro.hive.engine import HiveEngine

        _, _, report = causal_study.whatif_query(
            1, 250.0, {"map-startup": 0.0}, engine="hive")
        engine = HiveEngine(
            causal_study.calibration, causal_study.profile,
            params=replace(causal_study.hive.base_params,
                           map_task_startup=0.0),
            cpu_weights=causal_study.hive_weights,
        )
        actual = engine.query_time(1, 250.0)
        assert report.predicted == pytest.approx(actual, rel=0.05)
        assert report.predicted < report.baseline  # startup must cost something

    def test_q5_job_overhead_zero_matches_rerun_within_5pct(self, causal_study):
        from repro.hive.engine import HiveEngine

        _, _, report = causal_study.whatif_query(
            5, 250.0, {"job-overhead": 0.0}, engine="hive")
        engine = HiveEngine(
            causal_study.calibration, causal_study.profile,
            params=replace(causal_study.hive.base_params, job_overhead=0.0),
            cpu_weights=causal_study.hive_weights,
        )
        actual = engine.query_time(5, 250.0)
        assert report.predicted == pytest.approx(actual, rel=0.05)

    def test_pdw_baseline_matches_query_time(self, causal_study):
        result, _, report = causal_study.whatif_query(
            1, 250.0, {"dms": 0.5}, engine="pdw")
        assert report.baseline == pytest.approx(result.total_time)
        assert report.predicted <= report.baseline + 1e-9

    def test_amdahl_floor_bounds_the_prediction(self, causal_study):
        _, _, report = causal_study.whatif_query(
            1, 250.0, {"map-startup": 0.3, "shuffle": 0.3}, engine="hive")
        assert report.amdahl_floor <= report.predicted + 1e-9
        assert report.speedup >= 1.0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            dss_whatif_report(Tracer(), "sparkle", {"shuffle": 0.5})

    def test_untraced_run_rejected(self):
        with pytest.raises(ConfigurationError):
            dss_whatif_report(Tracer(), "hive", {"shuffle": 0.5})


class TestOltpWhatif:
    def test_lock_wait_half_matches_rerun_within_5pct(self):
        """The acceptance experiment: halve the lock stations, then do it."""
        from repro.core.oltp import OltpStudy

        study = OltpStudy()
        _, _, _, report = study.whatif(
            "mongo-cs", "A", 30_000.0, {"lock-wait": 0.5}, duration=60.0)
        _, _, rerun_tracer = study.traced_point(
            "mongo-cs", "A", 30_000.0, duration=60.0,
            station_scales={"hotlock": 0.5, "hotrow": 0.5, "appendhot": 0.5})
        actual = replay_oltp(rerun_tracer, {})["mean"]
        assert report.predicted == pytest.approx(actual, rel=0.05)
        assert report.predicted < report.baseline

    def test_station_scales_none_is_byte_identical(self):
        from repro.core.oltp import OltpStudy
        from repro.obs import dumps_chrome_trace

        study = OltpStudy()
        _, _, bare = study.traced_point("mongo-cs", "A", 20_000.0,
                                        duration=20.0)
        _, _, scaled = study.traced_point("mongo-cs", "A", 20_000.0,
                                          duration=20.0, station_scales=None)
        assert dumps_chrome_trace(bare) == dumps_chrome_trace(scaled)

    def test_per_class_means_reported(self):
        from repro.core.oltp import OltpStudy

        study = OltpStudy()
        _, _, _, report = study.whatif(
            "mongo-cs", "A", 20_000.0, {"lock-wait": 0.0}, duration=20.0)
        assert set(report.per_class) == {"read", "update"}
        assert all(v > 0 for v in report.per_class.values())

    def test_untraced_run_rejected(self):
        with pytest.raises(ConfigurationError):
            oltp_whatif_report(Tracer(), {"lock-wait": 0.5})


class TestWhatIfReportSerialization:
    def test_deterministic_json_and_schema(self, causal_study):
        _, _, report = causal_study.whatif_query(
            1, 250.0, {"map-startup": 0.0}, engine="hive")
        text = dumps_report(report.to_dict())
        assert text == dumps_report(report.to_dict())
        doc = json.loads(text)
        assert doc["schema"] == "repro-whatif/1"
        assert doc["kind"] == "dss"
        assert doc["target"]["engine"] == "hive"
        assert doc["scales"] == {"map-startup": 0.0}
        assert doc["baseline"] >= doc["predicted"] >= doc["amdahl_floor"]

    def test_render_lists_exposures(self, causal_study):
        _, _, report = causal_study.whatif_query(
            1, 250.0, {"map-startup": 0.0}, engine="hive")
        text = render_whatif_report(report)
        assert "what-if [dss]" in text
        assert "exposure map-startup" in text


class TestCliCausalValidation:
    """Satellite: bad --whatif/--decompose input exits 2, one line, fast."""

    def _error(self, capsys, argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        return captured.err

    def test_malformed_whatif(self, capsys):
        err = self._error(capsys, ["dss", "--whatif", "bogus"])
        assert "malformed" in err

    def test_unknown_mechanism(self, capsys):
        err = self._error(capsys, ["dss", "--whatif", "warp-drive=0"])
        assert "unknown what-if mechanism" in err

    def test_wrong_family_for_dss_engine(self, capsys):
        err = self._error(capsys, ["dss", "--whatif", "lock-wait=0"])
        assert "do not apply" in err

    def test_wrong_family_for_oltp(self, capsys):
        err = self._error(capsys, ["oltp", "--whatif", "map-startup=0"])
        assert "do not apply" in err

    def test_negative_factor(self, capsys):
        err = self._error(capsys, ["dss", "--whatif", "shuffle=-2"])
        assert ">= 0" in err

    def test_whatif_report_requires_whatif(self, capsys):
        self._error(capsys, ["dss", "--whatif-report", "x.json"])
        self._error(capsys, ["oltp", "--whatif-report", "x.json"])

    def test_malformed_decompose(self, capsys):
        err = self._error(capsys, ["dss", "--decompose", "1,frog"])
        assert "malformed" in err

    def test_decompose_query_out_of_range(self, capsys):
        err = self._error(capsys, ["dss", "--decompose", "1,99"])
        assert "99" in err

    def test_empty_decompose(self, capsys):
        self._error(capsys, ["dss", "--decompose", " , "])

    def test_decompose_report_requires_decompose(self, capsys):
        self._error(capsys, ["dss", "--decompose-report", "x.json"])
