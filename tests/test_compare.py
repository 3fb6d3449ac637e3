"""The run-diff layer: ``repro.obs.compare`` and the CLI ``--compare`` mode.

Exercises both diffable kinds (repro-prof/1, repro-live/1), the subsystem
attribution line ("wall +100%: 71% digest.update, 22% eventsim.loop, 7%
unattributed"), the 1% significance rule, and the CLI exit conventions.
"""

import json

import pytest

from repro.common.envelope import dumps_report, write_report
from repro.common.errors import ConfigurationError
from repro.obs import (
    compare_files,
    compare_runs,
    host_delta,
    render_compare_report,
    validate_compare_report,
)


HOST = {"python": "3.11.7", "platform": "Linux-x86_64", "cpu_count": 2}


def _prof(wall, host=HOST, **self_s):
    """A valid ``repro-prof/1`` report; ``self_s`` names subsystem times."""
    return {
        "schema": "repro-prof/1",
        "scenario": {"kind": "s"},
        "host": dict(host),
        "wall_s": wall,
        "sampler": {"interval_s": 0.002, "samples": 10,
                    "distinct_stacks": 3},
        "subsystems": {name: {"calls": 1, "total_s": s, "self_s": s}
                       for name, s in self_s.items()},
        "hot": [],
        "throughput": {"events": 1000, "events_per_wall_s": 1000 / wall,
                       "virtual_s": 30.0, "events_per_virtual_s": 33.3},
    }


def _live(p99, throughput, errors):
    """A valid ``repro-live/1`` report with one series slice."""
    return {
        "schema": "repro-live/1", "scenario": {"kind": "chaos"},
        "slice_s": 0.1, "duration": 1.0,
        "totals": {"ops": 500, "errors": errors, "sheds": 0, "censored": 0,
                   "throughput": throughput, "p50": 1.0, "p95": 3.0,
                   "p99": p99, "p999": 9.0, "mean": 1.5, "max": 12.0},
        "series": [{"t": 0.0, "ops": 500, "errors": errors, "censored": 0,
                    "throughput": throughput, "p50": 1.0, "p99": p99,
                    "max": 12.0}],
        "rules": [], "alerts": [], "events": [],
        "telemetry": {"slices": 1, "digest_buckets": 10, "record_calls": 500,
                      "ops_per_virtual_s": 500.0},
    }


def _regression():
    """Wall doubles; digest.update grows 0.71 s, eventsim.loop 0.22 s."""
    a = _prof(1.0, **{"digest.update": 0.2, "eventsim.loop": 0.6})
    b = _prof(2.0, **{"digest.update": 0.91, "eventsim.loop": 0.82})
    return a, b


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestProfCompare:
    def test_attribution_names_dominant_subsystem(self):
        report = compare_runs(*_regression())
        validate_compare_report(report)
        # The dominant contributor comes first; the 0.07 s of the 1.0 s
        # regression that grew in no counted subsystem is the remainder.
        assert report["attribution"] == [
            "wall +100%: 71% digest.update, 22% eventsim.loop, "
            "7% unattributed"]

    def test_unprofiled_regression_points_at_profile_flag(self):
        # Wall grew but no subsystem did: there is nothing to attribute to.
        a = _prof(1.0, **{"eventsim.loop": 0.6})
        b = _prof(2.0, **{"eventsim.loop": 0.6})
        [line] = compare_runs(a, b)["attribution"]
        assert "profile both runs" in line
        assert "--profile" in line

    def test_significance_is_a_one_percent_move(self):
        rows = {r["metric"]: r for r in compare_runs(
            _prof(1.0, loop=0.5, digest=0.3),
            _prof(1.005, loop=0.51, digest=0.3))["rows"]}
        assert not rows["wall_s"]["significant"]  # +0.5%
        assert rows["subsystem/loop"]["significant"]  # +2%
        assert not rows["subsystem/digest"]["significant"]

    def test_host_difference_is_noted(self):
        host_a = dict(HOST, machine="x86_64")
        host_b = dict(HOST, python="3.12.1", machine="arm64", cpu_count=8)
        report = compare_runs(_prof(1.0, host=host_a),
                              _prof(1.0, host=host_b))
        assert any("hosts differ" in n for n in report["notes"])
        assert host_delta(host_a, host_b)
        assert host_delta(host_a, dict(host_a)) == []

    def test_field_replacements_only_raise_configuration_errors(
            self, assert_validator_total):
        # A kind that is a list or an object used to raise TypeError: it is
        # unhashable in the known-kinds lookup.
        a, b = _regression()
        b["host"]["python"] = "3.12.1"
        report = compare_runs(a, b)
        assert report["rows"] and report["attribution"] and report["notes"]
        assert_validator_total(validate_compare_report, report)


class TestProfAndLiveCompare:
    def test_prof_diff_attributes_wall_regression(self):
        a = _prof(1.0, **{"eventsim.loop": 0.5, "digest.update": 0.3})
        b = _prof(1.8, **{"eventsim.loop": 0.55, "digest.update": 1.0})
        report = compare_runs(a, b)
        validate_compare_report(report)
        metrics = {r["metric"] for r in report["rows"]}
        assert "wall_s" in metrics
        assert "subsystem/digest.update" in metrics
        assert "throughput/events_per_wall_s" in metrics
        [line] = report["attribution"]
        assert line.startswith("wall +80")
        assert "% digest.update" in line

    def test_live_diff_attributes_p99(self):
        report = compare_runs(_live(5.0, 800.0, 2), _live(5.9, 640.0, 10))
        validate_compare_report(report)
        [line] = report["attribution"]
        assert line.startswith("p99 +18%")
        assert "throughput -20%" in line
        assert "errors +8" in line

    def test_kind_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="both runs must share"):
            compare_runs(_prof(1.0), _live(5.0, 800.0, 2))


class TestCompareFilesAndRendering:
    def test_compare_files_roundtrip(self, tmp_path):
        a = _write(tmp_path / "a.json", _prof(1.0, loop=0.5))
        b = _write(tmp_path / "b.json", _prof(3.0, loop=2.5))
        report = compare_files(a, b)
        validate_compare_report(report)
        assert report["a"]["label"] == a
        text = render_compare_report(report)
        assert "subsystem/loop" in text
        assert text.isascii()
        dumped = dumps_report(report)
        assert dumped.endswith("\n")
        assert json.loads(dumped) == report
        out = tmp_path / "cmp.json"
        write_report(report, str(out))
        assert json.loads(out.read_text()) == report

    def test_load_rejects_unknown_schema_and_missing_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "bogus/1"}')
        with pytest.raises(ConfigurationError):
            compare_files(str(bogus), str(bogus))
        with pytest.raises(ConfigurationError):
            compare_files(str(tmp_path / "missing.json"), str(bogus))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigurationError):
            compare_files(str(broken), str(broken))


#: A valid prof report as JSON text, for operands JSON can hold but
#: ``json.dumps`` cannot write (``1e400`` loads as ``inf``).
_PROF_TEXT = json.dumps(_prof(1.0, loop=0.5))


class TestCompareCli:
    def test_compare_prints_table_and_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        a = _write(tmp_path / "a.json", _prof(1.0, loop=0.5))
        b = _write(tmp_path / "b.json", _prof(3.0, loop=2.5))
        out = tmp_path / "cmp.json"
        code = main(["--compare", a, b, "--compare-report", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "run diff (prof)" in printed
        assert "subsystem/loop" in printed
        assert "(* = significant: moved by 1% or more)" in printed
        validate_compare_report(json.loads(out.read_text()))

    def test_compare_malformed_input_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "bogus/1"}')
        assert main(["--compare", str(bogus), str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"schema": "repro-live/1"},
        {"schema": "repro-live/1", "totals": 5},
        {"schema": "repro-bench/1", "benchmarks": 5},
        {"schema": "repro-bench/1", "benchmarks": {"x": {"stddev": "wide"}}},
        {"schema": "repro-bench/1", "benchmarks": {}},
        {"schema": []},
        _PROF_TEXT.replace('"wall_s": 1.0', '"wall_s": 1e400'),
        _PROF_TEXT.replace('"wall_s": 1.0', '"wall_s": NaN'),
        _PROF_TEXT.replace('"wall_s": 1.0', '"wall_s": 1' + "0" * 400),
        _live(float("inf"), 800.0, 2),
    ], ids=["schema-only-live", "live-totals-number", "bench-not-object",
            "bench-stddev-string", "bench-valid", "unhashable-schema",
            "prof-wall-overflows", "prof-wall-nan", "prof-wall-huge-int",
            "live-p99-infinite"])
    def test_compare_malformed_operand_exits_two(self, tmp_path, capsys,
                                                 doc):
        # Operands are validated on load and every diffed number must be
        # finite: these used to print "no comparable metrics" and exit 0
        # (the bench kind is gone), or crash with a traceback.
        from repro.cli import main

        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["--compare", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_compare_unwritable_report_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        a = _write(tmp_path / "a.json", _prof(1.0))
        out = tmp_path / "missing" / "cmp.json"
        assert main(["--compare", a, a, "--compare-report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert len(err.strip().splitlines()) == 1

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "missing.json")
        assert main(["--compare", missing, missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_report_without_compare_exits_two(self, capsys):
        from repro.cli import main

        assert main(["--compare-report", "/tmp/x.json",
                     "oltp", "--workload", "A"]) == 2
        assert "error:" in capsys.readouterr().err
