"""The run-diff layer: ``repro.obs.compare`` and the CLI ``--compare`` mode.

Exercises all three diffable kinds (repro-bench/1, repro-prof/1,
repro-live/1), the subsystem attribution line the tentpole demands
("p99 +18%: 71% digest updates, ..."), the noise-vs-regression
significance rule, and the CLI exit conventions.
"""

import json
from pathlib import Path

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


REPO = Path(__file__).resolve().parents[1]


def _bench(pr, benchmarks, smoke=False, host=None):
    doc = {"schema": "repro-bench/1", "pr": pr, "smoke": smoke,
           "python": "3.11.7", "benchmarks": benchmarks}
    if host:
        doc["host"] = host
    return doc


def _bench_entry(seconds, stddev=None, subsystems=None):
    entry = {"seconds": seconds, "runs": 3 if stddev is not None else 1}
    if stddev is not None:
        entry["stddev"] = stddev
    if subsystems is not None:
        entry["profile"] = {"samples": 50, "interval_s": 0.002, "top": [],
                            "subsystems": subsystems}
    return entry


def _subs(**kwargs):
    return {name: {"calls": 1, "total_s": self_s, "self_s": self_s}
            for name, self_s in kwargs.items()}


class TestBenchCompare:
    def test_attribution_names_dominant_subsystem(self):
        a = _bench(8, {"eventsim": _bench_entry(
            1.0, subsystems=_subs(**{"digest.update": 0.2,
                                     "eventsim.loop": 0.6}))})
        b = _bench(9, {"eventsim": _bench_entry(
            2.0, subsystems=_subs(**{"digest.update": 0.91,
                                     "eventsim.loop": 0.82}))})
        report = compare_runs(a, b)
        validate_compare_report(report)
        [line] = report["attribution"]
        assert line.startswith("eventsim +100")
        assert "% digest.update" in line
        assert "% eventsim.loop" in line
        # dominant contributor is listed first
        assert line.index("digest.update") < line.index("eventsim.loop")

    def test_within_noise_is_not_significant(self):
        a = _bench(8, {"x": _bench_entry(1.00, stddev=0.2)})
        b = _bench(9, {"x": _bench_entry(1.30, stddev=0.2)})
        report = compare_runs(a, b)
        [row] = [r for r in report["rows"] if r["metric"] == "x.seconds"]
        assert row["noise"] == 0.2
        assert not row["significant"]  # 0.3 < 2 * 0.2
        assert report["attribution"] == []

    def test_beyond_noise_is_significant(self):
        a = _bench(8, {"x": _bench_entry(1.00, stddev=0.05)})
        b = _bench(9, {"x": _bench_entry(1.30, stddev=0.05)})
        report = compare_runs(a, b)
        [row] = [r for r in report["rows"] if r["metric"] == "x.seconds"]
        assert row["significant"]

    def test_unprofiled_regression_points_at_profile_flag(self):
        a = _bench(8, {"x": _bench_entry(1.0)})
        b = _bench(9, {"x": _bench_entry(2.0)})
        report = compare_runs(a, b)
        [line] = report["attribution"]
        assert "--profile" in line

    def test_names_filter_restricts_the_diff(self):
        a = _bench(8, {"x": _bench_entry(1.0), "y": _bench_entry(1.0)})
        b = _bench(9, {"x": _bench_entry(2.0), "y": _bench_entry(2.0)})
        report = compare_runs(a, b, names=["y"])
        assert [r["metric"] for r in report["rows"]] == ["y.seconds"]

    def test_smoke_flavour_mismatch_is_noted(self):
        a = _bench(8, {"x": _bench_entry(1.0)}, smoke=True)
        b = _bench(9, {"x": _bench_entry(1.0)}, smoke=False)
        report = compare_runs(a, b)
        assert any("smoke flavours differ" in n for n in report["notes"])

    def test_host_difference_is_noted(self):
        host_a = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 1}
        host_b = {"python": "3.12.1", "machine": "arm64", "cpu_count": 8}
        a = _bench(8, {"x": _bench_entry(1.0)}, host=host_a)
        b = _bench(9, {"x": _bench_entry(1.0)}, host=host_b)
        report = compare_runs(a, b)
        assert any("hosts differ" in n for n in report["notes"])
        assert host_delta(host_a, host_b)
        assert host_delta(host_a, dict(host_a)) == []

    def test_field_replacements_only_raise_configuration_errors(
            self, assert_validator_total):
        # A kind that is a list or an object used to raise TypeError: it is
        # unhashable in the known-kinds lookup.
        a = _bench(8, {"x": _bench_entry(1.0, subsystems=_subs(loop=0.5))},
                   host={"python": "3.11.7"})
        b = _bench(9, {"x": _bench_entry(2.0, subsystems=_subs(loop=1.5))},
                   host={"python": "3.12.1"})
        report = compare_runs(a, b)
        assert report["rows"] and report["attribution"] and report["notes"]
        assert_validator_total(validate_compare_report, report)


class TestProfAndLiveCompare:
    def _prof_doc(self, wall, loop, digest, scenario="s"):
        return {
            "schema": "repro-prof/1",
            "scenario": {"kind": scenario},
            "host": {"python": "3.11.7"},
            "wall_s": wall,
            "sampler": {"interval_s": 0.002, "samples": 10,
                        "distinct_stacks": 3},
            "subsystems": _subs(**{"eventsim.loop": loop,
                                   "digest.update": digest}),
            "hot": [],
            "throughput": {"events": 1000, "events_per_wall_s": 1000 / wall,
                           "virtual_s": 30.0,
                           "events_per_virtual_s": 33.3},
        }

    def test_prof_diff_attributes_wall_regression(self):
        a = self._prof_doc(1.0, loop=0.5, digest=0.3)
        b = self._prof_doc(1.8, loop=0.55, digest=1.0)
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
        def live(p99, throughput, errors):
            return {"schema": "repro-live/1", "scenario": {"kind": "chaos"},
                    "totals": {"throughput": throughput, "p50": 1.0,
                               "p95": 3.0, "p99": p99, "p999": 9.0,
                               "mean": 1.5, "ops": 500, "errors": errors,
                               "censored": 0}}

        report = compare_runs(live(5.0, 800.0, 2), live(5.9, 640.0, 10))
        validate_compare_report(report)
        [line] = report["attribution"]
        assert line.startswith("p99 +18%")
        assert "throughput -20%" in line
        assert "errors +8" in line

    def test_kind_mismatch_raises(self):
        bench = _bench(8, {"x": _bench_entry(1.0)})
        prof = self._prof_doc(1.0, 0.5, 0.3)
        with pytest.raises(ConfigurationError):
            compare_runs(bench, prof)


class TestCompareFilesAndRendering:
    def test_compare_files_roundtrip(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(_bench(8, {"x": _bench_entry(1.0)})))
        b.write_text(json.dumps(_bench(9, {"x": _bench_entry(3.0)})))
        report = compare_files(str(a), str(b))
        validate_compare_report(report)
        assert report["a"]["label"] == str(a)
        text = render_compare_report(report)
        assert "x.seconds" in text
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


class TestCompareCli:
    def test_compare_prints_table_and_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(_bench(8, {"x": _bench_entry(1.0)})))
        b.write_text(json.dumps(_bench(9, {"x": _bench_entry(3.0)})))
        out = tmp_path / "cmp.json"
        code = main(["--compare", str(a), str(b),
                     "--compare-report", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "run diff (bench)" in printed
        assert "x.seconds" in printed
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
        {"schema": []},
    ], ids=["schema-only-live", "live-totals-number", "bench-not-object",
            "bench-stddev-string", "unhashable-schema"])
    def test_compare_malformed_operand_exits_two(self, tmp_path, capsys,
                                                 doc):
        # Operands are validated on load: these used to print "no
        # comparable metrics" and exit 0, or crash with a traceback.
        from repro.cli import main

        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["--compare", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_compare_committed_bench_files(self, capsys):
        from repro.cli import main

        assert main(["--compare", str(REPO / "BENCH_8.json"),
                     str(REPO / "BENCH_9.json")]) == 0
        assert "run diff (bench)" in capsys.readouterr().out

    def test_compare_unwritable_report_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "missing" / "cmp.json"
        assert main(["--compare", str(REPO / "BENCH_8.json"),
                     str(REPO / "BENCH_9.json"),
                     "--compare-report", str(out)]) == 2
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
