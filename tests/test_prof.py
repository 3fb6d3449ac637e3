"""The self-profiling layer: ``repro.obs.prof`` and its producers.

Covers the two instruments (stack sampler, exact subsystem counters), the
``repro-prof/1`` report shape, the flamegraph exporters, and the two
contracts the tentpole demands: zero-cost-off (a run without ``prof=``
constructs nothing from the profiling layer) and output byte-identity
(profiling must never perturb the simulation).
"""

import inspect
import json
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import (
    ProfiledRun,
    build_prof_report,
    dumps_prof_report,
    folded_stacks,
    host_meta,
    profile_summary,
    profiled_live,
    profiled_tracer,
    render_prof_report,
    speedscope_document,
    validate_prof_report,
    write_folded,
    write_prof_report,
    write_speedscope,
)


def _busy(seconds: float) -> int:
    """Spin the CPU so the sampler has something to catch."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestCounters:
    def test_section_self_vs_total_nesting(self):
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        prof = ProfiledRun(sample=False, clock=lambda: next(ticks))
        prof.enter("outer")       # t=0
        prof.enter("inner")       # t=1
        prof.exit()               # t=3: inner total=self=2
        prof.exit()               # t=10: outer total=10, self=10-2=8
        table = prof.subsystem_table()
        assert table["inner"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
        assert table["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 8.0}

    def test_section_context_manager(self):
        prof = ProfiledRun(sample=False)
        with prof.section("work"):
            pass
        assert prof.subsystem_table()["work"]["calls"] == 1

    def test_add_accumulates_flat_time(self):
        prof = ProfiledRun(sample=False)
        prof.add("io", 0.25, calls=3)
        prof.add("io", 0.75)
        assert prof.subsystem_table()["io"] == {
            "calls": 4, "total_s": 1.0, "self_s": 1.0}

    def test_throughput_accumulators(self):
        prof = ProfiledRun(sample=False)
        prof.count_events(100)
        prof.count_events(50)
        prof.note_ops(30)
        prof.note_virtual_time(60.0)
        prof.note_virtual_time(45.0)  # max-accumulate, not overwrite
        assert prof.events == 150
        assert prof.ops == 30
        assert prof.virtual_s == 60.0

    def test_double_start_raises(self):
        prof = ProfiledRun(sample=False).start()
        with pytest.raises(ConfigurationError):
            prof.start()
        prof.stop()

    def test_bad_interval_raises(self):
        with pytest.raises(ConfigurationError):
            ProfiledRun(sample_interval=0.0)


class TestSampler:
    def test_sampler_catches_the_hot_function(self):
        with ProfiledRun(sample_interval=0.001) as prof:
            _busy(0.15)
        assert prof.sample_count > 10
        hot = prof.hot_functions(top=5)
        assert hot, "expected at least one sampled stack"
        assert any(row["func"] == "_busy" for row in hot)
        top = hot[0]
        assert set(top) >= {"func", "file", "line", "self_samples",
                            "total_samples", "self_pct"}

    def test_sample_false_spawns_no_thread(self):
        prof = ProfiledRun(sample=False).start()
        assert prof._sampler is None
        prof.stop()
        assert prof.sample_count == 0


class TestProxies:
    class _Sink:
        def __init__(self):
            self.ops = []
            self.extra = "visible"

        def record_op(self, when, latency, ok=True):
            self.ops.append((when, latency, ok))

        def record_censored(self, when, bound):
            self.ops.append(("censored", when, bound))

        def finish(self, now):
            self.ops.append(("finish", now))

    class _Trace:
        def __init__(self):
            self.spans = []

        def add(self, span):
            self.spans.append(span)
            return span

        def link(self, a, b):
            self.spans.append((a, b))

    def test_factories_pass_none_through(self):
        prof = ProfiledRun(sample=False)
        assert profiled_live(None, prof) is None
        assert profiled_tracer(None, prof) is None

    def test_live_proxy_is_pure_passthrough(self):
        prof = ProfiledRun(sample=False)
        sink = self._Sink()
        wrapped = profiled_live(sink, prof)
        wrapped.record_op(1.0, 0.005)
        wrapped.record_censored(2.0, 0.1)
        wrapped.finish(3.0)
        assert sink.ops == [(1.0, 0.005, True), ("censored", 2.0, 0.1),
                            ("finish", 3.0)]
        assert wrapped.extra == "visible"  # attribute forwarding
        assert bool(wrapped)
        assert prof.subsystem_table()["digest.update"]["calls"] == 3

    def test_tracer_proxy_counts_and_forwards(self):
        prof = ProfiledRun(sample=False)
        tracer = self._Trace()
        wrapped = profiled_tracer(tracer, prof)
        for i in range(10):
            assert wrapped.add(i) == i
        wrapped.link("a", "b")
        assert len(tracer.spans) == 11
        assert prof.subsystem_table()["span.construct"]["calls"] == 11

    def test_leaf_time_credits_enclosing_section(self):
        """Flat-path proxy time must still reduce the parent's self time."""
        import repro.obs.prof as prof_mod

        prof = ProfiledRun(sample=False)
        tracer = self._Trace()
        wrapped = profiled_tracer(tracer, prof)
        prof.enter("eventsim.loop")
        # drive enough calls through the 1-in-N timing stride to record time
        for i in range(prof_mod._TIMING_STRIDE * 4):
            wrapped.add(i)
        prof.exit()
        table = prof.subsystem_table()
        loop = table["eventsim.loop"]
        span = table["span.construct"]
        assert span["calls"] == prof_mod._TIMING_STRIDE * 4
        assert span["total_s"] > 0.0
        assert loop["self_s"] < loop["total_s"]  # child time subtracted


class TestByteIdentity:
    def test_eventsim_outputs_identical_with_and_without_prof(self):
        from repro.obs import MetricsRegistry, Tracer
        from repro.ycsb.eventsim import SimStation, simulate_closed_loop

        def run(prof):
            stations = [SimStation("disk", 2, {"read": 0.002,
                                               "update": 0.004})]
            tracer, metrics = Tracer(), MetricsRegistry()
            result = simulate_closed_loop(
                stations, {"read": 0.5, "update": 0.5}, clients=4,
                duration=20.0, seed=7, tracer=tracer, metrics=metrics,
                prof=prof)
            spans = [(s.name, s.node, round(s.start, 9), round(s.end, 9))
                     for s in tracer.spans]
            return result, spans

        bare_result, bare_spans = run(None)
        prof = ProfiledRun(sample=False).start()
        prof_result, prof_spans = run(prof)
        prof.stop()
        assert prof_result == bare_result
        assert prof_spans == bare_spans
        assert prof.events > 0
        assert prof.subsystem_table()["eventsim.loop"]["calls"] == 1
        assert prof.subsystem_table()["span.construct"]["calls"] == len(
            bare_spans)

    def test_live_report_bytes_identical_with_and_without_prof(self):
        from repro.core.oltp import OltpStudy
        from repro.obs import dumps_live_report

        study = OltpStudy()
        kwargs = dict(operations=120, seed=5, slice_s=0.1)
        bare = study.live_report("mongo-as", **kwargs)
        prof = ProfiledRun(sample=False).start()
        profiled = study.live_report("mongo-as", prof=prof, **kwargs)
        prof.stop()
        assert dumps_live_report(profiled) == dumps_live_report(bare)
        table = prof.subsystem_table()
        assert table["routing"]["calls"] > 0
        assert table["digest.update"]["calls"] > 0

    def test_dss_trace_identical_with_and_without_prof(self):
        from repro.core.dss import DssStudy

        study = DssStudy()

        def spans(prof):
            _, tracer, _ = study.trace_query(1, 250.0, engine="hive",
                                             prof=prof)
            return [(s.name, s.node, round(s.start, 9), round(s.end, 9))
                    for s in tracer.spans]

        bare = spans(None)
        prof = ProfiledRun(sample=False).start()
        profiled = spans(prof)
        prof.stop()
        assert profiled == bare
        assert prof.subsystem_table()["hive.query"]["calls"] == 1


class TestZeroCostOff:
    def test_prof_defaults_are_none_everywhere(self):
        from repro.core.dss import DssStudy
        from repro.core.oltp import OltpStudy
        from repro.faults.availability import availability_row
        from repro.faults.runner import FaultedYcsbRun
        from repro.ycsb.eventsim import simulate_closed_loop, \
            simulate_open_loop

        for fn in (simulate_closed_loop, simulate_open_loop,
                   availability_row, FaultedYcsbRun.__init__,
                   OltpStudy.event_sim_point, OltpStudy.live_report,
                   DssStudy.trace_query):
            assert inspect.signature(fn).parameters["prof"].default is None

    def test_off_path_constructs_no_profiler_objects(self, monkeypatch):
        """A run without prof= must never touch the profiling layer."""
        import repro.obs.prof as prof_mod
        from repro.ycsb.eventsim import SimStation, simulate_closed_loop

        calls = {"n": 0}
        for cls in (prof_mod.ProfiledRun, prof_mod._ProfiledLive,
                    prof_mod._ProfiledTracer, prof_mod._StackSampler):
            original = cls.__init__

            def counting(self, *args, __orig=original, **kwargs):
                calls["n"] += 1
                return __orig(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        stations = [SimStation("disk", 2, {"read": 0.001})]
        simulate_closed_loop(stations, {"read": 1.0}, clients=2,
                             duration=4.0, warmup=1.0, seed=3)
        assert calls["n"] == 0

    def test_profiled_run_counts_every_dispatched_event(self):
        """prof.events equals the callbacks the one dispatch loop ran.

        Counted across two run() calls, with events left queued past
        ``until`` and events queued before the first run.
        """
        from repro.simcluster.events import Environment

        prof = ProfiledRun(sample=False).start()
        env = Environment(prof=prof)
        fired = []  # every event below has exactly one callback

        def ticker(period):
            while True:
                fired.append(env.now)  # bootstrap, then each timeout
                yield env.timeout(period)

        env.process(ticker(0.3))
        env.process(ticker(0.7))
        for delay in (0.5, 1.5, 9.0):
            env.timeout(delay).add_callback(lambda event: fired.append(env.now))
        env.run(until=1.0)
        first = len(fired)
        assert prof.events == first
        env.run(until=2.0)
        prof.stop()
        assert prof.events == len(fired) > first
        assert prof.subsystem_table()["eventsim.loop"]["calls"] == 2
        assert prof.virtual_s == 2.0


class TestProfReport:
    def _profiled(self):
        prof = ProfiledRun(sample_interval=0.001).start()
        with prof.section("eventsim.loop"):
            _busy(0.05)
        prof.count_events(1000)
        prof.note_ops(100)
        prof.note_virtual_time(30.0)
        prof.stop()
        return prof

    def test_build_validate_render_roundtrip(self, tmp_path):
        prof = self._profiled()
        report = build_prof_report(prof, {"kind": "test"})
        validate_prof_report(report)
        assert report["schema"] == "repro-prof/1"
        assert report["scenario"] == {"kind": "test"}
        assert report["host"] == host_meta()
        assert report["throughput"]["events"] == 1000
        assert report["throughput"]["events_per_wall_s"] > 0
        assert report["throughput"]["ops"] == 100
        assert report["throughput"]["events_per_virtual_s"] == pytest.approx(
            1000 / 30.0, abs=0.05)  # report rounds rates to 3 decimals
        assert report["subsystems"]["eventsim.loop"]["calls"] == 1

        text = render_prof_report(report)
        assert "self-profile" in text
        assert "eventsim.loop" in text
        assert text.isascii()

        dumped = dumps_prof_report(report)
        assert dumped.endswith("\n")
        assert json.loads(dumped) == report
        path = tmp_path / "prof.json"
        write_prof_report(report, str(path))
        assert json.loads(path.read_text()) == report

    def test_build_requires_stopped_profiler(self):
        prof = ProfiledRun(sample=False).start()
        with pytest.raises(ConfigurationError):
            build_prof_report(prof, {"kind": "test"})
        prof.stop()

    def test_validate_rejects_wrong_schema(self):
        prof = self._profiled()
        report = build_prof_report(prof, {"kind": "test"})
        report["schema"] = "repro-prof/0"
        with pytest.raises(ConfigurationError):
            validate_prof_report(report)

    def test_profile_summary_shape(self):
        prof = self._profiled()
        summary = profile_summary(prof, top=5)
        assert set(summary) == {"samples", "interval_s", "top", "subsystems"}
        assert len(summary["top"]) <= 5
        assert "eventsim.loop" in summary["subsystems"]


class TestExporters:
    def _sampled(self):
        with ProfiledRun(sample_interval=0.001) as prof:
            _busy(0.08)
        return prof

    def test_folded_stacks_format(self, tmp_path):
        prof = self._sampled()
        folded = folded_stacks(prof)
        assert folded.endswith("\n")
        lines = folded.strip().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert ";" in stack or stack  # root;...;leaf
        path = tmp_path / "stacks.folded"
        assert write_folded(prof, str(path)) == len(lines)
        assert path.read_text() == folded

    def test_speedscope_document(self, tmp_path):
        prof = self._sampled()
        doc = speedscope_document(prof)
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["samples"], "expected sampled stacks"
        frame_count = len(doc["shared"]["frames"])
        for stack in profile["samples"]:
            assert all(0 <= index < frame_count for index in stack)
        path = tmp_path / "profile.speedscope.json"
        write_speedscope(prof, str(path))
        assert json.loads(path.read_text())["profiles"]

    def test_empty_profile_exports_cleanly(self):
        prof = ProfiledRun(sample=False)
        assert folded_stacks(prof) == ""
        doc = speedscope_document(prof)
        assert doc["profiles"][0]["samples"] == []
        text = render_prof_report(build_prof_report(prof, {"kind": "empty"}))
        assert "no samples" in text
