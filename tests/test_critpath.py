"""Causal links, critical-path extraction, slack, and span parentage."""

import json

import pytest

from repro.common.envelope import dumps_report
from repro.common.errors import SimulationError
from repro.obs import (
    NULL_TRACER,
    Tracer,
    critical_path,
    link_violations,
    nesting_violations,
    pick_root,
    render_critical_path,
)
from repro.obs.critpath import SCHEMA


class TestTracerLinks:
    def test_link_records_predecessor(self):
        tracer = Tracer()
        a = tracer.add("a", 0.0, 1.0)
        b = tracer.add("b", 1.0, 2.0)
        tracer.link(a, b, "seq")
        assert b.links == [(a.span_id, "seq")]
        assert a.links == []

    def test_duplicate_links_collapse_but_kinds_are_distinct(self):
        tracer = Tracer()
        a = tracer.add("a", 0.0, 1.0)
        b = tracer.add("b", 1.0, 2.0)
        tracer.link(a, b, "seq")
        tracer.link(a, b, "seq")
        assert b.links == [(a.span_id, "seq")]
        tracer.link(a, b, "barrier")
        assert b.links == [(a.span_id, "seq"), (a.span_id, "barrier")]

    def test_self_link_rejected(self):
        tracer = Tracer()
        a = tracer.add("a", 0.0, 1.0)
        with pytest.raises(SimulationError):
            tracer.link(a, a, "seq")

    def test_null_tracer_link_is_noop(self):
        assert NULL_TRACER.link("anything", "goes", kind="seq") is None

    def test_children_of_uses_span_ids(self):
        tracer = Tracer()
        root = tracer.add("root", 0.0, 10.0)
        kid = tracer.add("kid", 0.0, 5.0, parent=root.span_id)
        other = tracer.add("other", 0.0, 1.0)
        assert tracer.children_of(root) == [kid]
        assert tracer.children_of(other) == []


class TestLinkViolations:
    def test_clean_chain_has_no_violations(self):
        tracer = Tracer()
        a = tracer.add("a", 0.0, 1.0)
        b = tracer.add("b", 1.0, 2.0)
        tracer.link(a, b, "seq")
        assert link_violations(tracer) == []

    def test_orphan_link_reported(self):
        tracer = Tracer()
        b = tracer.add("b", 1.0, 2.0)
        b.links.append((999, "seq"))
        problems = link_violations(tracer)
        assert len(problems) == 1
        assert "unknown span id 999" in problems[0]

    def test_self_link_reported(self):
        tracer = Tracer()
        b = tracer.add("b", 1.0, 2.0)
        b.links.append((b.span_id, "seq"))  # bypass Tracer.link's guard
        assert any("link to itself" in p for p in link_violations(tracer))

    def test_time_travel_reported(self):
        tracer = Tracer()
        late = tracer.add("late", 5.0, 6.0)
        early = tracer.add("early", 0.0, 1.0)
        tracer.link(late, early, "seq")  # early waited for late: impossible
        assert any("predecessor" in p for p in link_violations(tracer))

    def test_cycle_detected_iteratively_on_deep_chain(self):
        # A 5000-deep predecessor chain closed into a ring: recursion-based
        # cycle detection would blow the interpreter stack here.
        tracer = Tracer()
        spans = [tracer.add(f"s{i}", float(i), float(i) + 1.0)
                 for i in range(5000)]
        for prev, span in zip(spans, spans[1:]):
            tracer.link(prev, span, "seq")
        spans[0].links.append((spans[-1].span_id, "seq"))  # close the ring
        assert any("cycle" in p for p in link_violations(tracer))

    def test_acyclic_deep_chain_is_clean(self):
        tracer = Tracer()
        spans = [tracer.add(f"s{i}", float(i), float(i) + 1.0)
                 for i in range(5000)]
        for prev, span in zip(spans, spans[1:]):
            tracer.link(prev, span, "seq")
        assert link_violations(tracer) == []


class TestCriticalPathSynthetic:
    def _linked_run(self):
        """root [0,10] containing a 3-span linked chain with a waiting gap."""
        tracer = Tracer()
        root = tracer.add("root", 0.0, 10.0, cat="query")
        a = tracer.add("a", 0.0, 3.0, parent=root.span_id, cat="task")
        b = tracer.add("b", 4.0, 7.0, parent=root.span_id, cat="task")
        c = tracer.add("c", 7.0, 10.0, parent=root.span_id, cat="task")
        tracer.link(a, b, "barrier")
        tracer.link(b, c, "seq")
        return tracer, root, (a, b, c)

    def test_path_tiles_root_exactly(self):
        tracer, root, (a, b, c) = self._linked_run()
        path = critical_path(tracer)
        assert path.root is root
        assert path.segments[0].start == root.start
        assert path.segments[-1].end == root.end
        for prev, seg in zip(path.segments, path.segments[1:]):
            assert seg.start == pytest.approx(prev.end)
        assert sum(seg.seconds for seg in path.segments) == pytest.approx(
            path.total_seconds)

    def test_waiting_gap_becomes_wait_segment(self):
        tracer, root, (a, b, c) = self._linked_run()
        path = critical_path(tracer)
        waits = [seg for seg in path.segments if seg.via == "wait"]
        assert len(waits) == 1
        assert (waits[0].start, waits[0].end) == (3.0, 4.0)
        assert waits[0].span is root

    def test_edges_record_the_links_used(self):
        tracer, root, (a, b, c) = self._linked_run()
        path = critical_path(tracer)
        assert (a.span_id, b.span_id, "barrier") in path.edges
        assert (b.span_id, c.span_id, "seq") in path.edges

    def test_slack_of_off_path_span(self):
        tracer, root, (a, b, c) = self._linked_run()
        idle = tracer.add("idle", 0.0, 2.0, parent=root.span_id, cat="task")
        path = critical_path(tracer)
        assert path.slack[(idle.span_id, "idle")] == pytest.approx(8.0)
        assert path.slack[(c.span_id, "c")] == 0.0
        top = path.top_slack()
        assert top[0][0] == idle.span_id

    def test_cycle_in_sibling_chain_raises(self):
        # Two zero-width spans at the same instant claiming to wait on each
        # other: the only link arrangement that is time-consistent yet
        # cyclic, so the chain walk must detect the revisit.
        tracer = Tracer()
        root = tracer.add("root", 0.0, 10.0, cat="query")
        a = tracer.add("a", 5.0, 5.0, parent=root.span_id)
        b = tracer.add("b", 5.0, 5.0, parent=root.span_id)
        tracer.link(a, b, "seq")
        tracer.link(b, a, "seq")
        with pytest.raises(SimulationError):
            critical_path(tracer)

    def test_orphan_links_are_skipped_not_fatal(self):
        tracer, root, (a, b, c) = self._linked_run()
        c.links.append((424242, "seq"))
        path = critical_path(tracer)  # must not raise
        assert path.segments[-1].end == root.end

    def test_deep_nesting_does_not_recurse(self):
        # 1200 nested spans: one child per level.  A recursive extractor
        # would exceed the default interpreter limit (~1000 frames).
        tracer = Tracer()
        parent = tracer.add("level0", 0.0, 1200.0, cat="query")
        for i in range(1, 1200):
            parent = tracer.add(f"level{i}", float(i), 1200.0,
                                parent=parent.span_id)
        path = critical_path(tracer)
        assert len(path.segments) == 1200
        assert path.segments[0].start == 0.0
        assert path.segments[-1].end == 1200.0

    def test_pick_root_prefers_query_spans(self):
        tracer = Tracer()
        tracer.add("long", 0.0, 100.0)
        q = tracer.add("q", 0.0, 10.0, cat="query")
        assert pick_root(tracer.spans) is q

    def test_pick_root_without_spans_raises(self):
        with pytest.raises(SimulationError):
            pick_root([])

    def test_serialization_is_deterministic(self):
        tracer, _, _ = self._linked_run()
        path = critical_path(tracer)
        text = dumps_report(path.to_dict())
        assert text == dumps_report(critical_path(tracer).to_dict())
        doc = json.loads(text)
        assert doc["schema"] == SCHEMA
        assert doc["root"]["seconds"] == 10.0
        assert [seg["via"] for seg in doc["segments"]].count("wait") == 1

    def test_render_mentions_every_segment(self):
        tracer, _, _ = self._linked_run()
        path = critical_path(tracer)
        text = render_critical_path(path)
        assert "critical path: root" in text
        assert "by category:" in text


class TestCriticalPathTracedRuns:
    def test_hive_q1_path_tiles_the_query(self, causal_study):
        _, tracer, path = causal_study.critical_path(1, 250.0, engine="hive")
        assert nesting_violations(tracer) == []
        assert link_violations(tracer) == []
        assert path.segments[0].start == pytest.approx(path.root.start)
        assert path.segments[-1].end == pytest.approx(path.root.end)
        covered = sum(seg.seconds for seg in path.segments)
        assert covered == pytest.approx(path.total_seconds)
        for prev, seg in zip(path.segments, path.segments[1:]):
            assert seg.start == pytest.approx(prev.end)
        # The map wave dominates Q1 and enters the path via slot chains.
        assert any(seg.via == "slot" for seg in path.segments)

    def test_pdw_q1_path_tiles_the_query(self, causal_study):
        _, tracer, path = causal_study.critical_path(1, 250.0, engine="pdw")
        assert link_violations(tracer) == []
        covered = sum(seg.seconds for seg in path.segments)
        assert covered == pytest.approx(path.total_seconds)

    def test_extraction_is_deterministic_across_runs(self, causal_study):
        _, _, first = causal_study.critical_path(5, 1000.0, engine="hive")
        _, _, second = causal_study.critical_path(5, 1000.0, engine="hive")
        assert dumps_report(first.to_dict()) == dumps_report(second.to_dict())

    def test_oltp_paths_deterministic_per_seed(self):
        from repro.core.oltp import OltpStudy

        study = OltpStudy()
        runs = {}
        for seed in (1234, 1234, 99):
            _, _, _, path = study.critical_path(
                "mongo-cs", "A", 20_000.0, duration=30.0, seed=seed)
            runs.setdefault(seed, []).append(dumps_report(path.to_dict()))
        assert runs[1234][0] == runs[1234][1]  # same seed -> identical path
        assert runs[1234][0] != runs[99][0]  # different seed -> different trace

    def test_eventsim_links_are_clean(self):
        from repro.core.oltp import OltpStudy

        study = OltpStudy()
        _, _, tracer = study.traced_point("mongo-cs", "A", 20_000.0,
                                          duration=30.0)
        assert link_violations(tracer) == []
        visits = tracer.find(cat="visit")
        assert visits, "event sim should emit per-station visit spans"
        requests = {s.span_id for s in tracer.find(cat="request")}
        # Ops still in flight at the simulation cutoff never get their
        # request span; everything else must be parented.
        orphans = [v for v in visits if v.parent not in requests]
        assert len(orphans) <= 16  # at most one in-flight op per client
        assert all(v.end >= 29.0 for v in orphans)
        assert len(orphans) < len(visits) / 100


class TestFaultSpanParentage:
    """Regression: retry/fault spans must parent under the op they delay."""

    def _faulted_trace(self):
        from repro.docstore.cluster import MongoAsCluster
        from repro.faults import FaultedYcsbRun, FaultPlan
        from repro.ycsb import WORKLOADS

        tracer = Tracer()
        cluster = MongoAsCluster(shard_count=8, max_chunk_docs=4000)
        run = FaultedYcsbRun(
            cluster, WORKLOADS["A"], record_count=800, operations=1600,
            plan=FaultPlan.parse("kill-shard:0@0", seed=7), seed=7,
            tracer=tracer,
        )
        run.load()
        run.run()
        return tracer

    def test_retry_and_fault_spans_parent_under_requests(self):
        tracer = self._faulted_trace()
        requests = {s.span_id for s in tracer.find(cat="request")}
        backoffs = tracer.find(cat="retry")
        faults = tracer.find(cat="fault")
        assert backoffs, "kill-shard at op 0 must cause retries"
        assert faults, "the fault span itself must be traced"
        for span in backoffs + faults:
            assert span.parent in requests, (
                f"{span.name} (id {span.span_id}) is not parented under "
                f"the request it delays"
            )

    def test_backoff_chains_are_linked(self):
        tracer = self._faulted_trace()
        by_id = {s.span_id: s for s in tracer.spans}
        linked = [
            s for s in tracer.find(cat="retry")
            if any(by_id[src].cat == "retry"
                   for src, kind in s.links if src in by_id)
        ]
        assert linked, "consecutive backoffs of one op must chain via links"
        assert link_violations(tracer) == []
