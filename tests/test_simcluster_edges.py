"""Edge-case tests for the discrete-event kernel (repro.simcluster.events).

These pin down the corner semantics the tracing layer (and everything else)
relies on: zero-delay timeouts still go through the queue, heap ties resolve
in insertion order, double-``succeed`` is an error, callbacks added
after an event fired run immediately, and a finished process leaves no
reference cycle behind.
"""

import gc

import pytest

from repro.common.errors import SimulationError
from repro.obs import MetricsRegistry, Tracer, overlap_violations
from repro.simcluster.events import Environment, Event, Resource


class TestZeroDelayTimeouts:
    def test_zero_delay_does_not_advance_clock(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(0.0)
            log.append(env.now)
            yield env.timeout(0.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [0.0, 0.0]

    def test_zero_delay_still_queues_behind_earlier_events(self):
        """A 0-delay timeout scheduled later fires after same-time events
        scheduled earlier — insertion order, not LIFO."""
        env = Environment()
        order = []

        def first():
            yield env.timeout(0.0)
            order.append("first")

        def second():
            yield env.timeout(0.0)
            order.append("second")

        env.process(first())
        env.process(second())
        env.run()
        assert order == ["first", "second"]

    def test_mixed_zero_and_positive_delays(self):
        env = Environment()
        order = []

        def proc(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc("late", 1.0))
        env.process(proc("now-a", 0.0))
        env.process(proc("now-b", 0.0))
        env.run()
        assert order == ["now-a", "now-b", "late"]


class TestHeapTieOrder:
    def test_same_time_events_fire_in_insertion_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(5.0)
            order.append(tag)

        for tag in ("a", "b", "c", "d"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c", "d"]

    def test_tie_order_within_nested_scheduling(self):
        """Events scheduled *while dispatching* a tied batch run after it."""
        env = Environment()
        order = []

        def parent():
            yield env.timeout(1.0)
            order.append("parent")
            env.process(child())

        def sibling():
            yield env.timeout(1.0)
            order.append("sibling")

        def child():
            yield env.timeout(0.0)
            order.append("child")

        env.process(parent())
        env.process(sibling())
        env.run()
        assert order == ["parent", "sibling", "child"]
        assert env.now == 1.0


class TestDoubleSucceed:
    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_double_succeed_raises_even_after_dispatch(self):
        env = Environment()
        event = env.event()
        event.succeed("v")
        env.run()
        with pytest.raises(SimulationError):
            event.succeed("again")

    def test_process_return_does_not_double_fire(self):
        """A process whose event someone succeeded early must not re-fire."""
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc())
        env.run()
        assert p.triggered
        assert p.value == "done"


class TestKernelChecks:
    def test_negative_timeout_raises(self):
        env = Environment()
        with pytest.raises(SimulationError, match="negative timeout"):
            env.timeout(-1)
        env.run()
        assert env.now == 0.0

    def test_yielding_a_non_event_raises(self):
        env = Environment()

        def proc():
            yield 3

        env.process(proc())
        with pytest.raises(SimulationError, match="must yield Event"):
            env.run()


class TestFinishedProcessesAreFreed:
    def test_finished_processes_leave_no_cycles(self):
        """Finished processes are freed by reference counting alone.

        A process caches its resume callback, a bound method that refers
        back to the process; the cache is dropped when the generator
        returns.  If it were kept, every finished per-op process would wait
        for the cyclic collector and an open-loop run's memory would grow.
        """
        env = Environment()
        resource = Resource(env, capacity=2)

        def op(i):
            yield resource.request()
            yield env.timeout(0.001 * (i % 7))
            resource.release()
            return i

        def source():
            for i in range(300):
                env.process(op(i))
                yield env.timeout(0.0005)

        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            env.process(source())
            env.run()
            assert resource.total_grants == 300
            gc.collect()
            leaked = [obj for obj in gc.garbage if isinstance(obj, Event)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []


class TestLateCallbacks:
    def test_callback_added_after_fire_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_callback_added_before_dispatch_waits(self):
        """Triggered-but-not-dispatched: the callback must NOT run yet."""
        env = Environment()
        event = env.event()
        event.succeed(3)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == []
        env.run()
        assert seen == [3]

    def test_waiting_on_already_finished_process(self):
        env = Environment()

        def fast():
            yield env.timeout(1.0)
            return 42

        p = env.process(fast())
        env.run()

        results = []

        def joiner():
            value = yield p
            results.append((env.now, value))

        env.process(joiner())
        env.run()
        assert results == [(1.0, 42)]


class TestRunUntilBoundary:
    def test_event_exactly_at_until_fires(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(5.0)
            log.append(env.now)

        env.process(proc())
        env.run(until=5.0)
        assert log == [5.0]

    def test_clock_lands_on_until_with_empty_queue(self):
        env = Environment()
        env.run(until=9.0)
        assert env.now == 9.0


class TestResourceEdges:
    def test_release_without_request_raises(self):
        env = Environment()
        resource = Resource(env)
        with pytest.raises(SimulationError):
            resource.release()

    def test_fifo_grant_order_under_contention(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def worker(tag, hold):
            grant = resource.request()
            yield grant
            order.append(tag)
            yield env.timeout(hold)
            resource.release()

        for tag in ("a", "b", "c"):
            env.process(worker(tag, 1.0))
        env.run()
        assert order == ["a", "b", "c"]

    def test_unnamed_resource_never_traces(self):
        """Tracing requires an explicit name: anonymous resources stay on
        the uninstrumented path even on a traced environment."""
        tracer, metrics = Tracer(), MetricsRegistry()
        env = Environment(tracer=tracer, metrics=metrics)
        resource = Resource(env, capacity=1)  # no name
        env.process(resource.use(1.0))
        env.run()
        assert len(tracer) == 0
        assert len(metrics) == 0

    def test_named_resource_hold_spans_are_mutually_exclusive(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        env = Environment(tracer=tracer, metrics=metrics)
        resource = Resource(env, capacity=1, name="mutex")
        for _ in range(4):
            env.process(resource.use(2.0))
        env.run()
        holds = tracer.find(cat="resource", node="mutex")
        waits = tracer.find(cat="resource-wait", node="mutex")
        assert len(holds) == 4
        assert len(waits) == 3
        assert overlap_violations(holds) == []
        # Hold time is conserved: 4 holds of 2 s each.
        assert sum(s.duration for s in holds) == pytest.approx(8.0)
        # Wait spans explain the whole queueing delay: 2 + 4 + 6 s.
        assert resource.total_wait_time == pytest.approx(12.0)
        assert sum(s.duration for s in waits) == pytest.approx(12.0)
        assert metrics.value("resource.mutex.holds") == 4
        assert metrics.value("resource.mutex.waits") == 3
        assert metrics.histogram("resource.mutex.wait_time").total == pytest.approx(12.0)

    def test_capacity_two_conserves_total_hold_time(self):
        tracer = Tracer()
        env = Environment(tracer=tracer)
        resource = Resource(env, capacity=2, name="pool")
        for _ in range(5):
            env.process(resource.use(3.0))
        env.run()
        holds = tracer.find(cat="resource", node="pool")
        assert len(holds) == 5
        assert sum(s.duration for s in holds) == pytest.approx(15.0)
