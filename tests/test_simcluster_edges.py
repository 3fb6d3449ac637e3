"""Edge-case tests for the discrete-event kernel (repro.simcluster.events).

These pin down the corner semantics the tracing layer (and everything else)
relies on: zero-delay timeouts still go through the queue, heap ties resolve
in insertion order, double-``succeed`` is an error, callbacks added
after an event fired run immediately, a free server's grant has already
fired when ``request`` returns it, a yielded ``float`` delay wakes a
process in exactly the order a ``Timeout`` would, a new process costs one
heap push and no event, and a finished process leaves no reference cycle
behind.
"""

import gc

import pytest

from repro.common.errors import SimulationError
from repro.obs import MetricsRegistry, Tracer, overlap_violations
from repro.simcluster.events import Environment, Event, Process, Resource


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
        # NaN would break the heap order, so it is rejected with negatives.
        for delay in (-1, float("nan")):
            with pytest.raises(SimulationError, match="negative timeout"):
                env.timeout(delay)
        env.run()
        assert env.now == 0.0

        # A yielded float delay is checked the same way.
        def proc(delay):
            yield delay

        for delay in (-1.0, float("nan")):
            env = Environment()
            env.process(proc(delay))
            with pytest.raises(SimulationError, match="negative timeout"):
                env.run()
            assert env.now == 0.0

    def test_infinite_timeout_is_legal(self):
        env = Environment()
        never = env.timeout(float("inf"))
        woken = []

        def sleeper():
            yield float("inf")
            woken.append(env.now)

        env.process(sleeper())
        env.run(until=100.0)
        assert not never._fired
        assert woken == []
        assert env.now == 100.0

    def test_yielding_a_non_event_raises(self):
        # Only an exact float is a delay: an int, a bool, None or a string
        # is still a wrong yield.
        def proc(value):
            yield value

        for value in (3, True, None, "1.0"):
            env = Environment()
            env.process(proc(value))
            with pytest.raises(SimulationError, match="must yield Event"):
                env.run()


class TestFloatDelays:
    """A yielded float wakes the process from the heap key a Timeout built
    at the same moment would get, so the schedule cannot tell them apart."""

    PLANS = {"a": (1.0, 0.5, 0.0, 0.25), "b": (0.5, 1.0, 0.0),
             "c": (1.5, 0.0, 0.25), "d": (0.0, 1.5, 0.25)}
    # Recorded from the all-Timeout program.
    ORDER = [
        ("d", 0.0), ("b", 0.5), ("a", 1.0), ("c", 1.5), ("d", 1.5),
        ("b", 1.5), ("a", 1.5), ("c", 1.5), ("b", 1.5), ("a", 1.5),
        ("b-held", 1.625), ("d", 1.75), ("c", 1.75), ("a", 1.75),
        ("d-held", 1.875), ("c-held", 2.0), ("a-held", 2.125),
    ]

    @pytest.mark.parametrize("mode", ["timeout", "float", "mixed"])
    def test_dispatch_order_matches_all_timeout_program(self, mode):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def sleep(delay, step):
            if mode == "timeout" or (mode == "mixed" and step % 2):
                return env.timeout(delay)
            return delay

        def proc(tag, delays):
            for step, delay in enumerate(delays):
                yield sleep(delay, step)
                order.append((tag, env.now))
            yield resource.request()
            yield sleep(0.125, len(delays))
            resource.release()
            order.append((tag + "-held", env.now))

        for tag, delays in self.PLANS.items():
            env.process(proc(tag, delays))
        env.run()
        assert order == self.ORDER
        assert env._sequence == 27
        assert env.now == 2.125

    def test_process_start_is_one_push_and_no_event(self, monkeypatch):
        env = Environment()
        built = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)

        def proc():
            yield 1.0

        sequence = env._sequence
        process = env.process(proc())
        assert env._sequence == sequence + 1
        assert built == [Process]  # the process's own join event only
        env.run()
        assert env.now == 1.0 and process.triggered
        # The wake-up built no event either; the return fired the process.
        assert built == [Process]


class TestFinishedProcessesAreFreed:
    def test_finished_processes_leave_no_cycles(self):
        """Finished processes are freed by reference counting alone.

        A process caches its resume callback, a bound method that refers
        back to the process; the cache is dropped when the generator
        returns.  If it were kept, every finished per-op process would wait
        for the cyclic collector and an open-loop run's memory would grow.
        """
        self._assert_no_cycles(float_delays=False)

    def test_finished_float_delay_processes_leave_no_cycles(self):
        """The same holds when processes sleep on bare float delays, whose
        heap entries hold the resume callback itself."""
        self._assert_no_cycles(float_delays=True)

    @staticmethod
    def _assert_no_cycles(float_delays):
        env = Environment()
        resource = Resource(env, capacity=2)
        sleep = float if float_delays else env.timeout

        def op(i):
            yield resource.request()
            yield sleep(0.001 * (i % 7))
            resource.release()
            return i

        def source():
            for i in range(300):
                env.process(op(i))
                yield sleep(0.0005)

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

    def test_until_before_now_raises(self):
        """The clock never runs backwards; ``until == now`` is a no-op."""
        env = Environment()
        late = env.timeout(20.0)
        env.run(until=10.0)
        with pytest.raises(SimulationError, match="earlier than now"):
            env.run(until=4.0)
        assert env.now == 10.0
        env.run(until=10.0)
        assert env.now == 10.0
        assert not late._fired
        env.run()
        assert late._fired and env.now == 20.0


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


class TestImmediateGrants:
    """A free server grants without a heap round trip; a queued grant
    still fires through the heap."""

    def test_free_grant_has_fired_and_schedules_nothing(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        sequence = env._sequence
        first, second = resource.request(), resource.request()
        assert first._fired and first.triggered and first.value is None
        assert first is second and first.env is env
        assert env._sequence == sequence
        assert resource.in_use == 2 and resource.total_grants == 2
        with pytest.raises(SimulationError, match="already triggered"):
            first.succeed()

    def test_granted_process_continues_ahead_of_same_instant_events(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def other():
            yield env.timeout(1.0)
            order.append(("other", env.now))

        def taker():
            yield env.timeout(1.0)
            sequence = env._sequence
            yield resource.request()
            assert env._sequence == sequence
            order.append(("taker", env.now))
            resource.release()

        env.process(taker())
        env.process(other())
        env.run()
        assert order == [("taker", 1.0), ("other", 1.0)]

    def test_queued_grants_fire_through_the_heap_in_fifo_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.request()
        waiters = [resource.request() for _ in range(3)]
        assert not any(w.triggered for w in waiters)
        sequence = env._sequence
        resource.release()
        assert waiters[0].triggered and not waiters[0]._fired
        assert env._sequence == sequence + 1
        order = []
        for tag, waiter in zip("abc", waiters):
            waiter.add_callback(lambda e, tag=tag: order.append(tag))
        env.run()
        assert order == ["a"]
        resource.release()
        resource.release()
        env.run()
        assert order == ["a", "b", "c"]
        assert resource.queue_length == 0

    def test_callbacks_and_all_of_on_a_free_grant_fire_at_once(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        grant = resource.request()
        seen = []
        grant.add_callback(lambda e: seen.append(e.value))
        assert seen == [None]
        gate = env.all_of([grant, resource.request()])
        assert gate.triggered
        env.run()
        assert gate.value == [None, None]
        assert env.now == 0.0

    def test_long_run_of_free_grants_does_not_recurse(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        rounds = 10_000

        def churn():
            for _ in range(rounds):
                yield resource.request()
                resource.release()
            return "done"

        proc = env.process(churn())
        env.run()
        assert proc.value == "done"
        assert resource.total_grants == rounds and resource.in_use == 0
        # One push bootstraps the process, one fires its return.
        assert env._sequence == 2
