"""The event loop's inline wake-ups against a plain reference loop.

``Environment.run`` sends into a woken process itself and keeps the
wake-up entry of a process that yields a float delay pending, merging it
with the next dispatch through ``heappushpop``.  These tests check that
this is only faster: random process sets dispatch in the same order, with
the same values, the same heap pushes and the same entries left queued as
under a loop that pops one entry at a time and wakes each process through
``Process._resume`` with a plain push; a woken process's bad yield raises
as a starting one's does; and the closed-loop benchmark cells keep their
heap traffic.
"""

import math
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.core.oltp import OltpStudy
from repro.simcluster.events import Environment, Resource
from repro.ycsb import eventsim


def reference_run(env, until=None):
    """``Environment.run`` as one pop per entry and a plain push per wake-up.

    A process entry is woken through ``Process._resume`` with the
    environment's shared already-fired grant, an event whose value is
    ``None``, so the float delay it yields is pushed at once.
    """
    queue = env._queue
    limit = math.inf if until is None else until
    while queue:
        entry = heappop(queue)
        when, _, target, event = entry
        if when > limit:
            heappush(queue, entry)
            break
        env.now = when
        if event is None:
            target._resume(env._granted)
        else:
            target(event)
    if until is not None:
        env.now = until


DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
STEP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    # resource, service time, yield the grant even if it came back fired
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS, st.booleans()),
    st.tuples(st.just("all_of"), st.lists(DELAYS, max_size=3)),
    # the child's sleeps, then how long to sleep before joining it
    st.tuples(st.just("join"), st.lists(DELAYS, max_size=3), DELAYS),
)
PROGRAM = st.fixed_dictionaries({
    "capacities": st.lists(st.integers(1, 2), min_size=2, max_size=2),
    "processes": st.lists(st.lists(STEP, max_size=6), min_size=1,
                          max_size=6),
    "cuts": st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.5]),
                     max_size=3).map(sorted),
})


def start(env, program, trace):
    """Start the program's processes; each logs ``(now, tag, value)`` at
    every resumption."""
    resources = [Resource(env, capacity=c) for c in program["capacities"]]

    def sleeper(tag, delays):
        for delay in delays:
            trace.append((env.now, tag, (yield delay)))
        return tag

    def body(tag, steps):
        for number, (kind, *args) in enumerate(steps):
            if kind == "sleep":
                value = yield args[0]
            elif kind == "timeout":
                value = yield env.timeout(args[0])
            elif kind == "hold":
                index, service, yield_fired = args
                grant = resources[index].request()
                value = "free"
                if yield_fired or not grant.triggered:
                    value = yield grant
                trace.append((env.now, tag, ("granted", value)))
                value = yield service
                resources[index].release()
            elif kind == "all_of":
                value = yield env.all_of([env.timeout(d) for d in args[0]])
            else:
                child = env.process(sleeper(f"{tag}.{number}", args[0]))
                trace.append((env.now, tag, (yield args[1])))
                value = yield child  # may have fired already
            trace.append((env.now, tag, value))
        return tag

    for index, steps in enumerate(program["processes"]):
        env.process(body(f"p{index}", steps))


def state(env):
    queued = sorted((when, sequence, event is None)
                    for when, sequence, _, event in env._queue)
    return env.now, env._sequence, queued


class TestDispatchMatchesReferenceLoop:
    @given(PROGRAM)
    @settings(max_examples=300, deadline=None)
    def test_same_trace_pushes_and_queue(self, program):
        runs = []
        for run in (Environment.run, reference_run):
            env, trace = Environment(), []
            start(env, program, trace)
            states = []
            for cut in program["cuts"]:
                run(env, until=cut)
                states.append(state(env))
            run(env)
            states.append(state(env))
            runs.append((trace, states))
        assert runs[0] == runs[1]

    def test_pending_wake_up_is_queued_at_the_cut_off(self):
        env = Environment()

        def sleeper():
            yield 1.0
            yield 2.0

        env.process(sleeper())
        env.run(until=1.5)
        # Woken at 1.0, it yielded 2.0: that entry is back in the heap.
        assert state(env) == (1.5, 3, [(3.0, 3, True)])
        env.run()
        # Its return fired the process event through one more entry.
        assert state(env) == (3.0, 4, [])


def _release_at(env, resource, at):
    yield at
    resource.release()


class TestWokenProcessBadYields:
    """A process the loop woke, not only a starting one, that yields a bad
    value raises the same error as before, wherever it was woken from."""

    @staticmethod
    def _wait_until_one(env, woken):
        """Wait until 1.0: woken by the loop after a float sleep, or by the
        callback of a timeout or of a queued grant."""
        resource = Resource(env, capacity=1)
        resource.request()  # held until 1.0, so a second request queues
        env.process(_release_at(env, resource, 1.0))
        if woken == "sleep":
            yield 1.0
        elif woken == "timeout":
            yield env.timeout(1.0)
        else:
            yield resource.request()

    @pytest.mark.parametrize("woken", ["sleep", "timeout", "queued-grant"])
    @pytest.mark.parametrize("bad, message", [
        (-1.0, "negative timeout"),
        (float("nan"), "negative timeout"),
        (3, "must yield Event"),
        (None, "must yield Event"),
    ])
    def test_bad_yield_after_wake_up_raises(self, woken, bad, message):
        env = Environment()

        def proc():
            yield from self._wait_until_one(env, woken)
            yield bad

        env.process(proc())
        with pytest.raises(SimulationError, match=message):
            env.run()
        assert env.now == 1.0


class TestClosedLoopHeapTraffic:
    """The two closed-ycsb benchmark cells at seed 11: heap pushes
    (``Environment._sequence``) and entries left queued at the cut-off."""

    @pytest.mark.parametrize("system, workload, target, scale, duration, "
                             "pushes, queued", [
                                 ("mongo-as", "A", 10_000.0, 0.2, 20.0,
                                  164_006, 160),
                                 ("sql-cs", "C", 60_000.0, 0.1, 13.0,
                                  242_980, 80),
                             ])
    def test_pushes_and_queued(self, monkeypatch, system, workload, target,
                               scale, duration, pushes, queued):
        envs = []

        class Recording(Environment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                envs.append(self)

        monkeypatch.setattr(eventsim, "Environment", Recording)
        OltpStudy().event_sim_point(system, workload, target, scale=scale,
                                    duration=duration, seed=11)
        (env,) = envs
        assert (env._sequence, len(env._queue)) == (pushes, queued)
