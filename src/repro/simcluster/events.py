"""A small deterministic discrete-event simulation kernel.

This is the substrate under every performance number in the reproduction:
simulated processes are plain Python generators that ``yield`` events
(timeouts, resource grants), and the single-threaded event loop advances a
virtual clock.  The design mirrors SimPy's process-interaction style but is
self-contained (no external dependency) and fully deterministic: ties in the
event heap are broken by insertion order.

Every event fires through the one dispatch loop in :meth:`Environment.run`.
Events are slotted objects and a :class:`Timeout` pushes its heap entry
directly, because the simulators create several of each per simulated op.
"""

from __future__ import annotations

from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; :meth:`succeed` schedules it to fire, at which
    point every waiting process is resumed with :attr:`value`.
    """

    # ``_fired`` is set once the event loop has dispatched the event.
    __slots__ = ("env", "triggered", "value", "_callbacks", "_fired")

    def __init__(self, env: "Environment"):
        self.env = env
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []
        self._fired = False

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire now; idempotence is an error."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        env = self.env
        env._sequence += 1
        heappush(env._queue, (env.now, env._sequence, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self._fired:
            callback(self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.env = env
        self.triggered = True
        self.value = None
        self._callbacks = []
        self._fired = False
        env._sequence += 1
        heappush(env._queue, (env.now + delay, env._sequence, self))


class Process(Event):
    """Wraps a generator; the process itself is an event that fires on return.

    The generator yields :class:`Event` objects.  When a yielded event fires,
    the generator is resumed with the event's value.  When the generator
    returns, the process event fires with the return value, so processes can
    wait on each other (fork/join).
    """

    __slots__ = ("_generator", "_resume_callback")

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        self._generator = generator
        # One bound method for every wait.  It refers back to the process,
        # so it is dropped when the generator returns: a finished process
        # is then freed by reference counting, not by the cyclic collector.
        self._resume_callback = self._resume
        # Bootstrap: resume once at the current time.
        bootstrap = Event(env)
        bootstrap.succeed()
        bootstrap._callbacks.append(self._resume_callback)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self._resume_callback = None
            if not self.triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target._fired:
            self._resume(target)
        else:
            target._callbacks.append(self._resume_callback)


class Environment:
    """The event loop: a clock plus a priority queue of pending events.

    ``tracer``, ``metrics`` and ``sampler`` (see :mod:`repro.obs`) are
    optional hooks: when attached, named :class:`Resource` instances emit
    wait/hold spans, queueing counters, and busy/queue-depth utilization
    series.  ``prof`` (a :class:`repro.obs.prof.ProfiledRun`) charges each
    :meth:`run` call's wall time to the ``eventsim.loop`` subsystem counter
    and counts the events it dispatched.  The dispatch loop is the same
    with or without hooks; ``prof`` is looked at once per :meth:`run`.
    """

    def __init__(self, tracer=None, metrics=None, sampler=None, prof=None):
        self.now = 0.0
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        self.prof = prof
        self._queue: list[tuple[float, int, Event]] = []
        # Bumped by every heap push, so pushes = sequence delta.
        self._sequence = 0

    def timeout(self, delay: float) -> Timeout:
        """Return an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay)

    def event(self) -> Event:
        """Return a fresh untriggered event (for manual signalling)."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator and return its join event."""
        return Process(self, generator)

    def run(self, until: Optional[float] = None) -> None:
        """Dispatch events until the queue drains or the clock passes ``until``."""
        queue = self._queue
        prof = self.prof
        if prof is not None:
            pushed_before, queued_before = self._sequence, len(queue)
            prof.enter("eventsim.loop")
        limit = float("inf") if until is None else until
        try:
            while queue:
                when, sequence, event = heappop(queue)
                if when > limit:
                    # Put it back; (when, sequence) keys are unique, so the
                    # dispatch order of the remaining events is unchanged.
                    heappush(queue, (when, sequence, event))
                    break
                self.now = when
                event._fired = True
                callbacks = event._callbacks
                event._callbacks = None
                for callback in callbacks:
                    callback(event)
            if until is not None:
                self.now = until
        finally:
            if prof is not None:
                prof.exit()
                # Every event pushed during the run and no longer queued
                # was dispatched.
                prof.count_events((self._sequence - pushed_before)
                                  - (len(queue) - queued_before))
                prof.note_virtual_time(self.now)

    def all_of(self, events: list[Event]) -> Event:
        """Return an event that fires once every event in ``events`` has fired."""
        gate = Event(self)
        remaining = len(events)
        if remaining == 0:
            gate.succeed([])
            return gate
        results: list[Any] = [None] * remaining
        state = {"left": remaining}

        def make_callback(index: int):
            def on_fire(event: Event) -> None:
                results[index] = event.value
                state["left"] -= 1
                if state["left"] == 0:
                    gate.succeed(results)

            return on_fire

        for index, event in enumerate(events):
            event.add_callback(make_callback(index))
        return gate


class Resource:
    """A FIFO resource with integer capacity (cores, spindles, a lock).

    Usage inside a process generator::

        grant = resource.request()
        yield grant
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1, name: Optional[str] = None):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: list[Event] = []
        # Aggregate counters for utilization reporting.
        self.total_waits = 0
        self.total_grants = 0
        self.total_wait_time = 0.0
        # Tracing is active only for *named* resources on an instrumented
        # environment; an untraced resource takes none of these branches.
        self._trace = (
            getattr(env, "tracer", None) is not None and name is not None
        )
        if self._trace:
            self._wait_since: dict[int, float] = {}  # id(event) -> enqueue time
            self._hold_since: list[float] = []  # FIFO grant times
        self._sample = (
            getattr(env, "sampler", None) is not None and name is not None
        )

    def _sample_levels(self) -> None:
        """Report the current occupancy/queue-depth transition to the sampler."""
        sampler = self.env.sampler
        now = self.env.now
        sampler.set_level(self.name, "servers", now, self.in_use,
                          capacity=self.capacity)
        sampler.set_level(self.name, "servers", now, len(self._waiting),
                          metric="queue")

    def request(self) -> Event:
        """Return an event that fires when a unit of capacity is granted."""
        grant = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            self.total_grants += 1
            if self._trace:
                self._hold_since.append(self.env.now)
            grant.succeed()
        else:
            self.total_waits += 1
            if self._trace:
                self._wait_since[id(grant)] = self.env.now
            self._waiting.append(grant)
        if self._sample:
            self._sample_levels()
        return grant

    def release(self) -> None:
        """Return one unit of capacity, waking the longest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        if self._trace:
            self._record_release()
        # Hand the slot to a waiter only while within capacity; after a
        # mid-run shrink (set_capacity), in_use drains down instead.
        if self._waiting and self.in_use <= self.capacity:
            self.total_grants += 1
            self._waiting.pop(0).succeed()
        else:
            self.in_use -= 1
        if self._sample:
            self._sample_levels()

    def set_capacity(self, capacity: int) -> None:
        """Change capacity mid-run (fault injection: a crash takes servers
        offline, a restart brings them back).

        Growing wakes queued waiters immediately.  Shrinking never preempts:
        holders in flight finish their service and ``in_use`` drains down to
        the new capacity as they release.
        """
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while self._waiting and self.in_use < self.capacity:
            waiter = self._waiting.pop(0)
            self.in_use += 1
            self.total_grants += 1
            if self._trace:
                now = self.env.now
                wait_start = self._wait_since.pop(id(waiter), now)
                self.total_wait_time += now - wait_start
                self.env.tracer.add(
                    f"{self.name}.wait", wait_start, now,
                    cat="resource-wait", node=self.name, lane="wait",
                )
                self._hold_since.append(now)
            waiter.succeed()
        if self._sample:
            self._sample_levels()

    def _record_release(self) -> None:
        """Emit hold/wait spans around a release (tracing enabled only).

        Holds are paired FIFO with grants — exact for capacity 1 (the
        mutual-exclusion case the invariant tests check), an
        order-approximation for larger capacities, where total hold time is
        still conserved.
        """
        now = self.env.now
        tracer = self.env.tracer
        hold_start = self._hold_since.pop(0) if self._hold_since else now
        hold_span = tracer.add(
            f"{self.name}.hold", hold_start, now,
            cat="resource", node=self.name, lane="hold",
        )
        # On a capacity-1 resource holds are strictly serial: each one is
        # handed the slot by its predecessor — the lock-handoff chain the
        # critical-path layer walks.  (Larger capacities interleave, so no
        # single chain exists.)
        if self.capacity == 1:
            prev = getattr(self, "_last_hold_span", None)
            if prev is not None and prev.end <= hold_span.start + 1e-9:
                tracer.link(prev, hold_span, "lock-handoff")
            self._last_hold_span = hold_span
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter(f"resource.{self.name}.holds").inc()
            metrics.histogram(f"resource.{self.name}.hold_time").observe(
                now - hold_start
            )
        if self._waiting and self.in_use <= self.capacity:
            waiter = self._waiting[0]
            wait_start = self._wait_since.pop(id(waiter), now)
            self.total_wait_time += now - wait_start
            tracer.add(
                f"{self.name}.wait", wait_start, now,
                cat="resource-wait", node=self.name, lane="wait",
            )
            if metrics is not None:
                metrics.counter(f"resource.{self.name}.waits").inc()
                metrics.histogram(f"resource.{self.name}.wait_time").observe(
                    now - wait_start
                )
            # The woken waiter starts holding now.
            self._hold_since.append(now)

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting for capacity."""
        return len(self._waiting)

    def use(self, hold_time: float) -> Generator:
        """Convenience process body: acquire, hold for ``hold_time``, release."""
        grant = self.request()
        yield grant
        try:
            yield self.env.timeout(hold_time)
        finally:
            self.release()
