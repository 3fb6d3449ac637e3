"""A small deterministic discrete-event simulation kernel.

This is the substrate under every performance number in the reproduction:
simulated processes are plain Python generators that ``yield`` events
(timeouts, resource grants) or bare ``float`` delays, and the
single-threaded event loop advances a virtual clock.  The design mirrors
SimPy's process-interaction style but is self-contained (no external
dependency) and fully deterministic: ties in the event heap are broken by
insertion order.

A heap entry is ``(when, sequence, target, arg)``.  An event's entry is
``(when, sequence, _fire, event)``: :meth:`Environment.run` sets the clock
to ``when`` and calls ``_fire(event)``, which fires the event and runs its
callbacks.  A process start or wake-up entry names the process itself,
``(when, sequence, process, None)``, and ``run`` sends into its generator
directly.  ``(when, sequence)`` is unique, so nothing past it is ever
compared.  A process that yields a ``float`` delay gets the key a
:class:`Timeout` built at that moment would get, ``(now + delay,
sequence)``; a new process pushes its start entry the same way.  When a
process ``run`` woke yields such a delay, ``run`` keeps the new entry
pending and merges it with the next dispatch through ``heappushpop``: one
sift instead of a push and a pop, and no heap access at all when the entry
is the earliest.  The pending entry is back in the heap before any other
entry fires and whenever ``run`` returns, so pushes, dispatches and the
entries left queued are counted as if it had been pushed at once.  Every
other step of a process (finishing, waiting on an event, a bad yield) goes
through :class:`Process`.  A :class:`Resource` grant that finds a free
server has already fired when :meth:`Resource.request` returns it, so the
requesting process continues without a heap round trip (the simulators
check :attr:`Event.triggered` and do not yield it at all).
Events are slotted objects, because the simulators create some per
simulated op.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


def _fire(event: "Event") -> None:
    """Dispatch an event's heap entry: mark it fired, run its callbacks."""
    event._fired = True
    callbacks = event._callbacks
    event._callbacks = None
    for callback in callbacks:
        callback(event)


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
        heappush(env._queue, (env.now, env._sequence, _fire, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (immediately if fired)."""
        if self._fired:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire_now(self, value: Any = None) -> "Event":
        """Mark a fresh event fired at once, without a heap entry.

        Only for an event nothing waits on yet: a process that yields it
        continues immediately and a later callback runs at once.
        """
        self.triggered = self._fired = True
        self.value = value
        self._callbacks = None
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    A process that only sleeps can yield the ``float`` delay instead; a
    timeout is for when an *event* is needed (callbacks, :meth:`all_of`).
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float):
        # ``not >=`` also rejects NaN, which would break the heap order.
        if not delay >= 0:
            raise SimulationError(f"negative timeout {delay}")
        self.env = env
        self.triggered = True
        self.value = None
        self._callbacks = []
        self._fired = False
        env._sequence += 1
        heappush(env._queue, (env.now + delay, env._sequence, _fire, self))


class Process(Event):
    """Wraps a generator; the process itself is an event that fires on return.

    The generator yields :class:`Event` objects or ``float`` delays.  When a
    yielded event fires, the generator is resumed with the event's value; a
    delay resumes it with ``None`` that many simulated seconds later.  When
    the generator returns, the process event fires with the return value, so
    processes can wait on each other (fork/join).
    """

    __slots__ = ("_send", "_resume_callback")

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        self._send = generator.send
        # One bound method for every wait on an event.  It refers back to
        # the process, so it is dropped when the generator returns: a
        # finished process is then freed by reference counting, not by the
        # cyclic collector.
        self._resume_callback = self._resume
        # Start: woken once at the current time, from an entry of its own.
        env._sequence += 1
        heappush(env._queue, (env.now, env._sequence, self, None))

    def _resume(self, event: Event) -> None:
        """Callback of a waited-on event: send its value into the generator."""
        try:
            target = self._send(event.value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Act on what the generator yielded, until it waits.

        A ``float`` delay pushes the wake-up entry; an event that has not
        fired gets the resume callback.  An event that has already fired (a
        free server's grant) is sent straight back in: a loop, so a long run
        of them never recurses.
        """
        send = self._send
        while True:
            if type(target) is float:
                # Pushed at the yield, so the key is the one a Timeout
                # built just before it would have taken.
                if not target >= 0:
                    raise SimulationError(f"negative timeout {target}")
                env = self.env
                env._sequence += 1
                heappush(env._queue,
                         (env.now + target, env._sequence, self, None))
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded {target!r}; processes must yield "
                    "Event objects or float delays"
                )
            if not target._fired:
                target._callbacks.append(self._resume_callback)
                return
            try:
                target = send(target.value)
            except StopIteration as stop:
                self._finish(stop.value)
                return

    def _finish(self, value: Any) -> None:
        """The generator returned: fire the process event with its value."""
        self._resume_callback = None
        if not self.triggered:
            self.succeed(value)


class Environment:
    """The event loop: a clock plus a priority queue of pending events.

    ``tracer``, ``metrics`` and ``sampler`` (see :mod:`repro.obs`) are
    optional hooks: when attached, named :class:`Resource` instances emit
    wait/hold spans, queueing counters, and busy/queue-depth utilization
    series.  ``prof`` (a :class:`repro.obs.prof.ProfiledRun`) charges each
    :meth:`run` call's wall time to the ``eventsim.loop`` subsystem counter
    and counts the heap entries it dispatched.  The dispatch loop is the same
    with or without hooks; ``prof`` is looked at once per :meth:`run`.
    """

    def __init__(self, tracer=None, metrics=None, sampler=None, prof=None):
        self.now = 0.0
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        self.prof = prof
        # (when, sequence, _fire, event) or (when, sequence, process, None):
        # see the module docstring.
        self._queue: list[tuple[float, int, Any, Any]] = []
        # Bumped by every heap push, so pushes = sequence delta.
        self._sequence = 0
        # The one already-fired grant every free-server request returns.
        self._granted = Event(self)._fire_now()

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
        """Dispatch events until the queue drains or the clock passes ``until``.

        An ``until`` earlier than :attr:`now` is an error: the clock never
        runs backwards.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is earlier than now={self.now}")
        queue = self._queue
        prof = self.prof
        if prof is not None:
            pushed_before, queued_before = self._sequence, len(queue)
            prof.enter("eventsim.loop")
        limit = float("inf") if until is None else until
        # The entry of a wake-up this loop built and has not yet pushed.
        pending = None
        try:
            while True:
                if pending is not None:
                    entry = heappushpop(queue, pending)
                    pending = None
                elif queue:
                    entry = heappop(queue)
                else:
                    break
                when, sequence, target, event = entry
                if when > limit:
                    # Put it back; (when, sequence) keys are unique, so the
                    # dispatch order of the remaining entries is unchanged.
                    heappush(queue, entry)
                    break
                self.now = when
                if event is not None:
                    target(event)
                    continue
                # A process start or wake-up: send into it here.
                try:
                    yielded = target._send(None)
                except StopIteration as stop:
                    target._finish(stop.value)
                    continue
                if type(yielded) is float and yielded >= 0:
                    self._sequence = sequence = self._sequence + 1
                    pending = (when + yielded, sequence, target, None)
                else:
                    target._wait_on(yielded)
            if until is not None:
                self.now = until
        finally:
            if prof is not None:
                prof.exit()
                # Every entry pushed during the run and no longer queued
                # was dispatched (wake-ups and starts included).
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
        self._waiting: deque[Event] = deque()
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
        """Return an event that fires when a unit of capacity is granted.

        A free server grants at once: the returned event (one per
        environment, shared by every such grant) has already fired, so the
        process that yields it continues at the same virtual time, ahead of
        any other event already queued for that instant.  A request that
        finds every server busy queues, and its grant fires through the
        event heap when a release hands it the slot.
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            self.total_grants += 1
            if self._trace:
                self._hold_since.append(self.env.now)
            grant = self.env._granted
        else:
            grant = Event(self.env)
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
            self._waiting.popleft().succeed()
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
            waiter = self._waiting.popleft()
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
