"""Admission-controlled stations: bounded queues that shed instead of grow.

:class:`AdmissionResource` extends the event kernel's FIFO
:class:`~repro.simcluster.events.Resource` with a queue bound and a
shedding policy.  A request that cannot be admitted resolves with a
shed-reason string instead of ``None``, so the waiting process learns its
fate without consuming capacity.  A newcomer turned away at a full queue
comes back already fired, like a free server's grant; a queued victim
shed to make room resolves through the event heap::

    grant = resource.request(deadline=dl, priority=prio)
    outcome = yield grant
    if outcome is not None:   # "queue-full" or "deadline" — shed, no slot
        ...
    else:                     # granted; release() when done
        ...

Policies (service order / overflow victim):

* ``reject`` — FIFO service; a full queue sheds the newcomer;
* ``lifo`` — newest-first service (adaptive LIFO); overflow sheds the
  oldest waiter, the one most likely already abandoned by its client;
* ``deadline-drop`` — FIFO service, but expired waiters are purged at
  every grant/enqueue, so dead requests never reach a server (the queue
  is scanned only once the clock reaches a lower bound on its deadlines);
* ``priority`` — waiters ordered by (priority, arrival); overflow sheds
  the worst-priority waiter (ties favor the incumbent).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from math import inf

from repro.common.errors import SimulationError
from repro.simcluster.events import Event, Resource

SHED_QUEUE_FULL = "queue-full"
SHED_DEADLINE = "deadline"


class _Admit(Event):
    """A queued admission request: the grant event plus its queue key."""

    __slots__ = ("deadline", "priority", "order")

    def __init__(self, env, deadline, priority, order):
        super().__init__(env)
        self.deadline = deadline
        self.priority = priority
        self.order = order

    def __lt__(self, other: "_Admit") -> bool:
        return (self.priority, self.order) < (other.priority, other.order)


class AdmissionResource(Resource):
    """A station resource with a bounded queue and a shedding policy."""

    def __init__(self, env, capacity: int = 1, name=None, *,
                 queue_limit: int | None = None, policy: str = "reject"):
        if queue_limit is not None and queue_limit < 1:
            raise SimulationError("admission queue limit must be >= 1")
        if policy not in ("reject", "lifo", "deadline-drop", "priority"):
            raise SimulationError(f"unknown admission policy {policy!r}")
        super().__init__(env, capacity, name)
        self.queue_limit = queue_limit
        self.policy = policy
        self.shed = {SHED_QUEUE_FULL: 0, SHED_DEADLINE: 0}
        self._order = 0
        # A lower bound on the queued deadlines: lowered on enqueue, exact
        # after each purge scan.  A waiter that leaves (granted, or shed as
        # a victim) only makes it stale-low, which costs one extra scan.
        self._earliest = inf

    # -- shedding internals ---------------------------------------------------

    def _shed(self, waiter: Event, reason: str) -> None:
        self.shed[reason] += 1
        if self._trace:
            self._wait_since.pop(id(waiter), None)
        waiter.succeed(reason)

    def _purge_expired(self) -> None:
        """Drop every waiter whose deadline has passed (deadline-drop).

        Nothing can have expired before the clock reaches ``_earliest``,
        so the queue is scanned only from then on.
        """
        now = self.env.now
        if now < self._earliest:
            return
        expired = [w for w in self._waiting
                   if w.deadline is not None and now >= w.deadline]
        if expired:
            self._waiting = deque(w for w in self._waiting
                                  if w.deadline is None or now < w.deadline)
        self._earliest = min((w.deadline for w in self._waiting
                              if w.deadline is not None), default=inf)
        for waiter in expired:
            self._shed(waiter, SHED_DEADLINE)

    # -- Resource overrides ---------------------------------------------------

    def request(self, deadline: float | None = None,
                priority: int = 0) -> Event:
        """Admit, queue, or shed; the returned event's value tells which."""
        if self.policy == "deadline-drop" and self._waiting:
            self._purge_expired()
        if self.in_use < self.capacity:
            return super().request()
        self._order += 1
        grant = _Admit(self.env, deadline, priority, self._order)
        if (self.queue_limit is not None
                and len(self._waiting) >= self.queue_limit):
            victim = self._pick_victim(grant)
            if victim is grant:
                # Nothing waits on the newcomer yet: resolve it at once.
                self.shed[SHED_QUEUE_FULL] += 1
                grant._fire_now(SHED_QUEUE_FULL)
                if self._sample:
                    self._sample_levels()
                return grant
            self._waiting.remove(victim)
            self._shed(victim, SHED_QUEUE_FULL)
        self.total_waits += 1
        if self._trace:
            self._wait_since[id(grant)] = self.env.now
        if deadline is not None and deadline < self._earliest:
            self._earliest = deadline
        if self.policy == "lifo":
            self._waiting.appendleft(grant)
        elif self.policy == "priority":
            insort(self._waiting, grant)
        else:
            self._waiting.append(grant)
        if self._sample:
            self._sample_levels()
        return grant

    def _pick_victim(self, newcomer: "_Admit") -> Event:
        """Which request a full queue sheds to make room (or the newcomer)."""
        if self.policy == "lifo":
            # Newest-first service keeps fresh requests viable; the oldest
            # waiter at the tail is the one whose client has given up.
            return self._waiting[-1]
        if self.policy == "priority":
            worst = self._waiting[-1]
            return worst if newcomer < worst else newcomer
        # reject / deadline-drop: the queue holds live (unexpired) work;
        # the newcomer is turned away at the door.
        return newcomer

    def release(self) -> None:
        if self.policy == "deadline-drop" and self._waiting:
            self._purge_expired()
        super().release()

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())
