"""Host-speed probe: wall times rescaled to a fixed host speed.

On a shared host, neighbours on the same cores and caches slow down every
instruction the benchmark runs, by up to 2x and for minutes at a time,
without taking any time away from it: the process's CPU time rises with its
wall time.  A median over one run's repetitions cannot hide a slowdown that
lasts the whole run, so two sets of runs taken minutes apart differ by more
than any useful bound.

So every untraced repetition measures the host's speed while it runs.
``SIGALRM`` fires every ``INTERVAL_S`` of wall time.  Its handler runs
between two bytecodes of whatever the program is doing and times a fixed
burst of pure-Python work shaped like the program's own: a heap of
``(time, id)`` tuples, slotted records found by string key, and a generator
resumed with ``send``.  A burst's *speed* is ``NOMINAL_S`` over its measured
time.  The *rescaled* time of an interval is its wall time minus the bursts
inside it, times the mean speed of those bursts.  The timer fires at even
steps of wall time, so that mean weights each step alike, and the rescaled
time is the time the interval would have taken on a host where a burst
takes ``NOMINAL_S``.

The fingerprint checks confirm that the program's outputs do not change.
:meth:`HostSpeedProbe.work_clock` stops while a burst runs, so a program
call that a burst interrupted is still timed without the burst.
"""

from __future__ import annotations

import heapq
import signal
import time
from array import array
from bisect import bisect_left

INTERVAL_S = 0.02
BURST_LOOPS = 900
# About the fastest a burst ran on the 2-vCPU Xeon (Sapphire Rapids) KVM
# guest the bounds were sized on, so rescaled times read close to the wall
# times of that host when it is quiet.
NOMINAL_S = 0.7e-3
RECORDS = 64


class _Record:
    __slots__ = ("key", "value", "count")

    def __init__(self, key: str):
        self.key, self.value, self.count = key, 0, 0


def _running_total():
    total = 0
    while True:
        total += yield total


class HostSpeedProbe:
    """Timed bursts of reference work on a wall-clock timer."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self.total_s = 0.0  # time spent in bursts so far
        self._heap = [(float(i), i) for i in range(RECORDS)]
        self._records = [_Record(f"key{i:04d}") for i in range(RECORDS)]
        self._by_key = {r.key: r for r in self._records}
        self._total = _running_total()
        next(self._total)
        self._x = 12345

    def _burst(self, signum, frame) -> None:
        start = time.perf_counter()
        heap, records, by_key = self._heap, self._records, self._by_key
        total, x = self._total, self._x
        push, pop = heapq.heappush, heapq.heappop
        for _ in range(BURST_LOOPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            t, i = pop(heap)
            push(heap, (t + (x & 1023) * 0.001, i))
            record = records[i]
            record.count += 1
            by_key[record.key].value = total.send(x & 255)
        self._x = x
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(elapsed)
        self.total_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_clock(self) -> float:
        """``time.perf_counter`` less the time spent in bursts so far."""
        while True:
            paused = self.total_s
            now = time.perf_counter()
            if paused == self.total_s:  # no burst ran between the reads
                return now - paused

    def rescale(self, start: float, end: float, wall_s: float) -> tuple[float, float]:
        """``(rescaled, speed)`` of ``wall_s`` seconds of wall time spent
        between the ``time.perf_counter`` readings ``start`` and ``end``."""
        bursts = self.durations[bisect_left(self.starts, start):
                                bisect_left(self.starts, end)]
        if not bursts:
            raise RuntimeError(f"no probe burst in {end - start:.3f} s")
        speed = sum(NOMINAL_S / d for d in bursts) / len(bursts)
        return (wall_s - sum(bursts)) * speed, speed
