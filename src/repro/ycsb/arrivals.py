"""Open-loop arrival processes for the latency-throughput frontier.

The paper's YCSB protocol is a *closed loop*: 800 client threads each wait
for their previous operation to finish before issuing the next one.  A
closed loop cannot overload the system — when the server slows down, the
clients slow down with it — which is exactly the coordinated-omission trap:
latency measured from each operation's *actual* start time silently drops
the queueing delay the slowdown inflicted on every operation that *should*
have started in the meantime.

An **open loop** decouples arrivals from completions: operations arrive on
a Poisson process at a target rate whether or not the system keeps up, the
way independent users do.  :class:`PoissonArrivals` generates that schedule
deterministically (one splitmix64 stream per seed, drawn a block at a time
by :func:`~repro.common.rng.float_draws`, exponential inter-arrival gaps),
so the frontier sweep's runs are byte-reproducible per seed.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.common.errors import SimulationError
from repro.common.rng import float_draws


class PoissonArrivals:
    """Deterministic Poisson arrival schedule at a target mean rate.

    Inter-arrival gaps are i.i.d. exponential with mean ``1 / rate``; the
    arrival times are their strictly-monotone running sum.  The whole
    schedule is a pure function of ``(rate, seed)``: two generators built
    with the same arguments produce byte-identical sequences, which is what
    makes the frontier's bracketed bisection replayable.
    """

    def __init__(self, rate: float, seed: int = 1234):
        if rate <= 0:
            raise SimulationError(f"arrival rate must be > 0, got {rate:g}")
        self.rate = rate
        self.seed = seed
        # The floats TpchRandom64(seed).random_float() would give.
        self._draw = float_draws(seed).__next__
        self._now = 0.0

    def next_arrival(self) -> float:
        """Advance to and return the next arrival time (monotone)."""
        # 1 - u is in (0, 1], so the log argument never hits zero and the
        # gap is non-negative and finite.
        self._now += -math.log(1.0 - self._draw()) / self.rate
        return self._now

    def until(self, horizon: float) -> Iterator[float]:
        """Yield every arrival time strictly before ``horizon``: the
        arrivals ``next_arrival`` gives, with the loop's state in locals."""
        draw, rate, log = self._draw, self.rate, math.log
        now = self._now
        while True:
            now += -log(1.0 - draw()) / rate
            self._now = now
            if now >= horizon:
                return
            yield now

    def take(self, count: int) -> list[float]:
        """The next ``count`` arrival times as a list."""
        if count < 0:
            raise SimulationError(f"cannot take {count} arrivals")
        return [self.next_arrival() for _ in range(count)]
