"""Bounded-memory streaming quantile digests on the virtual clock.

A :class:`QuantileDigest` is an HDR-histogram-style sketch: values land in
log-spaced buckets (each ``growth`` times wider than the last), so memory is
O(log(max/min)) regardless of how many operations are recorded, and the
reported percentile is the *upper edge* of the bucket holding the
nearest-rank value — always >= the exact value and within one bucket
(a factor of ``growth``) above it.  Digests merge losslessly: merging two
digests gives exactly the digest of the concatenated streams, in any order.

Censored observations (operations still in flight when a run is cut off,
PR 6's coordinated-omission guard) are first-class: they are recorded as
*lower bounds* and pooled into the tail exactly like the open-loop
``corrected`` list, so a wedged server cannot report a rosy p99 just
because its victims never finished.

:class:`WindowedDigest` shards one digest stream into fixed-width
virtual-time slices so sliding-window queries ("p99 over the last 5 s of
simulated time") are a cheap merge of a handful of sub-digests.  This is
what :mod:`repro.obs.slo` burn-rate rules and the ``repro-live/1``
dashboard evaluate against.

Everything here is deterministic: no wall clock, no hashing of ids —
identical op streams produce identical digests byte for byte.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from repro.common.errors import ConfigurationError

#: Default bucket growth factor: 5% relative error on reported percentiles.
DEFAULT_GROWTH = 1.05

#: Values at or below this floor (in seconds) share bucket 0.  1 µs is far
#: below any simulated service time, so bucket 0 is effectively "zero".
DEFAULT_MIN_VALUE = 1e-6

#: Bucket upper edges ``min_value * growth**i`` per ``(growth, min_value)``,
#: shared by every digest of that geometry and extended on demand up to the
#: largest value bucketed so far.  The edges are a pure function of the
#: geometry, so sharing a table moves no index, only how far it has grown.
_EDGES: dict[tuple[float, float], list[float]] = {}


class QuantileDigest:
    """Mergeable log-bucketed quantile sketch with censored lower bounds."""

    __slots__ = (
        "growth", "min_value", "_edges", "buckets", "censored_buckets",
        "count", "censored_count", "total", "censored_total", "min", "max",
    )

    def __init__(self, growth: float = DEFAULT_GROWTH,
                 min_value: float = DEFAULT_MIN_VALUE):
        if growth <= 1.0:
            raise ConfigurationError(
                f"digest growth must be > 1, got {growth}")
        if min_value <= 0.0:
            raise ConfigurationError(
                f"digest min_value must be > 0, got {min_value}")
        self.growth = growth
        self.min_value = min_value
        self._edges = _EDGES.setdefault((growth, min_value), [min_value])
        self.buckets: dict[int, int] = {}
        self.censored_buckets: dict[int, int] = {}
        self.count = 0
        self.censored_count = 0
        self.total = 0.0
        self.censored_total = 0.0
        self.min = math.inf
        self.max = 0.0

    # -- bucket geometry ---------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """Index of the bucket holding ``value``; edge-exact.

        Bucket ``i`` covers ``(edge(i-1), edge(i)]`` with
        ``edge(i) = min_value * growth**i``; bucket 0 is ``(-inf, min_value]``.
        The index is a bisection of the geometry's table of those very
        edges, so a boundary value cannot land one bucket off (the
        histogram.py off-by-one class of bug).  NaN raises ``ValueError``
        and infinity ``OverflowError``.
        """
        edges = self._edges
        index = bisect_left(edges, value)
        if index == len(edges):
            return self._extend_edges(value)
        if not index and value != value:
            raise ValueError("cannot bucket NaN")
        return index

    def _extend_edges(self, value: float) -> int:
        """Extend the edge table until an edge reaches ``value`` (above
        every edge so far); returns its bucket, the table's last index.
        A value past the float range of the edges raises OverflowError."""
        if value == math.inf:
            raise OverflowError("cannot bucket an infinite value")
        edges = self._edges
        while edges[-1] < value:
            edges.append(self.min_value * self.growth ** len(edges))
        return len(edges) - 1

    def bucket_edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` (the value a percentile reports)."""
        return self.min_value * self.growth ** index

    # -- recording ---------------------------------------------------------------

    def record(self, value: float) -> None:
        """Record one completed observation (a latency, in seconds)."""
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values) -> None:
        for value in values:
            self.record(value)

    def record_censored(self, lower_bound: float) -> None:
        """Record an in-flight observation known only to exceed ``lower_bound``.

        Censored observations count toward percentiles (at their lower
        bound, like the open-loop ``corrected`` pool) but are excluded from
        ``mean`` — a lower bound would bias the average *down*, the one
        direction censoring must never push.
        """
        index = self.bucket_index(lower_bound)
        self.censored_buckets[index] = self.censored_buckets.get(index, 0) + 1
        self.censored_count += 1
        self.censored_total += lower_bound
        if lower_bound > self.max:
            self.max = lower_bound

    # -- queries -----------------------------------------------------------------

    @property
    def observations(self) -> int:
        """Completed + censored observations contributing to percentiles."""
        return self.count + self.censored_count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def mean_with_censored(self) -> float:
        """Mean pooling censored lower bounds, like the open-loop
        ``corrected`` list — still an underestimate, never an overestimate
        of the true mean."""
        n = self.observations
        return (self.total + self.censored_total) / n if n else 0.0

    def percentile(self, pct: float) -> float:
        """Upper bucket edge of the nearest-rank observation; 0.0 when empty.

        Guaranteed >= the exact nearest-rank value and <= ``growth`` times
        it (one log-bucket of relative error).
        """
        n = self.observations
        if n == 0:
            return 0.0
        rank = max(1, min(n, math.ceil(pct / 100.0 * n)))
        seen = 0
        for index in sorted(set(self.buckets) | set(self.censored_buckets)):
            seen += self.buckets.get(index, 0)
            seen += self.censored_buckets.get(index, 0)
            if seen >= rank:
                return self.bucket_edge(index)
        return self.bucket_edge(max(self.buckets | self.censored_buckets))

    def count_over(self, threshold: float) -> int:
        """Observations certainly exceeding ``threshold`` (censored included).

        Counts whole buckets strictly above the bucket holding
        ``threshold``; values sharing the threshold's bucket are not
        counted, so the answer is a lower bound within one log-bucket of
        exact — the conservative direction for burn-rate alerting.
        """
        cutoff = self.bucket_index(threshold)
        over = sum(n for i, n in self.buckets.items() if i > cutoff)
        over += sum(
            n for i, n in self.censored_buckets.items() if i > cutoff)
        return over

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Merge ``other`` into self (in place); returns self for chaining."""
        if (other.growth != self.growth
                or other.min_value != self.min_value):
            raise ConfigurationError(
                "cannot merge digests with different bucket geometry")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        for index, n in other.censored_buckets.items():
            self.censored_buckets[index] = (
                self.censored_buckets.get(index, 0) + n)
        self.count += other.count
        self.censored_count += other.censored_count
        self.total += other.total
        self.censored_total += other.censored_total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def copy(self) -> "QuantileDigest":
        fresh = QuantileDigest(self.growth, self.min_value)
        return fresh.merge(self)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "growth": self.growth,
            "min_value": self.min_value,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
            "censored": {
                str(i): n for i, n in sorted(self.censored_buckets.items())
            },
            "count": self.count,
            "censored_count": self.censored_count,
            "total": self.total,
            "censored_total": self.censored_total,
            "min": self.min if self.count else None,
            "max": self.max if self.observations else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileDigest":
        digest = cls(data["growth"], data["min_value"])
        digest.buckets = {int(i): n for i, n in data["buckets"].items()}
        digest.censored_buckets = {
            int(i): n for i, n in data["censored"].items()
        }
        digest.count = data["count"]
        digest.censored_count = data["censored_count"]
        digest.total = data["total"]
        digest.censored_total = data.get("censored_total", 0.0)
        digest.min = data["min"] if data["min"] is not None else math.inf
        digest.max = data["max"] if data["max"] is not None else 0.0
        return digest


class WindowedDigest:
    """A digest stream sharded into fixed-width virtual-time slices.

    Each observation lands in the sub-digest for slice
    ``floor(t / slice_s)``; a window query merges the slices the window
    overlaps.  Memory is bounded by (run duration / slice_s) sub-digests,
    each itself O(log(max/min)) — no per-op storage anywhere.
    """

    __slots__ = ("slice_s", "growth", "min_value", "slices")

    def __init__(self, slice_s: float = 1.0, growth: float = DEFAULT_GROWTH,
                 min_value: float = DEFAULT_MIN_VALUE):
        if slice_s <= 0.0:
            raise ConfigurationError(
                f"window slice width must be > 0, got {slice_s}")
        self.slice_s = slice_s
        self.growth = growth
        self.min_value = min_value
        self.slices: dict[int, QuantileDigest] = {}

    def _slice_for(self, t: float) -> QuantileDigest:
        index = int(t / self.slice_s)
        digest = self.slices.get(index)
        if digest is None:
            digest = QuantileDigest(self.growth, self.min_value)
            self.slices[index] = digest
        return digest

    def record(self, t: float, value: float) -> None:
        self._slice_for(t).record(value)

    def record_censored(self, t: float, lower_bound: float) -> None:
        self._slice_for(t).record_censored(lower_bound)

    def window(self, start: float, end: float) -> QuantileDigest:
        """Merged digest over slices overlapping ``[start, end)``."""
        merged = QuantileDigest(self.growth, self.min_value)
        if end <= start:
            return merged
        width = self.slice_s
        for index in sorted(self.slices):
            if index * width < end and (index + 1) * width > start:
                merged.merge(self.slices[index])
        return merged

    def total(self) -> QuantileDigest:
        """Merged digest over the whole stream."""
        merged = QuantileDigest(self.growth, self.min_value)
        for index in sorted(self.slices):
            merged.merge(self.slices[index])
        return merged

    @property
    def observations(self) -> int:
        return sum(d.observations for d in self.slices.values())
