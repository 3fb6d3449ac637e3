"""Per-node resource-utilization time series over simulated time.

The paper's explanations are *utilization* arguments — Hive's RCFile scans
are CPU-bound at ~70 MB/s per node while HDFS could deliver 400 MB/s, PDW
steps are disk- or network-bound, and mongostat showed 25-45% of time at
the global lock — but spans alone show *when* work ran, not *how busy each
resource was while it ran*.  A :class:`UtilizationSampler` closes that gap:
producers report level changes on a virtual clock and the sampler
integrates them into fixed-interval :class:`Series`, a dstat/perfmon-style
view of the simulated cluster.

Three producer APIs cover every simulator style in the repo:

* :meth:`UtilizationSampler.set_level` — event-driven code (the
  :class:`~repro.simcluster.events.Resource` grant/release path) reports
  each level *transition*; the sampler integrates the previous level over
  the elapsed interval.
* :meth:`UtilizationSampler.accumulate` — analytic engines (Hive, PDW)
  that compute phase durations add a constant level over an explicit
  ``[start, end)`` window; overlapping contributions sum.
* :meth:`UtilizationSampler.sample` — instantaneous gauges (buffer-pool
  hit rate) recorded last-write-wins per bucket, carried forward across
  empty buckets on export.

Like the tracer, the whole layer is **zero-overhead when unset**: every
hook defaults to ``sampler=None`` behind one truthiness check, and
:data:`NULL_SAMPLER` is a falsy no-op stand-in.  Series carry only
simulated times and caller-supplied levels — no wall-clock reads — so
same-seed runs export byte-identical CSV/JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.common.envelope import write_text
from repro.common.errors import SimulationError

# Glyph ramp for the sparkline heatmap, darkest = saturated.
HEAT_GLYPHS = " .:-=+*#%@"

BUSY = "busy"  # fraction of capacity in use (0..1)
QUEUE = "queue"  # time-averaged queue depth (unbounded)
GAUGE = "gauge"  # last-write-wins instantaneous value


@dataclass
class Series:
    """One fixed-interval time series for a (node, resource, metric) triple.

    ``values[i]`` covers simulated time ``[i * interval, (i+1) * interval)``.
    For ``busy`` series values are fractions of ``capacity`` (0..1); for
    ``queue`` series they are time-averaged depths; for ``gauge`` series the
    last sampled value in the bucket, carried forward.
    """

    node: str
    resource: str
    metric: str
    interval: float
    capacity: float
    values: list[float] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.node, self.resource, self.metric)

    @property
    def duration(self) -> float:
        return len(self.values) * self.interval

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def window_mean(self, start: float, end: float) -> float:
        """Time-weighted mean over ``[start, end)`` (bucket-overlap weighted)."""
        if end <= start or not self.values:
            return 0.0
        total = 0.0
        for i, value in enumerate(self.values):
            lo = i * self.interval
            hi = lo + self.interval
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += value * overlap
        return total / (end - start)

    def integral(self) -> float:
        """Total level-seconds (for busy series: busy-seconds x capacity)."""
        return sum(v for v in self.values) * self.interval * self.capacity


class _Accumulator:
    """Mutable per-key state while sampling is in progress.

    Reported windows are buffered in ``pending`` (one append per report)
    and spread into ``buckets`` lazily, the first time the series is
    materialized — producers on the simulator's hot path never pay the
    bucket walk.
    """

    __slots__ = ("capacity", "buckets", "pending", "open_since",
                 "open_level", "last_time")

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.buckets: dict[int, float] = {}  # bucket index -> level-seconds
        self.pending: list[tuple[float, float, float]] = []  # (start, end, level)
        self.open_since: Optional[float] = None
        self.open_level: float = 0.0
        self.last_time: float = 0.0


class UtilizationSampler:
    """Integrates reported resource levels into fixed-interval time series."""

    enabled = True

    def __init__(self, interval: float = 1.0):
        if interval <= 0:
            raise SimulationError(f"sampler interval must be positive, got {interval}")
        self.interval = interval
        self._accums: dict[tuple[str, str, str], _Accumulator] = {}
        self._gauges: dict[tuple[str, str, str], dict[int, float]] = {}
        self._end = 0.0

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._accums) + len(self._gauges)

    # -- producer API -------------------------------------------------------------

    def _accum(self, node: str, resource: str, metric: str,
               capacity: float) -> _Accumulator:
        key = (node, resource, metric)
        accum = self._accums.get(key)
        if accum is None:
            accum = _Accumulator(capacity)
            self._accums[key] = accum
        elif accum.capacity != capacity:
            raise SimulationError(
                f"series {key!r}: capacity changed from {accum.capacity} "
                f"to {capacity}"
            )
        return accum

    def _flush(self, accum: _Accumulator) -> None:
        """Spread every pending window into the interval buckets.

        Runs once per series at materialization, not once per report.  A
        window inside a single bucket is one dict update; windows spanning
        several buckets add whole ``level * dt`` slabs to the fully
        covered middle buckets and compute overlaps only at the two edges.
        """
        pending = accum.pending
        if not pending:
            return
        dt = self.interval
        buckets = accum.buckets
        get = buckets.get
        ceil = math.ceil
        for start, end, level in pending:
            if end <= start or level == 0.0:
                continue
            first = int(start / dt)
            last = int(ceil(end / dt))
            if last <= first + 1:
                buckets[first] = get(first, 0.0) + level * (end - start)
                continue
            head = (first + 1) * dt - start
            if head > 0:
                buckets[first] = get(first, 0.0) + level * head
            if last > first + 2:
                slab = level * dt
                for i in range(first + 1, last - 1):
                    buckets[i] = get(i, 0.0) + slab
            tail = end - (last - 1) * dt
            if tail > 0:
                i = last - 1
                buckets[i] = get(i, 0.0) + level * tail
        pending.clear()

    def accumulate(self, node: str, resource: str, start: float, end: float,
                   level: float = 1.0, capacity: float = 1.0,
                   metric: str = BUSY) -> None:
        """Add a constant ``level`` over ``[start, end)`` (analytic engines)."""
        if end < start:
            raise SimulationError(
                f"{node}/{resource}: window ends before it starts"
            )
        accum = self._accum(node, resource, metric, capacity)
        accum.pending.append((start, end, level))
        if end > accum.last_time:
            accum.last_time = end
        if end > self._end:
            self._end = end

    def accumulate_many(self, node: str, resource: str, windows,
                        level: float = 1.0, capacity: float = 1.0,
                        metric: str = BUSY) -> None:
        """Batched :meth:`accumulate`: many ``(start, end)`` windows at once.

        Resolves the series accumulator once for the whole batch, so
        task-heavy producers (thousands of attempt spans per phase) pay
        one list append per window instead of a lookup-and-spread per
        call.
        """
        accum = self._accum(node, resource, metric, capacity)
        pending = accum.pending
        last = accum.last_time
        for start, end in windows:
            if end < start:
                raise SimulationError(
                    f"{node}/{resource}: window ends before it starts"
                )
            pending.append((start, end, level))
            if end > last:
                last = end
        accum.last_time = last
        if last > self._end:
            self._end = last

    def set_level(self, node: str, resource: str, now: float, level: float,
                  capacity: float = 1.0, metric: str = BUSY) -> None:
        """Report a level *transition* at ``now`` (event-driven code).

        The previous level is integrated from its own transition time up to
        ``now``; the new level stays open until the next call or
        :meth:`finish`.
        """
        accum = self._accum(node, resource, metric, capacity)
        if accum.open_since is not None:
            accum.pending.append((accum.open_since, now, accum.open_level))
        accum.open_since = now
        accum.open_level = level
        if now > accum.last_time:
            accum.last_time = now
        if now > self._end:
            self._end = now

    def sample(self, node: str, resource: str, now: float, value: float) -> None:
        """Record an instantaneous gauge reading (last write per bucket wins)."""
        key = (node, resource, GAUGE)
        self._gauges.setdefault(key, {})[int(now / self.interval)] = value
        self._end = max(self._end, now)

    def finish(self, end: Optional[float] = None) -> None:
        """Close every open level at ``end`` (default: the latest time seen)."""
        close_at = self._end if end is None else max(end, self._end)
        for accum in self._accums.values():
            if accum.open_since is not None:
                accum.pending.append(
                    (accum.open_since, close_at, accum.open_level))
                accum.open_since = close_at
                accum.last_time = max(accum.last_time, close_at)
        self._end = close_at

    # -- consumer API -------------------------------------------------------------

    def series(self, node: Optional[str] = None, resource: Optional[str] = None,
               metric: Optional[str] = None) -> list[Series]:
        """Materialized series matching the filters, sorted by key."""
        out = []
        for key in sorted(set(self._accums) | set(self._gauges)):
            k_node, k_resource, k_metric = key
            if node is not None and k_node != node:
                continue
            if resource is not None and k_resource != resource:
                continue
            if metric is not None and k_metric != metric:
                continue
            out.append(self._materialize(key))
        return out

    def get(self, node: str, resource: str, metric: str = BUSY) -> Series:
        key = (node, resource, metric)
        if key not in self._accums and key not in self._gauges:
            raise KeyError(f"no series {key!r}")
        return self._materialize(key)

    def nodes(self) -> list[str]:
        return sorted({k[0] for k in self._accums} | {k[0] for k in self._gauges})

    def _bucket_count(self) -> int:
        return max(1, int(math.ceil(self._end / self.interval))) if self._end else 0

    def _materialize(self, key: tuple[str, str, str]) -> Series:
        node, resource, metric = key
        count = self._bucket_count()
        if metric == GAUGE:
            samples = self._gauges[key]
            values, last = [], 0.0
            for i in range(count):
                last = samples.get(i, last)
                values.append(last)
            return Series(node, resource, metric, self.interval, 1.0, values)
        accum = self._accums[key]
        self._flush(accum)
        scale = self.interval * (accum.capacity if metric == BUSY else 1.0)
        values = [accum.buckets.get(i, 0.0) / scale for i in range(count)]
        if metric == BUSY:
            # Integration rounding can nudge a saturated bucket past 1.
            values = [min(1.0, v) for v in values]
        return Series(node, resource, metric, self.interval, accum.capacity, values)


class NullSampler:
    """Falsy no-op sampler: ``if sampler:`` guards cost one branch, nothing else."""

    enabled = False
    interval = 0.0

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def accumulate(self, *args, **kwargs) -> None:
        return None

    def accumulate_many(self, *args, **kwargs) -> None:
        return None

    def set_level(self, *args, **kwargs) -> None:
        return None

    def sample(self, *args, **kwargs) -> None:
        return None

    def finish(self, end=None) -> None:
        return None

    def series(self, **filters) -> list:
        return []


NULL_SAMPLER = NullSampler()


def series_from_tracer(tracer, interval: float = 1.0, cat: str = "resource",
                       resource: str = "hold") -> UtilizationSampler:
    """Derive busy series from a tracer's hold spans (one per span node).

    This is the reconciliation bridge between the span layer and the
    sampler layer: the integral of the derived busy series equals the total
    hold time of the spans, so invariant tests can check a live sampler
    against the spans the same run recorded.
    """
    sampler = UtilizationSampler(interval=interval)
    for span in tracer.spans:
        if span.cat != cat:
            continue
        sampler.accumulate(span.node, resource, span.start, span.end)
    sampler.finish()
    return sampler


# -- exporters -----------------------------------------------------------------------


def series_to_dict(sampler: UtilizationSampler) -> dict:
    """Deterministic JSON-serializable snapshot of every series."""
    out = {}
    for series in sampler.series():
        out["/".join(series.key)] = {
            "node": series.node,
            "resource": series.resource,
            "metric": series.metric,
            "interval": series.interval,
            "capacity": series.capacity,
            "values": series.values,
        }
    return out


def dumps_series(sampler: UtilizationSampler) -> str:
    return json.dumps(series_to_dict(sampler), sort_keys=True,
                      separators=(",", ":"))


def write_series_json(path: str, sampler: UtilizationSampler) -> int:
    write_text(dumps_series(sampler), path)
    return len(sampler.series())


def series_to_csv(sampler: UtilizationSampler) -> str:
    """Long-format CSV: one row per (series, bucket), deterministic order."""
    lines = ["node,resource,metric,interval,t,value"]
    for series in sampler.series():
        for i, value in enumerate(series.values):
            lines.append(
                f"{series.node},{series.resource},{series.metric},"
                f"{series.interval:.9g},{i * series.interval:.9g},{value:.9g}"
            )
    return "\n".join(lines) + "\n"


def write_series_csv(path: str, sampler: UtilizationSampler) -> int:
    """Write the CSV export; returns the number of data rows."""
    text = series_to_csv(sampler)
    write_text(text, path)
    return text.count("\n") - 1


def _heat_row(values: list[float], width: int, peak: float) -> str:
    """Resample bucket values to ``width`` columns of heat glyphs."""
    if not values or peak <= 0:
        return " " * width
    row = []
    per_col = len(values) / width
    for col in range(width):
        lo = int(col * per_col)
        hi = max(lo + 1, int((col + 1) * per_col))
        cell = max(values[lo:hi], default=0.0) / peak
        index = min(len(HEAT_GLYPHS) - 1, int(cell * (len(HEAT_GLYPHS) - 1) + 0.5))
        if cell > 0 and index == 0:
            index = 1  # any activity at all shows as at least a '.'
        row.append(HEAT_GLYPHS[index])
    return "".join(row)


def sparkline_heatmap(sampler: UtilizationSampler, width: int = 72,
                      metric: Optional[str] = BUSY) -> str:
    """Render per-node utilization rows as an ASCII heatmap.

    Shares the ASCII timeline's convention — one glyph column is a fixed
    slice of simulated time starting at 0 — so the heatmap lines up under
    :func:`~repro.obs.export.ascii_timeline` output for the same run.
    ``busy`` rows are scaled against 1.0 (saturation); ``queue``/``gauge``
    rows against their own peak (annotated per row).
    """
    all_series = sampler.series(metric=metric)
    if not all_series:
        return "(no series)"
    extent = max(s.duration for s in all_series)
    lines = [
        f"utilization  [0s .. {extent:.6g}s]  ({len(all_series)} series, "
        f"1 col = {extent / width:.3g}s, ramp '{HEAT_GLYPHS}')"
    ]
    label_width = min(
        24, max(4, max(len(f"{s.resource}[{s.metric[0]}]") for s in all_series))
    )
    current_node = None
    for series in all_series:
        if series.node != current_node:
            current_node = series.node
            lines.append(f"{series.node}:")
        peak = 1.0 if series.metric == BUSY else max(series.peak(), 1e-12)
        label = f"{series.resource}[{series.metric[0]}]"[:label_width].ljust(label_width)
        suffix = "" if series.metric == BUSY else f"  (peak {series.peak():.3g})"
        lines.append(
            f"  {label} |{_heat_row(series.values, width, peak)}|{suffix}"
        )
    return "\n".join(lines)
