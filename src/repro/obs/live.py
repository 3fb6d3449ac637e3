"""``repro-live/1``: the live telemetry pipeline and its dashboard report.

:class:`LiveTelemetry` is the always-on collector: every completed
operation lands in a :class:`~repro.obs.digest.WindowedDigest` slice
(bounded memory, no per-op lists), errors and censored in-flight ops are
counted per slice, and fault/chaos/election events are noted as labelled
intervals.  When SLO rules are attached, a
:class:`~repro.obs.slo.SloMonitor` is evaluated *online* at every
virtual-time slice boundary as the run advances — alerts fire during the
run, on the virtual clock, not in a post-hoc pass.

The report is the house shape (``build``/``validate``/``render``, written
through :mod:`repro.common.envelope`): deterministic JSON plus an ASCII
dashboard — one row per slice with windowed p50/p99/throughput/errors,
``!`` markers where alerts were open, the event timeline, and a telemetry
self-overhead section (slice/bucket counts and span sampler retention)
proving the pipeline's memory stays bounded.

Zero-cost contract: every producer hook takes ``live=None`` and guards
with one truthiness check; a run without ``--live-report`` constructs
nothing from this module.
"""

from __future__ import annotations

import math

from repro.common.envelope import check_envelope, check_fields
from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError
from repro.obs.digest import (
    DEFAULT_GROWTH,
    DEFAULT_MIN_VALUE,
    QuantileDigest,
    WindowedDigest,
)
from repro.obs.slo import SloMonitor

SCHEMA = "repro-live/1"

#: Default dashboard slice width in virtual seconds.
DEFAULT_SLICE_S = 1.0


class LiveTelemetry:
    """Bounded-memory live collector + online SLO evaluation.

    Implements the :class:`~repro.obs.slo.SloMonitor` source protocol
    (``window``, ``errors_in``, ``events``).  Operations must be recorded
    in nondecreasing virtual-time order — both event simulators and the
    fault runners advance a monotonic clock, so this holds everywhere.
    """

    def __init__(self, slice_s: float = DEFAULT_SLICE_S, rules=None,
                 growth: float = DEFAULT_GROWTH,
                 min_value: float = DEFAULT_MIN_VALUE):
        if slice_s <= 0.0:
            raise ConfigurationError(
                f"live slice width must be > 0, got {slice_s}")
        self.slice_s = slice_s
        self.growth = growth
        self.min_value = min_value
        self.windowed = WindowedDigest(slice_s, growth, min_value)
        self.class_digests: dict[str, QuantileDigest] = {}
        self.class_errors: dict[str, int] = {}
        self.error_slices: dict[int, int] = {}
        self.events: list[tuple[str, float, float]] = []
        self.monitor = SloMonitor(rules) if rules else None
        self.ops = 0
        self.errors = 0
        self.sheds = 0
        self.shed_reasons: dict[str, int] = {}
        self.class_sheds: dict[str, int] = {}
        self.censored = 0
        self.record_calls = 0
        self.finished_at: float | None = None
        self._next_boundary = 1  # first slice boundary not yet evaluated

    def __bool__(self) -> bool:
        return True

    # -- recording (hot path) ----------------------------------------------------

    def _advance(self, t: float) -> None:
        if self.monitor is None:
            return
        width = self.slice_s
        while self._next_boundary * width <= t:
            self.monitor.evaluate(self._next_boundary * width, self)
            self._next_boundary += 1

    def record_op(self, t: float, latency: float, error: bool = False,
                  cls: str | None = None) -> None:
        """Record one finished op at completion time ``t``.

        ``cls`` additionally feeds a per-op-class (un-windowed) digest so
        bounded-memory runs can still report per-class percentiles.
        Error latencies are counted, not digested — error ops would
        otherwise pollute the success percentiles the SLO rules target.
        """
        self._advance(t)
        self.record_calls += 1
        if error:
            index = int(t / self.slice_s)
            self.error_slices[index] = self.error_slices.get(index, 0) + 1
            self.errors += 1
            if cls is not None:
                self.class_errors[cls] = self.class_errors.get(cls, 0) + 1
        else:
            self.windowed.record(t, latency)
            self.ops += 1
            if cls is not None:
                digest = self.class_digests.get(cls)
                if digest is None:
                    digest = QuantileDigest(self.growth, self.min_value)
                    self.class_digests[cls] = digest
                digest.record(latency)

    def record_shed(self, t: float, cls: str | None = None,
                    reason: str | None = None) -> None:
        """Record an op shed by overload protection at time ``t``.

        A shed op never received service, so it contributes no latency to
        any digest — shed ops are excluded from the mean and percentiles —
        but it lands in the per-slice error counts, so SLO error-rate
        burn alerts see load shedding as the client-visible failure it is.
        """
        self._advance(t)
        self.record_calls += 1
        index = int(t / self.slice_s)
        self.error_slices[index] = self.error_slices.get(index, 0) + 1
        self.sheds += 1
        if reason is not None:
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        if cls is not None:
            self.class_sheds[cls] = self.class_sheds.get(cls, 0) + 1

    def record_censored(self, t: float, lower_bound: float) -> None:
        """Record an op still in flight at cutoff ``t`` (lower bound only)."""
        self._advance(t)
        self.record_calls += 1
        self.windowed.record_censored(t, lower_bound)
        self.censored += 1

    def note_event(self, label: str, start: float, end: float) -> None:
        """Note a fault/chaos/election interval for alert attribution."""
        self.events.append((str(label), float(start), float(end)))

    def finish(self, end: float) -> None:
        """Evaluate remaining boundaries and close open alerts at ``end``."""
        self._advance(end)
        if self.monitor is not None:
            if self._next_boundary * self.slice_s > end:
                # End mid-slice: one final evaluation at the true end time
                # so short runs still get at least one verdict.
                self.monitor.evaluate(end, self)
            self.monitor.finish(end, self)
        self.finished_at = end

    # -- SloMonitor source protocol ----------------------------------------------

    def window(self, start: float, end: float) -> QuantileDigest:
        return self.windowed.window(start, end)

    def errors_in(self, start: float, end: float) -> int:
        width = self.slice_s
        return sum(
            n for index, n in self.error_slices.items()
            if index * width < end and (index + 1) * width > start
        )

    # -- introspection -----------------------------------------------------------

    @property
    def alerts(self) -> list:
        return self.monitor.alerts if self.monitor else []

    def digest_buckets(self) -> int:
        return sum(
            len(d.buckets) + len(d.censored_buckets)
            for d in self.windowed.slices.values()
        )


def build_live_report(live: LiveTelemetry, scenario: dict,
                      sampler=None) -> dict:
    """Assemble the ``repro-live/1`` document from a finished collector."""
    if live.finished_at is None:
        raise ConfigurationError(
            "live telemetry must be finish()ed before reporting")
    duration = live.finished_at
    width = live.slice_s
    last_slice = max(
        [int(math.ceil(duration / width)) - 1, 0]
        + list(live.windowed.slices) + list(live.error_slices)
    )
    empty = QuantileDigest()
    series = []
    for index in range(0, last_slice + 1):
        # Slices with no ops still get a row — gaps in the timeline are
        # signal (a wedged server), not something to elide.
        digest = live.windowed.slices.get(index, empty)
        errors = live.error_slices.get(index, 0)
        t0 = index * width
        slice_end = min((index + 1) * width, duration)
        span = max(slice_end - t0, 1e-9)
        series.append({
            "t": _round(t0),
            "ops": digest.count,
            "errors": errors,
            "censored": digest.censored_count,
            "throughput": _round(digest.count / span, 3),
            "p50": _round(digest.percentile(50)),
            "p99": _round(digest.percentile(99)),
            "max": _round(digest.max if digest.observations else 0.0),
        })
    total = live.windowed.total()
    totals = {
        "ops": live.ops,
        "errors": live.errors,
        "sheds": live.sheds,
        "censored": live.censored,
        "throughput": _round(live.ops / duration if duration else 0.0, 3),
        "p50": _round(total.percentile(50)),
        "p95": _round(total.percentile(95)),
        "p99": _round(total.percentile(99)),
        "p999": _round(total.percentile(99.9)),
        "mean": _round(total.mean),
        "max": _round(total.max if total.observations else 0.0),
    }
    telemetry = {
        "slices": len(live.windowed.slices),
        "digest_buckets": live.digest_buckets(),
        "record_calls": live.record_calls,
        "events_noted": len(live.events),
        # Virtual-clock op rate: deterministic per seed, so it can live in
        # the report.  Wall-clock rates (events/ops per wall second) are
        # host-dependent and ride in repro-prof/1 instead — a live report
        # must stay byte-identical whether or not the run was profiled.
        "ops_per_virtual_s": _round(
            live.ops / duration if duration else 0.0, 3),
    }
    if sampler is not None and hasattr(sampler, "sample_stats"):
        telemetry["span_sampling"] = sampler.sample_stats()
    rules = [r.spec_string() for r in live.monitor.rules] if live.monitor \
        else []
    return {
        "schema": SCHEMA,
        "scenario": dict(scenario),
        "slice_s": _round(width),
        "duration": _round(duration),
        "totals": totals,
        "series": series,
        "rules": rules,
        "alerts": live.monitor.to_dicts() if live.monitor else [],
        "events": [
            {"label": label, "start": _round(start), "end": _round(end)}
            for label, start, end in live.events
        ],
        "telemetry": telemetry,
    }


_REPORT_REQUIRED = {
    "scenario": dict, "slice_s": float, "duration": float, "totals": dict,
    "series": list, "rules": list, "alerts": list, "events": list,
    "telemetry": dict,
}

_SERIES_REQUIRED = {
    "t": float, "ops": int, "errors": int, "censored": int,
    "throughput": float, "p50": float, "p99": float, "max": float,
}

_TOTALS_REQUIRED = {
    "ops": int, "errors": int, "sheds": int, "censored": int,
    "throughput": float,
    "p50": float, "p95": float, "p99": float, "p999": float,
    "mean": float, "max": float,
}

_ALERT_REQUIRED = {
    "rule": object, "fired_at": float, "cleared_at": (float, type(None)),
    "peak_burn": object, "event": object,
}

_TELEMETRY_REQUIRED = {
    "slices": int, "digest_buckets": int, "record_calls": int,
    "ops_per_virtual_s": float,
}


def validate_live_report(data: dict) -> None:
    """Schema check; raises :class:`ConfigurationError` on any mismatch."""
    check_envelope(data, SCHEMA, "live report")
    check_fields(data, _REPORT_REQUIRED, "live report")
    check_fields(data["totals"], _TOTALS_REQUIRED, "totals")
    if not data["series"]:
        raise ConfigurationError(
            "live report needs a non-empty series list")
    for index, row in enumerate(data["series"]):
        check_fields(row, _SERIES_REQUIRED, f"series row {index}")
    for index, alert in enumerate(data["alerts"]):
        check_fields(alert, _ALERT_REQUIRED, f"alert {index}")
        cleared = alert["cleared_at"]
        if cleared is not None and cleared < alert["fired_at"]:
            raise ConfigurationError(
                f"alert {index} clears before it fires")
    for index, event in enumerate(data["events"]):
        check_fields(event, {"label": object}, f"event {index}")
    check_fields(data["telemetry"], _TELEMETRY_REQUIRED, "telemetry")


def _fmt_ms(seconds: float) -> str:
    if seconds <= 0.0:
        return "-"
    ms = seconds * 1000.0
    if ms < 10.0:
        return f"{ms:.2f}ms"
    if ms < 1000.0:
        return f"{ms:.0f}ms"
    return f"{seconds:.2f}s"


def render_live_report(data: dict) -> str:
    """ASCII dashboard: one row per slice, alert markers, overhead footer."""
    scenario = data["scenario"]
    context = "  ".join(
        f"{key} {scenario[key]}" for key in sorted(scenario)
    )
    lines = [f"live telemetry  {context}".rstrip()]
    lines.append(
        f"  slice {data['slice_s']:g}s  duration {data['duration']:g}s  "
        f"ops {data['totals']['ops']}  errors {data['totals']['errors']}  "
        f"overall p99 {_fmt_ms(data['totals']['p99'])}"
    )
    if data["rules"]:
        lines.append("  rules: " + "; ".join(data["rules"]))
    # Alert intervals per slice for the marker column.
    alert_spans = [
        (a["fired_at"], a["cleared_at"] if a["cleared_at"] is not None
         else data["duration"], a["rule"])
        for a in data["alerts"]
    ]
    peak_tput = max((row["throughput"] for row in data["series"]),
                    default=0.0) or 1.0
    lines.append(
        f"  {'t':>7s} {'ops':>6s} {'err':>4s} {'p50':>8s} {'p99':>8s} "
        f"{'throughput':30s} alerts"
    )
    width = data["slice_s"]
    for row in data["series"]:
        bar = "#" * int(round(row["throughput"] / peak_tput * 24))
        t0, t1 = row["t"], row["t"] + width
        marks = [
            rule for fired, cleared, rule in alert_spans
            if fired < t1 and cleared > t0
        ]
        marker = ("! " + "; ".join(sorted(set(marks)))) if marks else ""
        lines.append(
            f"  {row['t']:7.1f} {row['ops']:6d} {row['errors']:4d} "
            f"{_fmt_ms(row['p50']):>8s} {_fmt_ms(row['p99']):>8s} "
            f"{bar:30s} {marker}".rstrip()
        )
    if data["alerts"]:
        lines.append("  alerts:")
        for alert in data["alerts"]:
            cleared = (
                f"cleared {alert['cleared_at']:.1f}s"
                if alert["cleared_at"] is not None else "still open"
            )
            cause = f"  cause: {alert['event']}" if alert["event"] else ""
            lines.append(
                f"    {alert['rule']}  fired {alert['fired_at']:.1f}s  "
                f"{cleared}  peak burn {alert['peak_burn']:.1f}x{cause}"
            )
    else:
        lines.append("  alerts: none")
    if data["events"]:
        lines.append("  events:")
        for event in data["events"]:
            lines.append(
                f"    {event['label']}  "
                f"[{event['start']:.1f}s, {event['end']:.1f}s]"
            )
    telemetry = data["telemetry"]
    overhead = (
        f"  telemetry overhead: {telemetry['slices']} slices, "
        f"{telemetry['digest_buckets']} digest buckets, "
        f"{telemetry['record_calls']} record calls; "
        f"{telemetry['ops_per_virtual_s']:g} ops/virtual-s"
    )
    sampling = telemetry.get("span_sampling")
    if sampling:
        overhead += (
            f"; spans kept {sampling['kept']} / "
            f"dropped {sampling['dropped']}"
        )
    lines.append(overhead)
    return "\n".join(lines)
