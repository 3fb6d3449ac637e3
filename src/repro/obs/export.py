"""Trace exporters: Chrome trace-event JSON and an ASCII per-node timeline.

The Chrome format (one ``"X"`` complete event per span, microsecond
timestamps) loads directly into ``chrome://tracing`` / Perfetto, so a DSS or
OLTP run can be inspected phase by phase.  Metrics ride along under
``otherData`` (ignored by the viewers, consumed by our tests).

Both exporters are deterministic: pids are assigned by first-seen node
order, event order follows span record order, and JSON is dumped with
sorted keys — two same-seed runs serialize to identical bytes.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.common.envelope import write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

_US = 1e6  # Chrome trace timestamps are microseconds


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The ``traceEvents`` list: metadata names plus one X event per span."""
    pids: dict[str, int] = {}
    lanes: dict[tuple[str, str], int] = {}
    events: list[dict] = []
    for span in tracer.spans:
        pid = pids.setdefault(span.node, len(pids) + 1)
        lane_key = (span.node, span.lane)
        if lane_key not in lanes:
            lanes[lane_key] = len([k for k in lanes if k[0] == span.node]) + 1

    for node, pid in pids.items():
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": node},
        })
    for (node, lane), tid in lanes.items():
        events.append({
            "ph": "M", "name": "thread_name", "pid": pids[node], "tid": tid,
            "args": {"name": lane},
        })

    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        args = dict(span.args)
        args["cat"] = span.cat
        if span.parent is not None:
            args["parent"] = span.parent
        if span.links:
            args["links"] = [[src, kind] for src, kind in span.links]
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat or "span",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": pids[span.node],
            "tid": lanes[(span.node, span.lane)],
            "args": args,
        })
        # Causal links render as flow arrows: an "s" (start) event at the
        # source span's end, an "f" (finish, binding to the enclosing slice)
        # at this span's start.  Emitted only when links exist, so traces
        # without links serialize byte-identically to before.
        for i, (src_id, kind) in enumerate(span.links):
            src = by_id.get(src_id)
            if src is None:
                continue  # orphan link: invariants report it, the viewer skips it
            flow_id = f"link-{src_id}-{span.span_id}-{i}"
            events.append({
                "ph": "s", "id": flow_id, "name": kind, "cat": "link",
                "ts": src.end * _US, "pid": pids[src.node],
                "tid": lanes[(src.node, src.lane)],
            })
            events.append({
                "ph": "f", "bp": "e", "id": flow_id, "name": kind,
                "cat": "link", "ts": span.start * _US,
                "pid": pids[span.node],
                "tid": lanes[(span.node, span.lane)],
            })
    return events


def chrome_counter_events(sampler, pids: Optional[dict[str, int]] = None) -> list[dict]:
    """Chrome ``"C"`` counter events: one track per (resource, metric) series.

    ``pids`` maps node names to the pids :func:`chrome_trace_events` already
    assigned, so a sampler's utilization tracks render *under the spans of
    the same node* in Perfetto; nodes the tracer never saw get fresh pids in
    the same first-seen scheme.  The mapping is mutated in place.
    """
    if pids is None:
        pids = {}
    events: list[dict] = []
    for series in sampler.series():
        pid = pids.setdefault(series.node, len(pids) + 1)
        name = f"{series.resource} ({series.metric})"
        for i, value in enumerate(series.values):
            events.append({
                "ph": "C",
                "name": name,
                "cat": series.metric,
                "ts": i * series.interval * _US,
                "pid": pid,
                "tid": 0,
                "args": {series.metric: value},
            })
    return events


def chrome_trace(
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    sampler=None,
) -> dict:
    """The full Chrome trace document."""
    events = chrome_trace_events(tracer)
    if sampler:
        # Reuse the span pids so counters land under the matching process.
        pids = {span.node: None for span in tracer.spans}
        pids = {node: i + 1 for i, node in enumerate(pids)}
        events.extend(chrome_counter_events(sampler, pids))
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics.as_dict()}
    return doc


def dumps_chrome_trace(
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    sampler=None,
) -> str:
    """Serialize deterministically (sorted keys, fixed separators)."""
    return json.dumps(chrome_trace(tracer, metrics, sampler), sort_keys=True,
                      separators=(",", ":"))


def write_chrome_trace(
    path: str,
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
    sampler=None,
) -> int:
    """Write the trace JSON to ``path``; returns the number of span events."""
    write_text(dumps_chrome_trace(tracer, metrics, sampler), path)
    return len(tracer.spans)


def write_metrics(path: str, metrics: MetricsRegistry) -> int:
    """Write the metrics snapshot as JSON; returns the number of metrics."""
    write_text(metrics.to_json(indent=2), path)
    return len(metrics)


# -- ASCII timeline ---------------------------------------------------------------


def _bar(span: Span, t0: float, scale: float, width: int) -> tuple[int, int]:
    left = int((span.start - t0) * scale)
    right = int((span.end - t0) * scale)
    left = max(0, min(width - 1, left))
    right = max(left + 1, min(width, right))
    return left, right


def ascii_timeline(
    tracer: Tracer,
    width: int = 72,
    max_lanes_per_node: int = 12,
    cat: Optional[str] = None,
) -> str:
    """Render spans as per-node, per-lane bars on a shared time axis.

    Each node gets a block; each lane one row of ``#`` bars (``.`` fills the
    idle gaps).  Lanes beyond ``max_lanes_per_node`` are elided with a count,
    keeping 128-client traces readable.
    """
    spans = [s for s in tracer.spans if cat is None or s.cat == cat]
    if not spans:
        return "(no spans)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = max(t1 - t0, 1e-12)
    scale = width / extent

    lines = [
        f"timeline  [{t0:.6g}s .. {t1:.6g}s]  ({len(spans)} spans, "
        f"1 col = {extent / width:.3g}s)"
    ]
    nodes: dict[str, dict[str, list[Span]]] = {}
    for span in spans:
        nodes.setdefault(span.node, {}).setdefault(span.lane, []).append(span)

    label_width = max(
        len(lane) for per_node in nodes.values() for lane in per_node
    )
    label_width = min(max(label_width, 4), 24)
    for node, per_node in nodes.items():
        lines.append(f"{node}:")
        shown = list(per_node.items())[:max_lanes_per_node]
        for lane, lane_spans in shown:
            row = ["."] * width
            for span in lane_spans:
                left, right = _bar(span, t0, scale, width)
                for i in range(left, right):
                    row[i] = "#"
            label = lane[:label_width].ljust(label_width)
            lines.append(f"  {label} |{''.join(row)}|")
        hidden = len(per_node) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more lane(s)")
    return "\n".join(lines)
