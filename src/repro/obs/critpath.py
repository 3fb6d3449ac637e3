"""Critical-path extraction over traced runs.

Given a :class:`~repro.obs.trace.Tracer` full of spans — now carrying
explicit causal ``links`` (shuffle barriers, DMS waits, lock handoffs,
retry chains) — this module answers *why the run took as long as it did*:
the **critical path** is the chain of spans that tiles the root span's
interval end-to-start, descending into children where structure exists and
walking causal links (or sibling adjacency) backwards at each level.

The extraction is deliberately iterative (explicit work stack) so traces
with thousands of nested spans — e.g. the event simulator's per-op chains —
never hit the interpreter recursion limit, and deterministic: ties break on
``span_id``, which is assigned in record order.

Per-span **slack** complements the path: for every span we report how much
longer it could have run without moving the end of its sibling group
(``group makespan − span.end``).  Spans on the critical path have zero
slack by construction; a map task with 40 s of slack is 40 s away from
mattering.

Serialization follows the repo's report idiom: schema ``repro-critpath/1``,
sorted keys, fixed separators, byte-identical per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.envelope import stable_round as _round
from repro.common.errors import SimulationError
from repro.obs.trace import Span

SCHEMA = "repro-critpath/1"

_TOL = 1e-9


@dataclass
class PathSegment:
    """One slice of the critical path: ``span`` is on the path for [start, end]."""

    span: Span
    start: float
    end: float
    via: str = "self"  # how this slice entered the path: "self", "child", or a link kind

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The extracted path plus per-span slack and category rollups."""

    root: Span
    segments: list = field(default_factory=list)  # chronological PathSegments
    edges: list = field(default_factory=list)  # (src_id, dst_id, kind) used
    slack: dict = field(default_factory=dict)  # span_id -> seconds of slack

    @property
    def total_seconds(self) -> float:
        return self.root.end - self.root.start

    def by_cat(self) -> dict:
        """Path seconds per span category (empty cat reported as "uncat")."""
        out: dict[str, float] = {}
        for seg in self.segments:
            key = seg.span.cat or "uncat"
            out[key] = out.get(key, 0.0) + seg.seconds
        return out

    def by_name(self) -> dict:
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.span.name] = out.get(seg.span.name, 0.0) + seg.seconds
        return out

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "root": {
                "name": self.root.name,
                "start": _round(self.root.start),
                "end": _round(self.root.end),
                "seconds": _round(self.total_seconds),
            },
            "segments": [
                {
                    "span_id": seg.span.span_id,
                    "name": seg.span.name,
                    "cat": seg.span.cat,
                    "node": seg.span.node,
                    "lane": seg.span.lane,
                    "start": _round(seg.start),
                    "end": _round(seg.end),
                    "seconds": _round(seg.seconds),
                    "via": seg.via,
                }
                for seg in self.segments
            ],
            "edges": [
                {"src": src, "dst": dst, "kind": kind}
                for src, dst, kind in self.edges
            ],
            "by_cat": {k: _round(v) for k, v in sorted(self.by_cat().items())},
            "slack_top": [
                {"span_id": sid, "name": name, "slack_seconds": _round(sl)}
                for sid, name, sl in self.top_slack()
            ],
        }

    def top_slack(self, count: int = 10) -> list:
        """The ``count`` off-path spans with the most slack (deterministic order)."""
        on_path = {seg.span.span_id for seg in self.segments}
        ranked = sorted(
            (
                (sid, name, sl)
                for (sid, name), sl in self.slack.items()
                if sid not in on_path and sl > _TOL
            ),
            key=lambda item: (-item[2], item[0]),
        )
        return ranked[:count]


def pick_root(spans) -> Span:
    """Default root: the query span if one exists, else the longest top-level span."""
    roots = [s for s in spans if s.parent is None]
    if not roots:
        raise SimulationError("critical path needs at least one top-level span")
    queries = [s for s in roots if s.cat == "query"]
    pool = queries or roots
    return max(pool, key=lambda s: (s.duration, -s.span_id))


def _compute_slack(spans) -> dict:
    """``(span_id, name) -> group makespan − span.end`` over sibling groups."""
    makespan: dict = {}
    for span in spans:
        key = span.parent
        if key not in makespan or span.end > makespan[key]:
            makespan[key] = span.end
    return {
        (span.span_id, span.name): max(0.0, makespan[span.parent] - span.end)
        for span in spans
    }


def critical_path(tracer, root: Span | None = None, tol: float = _TOL) -> CriticalPath:
    """Extract the critical path of a traced run.

    Walks backwards from ``root.end``: at each nesting level the latest-ending
    child claims the tail of the window, then the walk follows that child's
    causal ``links`` (preferred) or falls back to the latest-ending sibling
    that finished before it started.  Gaps no child explains are attributed
    to the container as self-time.  Each claimed child is then decomposed the
    same way (explicit stack — no recursion).  Raises
    :class:`~repro.common.errors.SimulationError` on causal-link cycles.
    """
    spans = list(tracer.spans)
    if root is None:
        root = pick_root(spans)
    by_id = {s.span_id: s for s in spans}
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    segments: list[PathSegment] = []
    edges: list[tuple] = []

    # Work items: decompose `span`'s interval up to time `t`, tagging the
    # first (latest) emitted slice with `via` (how the span entered the path).
    stack: list[tuple] = [(root, root.end, "root")]
    expanded: set[int] = set()

    while stack:
        span, t, entry_via = stack.pop()
        if span.span_id in expanded:
            raise SimulationError(
                f"causal link cycle through span {span.name!r} "
                f"(id {span.span_id})"
            )
        expanded.add(span.span_id)

        kids = children.get(span.span_id, [])
        cursor = t
        via = entry_via
        # Deferred self-slices so `segments` can stay append-only; sorted at
        # the end anyway, so just emit as found.
        chain_seen: set[int] = set()
        while True:
            cand = None
            for kid in kids:
                if kid.end <= cursor + tol and kid.end > span.start + tol:
                    if cand is None or (kid.end, kid.span_id) > (cand.end, cand.span_id):
                        cand = kid
            if cand is None:
                if cursor > span.start + tol:
                    segments.append(PathSegment(span, span.start, cursor, via))
                break
            if cursor > cand.end + tol:
                # The container was doing something no child explains.
                segments.append(PathSegment(span, cand.end, cursor, via))
                via = "self"
            # Walk the causal chain backwards among this level's children.
            cur, cur_via = cand, "child"
            while cur is not None:
                if cur.span_id in chain_seen:
                    raise SimulationError(
                        f"causal link cycle through span {cur.name!r} "
                        f"(id {cur.span_id})"
                    )
                chain_seen.add(cur.span_id)
                stack.append((cur, cur.end, cur_via))
                pred = None
                pred_kind = ""
                for src_id, kind in cur.links:
                    src = by_id.get(src_id)  # orphan link targets are skipped
                    if src is None or src.span_id == cur.span_id:
                        continue
                    if src.parent != cur.parent:
                        # Cross-container links (e.g. lock handoffs between
                        # resource nodes) annotate the DAG but cannot tile
                        # this container's interval.
                        continue
                    if src.end <= cur.start + tol:
                        if pred is None or (src.end, src.span_id) > (pred.end, pred.span_id):
                            pred, pred_kind = src, kind
                if pred is None:
                    # Fallback: sibling adjacency (back-to-back scheduling).
                    for kid in kids:
                        if kid.span_id == cur.span_id:
                            continue
                        if kid.end <= cur.start + tol and kid.end > span.start + tol:
                            if pred is None or (kid.end, kid.span_id) > (pred.end, pred.span_id):
                                pred, pred_kind = kid, "seq"
                if pred is not None:
                    edges.append((pred.span_id, cur.span_id, pred_kind))
                    if pred.end < cur.start - tol:
                        # Waiting gap between predecessor and successor.
                        segments.append(
                            PathSegment(span, pred.end, cur.start, "wait")
                        )
                    cursor = pred.end  # keeps bookkeeping consistent
                    cur, cur_via = pred, pred_kind
                else:
                    if cur.start > span.start + tol:
                        segments.append(
                            PathSegment(span, span.start, cur.start, via)
                        )
                    cur = None
            break

    # A claimed child is decomposed by its own stack item, which re-tiles
    # [child.start, child.end]; drop the placeholder slices a container
    # level would otherwise double-count.  (The stack items emitted either
    # child-level segments or self segments; parent levels only emitted
    # gap/self slices, so there is no overlap to drop — just sort.)
    segments.sort(key=lambda seg: (seg.start, seg.end, seg.span.span_id))
    # Coalesce zero-width slices out.
    segments = [seg for seg in segments if seg.seconds > tol]

    return CriticalPath(
        root=root,
        segments=segments,
        edges=sorted(edges),
        slack=_compute_slack(spans),
    )


# -- rendering ------------------------------------------------------------------


def render_critical_path(path: CriticalPath, width: int = 72) -> str:
    """ASCII rendering: one line per path slice, plus category rollup."""
    total = path.total_seconds or 1.0
    lines = [
        f"critical path: {path.root.name}  "
        f"[{path.root.start:.3f} .. {path.root.end:.3f}]  "
        f"{path.total_seconds:.3f} s, {len(path.segments)} segments"
    ]
    for seg in path.segments:
        share = seg.seconds / total
        label = seg.span.name if seg.via in ("self", "root") else (
            f"{seg.span.name} <-{seg.via}")
        lines.append(
            f"  {seg.start:>10.3f} .. {seg.end:>10.3f} "
            f"{seg.seconds:>9.3f} s {share:>5.1%}  {label[:width]}"
        )
    lines.append("  by category:")
    for cat, seconds in sorted(path.by_cat().items(),
                               key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"    {cat:<16} {seconds:>9.3f} s {seconds / total:>5.1%}")
    top = path.top_slack(5)
    if top:
        lines.append("  most slack (off-path):")
        for sid, name, slack in top:
            lines.append(f"    {name:<28} {slack:>9.3f} s (span {sid})")
    return "\n".join(lines)
