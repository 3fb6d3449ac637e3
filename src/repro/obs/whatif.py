"""What-if replay: scale one mechanism in a traced run, predict the delta.

The critical-path layer says *where* the time went; this module says *what
would change*.  Given a traced run whose spans carry mechanism attribution
(phase/task structure with per-task ``startup`` args on the Hive side,
``io_time``/``cpu_time``/``net_time`` on PDW steps, ``wait``/``service``
splits on the event simulator's per-station visits), :func:`replay_hive` /
:func:`replay_pdw` / :func:`replay_oltp` re-walk the span DAG with a chosen
mechanism scaled by a factor — ``map-startup=0`` deletes Hive's per-task JVM
fork cost, ``lock-wait=0.5x`` halves the lock stations — and recompute the
end-to-end figure while honoring the structure (per-slot task chains
reschedule, serial steps stay serial).

The prediction is **Amdahl-bounded**: only the scaled mechanism's observed
exposure can be recovered, everything off the critical path stays hidden
behind the makespan.  It is first-order — the replay keeps the original
schedule (task-to-slot assignment, queue orders), so the tests validate it
against actually re-running the simulator with the corresponding cost-model
knob and assert agreement within tolerance.

Reports serialize under schema ``repro-whatif/1`` with the usual
deterministic JSON conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError

SCHEMA = "repro-whatif/1"

# Mechanism name -> (engine family, human description).  Parse-time
# validation uses this table; each replay applies the subset it understands.
MECHANISMS = {
    # Hive / MapReduce
    "map-startup": ("hive", "per-map-task JVM fork + init cost"),
    "reduce-startup": ("hive", "per-reduce-task startup cost"),
    "shuffle": ("hive", "map-output transfer over the 1 GbE fabric"),
    "job-overhead": ("hive", "per-job submission/setup/commit latency"),
    # PDW
    "dms": ("pdw", "DMS data movement (network) time within each step"),
    "pdw-cpu": ("pdw", "per-step CPU time"),
    "pdw-io": ("pdw", "per-step IO time"),
    "step-overhead": ("pdw", "per-DSQL-step coordination overhead"),
    # OLTP event simulator (station visits)
    "lock-wait": ("oltp", "lock-station visits: hotlock/hotrow/appendhot"),
    "cpu": ("oltp", "cpu-station visits"),
    "disk": ("oltp", "disk-station visits"),
    "log": ("oltp", "log-station visits"),
    "journal": ("oltp", "journal-station visits"),
    "backoff": ("oltp", "retry backoff delays"),
    "election": ("oltp", "replica-set failover waits (election windows)"),
    "dispatch": ("oltp", "open-loop dispatch waits (intended-to-start lag "
                         "behind a full worker pool)"),
}

# Stations the ``lock-wait`` mechanism covers (the OltpStudy lock stations).
LOCK_STATIONS = ("hotlock", "hotrow", "appendhot")

_TOL = 1e-9


def parse_whatif(spec: str) -> dict:
    """Parse ``"shuffle=0.5x,lock-wait=0"`` into ``{mechanism: factor}``.

    Factors are non-negative floats; a trailing ``x`` is accepted
    (``0.5x`` == ``0.5``).  Unknown mechanism names and malformed entries
    raise :class:`~repro.common.errors.ConfigurationError` — the CLI's
    exit-2 convention.
    """
    scales: dict[str, float] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigurationError(
                f"malformed --whatif entry {chunk!r}: expected NAME=FACTOR"
            )
        if name not in MECHANISMS:
            known = ", ".join(sorted(MECHANISMS))
            raise ConfigurationError(
                f"unknown what-if mechanism {name!r}; known: {known}"
            )
        value = value.strip()
        if value.endswith(("x", "X")):
            value = value[:-1]
        try:
            factor = float(value)
        except ValueError:
            raise ConfigurationError(
                f"malformed --whatif factor {chunk!r}: "
                f"expected a number like 0.5 or 0.5x"
            ) from None
        if factor < 0.0:
            raise ConfigurationError(
                f"--whatif factor for {name!r} must be >= 0, got {factor:g}"
            )
        scales[name] = factor
    if not scales:
        raise ConfigurationError("empty --whatif spec")
    return scales


def _children_index(tracer) -> dict:
    children: dict = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


# -- Hive ------------------------------------------------------------------------


def _replay_task_phase(phase, tasks, startup_scale: float) -> float:
    """Reschedule a map/reduce phase with per-task startup scaled.

    Replays Hadoop's greedy scheduler (next pending task to whichever slot
    frees first) over the scaled task durations, in the original submission
    order — the tracer records attempts in exactly that order, and the lane
    count recovers the slot count.  Whatever the original phase carried
    beyond its scheduled makespan (e.g. the HDFS output write folded into
    reduce time) is preserved unscaled.
    """
    from repro.mapreduce.jobs import schedule_tasks

    startup = float(phase.args.get("startup", 0.0))
    ordered = sorted(tasks, key=lambda t: t.span_id)  # submission order
    slots = len({t.lane for t in tasks})
    orig_makespan = schedule_tasks([t.duration for t in ordered], slots)
    scaled = [
        max(0.0, t.duration - (1.0 - startup_scale) * startup)
        for t in ordered
    ]
    extra = max(0.0, phase.duration - orig_makespan)
    return schedule_tasks(scaled, slots) + extra


def replay_hive(tracer, scales: dict) -> float:
    """Predicted end-to-end seconds for a traced Hive query, scaled."""
    queries = tracer.find(cat="query", node="hive")
    if not queries:
        raise ConfigurationError("no traced Hive query to replay")
    query = queries[0]
    children = _children_index(tracer)
    total = 0.0
    for job in children.get(query.span_id, []):
        if job.cat != "job":
            continue
        job_time = 0.0
        for phase in children.get(job.span_id, []):
            if phase.cat != "phase":
                continue
            length = phase.duration
            tasks = [t for t in children.get(phase.span_id, [])
                     if t.cat == "task"]
            if phase.lane == "map":
                if tasks:
                    length = _replay_task_phase(
                        phase, tasks, scales.get("map-startup", 1.0))
            elif phase.lane == "reduce":
                if tasks:
                    length = _replay_task_phase(
                        phase, tasks, scales.get("reduce-startup", 1.0))
            elif phase.lane == "shuffle":
                length = length * scales.get("shuffle", 1.0)
            elif phase.lane == "overhead":
                length = length * scales.get("job-overhead", 1.0)
            job_time += length
        total += job_time
    return total


# -- PDW -------------------------------------------------------------------------


def replay_pdw(tracer, scales: dict) -> float:
    """Predicted end-to-end seconds for a traced PDW query, scaled."""
    queries = tracer.find(cat="query", node="pdw")
    if not queries:
        raise ConfigurationError("no traced PDW query to replay")
    query = queries[0]
    steps = [s for s in tracer.spans
             if s.parent == query.span_id and s.cat == "step"]
    if steps:
        plan_overhead = steps[0].start - query.start
    else:
        plan_overhead = query.duration
    total = plan_overhead
    for step in steps:
        io = float(step.args.get("io_time", 0.0)) * scales.get("pdw-io", 1.0)
        cpu = float(step.args.get("cpu_time", 0.0)) * scales.get("pdw-cpu", 1.0)
        net = float(step.args.get("net_time", 0.0)) * scales.get("dms", 1.0)
        overhead = (float(step.args.get("overhead", 0.0))
                    * scales.get("step-overhead", 1.0))
        total += max(io, cpu, net) + overhead
    return total


# -- OLTP event simulator --------------------------------------------------------


def _station_scale(station: str, scales: dict) -> float:
    if station in LOCK_STATIONS:
        return scales.get("lock-wait", scales.get(station, 1.0))
    return scales.get(station, 1.0)


def replay_oltp(tracer, scales: dict, warmup: float = 10.0) -> dict:
    """Predicted per-class mean latencies for a traced event-sim run.

    Each measured request (completed after ``warmup``, not an error) is
    replayed visit by visit: a station visit's wait+service both scale with
    the station's factor — the wait is queueing behind *other clients'*
    service at the same station, which the corresponding cost-model knob
    scales identically.  Backoff delays scale with ``backoff``; failover
    stalls (``cat="election"`` children) scale with ``election``.
    """
    per_class: dict = {}
    children = _children_index(tracer)
    for request in tracer.spans:
        if request.cat != "request" or request.end < warmup:
            continue
        if request.args.get("error"):
            continue
        latency = request.duration
        for child in children.get(request.span_id, []):
            if child.cat == "visit":
                factor = _station_scale(child.args.get("station", ""), scales)
                visit_time = (float(child.args.get("wait", 0.0))
                              + float(child.args.get("service", 0.0)))
                latency -= (1.0 - factor) * visit_time
            elif child.cat == "retry":
                latency -= (1.0 - scales.get("backoff", 1.0)) * child.duration
            elif child.cat == "election":
                # Time this request spent stalled behind a replica-set
                # failover — a faster election timeout shrinks it directly.
                latency -= (1.0 - scales.get("election", 1.0)) * child.duration
            elif child.cat == "dispatch":
                # Open-loop queueing before the op even started: intended
                # arrival to worker grant.  Only exists in
                # coordinated-omission-correct traces — a bigger worker
                # pool (or a faster server) shrinks exactly this span.
                latency -= (1.0 - scales.get("dispatch", 1.0)) * child.duration
        cls = request.args.get("cls", request.name)
        per_class.setdefault(cls, []).append(max(0.0, latency))
    if not per_class:
        raise ConfigurationError(
            "no measured request spans to replay (is the run traced and "
            "longer than the warmup?)"
        )
    means = {cls: sum(vals) / len(vals)
             for cls, vals in sorted(per_class.items())}
    count = sum(len(vals) for vals in per_class.values())
    overall = (sum(sum(vals) for vals in per_class.values()) / count)
    return {"per_class": means, "mean": overall, "count": count}


# -- reports ---------------------------------------------------------------------


@dataclass
class WhatIfReport:
    """Baseline vs. predicted figure for one traced run, JSON-serializable."""

    kind: str  # "dss" | "oltp"
    target: dict = field(default_factory=dict)
    metric: str = "total_seconds"
    scales: dict = field(default_factory=dict)
    baseline: float = 0.0
    predicted: float = 0.0
    exposures: dict = field(default_factory=dict)  # mechanism -> seconds at 0
    amdahl_floor: float = 0.0  # every applied mechanism at 0
    per_class: dict = field(default_factory=dict)  # oltp only

    @property
    def delta(self) -> float:
        return self.baseline - self.predicted

    @property
    def speedup(self) -> float:
        return self.baseline / self.predicted if self.predicted > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "target": self.target,
            "metric": self.metric,
            "scales": {k: _round(v) for k, v in sorted(self.scales.items())},
            "baseline": _round(self.baseline),
            "predicted": _round(self.predicted),
            "delta": _round(self.delta),
            "speedup": _round(self.speedup, 4),
            "exposures": {k: _round(v)
                          for k, v in sorted(self.exposures.items())},
            "amdahl_floor": _round(self.amdahl_floor),
            "per_class": {k: _round(v)
                          for k, v in sorted(self.per_class.items())},
        }


def dss_whatif_report(tracer, engine: str, scales: dict,
                      target: dict | None = None) -> WhatIfReport:
    """Replay one traced DSS query under ``scales`` (engine: hive|pdw)."""
    replay = {"hive": replay_hive, "pdw": replay_pdw}.get(engine)
    if replay is None:
        raise ConfigurationError(
            f"what-if replay knows engines hive and pdw, not {engine!r}"
        )
    baseline = replay(tracer, {})
    predicted = replay(tracer, scales)
    exposures = {
        name: baseline - replay(tracer, {name: 0.0}) for name in scales
    }
    floor = replay(tracer, {name: 0.0 for name in scales})
    return WhatIfReport(
        kind="dss", target=dict(target or {}, engine=engine),
        metric="total_seconds", scales=dict(scales),
        baseline=baseline, predicted=predicted,
        exposures=exposures, amdahl_floor=floor,
    )


def oltp_whatif_report(tracer, scales: dict, warmup: float = 10.0,
                       target: dict | None = None) -> WhatIfReport:
    """Replay one traced event-sim run under ``scales``."""
    baseline = replay_oltp(tracer, {}, warmup)
    predicted = replay_oltp(tracer, scales, warmup)
    exposures = {
        name: baseline["mean"] - replay_oltp(tracer, {name: 0.0}, warmup)["mean"]
        for name in scales
    }
    floor = replay_oltp(tracer, {name: 0.0 for name in scales}, warmup)
    return WhatIfReport(
        kind="oltp", target=dict(target or {}),
        metric="mean_latency_seconds", scales=dict(scales),
        baseline=baseline["mean"], predicted=predicted["mean"],
        exposures=exposures, amdahl_floor=floor["mean"],
        per_class=predicted["per_class"],
    )


def render_whatif_report(report: WhatIfReport) -> str:
    """Human-readable what-if summary for the CLI."""
    scales = ", ".join(f"{k}={v:g}x" for k, v in sorted(report.scales.items()))
    unit = "s" if report.metric == "total_seconds" else "s mean"
    lines = [
        f"what-if [{report.kind}] {scales}",
        f"  baseline  {report.baseline:>12.6f} {unit}",
        f"  predicted {report.predicted:>12.6f} {unit}  "
        f"(speedup {report.speedup:.3f}x, saves {report.delta:.6f} s)",
        f"  amdahl floor (all scaled mechanisms at 0): "
        f"{report.amdahl_floor:.6f} {unit}",
    ]
    for name, exposure in sorted(report.exposures.items(),
                                 key=lambda kv: (-kv[1], kv[0])):
        share = exposure / report.baseline if report.baseline else 0.0
        lines.append(f"    exposure {name:<16} {exposure:>12.6f} s {share:>6.1%}")
    for cls, latency in sorted(report.per_class.items()):
        lines.append(f"    predicted {cls:<15} {latency * 1000.0:>12.3f} ms")
    return "\n".join(lines)
