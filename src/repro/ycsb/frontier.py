"""The ``repro-frontier/1`` report: open-loop latency-throughput frontiers.

The paper's YCSB figures are closed-loop points at fixed client counts,
which cannot answer the capacity-planning question "how many users can this
deployment serve at a 10 ms p99?".  This module sweeps each system with
**open-loop Poisson arrivals** (see :mod:`repro.ycsb.arrivals` and
:func:`repro.ycsb.eventsim.simulate_open_loop`) across a ladder of target
rates, then **bisects for the saturation knee** — the maximum sustained
throughput whose coordinated-omission-correct p99 still meets a configurable
SLO.  Latencies are charged from each operation's *intended* start time, so
the latency cliff near saturation is visible instead of silently absorbed by
a slowing load generator.

Beyond the paper's three deployments, the default sweep adds ``mongo-as-safe``
— Mongo-AS with journaled write acknowledgement — because the paper's own
caveat ("MongoDB ran without durability", §3.4.1) is exactly a frontier
shift: the journal wait moves the knee, and this report measures by how
much.  The sweep composes with the fault layer (``--faults`` station plans
shift the frontier of a degraded cluster) and the write-concern spectrum
(``concern=`` re-derives each system model with the durability mechanisms
enabled).

Everything is a pure function of the master seed: the ladder, the knee
search trajectory, and every simulated run are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.envelope import check_envelope, check_fields
from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError, SloUnreachableError

SCHEMA = "repro-frontier/1"

#: Systems a frontier report sweeps by default: the paper's three YCSB
#: deployments plus the durability configuration MongoDB actually ships.
FRONTIER_SYSTEMS = ("sql-cs", "mongo-as", "mongo-cs", "mongo-as-safe")

#: Workloads swept by default (update-heavy and read-only — the two shapes
#: whose knees differ the most).
FRONTIER_WORKLOADS = ("A", "C")

#: Rate ladder as fractions of the analytic (MVA) saturation throughput.
LADDER_FRACTIONS = (0.3, 0.6, 0.8, 0.9, 1.0, 1.1)

#: Default p99 objective.  Must sit above the journal group-flush window
#: (100 ms): ``mongo-as-safe`` writes wait for the flush, so any SLO below
#: ~the interval is *physically* unreachable on write workloads — the knee
#: search correctly reports that as exit 2, which is the wrong default
#: experience.  At 250 ms every default system brackets a knee and the
#: journaled frontier's shift is visible instead of fatal.
DEFAULT_SLO_MS = 250.0


def frontier_system_models() -> dict:
    """The default frontier system set, name -> :class:`SystemModel`."""
    from repro.core.oltp import SYSTEMS

    models = dict(SYSTEMS)
    models["mongo-as-safe"] = replace(
        SYSTEMS["mongo-as"], name="mongo-as-safe", journaled=True
    )
    return models


def apply_concern(system, concern: str | None):
    """Re-derive a system model under a write concern.

    ``paper``/``unacked`` keep the paper's configuration (MongoDB without
    durability); ``safe``/``journaled`` enable the journal group-flush wait
    on systems without a commit log; ``majority``/``replicated`` add replica
    maintenance on top.  SQL-CS always forces its log, so ``journaled`` is a
    no-op there and ``majority`` maps to synchronous replica upkeep.
    """
    if concern is None:
        return system
    name = concern.lower()
    if name in ("paper", "unacked", "none"):
        return system
    if name in ("safe", "journaled"):
        if system.has_log or system.journaled:
            return system
        return replace(system, journaled=True)
    if name in ("majority", "replicated"):
        extra = {"replicated": True}
        if not (system.has_log or system.journaled):
            extra["journaled"] = True
        return replace(system, **extra)
    raise ConfigurationError(
        f"unknown frontier write concern {concern!r}; expected paper, "
        f"unacked, safe, journaled, replicated, or majority"
    )


# -- knee search -----------------------------------------------------------------


@dataclass
class KneeResult:
    """Outcome of one bracketed bisection for the saturation knee."""

    rate: float  # max rate whose p99 met the SLO
    p99: float  # measured p99 at that rate, seconds
    bracketed: bool  # False when no probed rate ever violated the SLO
    probes: list = field(default_factory=list)  # (rate, p99) in probe order

    @property
    def evaluations(self) -> int:
        return len(self.probes)


def find_knee(measure, slo: float, lo: float, hi: float | None = None,
              rel_tol: float = 0.05, max_doublings: int = 10,
              max_bisections: int = 24) -> KneeResult:
    """Bracketed bisection for the max rate with ``measure(rate) <= slo``.

    ``measure`` maps an arrival rate to a p99 latency in seconds (it should
    be internally memoized and seeded — the search may probe a rate once
    only, but callers reuse measurements for the report's curve).  The
    bracket starts at ``lo`` (which must meet the SLO, else
    :class:`~repro.common.errors.SloUnreachableError`) and doubles until a
    violating rate is found (or ``hi`` is given and checked directly);
    bisection then narrows to ``rel_tol`` of the passing rate.  When no
    probed rate violates the SLO the search returns the highest probed rate
    with ``bracketed=False`` — the system outran the bracket, not the SLO.
    """
    if lo <= 0:
        raise ConfigurationError(f"knee bracket lo must be > 0, got {lo:g}")
    if hi is not None and hi <= lo:
        raise ConfigurationError(
            f"knee bracket needs hi > lo, got [{lo:g}, {hi:g}]"
        )
    if rel_tol <= 0:
        raise ConfigurationError(f"rel_tol must be > 0, got {rel_tol:g}")
    if slo <= 0:
        raise ConfigurationError(f"SLO must be > 0, got {slo:g}")

    probes: list = []

    def p99(rate: float) -> float:
        value = float(measure(rate))
        probes.append((rate, value))
        return value

    value_lo = p99(lo)
    if value_lo > slo:
        raise SloUnreachableError(
            f"p99 {value_lo * 1000:.3f} ms at the lowest probed rate "
            f"{lo:g} ops/s already exceeds the {slo * 1000:g} ms SLO; "
            f"the SLO is unreachable"
        )
    best = (lo, value_lo)
    if hi is None:
        bound = lo
        for _ in range(max_doublings):
            bound *= 2.0
            value = p99(bound)
            if value > slo:
                hi = bound
                break
            best = (bound, value)
        else:
            return KneeResult(rate=best[0], p99=best[1], bracketed=False,
                              probes=probes)
    else:
        value_hi = p99(hi)
        if value_hi <= slo:
            return KneeResult(rate=hi, p99=value_hi, bracketed=False,
                              probes=probes)
    lo = best[0]
    for _ in range(max_bisections):
        if (hi - lo) <= rel_tol * lo:
            break
        mid = (lo + hi) / 2.0
        value = p99(mid)
        if value <= slo:
            lo, best = mid, (mid, value)
        else:
            hi = mid
    return KneeResult(rate=best[0], p99=best[1], bracketed=True,
                      probes=probes)


# -- sweep driver ----------------------------------------------------------------


def check_slo_window(slo_ms: float, min_window_s: float) -> None:
    """Refuse an SLO that is not well below the measured window.

    Every measured op arrives after warmup, so no probe's p99 can exceed
    its measured window, and a probe that completes nothing still reports
    a censored p99 of about 0.99 x the window.  An SLO at or above half
    the window (``min_window_s``, the window at high rates) could let such
    a probe pass, and the knee search would double past every saturated
    rate.  Raises :class:`ConfigurationError`.
    """
    if slo_ms / 1000.0 >= min_window_s / 2.0:
        raise ConfigurationError(
            f"--slo-ms {slo_ms:g} must be below half the frontier window "
            f"(--frontier-window {min_window_s:g} s): a probe that completes "
            f"nothing reports a p99 of about the window and would pass"
        )


def _point_dict(result, slo: float) -> dict:
    offered = result.offered_rate
    return {
        "offered_ops_per_s": _round(offered, 3),
        "throughput_ops_per_s": _round(result.throughput, 3),
        "mean_ms": _round(result.mean * 1000.0),
        "p50_ms": _round(result.p50 * 1000.0),
        "p95_ms": _round(result.p95 * 1000.0),
        "p99_ms": _round(result.p99 * 1000.0),
        "p999_ms": _round(result.p999 * 1000.0),
        "uncorrected_p99_ms": _round(result.uncorrected_overall_p99 * 1000.0),
        "max_dispatch_lag_ms": _round(result.max_dispatch_lag * 1000.0),
        "errors": result.error_count,
        "unfinished": result.unfinished_ops,
        "shed": result.shed_count,
        "saturated": bool(result.throughput < 0.95 * offered),
    }


def frontier_row(study, system_name: str, workload: str, *, slo_ms: float,
                 seed: int, scale: float = 1.0, measure_ops: int = 40000,
                 warmup_ops: int = 10000, min_window_s: float = 2.0,
                 concern: str | None = None, faults=None, overload=None,
                 rel_tol: float = 0.05, metrics=None) -> dict:
    """Sweep one (system, workload) cell: ladder curve plus knee search.

    Runs at full cluster scale by default: the paper's bottlenecks are
    serialization points (global lock, hot row, group-committed log) whose
    capacity does **not** shrink with the cluster, so a scaled-down testbed
    saturates in the wrong place.  Cost is bounded per run instead — each
    simulation admits ``warmup_ops + measure_ops`` expected arrivals, so
    its duration adapts to the probed rate and every probe costs about the
    same wall time whether the cell peaks at 15k or 128k ops/s.  The
    measured window never shrinks below ``min_window_s``, though: above
    saturation the backlog (and therefore the censored tail) grows with
    wall time, and a sub-second window would let an overloaded rate pass
    the SLO it cannot actually sustain.
    """
    from repro.common.rng import SeedStream
    from repro.ycsb.workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    seeds = SeedStream(seed)
    slo = slo_ms / 1000.0
    peak = study.peak_throughput(system_name, workload)
    cache: dict = {}

    def run(rate: float):
        key = round(rate, 6)
        if key not in cache:
            warmup = max(warmup_ops / rate, 0.5 * min_window_s)
            duration = warmup + max(measure_ops / rate, min_window_s)
            cache[key] = study.open_loop_point(
                system_name, workload, rate, scale=scale, duration=duration,
                warmup=warmup, faults=faults, metrics=metrics,
                overload=overload,
                seed=seeds.seed_for("frontier", system_name, workload,
                                    concern or "paper", f"{key:.6g}"),
            )
        return cache[key]

    def knee_p99(rate: float) -> float:
        # A shed op never completes: it sits at +inf in the latency
        # distribution.  Once sheds exceed the 1% that p99 can absorb,
        # the 99th percentile is unbounded and the rate fails the SLO —
        # admission control must not let a system shed its way past the
        # knee.
        result = run(rate)
        total = (result.completed_ops + result.shed_count
                 + result.unfinished_ops)
        if total and result.shed_count > 0.01 * total:
            return float("inf")
        return result.p99

    ladder = [fraction * peak for fraction in LADDER_FRACTIONS]
    points = [_point_dict(run(rate), slo) for rate in ladder]
    knee = find_knee(knee_p99, slo, lo=ladder[0], rel_tol=rel_tol)
    at_knee = run(knee.rate)
    if metrics:
        metrics.gauge(
            f"frontier.knee.{system_name}.{workload}"
        ).set(knee.rate)
    return {
        "system": system_name,
        "workload": workload,
        "concern": concern or "paper",
        "slo_ms": _round(slo_ms),
        "mva_peak_ops_per_s": _round(peak, 3),
        "points": points,
        "knee": {
            "rate_ops_per_s": _round(knee.rate, 3),
            "throughput_ops_per_s": _round(at_knee.throughput, 3),
            "p99_ms": _round(knee.p99 * 1000.0),
            "knee_over_peak": _round(knee.rate / peak if peak else 0.0, 4),
            "bracketed": knee.bracketed,
            "evaluations": knee.evaluations,
            "probes": [
                {"rate_ops_per_s": _round(rate, 3),
                 "p99_ms": _round(p99 * 1000.0),
                 "ok": bool(p99 <= slo)}
                for rate, p99 in knee.probes
            ],
        },
    }


def frontier_report(systems=None, workloads=None, *,
                    slo_ms: float = DEFAULT_SLO_MS, seed: int = 42,
                    scale: float = 1.0, measure_ops: int = 40000,
                    warmup_ops: int = 10000, min_window_s: float = 2.0,
                    concern: str | None = None, faults=None, overload=None,
                    params=None, isolation: str = "read_committed",
                    rel_tol: float = 0.05, metrics=None) -> dict:
    """Sweep systems x workloads into a ``repro-frontier/1`` report.

    ``faults`` is a fault-plan spec string (or anything
    :class:`~repro.faults.plan.FaultPlan.parse` accepts already parsed) whose
    station faults apply to every run — the frontier of a degraded cluster.
    ``concern`` re-derives every system model under a write concern (see
    :func:`apply_concern`).  Raises
    :class:`~repro.common.errors.SloUnreachableError` when any cell cannot
    meet the SLO even at the bottom of its bracket, and
    :class:`ConfigurationError` for an SLO not well below the window
    (:func:`check_slo_window`).
    """
    from repro.core.oltp import OltpStudy

    if slo_ms <= 0:
        raise ConfigurationError(f"--slo-ms must be > 0, got {slo_ms:g}")
    if measure_ops <= 0:
        raise ConfigurationError(
            f"frontier measure_ops must be > 0, got {measure_ops}"
        )
    if warmup_ops < 0:
        raise ConfigurationError(
            f"frontier warmup_ops must be >= 0, got {warmup_ops}"
        )
    if min_window_s <= 0:
        raise ConfigurationError(
            f"frontier min_window_s must be > 0, got {min_window_s:g}"
        )
    check_slo_window(slo_ms, min_window_s)
    if scale <= 0:
        raise ConfigurationError(f"frontier scale must be > 0, got {scale:g}")
    systems = tuple(systems) if systems else FRONTIER_SYSTEMS
    workloads = tuple(workloads) if workloads else FRONTIER_WORKLOADS

    models = frontier_system_models()
    unknown = sorted(set(systems) - set(models))
    if unknown:
        raise ConfigurationError(
            f"unknown frontier system(s) {', '.join(unknown)}; known: "
            f"{', '.join(sorted(models))}"
        )
    models = {name: apply_concern(models[name], concern) for name in systems}
    study = OltpStudy(params=params, isolation=isolation, systems=models)

    fault_spec = None
    station_faults = None
    if faults:
        from repro.faults.plan import FaultPlan

        plan = (FaultPlan.parse(faults, seed=seed)
                if isinstance(faults, str) else faults)
        station_faults = plan.station_faults if hasattr(
            plan, "station_faults") else list(plan)
        fault_spec = faults if isinstance(faults, str) else None

    rows = []
    for workload in workloads:
        for system in systems:
            rows.append(frontier_row(
                study, system, workload, slo_ms=slo_ms, seed=seed,
                scale=scale, measure_ops=measure_ops, warmup_ops=warmup_ops,
                min_window_s=min_window_s, concern=concern,
                faults=station_faults, overload=overload,
                rel_tol=rel_tol, metrics=metrics,
            ))
    return {
        "schema": SCHEMA,
        "scenario": {
            "systems": list(systems),
            "workloads": list(workloads),
            "slo_ms": _round(slo_ms),
            "seed": seed,
            "scale": _round(scale),
            "measure_ops": measure_ops,
            "warmup_ops": warmup_ops,
            "min_window_s": _round(min_window_s),
            "concern": concern or "paper",
            "faults": fault_spec,
            "overload": (overload.spec_string()
                         if overload is not None else None),
            "ladder": [_round(f) for f in LADDER_FRACTIONS],
            "loop": "open",
            "accounting": "intended-start",
        },
        "rows": rows,
    }


# -- validation ------------------------------------------------------------------

_POINT_REQUIRED = {
    "offered_ops_per_s": float, "throughput_ops_per_s": float,
    "mean_ms": float, "p50_ms": float, "p95_ms": float, "p99_ms": float,
    "p999_ms": float, "uncorrected_p99_ms": float,
    "max_dispatch_lag_ms": float, "errors": int, "unfinished": int,
    "shed": int, "saturated": bool,
}

_KNEE_REQUIRED = {
    "rate_ops_per_s": float, "throughput_ops_per_s": float, "p99_ms": float,
    "knee_over_peak": float, "bracketed": bool, "evaluations": int,
    "probes": list,
}

_ROW_REQUIRED = {
    "system": str, "workload": str, "concern": str, "slo_ms": float,
    "mva_peak_ops_per_s": float, "points": list, "knee": dict,
}


_SCENARIO_REQUIRED = dict.fromkeys(
    ("systems", "workloads", "slo_ms", "seed", "scale", "measure_ops",
     "warmup_ops", "loop", "accounting"), object)

_PROBE_REQUIRED = {"rate_ops_per_s": float, "p99_ms": float, "ok": bool}


def validate_frontier_report(data: dict) -> None:
    """Schema check; raises :class:`ConfigurationError` on any mismatch."""
    check_envelope(data, SCHEMA, "frontier report")
    check_fields(data, {"scenario": dict, "rows": list}, "frontier report")
    check_fields(data["scenario"], _SCENARIO_REQUIRED, "scenario")
    rows = data["rows"]
    if not rows:
        raise ConfigurationError("frontier report needs a non-empty rows list")
    for index, row in enumerate(rows):
        check_fields(row, _ROW_REQUIRED, f"row {index}")
        if not row["points"]:
            raise ConfigurationError(f"row {index} has no sweep points")
        for pi, point in enumerate(row["points"]):
            check_fields(point, _POINT_REQUIRED, f"row {index} point {pi}")
        knee = row["knee"]
        check_fields(knee, _KNEE_REQUIRED, f"row {index} knee")
        if knee["p99_ms"] > row["slo_ms"] + 1e-9:
            raise ConfigurationError(
                f"row {index} knee p99 {knee['p99_ms']:g} ms exceeds its "
                f"own SLO {row['slo_ms']:g} ms"
            )
        if not knee["probes"]:
            raise ConfigurationError(f"row {index} knee has no probes")
        for qi, probe in enumerate(knee["probes"]):
            check_fields(probe, _PROBE_REQUIRED, f"row {index} probe {qi}")


def render_frontier_report(data: dict) -> str:
    """Human-readable frontier: ASCII curves per workload plus knee tables."""
    from repro.core.figures import Series, plot_xy

    scenario = data["scenario"]
    slo_ms = scenario["slo_ms"]
    clip_ms = 5.0 * slo_ms
    lines = [
        f"frontier report  open-loop poisson arrivals  "
        f"slo p99 <= {slo_ms:g} ms  seed {scenario['seed']}  "
        f"concern {scenario['concern']}"
        + (f"  faults {scenario['faults']}" if scenario.get("faults") else "")
    ]
    workloads = scenario["workloads"]
    for workload in workloads:
        rows = [row for row in data["rows"] if row["workload"] == workload]
        if not rows:
            continue
        series = []
        for row in rows:
            pts = [
                (p["throughput_ops_per_s"], min(p["p99_ms"], clip_ms))
                for p in row["points"]
            ]
            series.append(Series.of(row["system"], pts))
        lines.append("")
        lines.append(plot_xy(
            series,
            x_label="throughput ops/s",
            y_label=f"p99 ms (clipped at {clip_ms:g})",
            title=f"Workload {workload}: latency-throughput frontier",
        ))
        header = (
            f"  {'system':14s} {'knee ops/s':>12s} {'p99@knee':>9s} "
            f"{'mva peak':>12s} {'knee/peak':>9s} {'probes':>6s} {'brk':>4s}"
        )
        lines.append(header)
        for row in rows:
            knee = row["knee"]
            lines.append(
                f"  {row['system']:14s} {knee['rate_ops_per_s']:12,.0f} "
                f"{knee['p99_ms']:7.2f}ms {row['mva_peak_ops_per_s']:12,.0f} "
                f"{knee['knee_over_peak']:9.2f} {knee['evaluations']:6d} "
                f"{'yes' if knee['bracketed'] else 'no':>4s}"
            )
    lines.append("")
    lines.append(
        "  accounting: latencies measured from intended (poisson) start "
        "times — queueing from missed departures is charged to the op "
        "(no coordinated omission)"
    )
    return "\n".join(lines)
