"""Fixed-vs-variable overhead decomposition across scale factors.

The paper's growth-factor argument (Sections 4.2–4.3): Hive's runtimes grow
by *less* than the scale factor because a large fixed cost — job submission
overhead, map-task startup, single-round reduce phases, empty bucket files —
amortizes as the data grows, while PDW's runtimes track (or exceed, at the
buffer-pool cliff) the data growth because its fixed share was never large.

This module derives that mechanically from traced runs: each query is traced
at SFs {250, 1000, 4000, 16000}, its phase spans are grouped into stable
phase keys, and every phase's runtime is least-squares-fitted to

    t(sf) = fixed + per_sf * sf        (fixed clamped at >= 0)

The per-query report then gives the fixed-seconds total, the fixed *share*
of each SF's runtime, and the measured growth factors — reproducing the
paper's table and its explanation as data rather than assertion.

Schema ``repro-decompose/1``; deterministic JSON as everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError

SCHEMA = "repro-decompose/1"

DEFAULT_SFS = (250.0, 1000.0, 4000.0, 16000.0)


def fit_fixed_variable(points: list) -> tuple:
    """Least-squares ``t = fixed + per_sf * sf`` over ``(sf, t)`` points.

    The intercept is clamped at zero (a negative fixed cost is unphysical —
    it appears when a phase grows *super*linearly, e.g. PDW scans falling
    off the buffer-pool cliff); the slope is then refitted through the
    origin.  With a single point everything is slope.
    """
    if not points:
        return 0.0, 0.0
    if len(points) == 1:
        sf, t = points[0]
        return 0.0, t / sf if sf else 0.0
    n = len(points)
    sum_x = sum(sf for sf, _ in points)
    sum_y = sum(t for _, t in points)
    sum_xx = sum(sf * sf for sf, _ in points)
    sum_xy = sum(sf * t for sf, t in points)
    denom = n * sum_xx - sum_x * sum_x
    if abs(denom) < 1e-12:
        return 0.0, (sum_y / sum_x if sum_x else 0.0)
    slope = (n * sum_xy - sum_x * sum_y) / denom
    intercept = (sum_y - slope * sum_x) / n
    if intercept < 0.0:
        intercept = 0.0
        slope = sum_xy / sum_xx if sum_xx else 0.0
    if slope < 0.0:
        # A genuinely flat phase (pure fixed cost): all intercept.
        return sum_y / n, 0.0
    return intercept, slope


def _phase_key(name: str) -> str:
    """Stable phase identity across SFs (mapjoin fallbacks rename jobs)."""
    return name.replace(".backup", "")


def phase_times(tracer, engine: str) -> dict:
    """Per-phase seconds of one traced DSS query, keyed stably.

    Hive: one key per ``job.phase`` span (``agg.q1.agg.map`` ...).  PDW: one
    key per step plus a ``plan`` pseudo-phase for the pre-step overhead.
    """
    out: dict[str, float] = {}
    if engine == "hive":
        for span in tracer.find(cat="phase", node="hive"):
            key = _phase_key(span.name)
            out[key] = out.get(key, 0.0) + span.duration
        return out
    if engine == "pdw":
        queries = tracer.find(cat="query", node="pdw")
        steps = tracer.find(cat="step", node="pdw")
        if queries and steps:
            out["plan"] = steps[0].start - queries[0].start
        elif queries:
            out["plan"] = queries[0].duration
        for span in steps:
            key = _phase_key(span.name)
            out[key] = out.get(key, 0.0) + span.duration
        return out
    raise ConfigurationError(
        f"decomposition knows engines hive and pdw, not {engine!r}"
    )


@dataclass
class QueryDecomposition:
    """One (engine, query) fitted across scale factors."""

    engine: str
    number: int
    sfs: list = field(default_factory=list)  # SFs actually measured
    skipped_sfs: list = field(default_factory=list)  # e.g. Hive out of space
    totals: dict = field(default_factory=dict)  # sf -> measured seconds
    phases: dict = field(default_factory=dict)  # key -> {fixed, per_sf}

    @property
    def fixed_seconds(self) -> float:
        return sum(p["fixed"] for p in self.phases.values())

    def fixed_share(self, sf: float) -> float:
        total = self.totals.get(sf)
        if not total:
            return 0.0
        return min(1.0, self.fixed_seconds / total)

    def growth_factors(self) -> dict:
        out = {}
        ordered = sorted(self.sfs)
        for lo, hi in zip(ordered, ordered[1:]):
            out[f"{lo:g}->{hi:g}"] = (
                self.totals[hi] / self.totals[lo] if self.totals.get(lo) else 0.0
            )
        return out

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "query": self.number,
            "sfs": [float(sf) for sf in self.sfs],
            "skipped_sfs": [float(sf) for sf in self.skipped_sfs],
            "totals": {f"{sf:g}": _round(t) for sf, t in sorted(self.totals.items())},
            "phases": {
                key: {"fixed": _round(p["fixed"]),
                      "per_sf": _round(p["per_sf"], 9)}
                for key, p in sorted(self.phases.items())
            },
            "fixed_seconds": _round(self.fixed_seconds),
            "fixed_share": {
                f"{sf:g}": _round(self.fixed_share(sf), 4)
                for sf in sorted(self.sfs)
            },
            "growth_factors": {
                key: _round(value, 4)
                for key, value in self.growth_factors().items()
            },
        }


def decompose_query(engine: str, number: int, runs: dict) -> QueryDecomposition:
    """Fit one query from ``{sf: tracer}`` traced runs (missing SFs skipped)."""
    measured = {sf: tracer for sf, tracer in runs.items() if tracer is not None}
    if not measured:
        raise ConfigurationError(
            f"decomposition of {engine} q{number} has no completed runs"
        )
    per_sf_phases = {
        sf: phase_times(tracer, engine) for sf, tracer in measured.items()
    }
    keys = sorted({key for phases in per_sf_phases.values() for key in phases})
    out = QueryDecomposition(
        engine=engine, number=number,
        sfs=sorted(measured),
        skipped_sfs=sorted(sf for sf in runs if runs[sf] is None),
    )
    for sf, phases in sorted(per_sf_phases.items()):
        out.totals[sf] = sum(phases.values())
    for key in keys:
        points = [(sf, per_sf_phases[sf].get(key, 0.0))
                  for sf in sorted(per_sf_phases)]
        fixed, per_sf = fit_fixed_variable(points)
        out.phases[key] = {"fixed": fixed, "per_sf": per_sf}
    return out


@dataclass
class DecompositionReport:
    """All (engine, query) decompositions of one study, JSON-serializable."""

    sfs: list = field(default_factory=list)
    queries: list = field(default_factory=list)  # QueryDecomposition

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "sfs": [float(sf) for sf in self.sfs],
            "queries": [q.to_dict() for q in self.queries],
        }

    def find(self, engine: str, number: int) -> QueryDecomposition:
        for q in self.queries:
            if q.engine == engine and q.number == number:
                return q
        raise KeyError(f"no decomposition for {engine} q{number}")


def render_decomposition(report: DecompositionReport) -> str:
    """The growth-factor table, with the fixed-share explanation alongside."""
    lines = ["fixed-vs-variable decomposition "
             f"(SFs {', '.join(f'{sf:g}' for sf in report.sfs)})"]
    header = (f"  {'engine':<6} {'query':<6} {'fixed s':>9} "
              + " ".join(f"{'share@' + format(sf, 'g'):>12}"
                         for sf in report.sfs)
              + "  growth factors")
    lines.append(header)
    for q in report.queries:
        shares = " ".join(
            f"{q.fixed_share(sf):>12.1%}" if sf in q.totals else f"{'DNF':>12}"
            for sf in report.sfs
        )
        growth = ", ".join(f"{k}: {v:.2f}x"
                           for k, v in q.growth_factors().items())
        lines.append(
            f"  {q.engine:<6} q{q.number:<5} {q.fixed_seconds:>9.1f} "
            f"{shares}  {growth}"
        )
    lines.append(
        "  (a shrinking fixed share with SF is the paper's amortization "
        "argument; growth factors below the SF ratio follow from it)"
    )
    return "\n".join(lines)
