"""``repro-compare/1``: diff two runs and *explain* the difference.

Given two documents of the same kind — ``repro-prof/1`` self-profiles or
``repro-live/1`` dashboards — this module emits a ``repro-compare/1``
report whose **attribution lines** decompose each regressed headline into
the subsystems that moved it::

    wall +38%: 71% digest.update, 22% routing, 7% unattributed

Prof reports carry per-subsystem self times on both sides, so a wall-clock
regression is attributed to them; live reports (deterministic simulation
output, not wall clock) get a totals-level diff instead.  A row is flagged
significant when it moved by 1% or more.  Every diffed number must be
finite: an infinite or NaN operand is a usage error, not a row.

Host fingerprints are diffed, never ignored: wall-clock comparisons
across differing hosts are annotated so a CPU upgrade is not mistaken
for an optimisation.
"""

from __future__ import annotations

import json
import math

from repro.common.envelope import check_envelope, check_fields
from repro.common.errors import ConfigurationError
from repro.obs.live import validate_live_report
from repro.obs.prof import validate_prof_report

SCHEMA = "repro-compare/1"

#: Input schemas this engine knows how to diff.
_SCHEMA_KINDS = {
    "repro-prof/1": "prof",
    "repro-live/1": "live",
}

#: Contributors below this share of the total delta are folded into the
#: "unattributed" remainder.
MIN_SHARE_PCT = 5.0

#: At most this many named contributors per attribution line.
MAX_CONTRIBUTORS = 4


def detect_kind(doc: dict) -> str:
    """``prof`` / ``live`` from a document's schema field."""
    if not isinstance(doc, dict):
        raise ConfigurationError("comparand must be a JSON object")
    schema = doc.get("schema")
    kind = _SCHEMA_KINDS.get(schema) if isinstance(schema, str) else None
    if kind is None:
        known = ", ".join(sorted(_SCHEMA_KINDS))
        raise ConfigurationError(
            f"cannot compare schema {schema!r} (known: {known})")
    return kind


def load_run(path: str) -> dict:
    """Load and check one comparand; any problem with it is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not JSON: {exc}") from exc
    kind = detect_kind(doc)
    try:
        if kind == "live":
            validate_live_report(doc)
        else:
            validate_prof_report(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return doc


def host_delta(a: dict | None, b: dict | None) -> list[str]:
    """Human-readable host differences (empty = same or unknown host)."""
    if not isinstance(a, dict) or not isinstance(b, dict):
        return []
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            out.append(f"{key}: {va} -> {vb}")
    return out


def _row(metric: str, a: float, b: float) -> dict:
    try:
        finite = math.isfinite(a) and math.isfinite(b)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigurationError(
            f"cannot compare {metric}: not a finite number")
    delta = b - a
    pct = round(100.0 * delta / a, 1) if a else None
    return {
        "metric": metric,
        "a": round(a, 6),
        "b": round(b, 6),
        "delta": round(delta, 6),
        "delta_pct": pct,
        "significant": pct is not None and abs(pct) >= 1.0,
    }


def _attribution(label: str, a_total: float, b_total: float,
                 a_subs: dict, b_subs: dict) -> str | None:
    """One attribution line for a regressed scalar, or None if not regressed.

    ``a_subs``/``b_subs`` map subsystem name -> self seconds.  Contributors
    are the subsystems whose self time grew, each expressed as its share of
    the total delta; whatever the counters did not capture is reported as
    ``unattributed`` rather than silently absorbed.
    """
    delta = b_total - a_total
    if a_total <= 0.0 or delta <= 0.0:
        return None
    pct = 100.0 * delta / a_total
    grew = []
    for name in set(a_subs) | set(b_subs):
        d = b_subs.get(name, 0.0) - a_subs.get(name, 0.0)
        if d > 0.0:
            grew.append((d, name))
    grew.sort(key=lambda pair: (-pair[0], pair[1]))
    parts = []
    accounted = 0.0
    for d, name in grew[:MAX_CONTRIBUTORS]:
        share = 100.0 * d / delta
        if share < MIN_SHARE_PCT:
            break
        parts.append(f"{share:.0f}% {name}")
        accounted += d
    remainder = 100.0 * (delta - accounted) / delta
    if parts and remainder >= MIN_SHARE_PCT:
        parts.append(f"{remainder:.0f}% unattributed")
    if not parts:
        parts = ["no subsystem attribution (profile both runs "
                 "with --profile to attribute)"]
    return f"{label} +{pct:.0f}%: " + ", ".join(parts)


def _prof_subs(doc: dict) -> dict:
    return {name: info.get("self_s", 0.0)
            for name, info in doc.get("subsystems", {}).items()
            if isinstance(info, dict)}


def _compare_prof(a: dict, b: dict) -> tuple[list, list, list]:
    rows, attribution, notes = [], [], []
    wall_a, wall_b = a.get("wall_s", 0.0), b.get("wall_s", 0.0)
    rows.append(_row("wall_s", wall_a, wall_b))
    subs_a, subs_b = _prof_subs(a), _prof_subs(b)
    for sub in sorted(set(subs_a) | set(subs_b)):
        rows.append(_row(f"subsystem/{sub}",
                         subs_a.get(sub, 0.0), subs_b.get(sub, 0.0)))
    for field in ("events_per_wall_s", "ops_per_wall_s",
                  "events_per_virtual_s"):
        va = a.get("throughput", {}).get(field)
        vb = b.get("throughput", {}).get(field)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            rows.append(_row(f"throughput/{field}", va, vb))
    line = _attribution("wall", wall_a, wall_b, subs_a, subs_b)
    if line is not None:
        attribution.append(line)
    if a.get("scenario") != b.get("scenario"):
        notes.append("scenarios differ: this is a cross-scenario diff, "
                     "not a regression comparison")
    return rows, attribution, notes


def _compare_live(a: dict, b: dict) -> tuple[list, list, list]:
    rows, attribution, notes = [], [], []
    ta, tb = a.get("totals", {}), b.get("totals", {})
    for field in ("throughput", "p50", "p95", "p99", "p999", "mean",
                  "ops", "errors", "censored"):
        va, vb = ta.get(field), tb.get(field)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            rows.append(_row(f"totals/{field}", float(va), float(vb)))
    p99_a, p99_b = ta.get("p99", 0.0), tb.get("p99", 0.0)
    if p99_a and p99_b > p99_a:
        pct = 100.0 * (p99_b - p99_a) / p99_a
        causes = []
        tput_a, tput_b = ta.get("throughput", 0.0), tb.get("throughput", 0.0)
        if tput_a and abs(tput_b - tput_a) / tput_a >= 0.01:
            causes.append(
                f"throughput {100.0 * (tput_b - tput_a) / tput_a:+.0f}%")
        err_delta = tb.get("errors", 0) - ta.get("errors", 0)
        if err_delta:
            causes.append(f"errors {err_delta:+d}")
        cen_delta = tb.get("censored", 0) - ta.get("censored", 0)
        if cen_delta:
            causes.append(f"censored ops {cen_delta:+d}")
        if not causes:
            causes = ["same throughput/errors: latency distribution "
                      "itself shifted"]
        attribution.append(f"p99 +{pct:.0f}%: " + ", ".join(causes))
    if a.get("scenario") != b.get("scenario"):
        notes.append("scenarios differ: this is a cross-scenario diff, "
                     "not a regression comparison")
    return rows, attribution, notes


def compare_runs(a: dict, b: dict, a_label: str = "a",
                 b_label: str = "b") -> dict:
    """Diff two same-kind documents into a ``repro-compare/1`` report.

    ``a`` is the baseline, ``b`` the candidate: positive deltas mean the
    candidate is bigger/slower.
    """
    kind_a, kind_b = detect_kind(a), detect_kind(b)
    if kind_a != kind_b:
        raise ConfigurationError(
            f"cannot compare {kind_a} against {kind_b}: "
            "both runs must share a schema")
    if kind_a == "prof":
        rows, attribution, notes = _compare_prof(a, b)
    else:
        rows, attribution, notes = _compare_live(a, b)
    hosts = host_delta(a.get("host"), b.get("host"))
    if hosts and kind_a == "prof":
        notes.append("hosts differ (" + "; ".join(hosts) +
                     "): wall-clock deltas may reflect the machine, "
                     "not the code")
    return {
        "schema": SCHEMA,
        "kind": kind_a,
        "a": {"label": a_label, "host": a.get("host")},
        "b": {"label": b_label, "host": b.get("host")},
        "rows": rows,
        "attribution": attribution,
        "notes": notes,
    }


def compare_files(a_path: str, b_path: str) -> dict:
    """Load and diff two report files (labels = the paths given)."""
    return compare_runs(load_run(a_path), load_run(b_path),
                        a_label=str(a_path), b_label=str(b_path))


_REPORT_REQUIRED = {
    "kind": str, "a": dict, "b": dict, "rows": list, "attribution": list,
    "notes": list,
}

_ROW_REQUIRED = {
    "metric": object, "a": float, "b": float, "delta": float,
    "significant": object,
}


def validate_compare_report(data: dict) -> None:
    """Schema check; raises :class:`ConfigurationError` on any mismatch."""
    check_envelope(data, SCHEMA, "compare report")
    check_fields(data, _REPORT_REQUIRED, "compare report")
    if data["kind"] not in _SCHEMA_KINDS.values():
        raise ConfigurationError(
            f"compare report kind is {data['kind']!r}")
    for side in ("a", "b"):
        check_fields(data[side], {"label": object},
                     f"compare report side {side!r}")
    for index, row in enumerate(data["rows"]):
        check_fields(row, _ROW_REQUIRED, f"row {index}")
    for field in ("attribution", "notes"):
        if any(not isinstance(item, str) for item in data[field]):
            raise ConfigurationError(
                f"compare report needs a list of strings for {field!r}")


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) >= 1.0:
        return f"{int(value)}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def render_compare_report(data: dict) -> str:
    """ASCII diff: per-metric rows, then the attribution + host notes."""
    lines = [f"run diff ({data['kind']})  "
             f"{data['a']['label']} -> {data['b']['label']}"]
    if data["rows"]:
        lines.append(f"  {'metric':<42} {'a':>12} {'b':>12} "
                     f"{'delta':>12} {'pct':>8}")
        for row in data["rows"]:
            pct = row.get("delta_pct")
            pct_s = f"{pct:+.1f}%" if pct is not None else "-"
            marker = " *" if row["significant"] else ""
            lines.append(
                f"  {row['metric']:<42} {_fmt_value(row['a']):>12} "
                f"{_fmt_value(row['b']):>12} "
                f"{_fmt_value(row['delta']):>12} {pct_s:>8}{marker}"
            )
        lines.append("  (* = significant: moved by 1% or more)")
    else:
        lines.append("  no comparable metrics")
    if data["attribution"]:
        lines.append("  attribution:")
        for line in data["attribution"]:
            lines.append(f"    {line}")
    if data["notes"]:
        lines.append("  notes:")
        for note in data["notes"]:
            lines.append(f"    {note}")
    return "\n".join(lines)
