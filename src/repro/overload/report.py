"""The chaos-verified metastable-failure demonstration (``repro-overload/1``).

A metastable failure (Bronson et al., HotOS'21) is a self-sustaining bad
state: a *transient* trigger pushes a system at high utilization into a
retry storm, and the storm keeps the system saturated long after the
trigger clears.  This module reproduces the mechanism on the overload-aware
open-loop simulator and shows that the PR's protections break the feedback
loop:

* **scenario** — a station running at ~80% utilization; at t=20 s a 10 s
  arrival spike (2.5×) overloads it.  Clients are impatient: an op that
  has not resolved within 250 ms is resubmitted (up to 4 attempts), and
  duplicates are not cancelled — each timed-out op multiplies offered
  load;
* **unprotected arm** — no queue bound, no deadline, no retry budget: the
  spike fills the queue, every queued op times out and respawns, and
  goodput stays collapsed after the spike ends.  The trigger is gone; the
  failure is not;
* **protected arm** — bounded ``deadline-drop`` queues shed dead work, the
  end-to-end deadline kills duplicates at every hop, and the retry budget
  caps resubmits at 10% of traffic.  Goodput dips during the spike and
  recovers within seconds of it clearing.

Both arms are a pure function of the seed.  The report serializes to
deterministic JSON (sorted keys, fixed separators, trailing newline), and
:func:`render_overload_report` draws the goodput time series as ASCII so
the collapse/recovery contrast is visible in a terminal.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.envelope import check_envelope, check_fields
from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError, SimulationError
from repro.overload.policy import OverloadPolicy

SCHEMA = "repro-overload/1"

# The demo scenario: one station of 4 servers at 10 ms mean service
# (capacity 400 ops/s) offered 320 ops/s (80% utilization), with a 2.5×
# arrival spike from t=20 s to t=30 s.  At timeout 250 ms / 4 attempts the
# storm multiplies offered load up to 4× — past capacity even after the
# spike ends — which is exactly the metastable feedback loop.
DEMO_PLAN = "arrival-spike:clients@20+10x2.5"
DEMO_RATE = 320.0
DEMO_DURATION = 75.0
DEMO_WARMUP = 5.0
DEMO_SLO_S = 0.5
DEMO_SLICE_S = 1.0
DEMO_CLIENT_TIMEOUT_S = 0.25
DEMO_MAX_ATTEMPTS = 4

# Contrast thresholds: "collapsed" is goodput below half the pre-fault
# baseline; "recovered" is goodput back at 90% of baseline, sustained.
COLLAPSE_FRACTION = 0.5
RECOVERY_FRACTION = 0.9
RECOVERY_SUSTAIN_SLICES = 3


def demo_stations():
    """The calibrated single-station demo cluster."""
    from repro.ycsb.eventsim import SimStation

    return [SimStation("server", 4, {"read": 0.01})]


def _storm_policy(policy: OverloadPolicy) -> OverloadPolicy:
    """Ensure the impatient-client storm knobs are on (the demo's trigger)."""
    if policy.client_timeout_s is not None:
        return policy
    return replace(policy, client_timeout_s=DEMO_CLIENT_TIMEOUT_S,
                   max_attempts=DEMO_MAX_ATTEMPTS)


def _analyze_series(series, *, slice_s: float, warmup: float,
                    fault_start: float, fault_end: float) -> dict:
    """Baseline, collapse duration, and recovery time from a goodput series."""
    if not series:
        raise SimulationError("overload arm produced no time series")
    baseline_slices = [
        entry["good"] for entry in series
        if entry["t"] >= warmup and entry["t"] + slice_s <= fault_start
    ]
    if not baseline_slices:
        raise SimulationError(
            "no pre-fault slices to form a goodput baseline; the fault must "
            "start after the warmup"
        )
    baseline = sum(baseline_slices) / len(baseline_slices)
    post = [entry for entry in series if entry["t"] >= fault_end]

    collapsed = 0
    for entry in post:
        if baseline > 0 and entry["good"] < COLLAPSE_FRACTION * baseline:
            collapsed += 1
        else:
            break

    recovery_t = None
    need = RECOVERY_SUSTAIN_SLICES
    for i in range(len(post)):
        window = post[i:i + need]
        if len(window) < need:
            break
        if all(e["good"] >= RECOVERY_FRACTION * baseline for e in window):
            recovery_t = post[i]["t"]
            break

    return {
        "baseline_goodput": _round(baseline / slice_s),
        "collapsed_for_s": _round(collapsed * slice_s),
        "recovered": recovery_t is not None,
        "time_to_recovery_s": (
            _round(recovery_t - fault_end) if recovery_t is not None else None
        ),
    }


def run_overload_arm(policy: OverloadPolicy, *, stations=None, mix=None,
                     rate: float = DEMO_RATE, plan: str = DEMO_PLAN,
                     duration: float = DEMO_DURATION,
                     warmup: float = DEMO_WARMUP,
                     slo_s: float = DEMO_SLO_S,
                     slice_s: float = DEMO_SLICE_S,
                     seed: int = 1234, metrics=None, live=None) -> dict:
    """Run one arm of the demo and fold its series into arm analytics."""
    from repro.faults.plan import FaultPlan, StationFaults
    from repro.overload.sim import overload_open_loop

    stations = stations if stations is not None else demo_stations()
    mix = mix if mix is not None else {"read": 1.0}
    faults = StationFaults(FaultPlan.parse(plan, seed=seed).station_faults)
    windows = faults.windows
    if not windows:
        raise ConfigurationError(
            f"overload demo plan {plan!r} contains no station fault"
        )
    fault_start = min(spec.at for spec in windows)
    fault_end = min(
        duration,
        max((spec.end if spec.end > spec.at else duration)
            for spec in windows),
    )
    if fault_start <= warmup:
        raise ConfigurationError(
            "overload demo fault must start after the warmup "
            f"(fault at {fault_start:g}, warmup {warmup:g})"
        )

    result = overload_open_loop(
        stations, mix, rate, policy, duration=duration, warmup=warmup,
        seed=seed, faults=faults, metrics=metrics, live=live,
        slo_s=slo_s, series_slice=slice_s,
    )
    arm = {
        "policy": policy.spec_string(),
        "protected": policy.protected,
        "throughput": _round(result.throughput, 3),
        "goodput": _round(result.goodput, 3),
        "arrivals": result.arrivals,
        "completed_ops": result.completed_ops,
        "late_ops": result.late_ops,
        "shed": dict(result.shed),
        "shed_ops": result.shed_count,
        "resubmits": result.resubmits,
        "budget_denied": result.budget_denied,
        "duplicates": result.duplicates,
        "p99_ms": _round(result.p99 * 1000.0, 3),
        "series": result.series,
    }
    arm.update(_analyze_series(
        result.series, slice_s=slice_s, warmup=warmup,
        fault_start=fault_start, fault_end=fault_end,
    ))
    return arm


def build_overload_report(protected: dict, unprotected: dict,
                          scenario: dict) -> dict:
    """Assemble the two arms and the metastability verdict."""
    recovery = protected.get("time_to_recovery_s")
    contrast = {
        "unprotected_collapsed_for_s": unprotected["collapsed_for_s"],
        "protected_recovered": protected["recovered"],
        "protected_time_to_recovery_s": recovery,
        "goodput_ratio": _round(
            protected["goodput"] / unprotected["goodput"]
            if unprotected["goodput"] else float("inf"), 3
        ),
        # The demo's claim: the *same* transient trigger leaves the
        # unprotected system collapsed well past the trigger window while
        # the protected system comes back — a metastable failure, fixed.
        "metastable_demonstrated": bool(
            unprotected["collapsed_for_s"] >= scenario["collapse_floor_s"]
            and protected["recovered"]
        ),
    }
    return {
        "schema": SCHEMA,
        "scenario": scenario,
        "protected": protected,
        "unprotected": unprotected,
        "contrast": contrast,
    }


def overload_report(policy: OverloadPolicy | None = None, *,
                    stations=None, mix=None, rate: float = DEMO_RATE,
                    plan: str = DEMO_PLAN, duration: float = DEMO_DURATION,
                    warmup: float = DEMO_WARMUP, slo_s: float = DEMO_SLO_S,
                    slice_s: float = DEMO_SLICE_S, seed: int = 1234,
                    collapse_floor_s: float = 30.0,
                    metrics=None, live=None) -> dict:
    """The full with/without metastable demonstration.

    ``policy`` is the protected arm's configuration (defaults to the
    ``--overload`` defaults with the demo's impatient-client knobs); the
    unprotected arm is the same clients with every protection stripped.
    ``live`` (a :class:`~repro.obs.live.LiveTelemetry`) attaches to the
    protected arm, so ``--live-report`` composes with ``--overload-report``.
    """
    policy = _storm_policy(policy if policy is not None
                           else OverloadPolicy())
    kwargs = dict(stations=stations, mix=mix, rate=rate, plan=plan,
                  duration=duration, warmup=warmup, slo_s=slo_s,
                  slice_s=slice_s, seed=seed, metrics=metrics)
    protected = run_overload_arm(policy, live=live, **kwargs)
    unprotected = run_overload_arm(policy.unprotected(), **kwargs)
    scenario = {
        "plan": plan,
        "seed": seed,
        "rate_ops_per_s": _round(rate, 3),
        "duration_s": _round(duration, 3),
        "warmup_s": _round(warmup, 3),
        "slo_ms": _round(slo_s * 1000.0, 3),
        "slice_s": _round(slice_s, 3),
        "collapse_floor_s": _round(collapse_floor_s, 3),
        "stations": [
            {"name": s.name, "servers": s.servers,
             "service_ms": {c: _round(v * 1000.0, 3)
                            for c, v in sorted(s.service.items())}}
            for s in (stations if stations is not None else demo_stations())
        ],
        "client": {
            "timeout_ms": _round((policy.client_timeout_s or 0.0) * 1000.0, 3),
            "max_attempts": policy.max_attempts,
        },
    }
    return build_overload_report(protected, unprotected, scenario)


# -- validation ----------------------------------------------------------------

_REPORT_REQUIRED = {
    "scenario": dict,
    "protected": dict,
    "unprotected": dict,
    "contrast": dict,
}

_ARM_REQUIRED = {
    "policy": str,
    "protected": bool,
    "throughput": float,
    "goodput": float,
    "arrivals": int,
    "completed_ops": int,
    "late_ops": int,
    "shed": dict,
    "shed_ops": int,
    "resubmits": int,
    "budget_denied": int,
    "duplicates": int,
    "p99_ms": float,
    "series": list,
    "baseline_goodput": float,
    "collapsed_for_s": float,
    "recovered": bool,
    "time_to_recovery_s": (float, type(None)),
}

_SERIES_REQUIRED = {
    "t": float,
    "arrivals": int,
    "completions": int,
    "good": int,
    "shed": int,
    "resubmits": int,
}

_CONTRAST_REQUIRED = {
    "unprotected_collapsed_for_s": float,
    "protected_recovered": bool,
    "goodput_ratio": float,
    "metastable_demonstrated": bool,
}


def validate_overload_report(data: dict) -> None:
    """Schema check for a ``repro-overload/1`` document (raises on failure)."""
    check_envelope(data, SCHEMA, "overload report")
    check_fields(data, _REPORT_REQUIRED, "overload report")
    for arm_name in ("protected", "unprotected"):
        arm = data[arm_name]
        check_fields(arm, _ARM_REQUIRED, arm_name)
        for i, entry in enumerate(arm["series"]):
            check_fields(entry, _SERIES_REQUIRED, f"{arm_name}.series[{i}]")
    check_fields(data["contrast"], _CONTRAST_REQUIRED, "contrast")
    check_fields(data["scenario"], {"plan": str}, "scenario")


# -- rendering -----------------------------------------------------------------


_BARS = " .:-=+*#%@"


def _spark(series, key: str, peak: float) -> str:
    out = []
    for entry in series:
        value = entry[key]
        if peak <= 0:
            out.append(" ")
            continue
        level = min(len(_BARS) - 1,
                    int(round(value / peak * (len(_BARS) - 1))))
        out.append(_BARS[level])
    return "".join(out)


def render_overload_report(data: dict) -> str:
    """ASCII contrast: goodput per slice for both arms, plus the verdict."""
    scenario = data["scenario"]
    contrast = data["contrast"]
    peak = max(
        (entry["good"]
         for arm in ("protected", "unprotected")
         for entry in data[arm]["series"]),
        default=0,
    )
    lines = [
        f"metastable-failure demo  plan: {scenario['plan']}  "
        f"rate: {scenario['rate_ops_per_s']:g} ops/s  "
        f"seed: {scenario['seed']}",
        f"  goodput/slice (1 char = {scenario['slice_s']:g}s, "
        f"peak {peak:g} good ops/slice):",
    ]
    for arm_name in ("unprotected", "protected"):
        arm = data[arm_name]
        lines.append(f"  {arm_name:12s} |{_spark(arm['series'], 'good', peak)}|")
        recovery = arm["time_to_recovery_s"]
        lines.append(
            f"  {'':12s}  goodput {arm['goodput']:g} ops/s"
            f"  shed {arm['shed_ops']}  resubmits {arm['resubmits']}"
            f"  collapsed {arm['collapsed_for_s']:g}s"
            + (f"  recovered in {recovery:g}s" if arm["recovered"]
               else "  never recovered")
        )
    verdict = ("metastable failure demonstrated and fixed"
               if contrast["metastable_demonstrated"]
               else "contrast inconclusive")
    lines.append(
        f"  verdict: {verdict}  (unprotected collapsed "
        f"{contrast['unprotected_collapsed_for_s']:g}s after the trigger "
        f"cleared; goodput ratio {contrast['goodput_ratio']:g}x)"
    )
    return "\n".join(lines)
