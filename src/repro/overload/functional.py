"""Overload protection on the functional clusters: breaker cells.

The event simulator (:mod:`repro.overload.sim`) demonstrates the queueing
side of graceful degradation; this module demonstrates the *client* side on
the functional clusters.  A :func:`functional_overload_cell` runs the same
shard-fault plan twice through :class:`~repro.faults.runner.FaultedYcsbRun`
— once with the overload policy's retry budget and per-shard circuit
breakers, once without — and reports what the protection bought:

* **backoff burned**: an unprotected client retries every op routed to the
  dead shard through the full backoff schedule; breakers fail those ops
  fast after the trip threshold, so backoff seconds collapse;
* **breaker life cycle**: the per-shard closed → open → (half-open → …)
  transition log, on the run's logical clock;
* **shed accounting**: ops rejected by an open breaker or a dry retry
  budget, by reason, kept out of the latency mean but inside the error
  rate.

Availability barely moves — a dead shard's ops fail either way — which is
the point: breakers change *how much the client pays* to learn the same
answer, not the answer itself.
"""

from __future__ import annotations

from repro.common.envelope import stable_round as _round
from repro.common.errors import FaultPlanError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.runner import FaultedYcsbRun
from repro.overload.policy import OverloadPolicy
from repro.ycsb.workloads import WORKLOADS


def _arm_dict(stats) -> dict:
    return {
        "attempted": stats.attempted,
        "succeeded": stats.succeeded,
        "availability": _round(stats.availability),
        "errors": {cls: n for cls, n in sorted(stats.errors.items())},
        "retries": stats.retries,
        "backoff_seconds": _round(stats.backoff_seconds),
        "duration_seconds": _round(stats.duration),
        "shed": {reason: n for reason, n in sorted(stats.shed.items())},
        "budget_denied": stats.budget_denied,
        "breaker_fast_failures": stats.breaker_fast_failures,
        "breakers": stats.breakers,
        "error_rate": _round(
            (stats.error_count + stats.shed_count) / stats.attempted
            if stats.attempted else 0.0
        ),
    }


def functional_overload_cell(
    plan: FaultPlan,
    overload: OverloadPolicy,
    *,
    system: str = "mongo-as",
    workload: str = "A",
    shard_count: int = 8,
    record_count: int = 2000,
    operations: int = 4000,
    policy: RetryPolicy | None = None,
    replication=None,
    metrics=None,
) -> dict:
    """One protected-vs-unprotected cell on a functional cluster.

    ``plan`` must contain at least one shard-level fault (``kill-shard``
    is the canonical trigger).  Both arms replay the identical op stream
    (same seed, same plan); the only difference is whether the client's
    retry loop consults the budget and the breakers.
    """
    from repro.faults.report import _build_cluster

    if workload not in WORKLOADS:
        raise FaultPlanError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    if not (plan.shard_faults or plan.member_faults):
        raise FaultPlanError(
            "functional overload cell needs at least one shard-level fault "
            "(e.g. kill-shard:0@0.3)"
        )
    policy = policy or RetryPolicy()
    spec = WORKLOADS[workload]
    seed = plan.seed or 7

    def run(with_overload) -> object:
        cluster = _build_cluster(system, shard_count, record_count,
                                 replication=replication, seed=seed)
        runner = FaultedYcsbRun(
            cluster, spec, record_count=record_count, operations=operations,
            plan=plan, policy=policy, seed=seed, metrics=metrics,
            overload=with_overload,
        )
        runner.load()
        return runner.run()

    unprotected = run(None)
    protected = run(overload)
    unprotected_d = _arm_dict(unprotected)
    protected_d = _arm_dict(protected)
    saved = unprotected.backoff_seconds - protected.backoff_seconds
    return {
        "scenario": {
            "plan": plan.spec_string(),
            "seed": seed,
            "system": system,
            "workload": workload,
            "shard_count": shard_count,
            "record_count": record_count,
            "operations": operations,
            "overload": overload.spec_string(),
        },
        "unprotected": unprotected_d,
        "protected": protected_d,
        "contrast": {
            "backoff_saved_seconds": _round(saved),
            "backoff_ratio": _round(
                protected.backoff_seconds / unprotected.backoff_seconds
                if unprotected.backoff_seconds else 1.0, 3
            ),
            "availability_delta": _round(
                protected.availability - unprotected.availability
            ),
            "breaker_trips": sum(
                1
                for shard in protected.breakers.values()
                for _at, state in shard["transitions"]
                if state == "open"
            ),
        },
    }
