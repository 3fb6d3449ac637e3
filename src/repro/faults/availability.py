"""The ``repro-availability/1`` report: durability cost vs. safety, measured.

One row per (system, write concern): a seeded chaos run
(:mod:`repro.faults.chaos`) drives the functional cluster through kills,
partitions, and lag spikes, then audits the acknowledged-write ledger after
full recovery.  The row records what the concern *cost* (throughput, ack
latency folded into duration, retries/backoff, seconds of unavailability)
against what it *bought* (acknowledged writes lost, whether each loss was
inside the concern's documented window, and the safety-invariant verdict).

The report serializes to deterministic JSON like ``repro-faults/1`` and
validates against a lightweight schema check so CI can gate on it.
"""

from __future__ import annotations

from repro.common.envelope import check_envelope, check_fields
from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError, FaultPlanError
from repro.faults.chaos import ChaosConfig, ChaosYcsbRun, chaos_plan
from repro.faults.retry import RetryPolicy
from repro.replication.config import ReplicationConfig
from repro.replication.writeconcern import SPECTRUM, WriteConcern
from repro.ycsb.workloads import WORKLOADS, make_key

SCHEMA = "repro-availability/1"

#: Systems an availability report covers by default.
AVAILABILITY_SYSTEMS = ("mongo-as", "mongo-cs", "sql-cs")

#: Chaos runs retry long enough to ride out an election (default timeout
#: 0.25 s: 8 attempts with capped backoff give > 2 s of budget).
CHAOS_RETRY_POLICY = RetryPolicy(
    max_attempts=8, base_backoff=0.05, backoff_cap=0.5, op_timeout=10.0
)

_ROW_REQUIRED = {
    "system": str, "concern": str, "workload": str, "operations": int,
    "attempted": int, "succeeded": int, "availability": float,
    "errors": int, "retries": int, "backoff_seconds": float,
    "duration_seconds": float, "throughput_ops_per_s": float,
    "acked_writes": int, "checked_writes": int, "lost_writes": int,
    "lost_allowed": int, "violations": int, "invariant_ok": bool,
    "loss_window_seconds": float, "unavailable_seconds": float,
    "elections": int, "failovers": int, "rolled_back_writes": int,
    "recovered_writes": int, "stale_reads": int, "plan": str,
}


def _build_chaos_cluster(system: str, shard_count: int, record_count: int,
                         replication, seed: int, tracer=None):
    if system == "mongo-as":
        from repro.docstore.cluster import MongoAsCluster

        cluster = MongoAsCluster(
            shard_count=shard_count, max_chunk_docs=10 * record_count,
            mongos_count=2, replication=replication, seed=seed,
            tracer=tracer,
        )
        chunks = 8 * shard_count
        cluster.pre_split([
            make_key(i * record_count // chunks) for i in range(1, chunks)
        ])
        return cluster
    if system == "mongo-cs":
        from repro.docstore.cluster import MongoCsCluster

        return MongoCsCluster(shard_count=shard_count,
                              replication=replication, seed=seed,
                              tracer=tracer)
    if system == "sql-cs":
        from repro.sqlstore.cluster import SqlCsCluster

        return SqlCsCluster(shard_count=shard_count,
                            mirrored=replication is not None)
    raise FaultPlanError(
        f"unknown OLTP system {system!r}; expected one of "
        f"{', '.join(AVAILABILITY_SYSTEMS)}"
    )


def availability_row(
    system: str,
    concern: WriteConcern | None,
    *,
    chaos: ChaosConfig,
    workload: str = "A",
    shard_count: int = 4,
    record_count: int = 300,
    operations: int = 500,
    replicas: int = 3,
    seed: int = 11,
    policy: RetryPolicy | None = None,
    replication: ReplicationConfig | None = None,
    tracer=None,
    live=None,
    prof=None,
    overload=None,
) -> dict:
    """Run one seeded chaos scenario and audit it into a report row.

    ``concern=None`` means the system's non-Mongo durability story: for
    ``sql-cs`` that is synchronous mirroring (concern name ``mirrored``).
    ``replication`` overrides the replica-set topology (lag, election
    timeout, member count); its concern is replaced per cell.
    """
    if workload not in WORKLOADS:
        raise FaultPlanError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    policy = policy or CHAOS_RETRY_POLICY
    if replication is not None:
        replicas = replication.replicas
    if system == "sql-cs":
        replication = replication or ReplicationConfig(
            replicas=max(replicas, 2)
        )
        concern_name = "mirrored"
        loss_window = 0.0
        plan = chaos_plan(chaos, operations, shard_count, 0, seed)
    else:
        if concern is None:
            raise ConfigurationError(
                f"system {system!r} needs a write concern"
            )
        base = replication or ReplicationConfig(replicas=replicas)
        replication = base.with_concern(concern)
        concern_name = concern.name
        loss_window = concern.loss_window
        plan = chaos_plan(chaos, operations, shard_count, replicas, seed)
    cluster = _build_chaos_cluster(
        system, shard_count, record_count, replication, seed, tracer=tracer
    )
    runner = ChaosYcsbRun(
        cluster, WORKLOADS[workload], record_count=record_count,
        operations=operations, plan=plan, policy=policy, seed=seed,
        tracer=tracer, live=live, prof=prof, overload=overload,
    )
    runner.load()
    stats = runner.run()
    audit = runner.audit()

    elections = failovers = rolled_back = recovered = stale = 0
    unavailable = 0.0
    for shard in getattr(cluster, "shards", []):
        if hasattr(shard, "elections"):
            elections += shard.elections
            rolled_back += len(shard.rolled_back)
            recovered += sum(1 for r in shard.rolled_back if r.recovered)
            stale += shard.stale_reads
            unavailable += shard.unavailable_seconds(runner.now)
        if hasattr(shard, "failovers"):
            failovers += shard.failovers
    duration = stats.duration or 1e-9
    row = {
        "system": system,
        "concern": concern_name,
        "workload": workload,
        "operations": operations,
        "attempted": stats.attempted,
        "succeeded": stats.succeeded,
        "availability": _round(stats.availability),
        "errors": stats.error_count,
        "retries": stats.retries,
        "backoff_seconds": _round(stats.backoff_seconds),
        "duration_seconds": _round(stats.duration),
        "throughput_ops_per_s": _round(stats.attempted / duration, 3),
        "acked_writes": sum(audit.acked.values()),
        "checked_writes": audit.checked,
        "lost_writes": len(audit.lost),
        "lost_allowed": audit.lost_allowed,
        "violations": len(audit.violations),
        "invariant_ok": audit.invariant_ok,
        "loss_window_seconds": _round(loss_window),
        "unavailable_seconds": _round(unavailable),
        "elections": elections,
        "failovers": failovers,
        "rolled_back_writes": rolled_back,
        "recovered_writes": recovered,
        "stale_reads": stale,
        "plan": plan.spec_string(),
    }
    if overload is not None:
        # Overload keys appear only on protected runs, so unprotected
        # report bytes stay identical to the pre-overload output.
        row.update({
            "overload": overload.spec_string(),
            "shed": stats.shed_count,
            "shed_reasons": {r: n for r, n in sorted(stats.shed.items())},
            "budget_denied": stats.budget_denied,
            "breaker_fast_failures": stats.breaker_fast_failures,
        })
    return row


def availability_report(
    systems=None,
    concerns=None,
    *,
    chaos: ChaosConfig | None = None,
    workload: str = "A",
    shard_count: int = 4,
    record_count: int = 300,
    operations: int = 500,
    replicas: int = 3,
    seed: int = 11,
    policy: RetryPolicy | None = None,
    replication: ReplicationConfig | None = None,
    tracer=None,
    overload=None,
) -> dict:
    """Sweep systems x write concerns under identical seeded chaos."""
    systems = tuple(systems) if systems else AVAILABILITY_SYSTEMS
    concerns = tuple(concerns) if concerns else SPECTRUM
    chaos = chaos or ChaosConfig()
    if replication is not None:
        replicas = replication.replicas
    rows = []
    for system in systems:
        if system == "sql-cs":
            rows.append(availability_row(
                system, None, chaos=chaos, workload=workload,
                shard_count=shard_count, record_count=record_count,
                operations=operations, replicas=replicas, seed=seed,
                policy=policy, replication=replication, tracer=tracer,
                overload=overload,
            ))
            continue
        for concern in concerns:
            rows.append(availability_row(
                system, concern, chaos=chaos, workload=workload,
                shard_count=shard_count, record_count=record_count,
                operations=operations, replicas=replicas, seed=seed,
                policy=policy, replication=replication, tracer=tracer,
                overload=overload,
            ))
    scenario_overload = (
        {"overload": overload.spec_string()} if overload is not None else {})
    return {
        "schema": SCHEMA,
        "scenario": {
            "chaos": chaos.spec_string(),
            "workload": workload,
            "shard_count": shard_count,
            "record_count": record_count,
            "operations": operations,
            "replicas": replicas,
            "seed": seed,
            **scenario_overload,
        },
        "rows": rows,
        "invariant_ok": all(row["invariant_ok"] for row in rows),
    }


_SCENARIO_REQUIRED = dict.fromkeys(
    ("chaos", "workload", "operations", "seed"), object)


def validate_availability_report(data: dict) -> None:
    """Schema check; raises :class:`ConfigurationError` on any mismatch."""
    check_envelope(data, SCHEMA, "availability report")
    check_fields(data, {"scenario": dict, "rows": list, "invariant_ok": bool},
                 "availability report")
    check_fields(data["scenario"], _SCENARIO_REQUIRED, "scenario")
    rows = data["rows"]
    if not rows:
        raise ConfigurationError("availability report needs a non-empty rows list")
    for index, row in enumerate(rows):
        check_fields(row, _ROW_REQUIRED, f"row {index}")
        if row["violations"] and row["invariant_ok"]:
            raise ConfigurationError(
                f"row {index} reports violations but claims invariant_ok"
            )
    if data["invariant_ok"] != all(r["invariant_ok"] for r in rows):
        raise ConfigurationError(
            "top-level invariant_ok disagrees with the rows"
        )


def render_availability_report(data: dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"availability report  chaos: {data['scenario']['chaos']}  "
        f"workload {data['scenario']['workload']}  "
        f"seed {data['scenario']['seed']}"
    ]
    header = (
        f"  {'system':9s} {'concern':10s} {'avail':>6s} {'err':>4s} "
        f"{'acked':>6s} {'lost':>5s} {'viol':>4s} {'downtime':>9s} "
        f"{'elect':>5s} {'ok':>3s}"
    )
    lines.append(header)
    for row in data["rows"]:
        lines.append(
            f"  {row['system']:9s} {row['concern']:10s} "
            f"{row['availability']:6.3f} {row['errors']:4d} "
            f"{row['acked_writes']:6d} {row['lost_writes']:5d} "
            f"{row['violations']:4d} {row['unavailable_seconds']:8.3f}s "
            f"{row['elections']:5d} {'yes' if row['invariant_ok'] else 'NO':>3s}"
        )
    verdict = "holds" if data["invariant_ok"] else "VIOLATED"
    lines.append(f"  safety invariant: {verdict}")
    return "\n".join(lines)
