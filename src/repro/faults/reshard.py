"""The ``repro-reshard/1`` report: elastic resharding under live traffic.

One row per system: a seeded YCSB run during which the cluster's topology
*changes* — a ``scale:shards=N`` or ``drain:shard=K`` event fires mid-stream
and a throttled :class:`~repro.docstore.reshard.MigrationEngine` moves the
data while the workload keeps running.  The row records the three-phase
story the paper's static deployments could never tell:

* **before** — steady state on the old topology;
* **during** — migration copy traffic shares the disks with foreground ops
  (the throughput dip and p99 spike), commits briefly freeze their key
  range (``ChunkMoving`` retries), routing caches go stale
  (``stale_routes``);
* **after** — steady state on the new topology (the capacity gain that
  justified the dip).

Composes with chaos (:mod:`repro.faults.chaos`): kills can land *during*
migration — including on a shard mid-commit — and the acknowledged-write
ledger is audited after recovery with per-key migration attribution, so the
row's ``invariant_ok`` certifies "no write acked at its concern was lost
mid-migration".

Range (Mongo-AS chunks) and hash (Mongo-CS / SQL-CS consistent-hash arcs)
elasticity run the same scenario, so their time-to-rebalance and dip depth
are directly comparable.  Deterministic JSON like the sibling reports.
"""

from __future__ import annotations

from repro.common.envelope import check_envelope, check_fields
from repro.common.envelope import stable_round as _round
from repro.common.errors import ConfigurationError, FaultPlanError
from repro.faults.availability import CHAOS_RETRY_POLICY
from repro.faults.chaos import ChaosConfig, ChaosYcsbRun, chaos_plan
from repro.faults.plan import TOPOLOGY_KINDS, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs.live import LiveTelemetry
from repro.replication.config import ReplicationConfig
from repro.replication.writeconcern import WriteConcern
from repro.ycsb.workloads import WORKLOADS, make_key

SCHEMA = "repro-reshard/1"

#: Systems a reshard report covers by default (range vs hash elasticity).
RESHARD_SYSTEMS = ("mongo-as", "mongo-cs", "sql-cs")

#: Telemetry slice width for phase metrics.  Window queries merge whole
#: slices, so the before/during/after boundaries are only as sharp as the
#: slice — the functional runs last a couple of logical seconds, hence
#: much finer than the dashboard default (1 s).
RESHARD_SLICE_S = 0.02

_ROW_REQUIRED = {
    "system": str, "sharding": str, "workload": str, "operations": int,
    "shards_before": int, "shards_after": int, "migrations": int,
    "migrated_docs": int, "aborted_commits": int,
    "chunk_moving_retries": int, "stale_routes": int,
    "time_to_rebalance_s": float,
    "throughput_before": float, "throughput_during": float,
    "throughput_after": float, "throughput_dip_pct": float,
    "p99_before_ms": float, "p99_during_ms": float, "p99_after_ms": float,
    "p99_spike": float, "steady_state_gain_pct": float,
    "attempted": int, "succeeded": int, "availability": float,
    "errors": int, "retries": int, "acked_writes": int,
    "checked_writes": int, "migrated_writes_checked": int,
    "lost_writes": int, "violations": int, "invariant_ok": bool,
    "plan": str,
}


class ReshardYcsbRun(ChaosYcsbRun):
    """A chaos run whose fault plan also reshapes the cluster topology.

    Beyond the inherited ledger, it owns the migration engine's end-of-run
    semantics: after the op stream (and operator recovery), outstanding
    migrations are driven to completion on the virtual clock — aborted
    commits retry until they land — and every committed handoff is noted in
    the ledger so the audit can attribute losses to migrations.
    """

    def __init__(self, *args, engine=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.engine = engine

    def topology_fire_time(self) -> float | None:
        """Logical time the first scale/drain event fired, if any."""
        for spec, at in self.fault_log:
            if spec.split(":", 1)[0] in TOPOLOGY_KINDS:
                return at
        return None

    def finish_migrations(self) -> None:
        """Drive queued/active migrations to commit and run stray cleanup."""
        if self.engine is None:
            return
        if not self.engine.idle:
            self.now = self.engine.run_to_completion(self.now)
        self._tick_cluster()  # post-flip source cleanup (deferred deletes)
        for migration in self.engine.completed:
            self.ledger.note_migration(migration.covers)

    def audit(self):
        """Recover, finish the rebalance, then check the ledger."""
        self.recover_all()
        self.finish_migrations()
        return self.ledger.audit(self.cluster.read, self._loss_event_times())


def _build_elastic_cluster(system: str, shard_count: int, record_count: int,
                           replication, seed: int, tracer=None):
    """The chaos-cluster builders, with live resharding switched on."""
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
                              tracer=tracer, elastic=True)
    if system == "sql-cs":
        from repro.sqlstore.cluster import SqlCsCluster

        return SqlCsCluster(shard_count=shard_count,
                            mirrored=replication is not None,
                            tracer=tracer, elastic=True)
    raise FaultPlanError(
        f"unknown OLTP system {system!r}; expected one of "
        f"{', '.join(RESHARD_SYSTEMS)}"
    )


def _reshard_plan(reshard: str, chaos: ChaosConfig | None, operations: int,
                  shard_count: int, replicas: int, seed: int) -> FaultPlan:
    """The topology events, optionally interleaved with seeded chaos."""
    topology = FaultPlan.parse(reshard, seed=seed)
    if not topology.topology_faults:
        raise FaultPlanError(
            f"reshard plan {reshard!r} contains no scale/drain event"
        )
    specs = list(topology.faults)
    if chaos is not None:
        specs.extend(chaos_plan(chaos, operations, shard_count,
                                replicas, seed).faults)
    specs.sort(key=lambda s: (s.at, s.kind, s.target))
    return FaultPlan(faults=tuple(specs), seed=seed)


def _phase_stats(live: LiveTelemetry, start: float, end: float) -> tuple:
    """(throughput ops/s, p99 ms) over one phase window."""
    digest = live.window(start, end)
    width = max(end - start, 1e-9)
    return digest.count / width, digest.percentile(99) * 1000.0


def reshard_row(
    system: str,
    reshard: str,
    *,
    throttle: float = 0.5,
    offered_load: float = 0.7,
    chaos: ChaosConfig | None = None,
    concern: WriteConcern | None = None,
    workload: str = "A",
    shard_count: int = 4,
    record_count: int = 300,
    operations: int = 600,
    replicas: int = 3,
    seed: int = 11,
    policy: RetryPolicy | None = None,
    replication: ReplicationConfig | None = None,
    tracer=None,
    live=None,
) -> dict:
    """Run one seeded elastic-resharding scenario into a report row.

    ``reshard`` is a fault-plan string whose scale/drain events reshape the
    topology (e.g. ``"scale:shards=6@0.3"``).  ``chaos`` layers seeded
    kills/partitions on top; ``concern``/``replication`` enable replica
    sets (Mongo) or mirroring (SQL) so the write ledger has durability
    promises to audit.
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
        if concern is not None or replication is not None:
            replication = replication or ReplicationConfig(
                replicas=max(replicas, 2))
    elif concern is not None:
        base = replication or ReplicationConfig(replicas=replicas)
        replication = base.with_concern(concern)
    # Mirrored SQL pairs fail over on shard-level kills; member-level chaos
    # only exists for Mongo replica sets.
    chaos_replicas = (replicas if system != "sql-cs"
                      and replication is not None else 0)
    plan = _reshard_plan(reshard, chaos, operations, shard_count,
                         chaos_replicas, seed)
    cluster = _build_elastic_cluster(
        system, shard_count, record_count, replication, seed, tracer=tracer
    )
    engine = cluster.attach_reshard(throttle=throttle,
                                    offered_load=offered_load)
    live = live or LiveTelemetry(slice_s=RESHARD_SLICE_S)
    runner = ReshardYcsbRun(
        cluster, WORKLOADS[workload], record_count=record_count,
        operations=operations, plan=plan, policy=policy, seed=seed,
        tracer=tracer, live=live, engine=engine,
    )
    runner.load()
    stats = runner.run()
    stream_end = runner.now
    audit = runner.audit()

    t0 = runner.topology_fire_time()
    if t0 is None:
        raise FaultPlanError(
            f"reshard plan {reshard!r} never fired within {operations} ops"
        )
    committed_in_stream = (engine.completed_at is not None
                           and engine.completed_at < stream_end)
    t1 = engine.completed_at if committed_in_stream else stream_end
    tput_before, p99_before = _phase_stats(live, 0.0, t0)
    tput_during, p99_during = _phase_stats(live, t0, t1)
    tput_after, p99_after = _phase_stats(live, t1, stream_end)
    dip_pct = (100.0 * (tput_before - tput_during) / tput_before
               if tput_before > 0 else 0.0)
    spike = p99_during / p99_before if p99_before > 0 else 0.0
    gain_pct = (100.0 * (tput_after - tput_before) / tput_before
                if tput_before > 0 and tput_after > 0 else 0.0)
    shards_after = len(cluster.shards) - len(cluster.retired_shards)
    return {
        "system": system,
        "sharding": "range" if system == "mongo-as" else "hash",
        "workload": workload,
        "operations": operations,
        "shards_before": shard_count,
        "shards_after": shards_after,
        "migrations": engine.migrations,
        "migrated_docs": engine.moved_docs,
        "aborted_commits": engine.aborted_commits,
        "chunk_moving_retries": stats.chunk_moving_retries,
        "stale_routes": int(getattr(cluster, "stale_routes", 0)),
        "time_to_rebalance_s": _round(engine.time_to_rebalance or 0.0),
        "throughput_before": _round(tput_before, 3),
        "throughput_during": _round(tput_during, 3),
        "throughput_after": _round(tput_after, 3),
        "throughput_dip_pct": _round(dip_pct, 3),
        "p99_before_ms": _round(p99_before, 6),
        "p99_during_ms": _round(p99_during, 6),
        "p99_after_ms": _round(p99_after, 6),
        "p99_spike": _round(spike, 6),
        "steady_state_gain_pct": _round(gain_pct, 3),
        "attempted": stats.attempted,
        "succeeded": stats.succeeded,
        "availability": _round(stats.availability),
        "errors": stats.error_count,
        "retries": stats.retries,
        "acked_writes": sum(audit.acked.values()),
        "checked_writes": audit.checked,
        "migrated_writes_checked": audit.migrated_checked,
        "lost_writes": len(audit.lost),
        "violations": len(audit.violations),
        "invariant_ok": audit.invariant_ok,
        "plan": plan.spec_string(),
    }


def reshard_report(
    systems=None,
    reshard: str = "scale:shards=6@0.3",
    *,
    throttle: float = 0.5,
    offered_load: float = 0.7,
    chaos: ChaosConfig | None = None,
    concern: WriteConcern | None = None,
    workload: str = "A",
    shard_count: int = 4,
    record_count: int = 300,
    operations: int = 600,
    replicas: int = 3,
    seed: int = 11,
    policy: RetryPolicy | None = None,
    replication: ReplicationConfig | None = None,
    tracer=None,
) -> dict:
    """Run the same elastic-resharding scenario across systems."""
    systems = tuple(systems) if systems else RESHARD_SYSTEMS
    rows = [
        reshard_row(
            system, reshard, throttle=throttle, offered_load=offered_load,
            chaos=chaos, concern=concern, workload=workload,
            shard_count=shard_count, record_count=record_count,
            operations=operations, replicas=replicas, seed=seed,
            policy=policy, replication=replication, tracer=tracer,
        )
        for system in systems
    ]
    return {
        "schema": SCHEMA,
        "scenario": {
            "reshard": reshard,
            "throttle": throttle,
            "chaos": chaos.spec_string() if chaos else None,
            "concern": concern.name if concern else None,
            "workload": workload,
            "shard_count": shard_count,
            "record_count": record_count,
            "operations": operations,
            "seed": seed,
        },
        "rows": rows,
        "invariant_ok": all(row["invariant_ok"] for row in rows),
    }


_SCENARIO_REQUIRED = dict.fromkeys(
    ("reshard", "throttle", "workload", "operations", "seed"), object)


def validate_reshard_report(data: dict) -> None:
    """Schema check; raises :class:`ConfigurationError` on any mismatch."""
    check_envelope(data, SCHEMA, "reshard report")
    check_fields(data, {"scenario": dict, "rows": list, "invariant_ok": bool},
                 "reshard report")
    check_fields(data["scenario"], _SCENARIO_REQUIRED, "scenario")
    rows = data["rows"]
    if not rows:
        raise ConfigurationError("reshard report needs a non-empty rows list")
    for index, row in enumerate(rows):
        check_fields(row, _ROW_REQUIRED, f"row {index}")
        if row["sharding"] not in ("range", "hash"):
            raise ConfigurationError(
                f"row {index} sharding must be range or hash"
            )
        if row["migrations"] < 1:
            raise ConfigurationError(
                f"row {index} reports no migrations — the topology event "
                "never moved data"
            )
        if row["violations"] and row["invariant_ok"]:
            raise ConfigurationError(
                f"row {index} reports violations but claims invariant_ok"
            )
    if data["invariant_ok"] != all(r["invariant_ok"] for r in rows):
        raise ConfigurationError(
            "top-level invariant_ok disagrees with the rows"
        )


def render_reshard_report(data: dict) -> str:
    """Human-readable table for the CLI."""
    scenario = data["scenario"]
    chaos = scenario.get("chaos") or "none"
    lines = [
        f"reshard report  plan: {scenario['reshard']}  "
        f"throttle {scenario['throttle']:g}  chaos: {chaos}  "
        f"workload {scenario['workload']}  seed {scenario['seed']}"
    ]
    header = (
        f"  {'system':9s} {'shard':6s} {'N':>5s} {'moves':>5s} "
        f"{'docs':>6s} {'dip%':>6s} {'p99x':>6s} {'gain%':>6s} "
        f"{'t_rebal':>8s} {'bounce':>6s} {'viol':>4s} {'ok':>3s}"
    )
    lines.append(header)
    for row in data["rows"]:
        shards = f"{row['shards_before']}->{row['shards_after']}"
        lines.append(
            f"  {row['system']:9s} {row['sharding']:6s} {shards:>5s} "
            f"{row['migrations']:5d} {row['migrated_docs']:6d} "
            f"{row['throughput_dip_pct']:6.1f} {row['p99_spike']:6.2f} "
            f"{row['steady_state_gain_pct']:6.1f} "
            f"{row['time_to_rebalance_s']:7.3f}s "
            f"{row['chunk_moving_retries']:6d} {row['violations']:4d} "
            f"{'yes' if row['invariant_ok'] else 'NO':>3s}"
        )
    verdict = "holds" if data["invariant_ok"] else "VIOLATED"
    lines.append(f"  write-safety invariant across migration: {verdict}")
    return "\n".join(lines)
