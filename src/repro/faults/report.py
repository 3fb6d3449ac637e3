"""Degraded-mode reports: healthy vs. faulted runs, side by side.

The paper's fault-tolerance discussion is qualitative (Section 2: MapReduce
restarts a task, a parallel DBMS restarts the query; Section 3.4.1: MongoDB
ran without replica sets).  This module makes it quantitative:

* :func:`dss_fault_report` injects one node fault into a TPC-H query and
  compares Hive's task-level recovery against PDW's whole-query restart —
  the headline number is the *amplification ratio* (PDW's delay over
  Hive's);
* :func:`oltp_fault_report` runs a YCSB workload while shards die (the
  functional clusters) or stations degrade (the event simulator) and
  reports availability, error/retry counts, backoff cost, and p95
  inflation.

Reports serialize to deterministic JSON (sorted keys, fixed separators, no
wall-clock anything): the same seed and plan always produce byte-identical
output, which the determinism test suite locks in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.envelope import stable_round as _round
from repro.common.errors import FaultPlanError
from repro.faults.plan import MEMBER_KINDS, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.runner import FaultedYcsbRun
from repro.ycsb.workloads import WORKLOADS, make_key

SCHEMA = "repro-faults/1"


@dataclass
class FaultReport:
    """One healthy-vs-faulted comparison, JSON-serializable."""

    kind: str  # "dss" | "oltp"
    scenario: dict = field(default_factory=dict)
    healthy: dict = field(default_factory=dict)
    faulted: dict = field(default_factory=dict)
    comparison: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "scenario": self.scenario,
            "healthy": self.healthy,
            "faulted": self.faulted,
            "comparison": self.comparison,
        }


def render_fault_report(report: FaultReport) -> str:
    """Human-readable summary block for the CLI."""
    lines = [f"fault report [{report.kind}]  plan: {report.scenario.get('plan', '')}"]
    for section in ("healthy", "faulted"):
        data = getattr(report, section)
        pairs = ", ".join(
            f"{key}={value}" for key, value in sorted(data.items())
            if not isinstance(value, (dict, list))
        )
        lines.append(f"  {section:8s} {pairs}")
    for key, value in sorted(report.comparison.items()):
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


# -- DSS: Hive task recovery vs. PDW query restart -----------------------------


def dss_fault_report(study, number: int, scale_factor: float,
                     plan: FaultPlan, tracer=None, metrics=None,
                     sampler=None) -> FaultReport:
    """Inject one node fault into TPC-H query ``number`` on both DSS engines.

    ``study`` is a :class:`repro.core.dss.DssStudy` (anything with ``.hive``
    and ``.pdw`` engines works).  The plan must contain exactly one ``crash``
    or ``straggler`` fault; both engines receive the *same* fault, so the
    comparison isolates the recovery semantics.
    """
    node_faults = plan.of_kind("crash", "straggler")
    if len(node_faults) != 1:
        raise FaultPlanError(
            "DSS fault report needs exactly one crash or straggler fault "
            f"(got {len(node_faults)})"
        )
    fault = node_faults[0]

    hive = study.hive.run_query_faulted(
        number, scale_factor, fault,
        tracer=tracer, metrics=metrics, sampler=sampler,
    )
    pdw = study.pdw.run_query_faulted(
        number, scale_factor, fault,
        tracer=tracer, metrics=metrics, sampler=sampler,
    )

    hive_delay = hive.delay
    pdw_delay = pdw.delay
    report = FaultReport(
        kind="dss",
        scenario={
            "plan": plan.spec_string(),
            "seed": plan.seed,
            "query": number,
            "scale_factor": scale_factor,
            "fault": fault.to_dict(),
        },
        healthy={
            "hive_seconds": _round(hive.healthy.total_time),
            "pdw_seconds": _round(pdw.healthy.total_time),
        },
        faulted={
            "hive_seconds": _round(hive.faulted_total),
            "pdw_seconds": _round(pdw.faulted_total),
            "hive_killed_attempts": hive.killed_attempts,
            "hive_reexecuted_tasks": hive.reexecuted_tasks,
            "hive_speculative_copies": hive.speculative_copies,
            "hive_affected_jobs": list(hive.affected_jobs),
            "pdw_query_restarts": pdw.restarts,
        },
        comparison={
            "hive_delay_seconds": _round(hive_delay),
            "pdw_delay_seconds": _round(pdw_delay),
            # Re-execution cost: slot-seconds Hive burned on attempts whose
            # output was discarded.  Restart cost: seconds of PDW progress
            # thrown away by the abort.
            "hive_reexecution_cost_seconds": _round(hive.wasted_task_seconds),
            "pdw_query_restart_cost_seconds": _round(pdw.wasted_seconds),
            "amplification_ratio": _round(
                pdw_delay / hive_delay if hive_delay > 0 else float("inf"), 3
            ),
        },
    )
    return report


# -- OLTP: shard kills (functional) and station faults (event sim) -------------

_CLUSTERS = ("mongo-as", "mongo-cs", "sql-cs")


def _build_cluster(system: str, shard_count: int, record_count: int,
                   replication=None, seed: int = 0):
    """A small functional cluster with keys spread evenly across shards.

    ``replication`` (a :class:`repro.replication.config.ReplicationConfig`)
    turns every Mongo shard into a replica set and every SQL Server node
    into a mirrored pair; ``None`` keeps the paper's bare deployments.
    """
    if system == "mongo-as":
        from repro.docstore.cluster import MongoAsCluster

        cluster = MongoAsCluster(shard_count=shard_count,
                                 max_chunk_docs=10 * record_count,
                                 mongos_count=2,
                                 replication=replication, seed=seed)
        # Pre-split so each shard owns ~1/shard_count of the key range (the
        # paper's load strategy, §3.4.2); chunks round-robin across shards.
        chunks = 8 * shard_count
        boundaries = [
            make_key(i * record_count // chunks) for i in range(1, chunks)
        ]
        cluster.pre_split(boundaries)
        return cluster
    if system == "mongo-cs":
        from repro.docstore.cluster import MongoCsCluster

        return MongoCsCluster(shard_count=shard_count,
                              replication=replication, seed=seed)
    if system == "sql-cs":
        from repro.sqlstore.cluster import SqlCsCluster

        return SqlCsCluster(shard_count=shard_count,
                            mirrored=replication is not None)
    raise FaultPlanError(
        f"unknown OLTP system {system!r}; expected one of {', '.join(_CLUSTERS)}"
    )


def _stats_dict(stats) -> dict:
    out = {
        "attempted": stats.attempted,
        "succeeded": stats.succeeded,
        "availability": _round(stats.availability),
        "errors": {cls: count for cls, count in sorted(stats.errors.items())},
        "retries": stats.retries,
        "backoff_seconds": _round(stats.backoff_seconds),
        "duration_seconds": _round(stats.duration),
        "p95_ms": {
            cls: _round(histogram.percentile(95) * 1000.0, 3)
            for cls, histogram in sorted(stats.histograms.items())
        },
        "mean_ms": {
            cls: _round(histogram.mean * 1000.0, 3)
            for cls, histogram in sorted(stats.histograms.items())
        },
    }
    return out


def oltp_fault_report(plan: FaultPlan, workload: str = "A",
                      system: str = "mongo-as", shard_count: int = 8,
                      record_count: int = 2000, operations: int = 4000,
                      policy: RetryPolicy | None = None,
                      target: float = 40_000.0, duration: float = 120.0,
                      study=None, replication=None,
                      tracer=None, metrics=None, sampler=None) -> FaultReport:
    """YCSB under faults: availability and latency degradation.

    Two scenario families, chosen by the plan's contents:

    * **shard faults** (``kill-shard`` / ``restart-shard``) run the
      *functional* path: a real (scaled-down) cluster — Mongo-AS by default
      — driven by :class:`~repro.faults.runner.FaultedYcsbRun` with
      retry/backoff.  Killing 1 of ``shard_count`` shards under workload A
      yields ~``1/shard_count`` unavailability, because the paper's
      deployment had no replica sets.
    * **station faults** (``disk-stall`` / ``net-spike`` / ``op-error`` /
      ``crash``) re-measure one figure point on the event simulator
      (``study`` defaults to a fresh :class:`repro.core.oltp.OltpStudy`)
      with the fault windows applied to the named stations.
    """
    if workload not in WORKLOADS:
        raise FaultPlanError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    shard_faults = plan.shard_faults + plan.member_faults
    station_faults = plan.station_faults
    if shard_faults and station_faults:
        raise FaultPlanError(
            "mix of shard-level and station-level faults; run them as "
            "separate plans"
        )
    if not shard_faults and not station_faults:
        raise FaultPlanError("OLTP fault report needs at least one fault")

    if shard_faults:
        if plan.member_faults and replication is None:
            raise FaultPlanError(
                "member-level faults need --replication (the paper's bare "
                "deployments have no replica-set members to target)"
            )
        for fault in shard_faults:
            if fault.kind in MEMBER_KINDS:
                index, _member = fault.member_target()
            else:
                index = fault.target_index()
            if not 0 <= index < shard_count:
                raise FaultPlanError(
                    f"fault targets shard {index}, cluster has {shard_count}"
                )
        policy = policy or RetryPolicy()
        spec = WORKLOADS[workload]

        def run(with_plan: FaultPlan) -> object:
            cluster = _build_cluster(system, shard_count, record_count,
                                     replication=replication,
                                     seed=plan.seed or 7)
            runner = FaultedYcsbRun(
                cluster, spec, record_count=record_count,
                operations=operations, plan=with_plan, policy=policy,
                seed=plan.seed or 7,
                tracer=tracer if with_plan else None,
                metrics=metrics if with_plan else None,
            )
            runner.load()
            return runner.run()

        healthy = run(FaultPlan())
        faulted = run(plan)
        healthy_d = _stats_dict(healthy)
        faulted_d = _stats_dict(faulted)
        comparison = {
            "availability_drop": _round(
                healthy.availability - faulted.availability
            ),
            "error_rate": _round(faulted.error_count / faulted.attempted),
            "retried_ops": faulted.retries,
            "backoff_seconds": _round(faulted.backoff_seconds),
            "p95_inflation": {
                cls: _round(
                    faulted_d["p95_ms"][cls] / healthy_d["p95_ms"][cls], 3
                )
                for cls in sorted(faulted_d["p95_ms"])
                if healthy_d["p95_ms"].get(cls, 0.0) > 0.0
            },
        }
        scenario = {
            "plan": plan.spec_string(),
            "seed": plan.seed,
            "mode": "functional",
            "system": system,
            "workload": workload,
            "shard_count": shard_count,
            "record_count": record_count,
            "operations": operations,
            "replication": (replication.spec_string()
                            if replication is not None else "off"),
            "retry_policy": {
                "max_attempts": policy.max_attempts,
                "base_backoff": policy.base_backoff,
                "backoff_cap": policy.backoff_cap,
                "op_timeout": policy.op_timeout,
            },
        }
        return FaultReport(kind="oltp", scenario=scenario,
                           healthy=healthy_d, faulted=faulted_d,
                           comparison=comparison)

    # Station faults: event-simulation path.
    if study is None:
        from repro.core.oltp import OltpStudy

        study = OltpStudy()
    seed = plan.seed or 1234
    _point, healthy_sim = study.event_sim_point(
        system, workload, target, duration=duration, seed=seed,
    )
    _point, faulted_sim = study.event_sim_point(
        system, workload, target, duration=duration, seed=seed,
        tracer=tracer, metrics=metrics, sampler=sampler,
        faults=station_faults, retry_policy=policy,
    )

    def sim_dict(sim) -> dict:
        return {
            "throughput": _round(sim.throughput, 3),
            "completed_ops": sim.completed_ops,
            "availability": _round(sim.availability),
            "errors": {c: n for c, n in sorted(sim.errors.items())},
            "retried_ops": sim.retried_ops,
            "backoff_seconds": _round(sim.backoff_seconds),
            "p95_ms": {
                c: _round(v * 1000.0, 3)
                for c, v in sorted(sim.latency_p95.items())
            },
        }

    healthy_d = sim_dict(healthy_sim)
    faulted_d = sim_dict(faulted_sim)
    comparison = {
        "throughput_ratio": _round(
            faulted_sim.throughput / healthy_sim.throughput
            if healthy_sim.throughput else 0.0, 3
        ),
        "availability_drop": _round(
            healthy_sim.availability - faulted_sim.availability
        ),
        "retried_ops": faulted_sim.retried_ops,
        "backoff_seconds": _round(faulted_sim.backoff_seconds),
        "p95_inflation": {
            cls: _round(
                faulted_d["p95_ms"][cls] / healthy_d["p95_ms"][cls], 3
            )
            for cls in sorted(faulted_d["p95_ms"])
            if healthy_d["p95_ms"].get(cls, 0.0) > 0.0
        },
    }
    scenario = {
        "plan": plan.spec_string(),
        "seed": plan.seed,
        "mode": "event-sim",
        "system": system,
        "workload": workload,
        "target_ops_per_s": target,
        "duration_seconds": duration,
    }
    return FaultReport(kind="oltp", scenario=scenario,
                       healthy=healthy_d, faulted=faulted_d,
                       comparison=comparison)
