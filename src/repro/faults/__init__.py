"""``repro.faults`` — deterministic fault injection and recovery semantics.

The paper's fault-tolerance argument (§2, §5) is architectural: Hadoop
restarts only the failed task while a parallel RDBMS like PDW must restart
the whole query, and the paper's MongoDB deployment ran *without* replica
sets, so a dead mongod means lost availability rather than failover.  This
package makes those mechanisms executable:

* a :class:`FaultPlan` schedules faults (node crash, straggler, disk stall,
  transient op error, network latency spike, shard kill/restart) on the
  simulated clock, parsed from a compact CLI spec string;
* each system responds with its real-world recovery semantics — MapReduce
  re-executes lost tasks and speculates on stragglers
  (:func:`repro.mapreduce.jobs.schedule_tasks_recovering`), PDW aborts and
  restarts the whole query (:meth:`repro.pdw.engine.PdwEngine.run_query_faulted`),
  Mongo-AS mongos retries with capped exponential backoff and surfaces
  degraded availability (:class:`repro.faults.retry.RetryPolicy`,
  :class:`repro.faults.runner.FaultedYcsbRun`);
* a degraded-mode report compares healthy vs. faulted runs (availability,
  p95 inflation, re-execution cost, query-restart cost) with deterministic
  JSON export (:mod:`repro.faults.report`).

Everything here is strictly opt-in: with no :class:`FaultPlan` every
existing figure, report, and benchmark output is byte-identical to the
fault-free code path.
"""

from repro.faults.availability import (
    AVAILABILITY_SYSTEMS,
    availability_report,
    availability_row,
    render_availability_report,
    validate_availability_report,
)
from repro.faults.chaos import (
    AuditReport,
    ChaosConfig,
    ChaosYcsbRun,
    LostWrite,
    WriteLedger,
    chaos_plan,
)
from repro.faults.plan import (
    FAULT_KINDS,
    MEMBER_KINDS,
    TOPOLOGY_KINDS,
    FaultPlan,
    FaultSpec,
    StationFaults,
)
from repro.faults.reshard import (
    RESHARD_SYSTEMS,
    ReshardYcsbRun,
    render_reshard_report,
    reshard_report,
    reshard_row,
    validate_reshard_report,
)
from repro.faults.report import (
    FaultReport,
    dss_fault_report,
    oltp_fault_report,
    render_fault_report,
)
from repro.faults.retry import RetryPolicy, backoff_delay
from repro.faults.runner import FaultedRunStats, FaultedYcsbRun

__all__ = [
    "AVAILABILITY_SYSTEMS",
    "AuditReport",
    "ChaosConfig",
    "ChaosYcsbRun",
    "LostWrite",
    "WriteLedger",
    "availability_report",
    "availability_row",
    "chaos_plan",
    "render_availability_report",
    "validate_availability_report",
    "FAULT_KINDS",
    "MEMBER_KINDS",
    "TOPOLOGY_KINDS",
    "FaultSpec",
    "FaultPlan",
    "StationFaults",
    "RESHARD_SYSTEMS",
    "ReshardYcsbRun",
    "reshard_report",
    "reshard_row",
    "render_reshard_report",
    "validate_reshard_report",
    "RetryPolicy",
    "backoff_delay",
    "FaultedYcsbRun",
    "FaultedRunStats",
    "FaultReport",
    "dss_fault_report",
    "oltp_fault_report",
    "render_fault_report",
]
