"""Functional YCSB run under shard faults: the availability scenario.

Drives a real cluster (Mongo-AS, Mongo-CS, or SQL-CS) through a workload's
operation mix while a :class:`~repro.faults.plan.FaultPlan` kills and
restarts shard processes at scheduled points in the op stream.  The client
handles failures with a :class:`~repro.faults.retry.RetryPolicy` — capped
exponential backoff on a *logical* clock (no wall time), matching the
paper's no-replica-set deployment where a dead mongod means every op routed
to it fails until an operator intervenes.

Accounting folds into the YCSB latency histograms: successful ops record
their service latency plus any backoff they paid; abandoned ops record the
full latency burned before giving up *and* count as errors, so availability
(``succeeded / attempted``) and p95 inflation both fall out of the same
histograms the healthy run produces.  With a tracer attached, every backoff
becomes a ``retry.backoff`` span and every fault a ``fault.*`` marker span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (
    ChunkMoving,
    FaultPlanError,
    ServerCrashed,
    ShardUnavailable,
    ShardingError,
    StaleConfigError,
    WorkloadError,
)
from repro.common.rng import SeedStream
from repro.faults.plan import MEMBER_KINDS, TOPOLOGY_KINDS, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.ycsb.generators import (
    CounterGenerator,
    HotspotGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)
from repro.ycsb.histogram import LatencyHistogram
from repro.ycsb.workloads import (
    FIELD_COUNT,
    MAX_SCAN_LENGTH,
    OP_INSERT,
    OP_READ,
    OP_RMW,
    OP_SCAN,
    OP_UPDATE,
    WorkloadSpec,
    make_field_value,
    make_key,
    make_record,
)

# Logical per-attempt service latencies (seconds).  These stand in for the
# functional layer's missing clock: absolute values are nominal, but they are
# deterministic, so healthy-vs-faulted comparisons (backoff inflation, p95
# ratios) are meaningful.
SERVICE_LATENCY = {
    OP_READ: 0.0009,
    OP_UPDATE: 0.0011,
    OP_INSERT: 0.0010,
    OP_SCAN: 0.0040,
    OP_RMW: 0.0020,
}
# A failed attempt (connection refused / socket exception) is detected fast.
FAILURE_DETECT_LATENCY = 0.0005

# ``ChunkMoving`` (a migration commit's critical section) and
# ``StaleConfigError`` (a routing cache that refuses to converge) are both
# transient by construction: one backoff outlasts the commit window, and a
# refresh converges as soon as the metadata settles.
_RETRYABLE = (ShardUnavailable, ServerCrashed, ChunkMoving, StaleConfigError)


@dataclass
class FaultedRunStats:
    """Counts and histograms from one (possibly faulted) functional run."""

    attempted: int = 0
    succeeded: int = 0
    retries: int = 0
    chunk_moving_retries: int = 0  # bounced off a migration commit window
    backoff_seconds: float = 0.0
    duration: float = 0.0  # logical seconds
    errors: dict = field(default_factory=dict)  # op class -> abandoned ops
    histograms: dict = field(default_factory=dict)  # op class -> LatencyHistogram
    faults_fired: list = field(default_factory=list)  # spec strings, in order
    # Overload accounting (all zero/empty without an overload policy).
    shed: dict = field(default_factory=dict)  # shed reason -> ops
    budget_denied: int = 0  # retries refused by the retry budget
    breaker_fast_failures: int = 0  # ops failed fast on an open breaker
    breakers: dict = field(default_factory=dict)  # shard -> transition log

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    @property
    def shed_count(self) -> int:
        return sum(self.shed.values())

    @property
    def availability(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 1.0

    def p95_ms(self, op_class: str) -> float:
        histogram = self.histograms.get(op_class)
        return histogram.percentile(95) * 1000.0 if histogram else 0.0


class FaultedYcsbRun:
    """A YCSB client loop with shard-fault scheduling and retry recovery."""

    def __init__(
        self,
        cluster,
        workload: WorkloadSpec,
        record_count: int,
        operations: int,
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        seed: int = 7,
        tracer=None,
        metrics=None,
        live=None,
        prof=None,
        overload=None,
    ):
        if record_count < 2:
            raise WorkloadError("need at least two records")
        if operations < 1:
            raise WorkloadError("need at least one operation")
        self.cluster = cluster
        self.workload = workload
        self.record_count = record_count
        self.operations = operations
        self.plan = plan if plan is not None else FaultPlan()
        self.policy = policy or RetryPolicy()
        # Overload protection (PR 10): a retry budget and per-shard circuit
        # breakers around the retry loop.  ``overload=None`` leaves every
        # op on the exact pre-overload path (zero-cost-off).
        self.overload = overload
        self._budget = None
        self._breakers = None
        if overload is not None:
            from repro.overload.policy import BreakerBoard, RetryBudget

            if overload.retry_budget is not None:
                self._budget = RetryBudget(
                    overload.retry_budget, overload.budget_burst)
            if overload.breaker:
                self._breakers = BreakerBoard(
                    overload.breaker_threshold, overload.breaker_cooldown)
        self.prof = prof
        if prof is not None:
            # Charge span construction and digest updates to their host-time
            # counters; the wrapped collectors see identical calls, so all
            # simulated output stays byte-identical (zero-cost-off contract).
            from repro.obs.prof import profiled_live, profiled_tracer

            tracer = profiled_tracer(tracer, prof)
            live = profiled_live(live, prof)
        self.tracer = tracer
        self.metrics = metrics
        self.live = live
        self.seeds = SeedStream(seed)
        self._op_rng = self.seeds.rng_for("ops")
        self._data_rng = self.seeds.rng_for("data")
        self._counter = CounterGenerator(record_count)
        self._chooser = self._make_chooser()
        self._last_op_info = None  # (op_class, key, fieldname, value)
        self.fault_log: list[tuple[str, float]] = []  # (spec, fired at)
        self.now = 0.0

    def _make_chooser(self):
        rng = self.seeds.rng_for("chooser")
        dist = self.workload.request_distribution
        if dist == "uniform":
            gen = UniformGenerator(self.record_count, rng)
            return lambda: gen.next()
        if dist == "zipfian":
            gen = ScrambledZipfianGenerator(self.record_count, rng)
            return lambda: min(gen.next(), self._counter.last)
        if dist == "hotspot":
            gen = HotspotGenerator(self.record_count, rng)
            return lambda: min(gen.next(), self._counter.last)
        gen = LatestGenerator(self.record_count, rng)
        self._latest = gen
        return lambda: gen.next()

    # -- fault schedule --------------------------------------------------------

    def _fault_op_index(self, at: float) -> int:
        """``at <= 1`` is a fraction of the op stream, else an op index."""
        if at <= 1.0:
            return int(round(at * self.operations))
        return int(at)

    def _fire_due_faults(self, op_index: int, stats: FaultedRunStats) -> list:
        """Fire scheduled faults; returns the fault spans emitted (if tracing).

        The spans are returned un-parented so the caller can attach them to
        the op they delay — the next ``request.*`` span in the stream.
        """
        fired_spans = []
        for fault in (self.plan.shard_faults + self.plan.member_faults
                      + self.plan.topology_faults):
            key = fault.spec_string()
            if key in stats.faults_fired:
                continue
            if op_index < self._fault_op_index(fault.at):
                continue
            lane = "shards"
            if fault.kind in MEMBER_KINDS:
                shard, member = fault.member_target()
                self._fire_member_fault(fault, shard, member)
                target_args = {"shard": shard, "member": member}
            elif fault.kind in TOPOLOGY_KINDS:
                target_args = self._fire_topology_fault(fault)
                lane = "topology"
            else:
                shard = fault.target_index()
                if fault.kind == "kill-shard":
                    self.cluster.kill_shard(shard)
                else:
                    self.cluster.restart_shard(shard)
                target_args = {"shard": shard}
            stats.faults_fired.append(key)
            self.fault_log.append((key, self.now))
            if self.tracer:
                fired_spans.append(self.tracer.add(
                    f"fault.{fault.kind}", self.now, self.now,
                    cat="fault", node="faults", lane=lane,
                    op_index=op_index, **target_args,
                ))
            if self.metrics:
                self.metrics.counter(f"faults.{fault.kind}").inc()
        return fired_spans

    def _fire_member_fault(self, fault, shard_index: int,
                           member_index: int) -> None:
        """Apply a replica-set member fault (needs replication enabled)."""
        shard = self.cluster.shards[shard_index]
        if not hasattr(shard, "kill_member"):
            raise FaultPlanError(
                f"fault {fault.spec_string()!r} targets a replica-set member "
                "but the cluster has no replication configured"
            )
        if fault.kind == "kill-member":
            shard.kill_member(member_index)
        elif fault.kind == "restart-member":
            shard.restart_member(member_index)
        elif fault.kind == "partition-member":
            shard.partition_member(member_index)
        elif fault.kind == "heal-member":
            shard.heal_member(member_index)
        else:  # lag-spike: duration is logical seconds on the run clock
            shard.lag_spike(
                member_index, fault.magnitude, self.now + fault.duration
            )

    def _fire_topology_fault(self, fault) -> dict:
        """Apply a live-resharding event (needs an elastic cluster).

        A plan the cluster's own topology guards reject (no such shard, a
        scale target that does not grow, a second drain of one shard) is a
        malformed plan, not a crash.
        """
        if not hasattr(self.cluster, "scale_to"):
            raise FaultPlanError(
                f"fault {fault.spec_string()!r} reshapes the cluster but "
                "this cluster type does not support live resharding"
            )
        try:
            if fault.kind == "scale":
                count = fault.scale_target()
                queued = self.cluster.scale_to(count, now=self.now)
                return {"shards": count, "migrations": queued}
            index = fault.drain_target()
            queued = self.cluster.drain_shard(index, now=self.now)
            return {"shard": index, "migrations": queued}
        except ShardingError as exc:
            raise FaultPlanError(
                f"fault {fault.spec_string()!r} cannot apply: {exc}"
            ) from exc

    def _tick_cluster(self, at: float | None = None) -> None:
        """Advance replica-set clocks (oplog shipping, flushes, elections)."""
        tick = getattr(self.cluster, "tick", None)
        if tick is not None:
            tick(self.now if at is None else at)

    # -- operations ------------------------------------------------------------

    def _plan_op(self, op_class: str):
        """Draw the op's random parameters once and return a retryable thunk.

        Retries must re-execute the *same* operation (same key, same value):
        a client retrying a failed read does not pick a new key, so an op
        routed to a dead shard keeps hitting that shard until the policy
        gives up.  This is what makes one dead shard out of N cost ~1/N of
        availability instead of being retried around.
        """
        if op_class == OP_READ:
            key = make_key(self._chooser())
            self._last_op_info = (op_class, key, None, None)
            return lambda: self.cluster.read(key)
        if op_class == OP_UPDATE:
            key = make_key(self._chooser())
            fieldname = f"field{self._op_rng.random_int(0, FIELD_COUNT - 1)}"
            value = make_field_value(self._data_rng)
            self._last_op_info = (op_class, key, fieldname, value)
            return lambda: self.cluster.update(key, fieldname, value)
        if op_class == OP_INSERT:
            index = self._counter.next()
            key = make_key(index)
            record = make_record(self._data_rng)
            self._last_op_info = (op_class, key, None, record)

            def do_insert():
                self.cluster.insert(key, record)
                if hasattr(self, "_latest"):
                    self._latest.observe_insert()

            return do_insert
        if op_class == OP_SCAN:
            start = make_key(self._chooser())
            length = self._op_rng.random_int(1, MAX_SCAN_LENGTH)
            self._last_op_info = (op_class, start, None, None)
            return lambda: self.cluster.scan(start, length)
        if op_class == OP_RMW:
            key = make_key(self._chooser())
            fieldname = f"field{self._op_rng.random_int(0, FIELD_COUNT - 1)}"
            value = make_field_value(self._data_rng)
            self._last_op_info = (op_class, key, fieldname, value)

            def do_rmw():
                record = self.cluster.read(key)
                if record is not None:
                    self.cluster.update(key, fieldname, value)

            return do_rmw
        raise WorkloadError(f"unknown op class {op_class!r}")

    def _run_op(self, op_class: str, stats: FaultedRunStats,
                pending_spans=()) -> None:
        histogram = stats.histograms.setdefault(op_class, LatencyHistogram())
        execute = self._plan_op(op_class)
        latency = 0.0
        attempt = 0
        failed = False
        failed_shard = -1
        op_spans = list(pending_spans)  # fault.* markers that delay this op
        consume_io = getattr(self.cluster, "consume_io_wait", None)
        prof = self.prof
        while True:
            try:
                if prof is not None:
                    # The routing path: mongos/ring lookup plus the store op.
                    prof.enter("routing")
                    try:
                        execute()
                    finally:
                        prof.exit()
                else:
                    execute()
            except _RETRYABLE as exc:
                latency += FAILURE_DETECT_LATENCY
                if consume_io is not None:
                    latency += consume_io()  # queueing paid before the bounce
                attempt += 1
                if isinstance(exc, ChunkMoving):
                    stats.chunk_moving_retries += 1
                    if self.metrics:
                        self.metrics.counter("ycsb.chunk_moving_retries").inc()
                if self.metrics:
                    self.metrics.counter(f"ycsb.failed_attempts.{op_class}").inc()
                if self.policy.gives_up(attempt, latency):
                    failed = True
                    stats.errors[op_class] = stats.errors.get(op_class, 0) + 1
                    histogram.record(latency)
                    histogram.record_error()
                    if self.metrics:
                        self.metrics.counter(f"ycsb.errors.{op_class}").inc()
                    break
                if self.overload is not None:
                    # Per-shard breaker first (fail fast while a shard is
                    # known-bad), then the retry budget (cap storm load).
                    shard = getattr(exc, "shard", -1)
                    if self._breakers is not None and shard >= 0:
                        failed_shard = shard
                        self._breakers.record_failure(
                            shard, self.now + latency)
                        if not self._breakers.allow(
                                shard, self.now + latency):
                            failed = True
                            stats.breaker_fast_failures += 1
                            stats.shed["breaker"] = (
                                stats.shed.get("breaker", 0) + 1)
                            histogram.record_shed()
                            if self.metrics:
                                self.metrics.counter(
                                    "overload.shed.breaker").inc()
                            break
                    if (self._budget is not None
                            and not self._budget.try_retry()):
                        failed = True
                        stats.budget_denied += 1
                        stats.shed["retry-budget"] = (
                            stats.shed.get("retry-budget", 0) + 1)
                        histogram.record_shed()
                        if self.metrics:
                            self.metrics.counter(
                                "overload.shed.retry-budget").inc()
                        break
                delay = self.policy.delay(attempt - 1)
                if self.tracer:
                    backoff = self.tracer.add(
                        "retry.backoff",
                        self.now + latency, self.now + latency + delay,
                        cat="retry", node="client", lane="backoff",
                        cls=op_class, attempt=attempt,
                    )
                    if op_spans:
                        self.tracer.link(op_spans[-1], backoff, "retry")
                    op_spans.append(backoff)
                latency += delay
                stats.retries += 1
                stats.backoff_seconds += delay
                if self.metrics:
                    self.metrics.counter("ycsb.retried_ops").inc()
                # Time passes while the client backs off: replica sets ship
                # their oplogs and run elections, which is what lets a retry
                # loop carry the client across a failover window.
                self._tick_cluster(self.now + latency)
                continue
            # Success path.
            latency += SERVICE_LATENCY[op_class]
            if consume_io is not None:
                latency += consume_io()  # migration copy queueing + rho
            consume_ack = getattr(self.cluster, "consume_ack_delay", None)
            if consume_ack is not None:
                latency += consume_ack()  # write-concern ack cost
            take_write = getattr(self.cluster, "take_last_write", None)
            if take_write is not None:
                write = take_write()
                if write is not None:
                    self._on_acked_write(write, stats)
            stats.succeeded += 1
            histogram.record(latency)
            if self._breakers is not None and failed_shard >= 0:
                # A success after failures on a shard is the half-open
                # probe's good news: close that shard's breaker.
                self._breakers.record_success(failed_shard, self.now + latency)
            if attempt and self.metrics:
                self.metrics.counter(f"ycsb.recovered_ops.{op_class}").inc()
            break
        if self.tracer:
            # The op itself, with the backoffs it paid and the fault markers
            # that delayed it parented underneath.
            request = self.tracer.add(
                f"request.{op_class}", self.now, self.now + latency,
                cat="request", node="client", lane="ops",
                cls=op_class, attempts=attempt,
                **({"error": True} if failed else {}),
            )
            for span in op_spans:
                span.parent = request.span_id
            if attempt:
                self._emit_election_waits(request, self.now, self.now + latency)
        if self.live:
            self.live.record_op(self.now + latency, latency, error=failed,
                                cls=op_class)
        self.now += latency

    def _emit_election_waits(self, request, start: float, end: float) -> None:
        """Attribute the slice of a retried op spent inside a failover window.

        Each overlap of the op's latency window with a replica set's closed
        downtime window becomes an ``election.wait`` child span
        (``cat="election"``), so critical paths show the stall and the
        what-if engine can answer "what if elections were instant?".  The
        wait is linked from the set's ``election.failover`` span when the
        window was closed by an election (a ``handoff`` edge).
        """
        for shard in getattr(self.cluster, "shards", []):
            for win_start, win_end in getattr(shard, "downtime", ()):
                lo, hi = max(start, win_start), min(end, win_end)
                if hi <= lo:
                    continue
                wait = self.tracer.add(
                    "election.wait", lo, hi, cat="election", node="client",
                    lane="ops", shard=shard.name,
                )
                wait.parent = request.span_id
                for failover in self.tracer.find(cat="election",
                                                 node=shard.name):
                    if failover.start <= lo and hi <= failover.end + 1e-9:
                        self.tracer.link(failover, wait, "handoff")
                        break

    def _on_acked_write(self, write, stats: FaultedRunStats) -> None:
        """Hook: a write was acknowledged at its concern (chaos ledger)."""

    # -- phases ---------------------------------------------------------------

    def load(self) -> None:
        """Insert records 0 .. record_count-1 (no faults fire during load)."""
        for i in range(self.record_count):
            self.cluster.insert(make_key(i), make_record(self._data_rng))
        # Load-phase writes don't owe the run phase their ack bookkeeping.
        consume_ack = getattr(self.cluster, "consume_ack_delay", None)
        if consume_ack is not None:
            consume_ack()
        take_write = getattr(self.cluster, "take_last_write", None)
        if take_write is not None:
            while take_write() is not None:
                pass
        consume_io = getattr(self.cluster, "consume_io_wait", None)
        if consume_io is not None:
            consume_io()

    def run(self) -> FaultedRunStats:
        stats = FaultedRunStats()
        for op_index in range(self.operations):
            self._tick_cluster()
            fired = self._fire_due_faults(op_index, stats)
            op_class = self.workload.pick_operation(self._op_rng)
            stats.attempted += 1
            if self._budget is not None:
                self._budget.note_op()
            self._run_op(op_class, stats, pending_spans=fired)
        stats.duration = self.now
        if self._breakers is not None:
            stats.breakers = self._breakers.to_dict()
        if self.metrics:
            self.metrics.gauge("ycsb.availability").set(stats.availability)
        if self.live:
            # Each fired fault becomes an event interval: from its fire
            # time through the replica-set downtime window it opened (kill
            # -> election completes), so a burn-rate alert detected during
            # the failover attributes to the kill itself.  Faults that
            # caused no downtime (lag spikes, heals) stay instant markers.
            downtimes = []
            for shard in getattr(self.cluster, "shards", []):
                for win_start, win_end in getattr(shard, "downtime", ()):
                    downtimes.append((shard.name, win_start,
                                      min(win_end, self.now)))
            for spec, fired_at in self.fault_log:
                end = fired_at
                for _name, win_start, win_end in downtimes:
                    if win_start - 1e-9 <= fired_at <= win_end + 1e-9:
                        end = max(end, win_end)
                        break
                self.live.note_event(spec, fired_at, end)
            self.live.finish(self.now)
        if self.prof is not None:
            self.prof.note_ops(stats.succeeded)
            self.prof.note_virtual_time(self.now)
        return stats
