"""The Hive query engine model: lowers plan specs to MapReduce jobs.

Given a :class:`~repro.tpch.plans.QuerySpec`, a calibrated
:class:`~repro.tpch.volumes.VolumeModel`, and the cluster profile, the engine
produces the job sequence Hive 0.7 would run — joins in as-written order,
map joins only where hinted and only when the hash table fits, common joins
shuffling both inputs, one reduce round (reducers = total slots, per Section
3.2.1) — and costs each job with the MapReduce scheduler model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError, PlanError
from repro.common.stats import fold_sum
from repro.hdfs.filesystem import DEFAULT_BLOCK_SIZE
from repro.hive.metastore import Metastore
from repro.mapreduce.jobs import (
    HadoopParams,
    JobResult,
    JobTracker,
    MapPhase,
    schedule_tasks,
    schedule_tasks_recovering,
    task_waves,
)
from repro.simcluster.profile import HardwareProfile, paper_testbed
from repro.tpch.plans import QuerySpec, spec_for
from repro.tpch.volumes import Calibration, VolumeModel

# Map outputs and intermediate tables are LZO-compressed (Section 3.2.1).
LZO_RATIO = 0.5
# Intermediate tables keep only the columns later stages need; the kernel's
# measured widths carry every merged column, so prune them for costing.
INTERMEDIATE_PROJECTION = 0.5
# In-heap expansion of a Java hash table relative to raw bytes.
JAVA_HASH_OVERHEAD = 6.0


@dataclass
class HiveQueryResult:
    """Per-job breakdown of one simulated Hive query execution."""

    number: int
    scale_factor: float
    jobs: list[JobResult] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return fold_sum(j.total_time for j in self.jobs)

    def job(self, name: str) -> JobResult:
        for j in self.jobs:
            if j.name == name or j.name == f"{name}.backup":
                return j
        raise KeyError(f"no job {name!r} in {[j.name for j in self.jobs]}")

    @property
    def map_time(self) -> float:
        return sum(j.map_time for j in self.jobs)


@dataclass
class FaultedHiveResult:
    """Healthy-vs-faulted comparison of one Hive query under a node fault.

    Hive inherits MapReduce's task-granular recovery: a crash costs only the
    lost tasks' re-execution (plus degraded capacity afterwards), never a
    query restart — the contrast :class:`repro.pdw.engine.PdwEngine` makes.
    """

    number: int
    scale_factor: float
    healthy: HiveQueryResult
    faulted_total: float
    fault: dict = field(default_factory=dict)
    killed_attempts: int = 0
    reexecuted_tasks: int = 0
    speculative_copies: int = 0
    wasted_task_seconds: float = 0.0
    affected_jobs: list[str] = field(default_factory=list)

    @property
    def delay(self) -> float:
        return self.faulted_total - self.healthy.total_time


class HiveEngine:
    """Cost model for Hive-on-Hadoop over the calibrated TPC-H volumes."""

    def __init__(
        self,
        calibration: Calibration,
        profile: HardwareProfile | None = None,
        params: HadoopParams | None = None,
        cpu_weights: dict[int, float] | None = None,
        index_support: bool = False,
    ):
        self.profile = profile or paper_testbed()
        self.base_params = params or HadoopParams()
        self.volumes: VolumeModel = calibration.volumes
        self.metastore = Metastore(compression_ratios=calibration.rcfile_ratios)
        self.cpu_weights = dict(cpu_weights or {})
        # The paper's future-work scenario (Section 3.3.2): a Hive whose
        # optimizer exploits indexes, letting selective scans skip data.
        self.index_support = index_support

    # -- volume resolution ------------------------------------------------------

    def _params_for(self, number: int) -> HadoopParams:
        weight = self.cpu_weights.get(number, 1.0)
        if weight == 1.0:
            return self.base_params
        return replace(
            self.base_params,
            map_scan_rate=self.base_params.map_scan_rate / weight,
            reduce_rate=self.base_params.reduce_rate / weight,
        )

    def _map_phase(self, spec: QuerySpec, ref: str, sf: float, params) -> MapPhase:
        """Files the map phase of a job reading ``ref`` must process."""
        scan = spec.scan_for(ref)
        if scan is not None:
            files = self.metastore.file_sizes(scan.table, sf)
            if self.index_support and scan.out is not None:
                # Index-assisted scan: read only the qualifying fraction of
                # each file (plus a 2% index-probe floor).
                fraction = max(
                    0.02,
                    min(1.0, self.volumes.rows(scan.out, sf)
                        / max(1.0, self.volumes.rows(scan.table, sf))),
                )
                files = [size * fraction for size in files]
            return MapPhase(files, params).split_for_blocks(DEFAULT_BLOCK_SIZE)
        # Intermediate table: projected columns, stored LZO-compressed,
        # split by HDFS block.
        size = self.volumes.bytes(ref, sf) * INTERMEDIATE_PROJECTION * LZO_RATIO
        blocks = max(1, math.ceil(size / DEFAULT_BLOCK_SIZE))
        return MapPhase([size / blocks] * blocks, params)

    def _stream_bytes(self, ref: str, sf: float) -> float:
        """Post-filter volume of ``ref`` as it flows through a shuffle (LZO)."""
        factor = LZO_RATIO
        if not self.volumes.is_base_table(ref):
            factor *= INTERMEDIATE_PROJECTION
        return self.volumes.bytes(ref, sf) * factor

    def _hashtable_bytes(self, ref: str, sf: float) -> float:
        return self.volumes.bytes(ref, sf) * JAVA_HASH_OVERHEAD

    def _hdfs_write_time(self, raw_bytes: float) -> float:
        """Writing a job's output with 3x replication (2 remote copies)."""
        network = self.profile.nodes * self.profile.network_bandwidth
        return 2.0 * raw_bytes * LZO_RATIO / network

    # -- job construction --------------------------------------------------------

    def _join_job(self, tracker, spec, join, sf, params) -> JobResult:
        out_bytes = self.volumes.bytes(join.out, sf) if join.out else 0.0

        both_base = (
            spec.scan_for(join.left) is not None and spec.scan_for(join.right) is not None
        )
        if join.bucket_join_ok and both_base:
            left_table = spec.scan_for(join.left).table
            right_table = spec.scan_for(join.right).table
            if self.metastore.buckets_compatible(left_table, right_table):
                small_table = min(
                    (left_table, right_table),
                    key=lambda t: self.volumes.bytes(t, sf),
                )
                buckets = self.metastore.layout(small_table).bucket_count
                bucket_bytes = (
                    self.volumes.bytes(small_table, sf) / buckets * JAVA_HASH_OVERHEAD
                )
                budget = params.task_heap_bytes * params.hashtable_memory_fraction
                if bucket_bytes <= budget:
                    big = join.left if small_table == right_table else join.right
                    phase = self._map_phase(spec, big, sf, params)
                    result = tracker.run_map_only(f"join.{join.out}", phase)
                    result.map_time += bucket_bytes / self.profile.aggregate_disk_bandwidth
                    result.notes.append("bucketed map join")
                    result.reduce_time += self._hdfs_write_time(out_bytes)
                    return result

        left_bytes = self.volumes.bytes(join.left, sf)
        right_bytes = self.volumes.bytes(join.right, sf)
        small, big = (
            (join.right, join.left) if right_bytes <= left_bytes else (join.left, join.right)
        )

        if join.try_map_join:
            big_phase = self._map_phase(spec, big, sf, params)
            backup_shuffle = self._stream_bytes(big, sf) + self._stream_bytes(small, sf)
            result = tracker.run_map_join(
                f"join.{join.out}",
                big_phase,
                self._hashtable_bytes(small, sf),
                backup_shuffle_bytes=backup_shuffle,
                backup_reduce_bytes=backup_shuffle,
            )
            result.reduce_time += self._hdfs_write_time(out_bytes)
            return result

        # Common join: scan both inputs in the map phase, shuffle both.
        big_phase = self._map_phase(spec, big, sf, params)
        small_phase = self._map_phase(spec, small, sf, params)
        phase = MapPhase(big_phase.file_bytes + small_phase.file_bytes, params)
        shuffle = self._stream_bytes(big, sf) + self._stream_bytes(small, sf)
        result = tracker.run_map_reduce(f"join.{join.out}", phase, shuffle, shuffle)
        result.reduce_time += self._hdfs_write_time(out_bytes)
        result.notes.append("common join")
        return result

    def _agg_job(self, tracker, spec, agg, sf, params) -> JobResult:
        phase = self._map_phase(spec, agg.input, sf, params)
        # Map-side aggregation is enabled: the shuffle carries only the
        # partially aggregated output, not the scanned input.
        out_ref = agg.out
        out_bytes = self.volumes.bytes(out_ref, sf) if out_ref else 64.0 * 2**20
        shuffle = out_bytes * LZO_RATIO
        result = tracker.run_map_reduce(
            f"agg.{out_ref or agg.input}", phase, shuffle, shuffle
        )
        result.reduce_time += self._hdfs_write_time(out_bytes)
        result.notes.append("map-side aggregation")
        return result

    def _small_job(self, name: str, params, work: float = 10.0) -> JobResult:
        return JobResult(
            name=name,
            map_time=work,
            shuffle_time=0.0,
            reduce_time=0.0,
            overhead=params.job_overhead,
        )

    # -- tracing ------------------------------------------------------------------

    def _emit_trace(self, result: HiveQueryResult, tracer, metrics,
                    params=None) -> None:
        """Lay the finished job sequence out as spans on one query timeline.

        Jobs run back to back (Hive 0.7 submits each stage after the last),
        so the cursor advances by each job's total; per-job phase spans and
        per-attempt task spans nest inside.  Emitted *after* all cost
        adjustments, so span totals reconcile exactly with the reported
        simulated times.

        Causal links make the implicit schedule explicit for the critical
        path and what-if layers: ``stage`` chains consecutive jobs,
        ``barrier``/``shuffle-barrier`` chain a job's phases, and ``slot``
        chains the back-to-back task attempts sharing one slot.  Map/reduce
        phase spans also carry the per-task ``startup`` cost so a replay can
        subtract it (``--whatif map-startup=0``).
        """
        params = params or self.base_params
        query = tracer.add(
            f"hive.q{result.number}", 0.0, result.total_time,
            cat="query", node="hive", lane="query",
            sf=result.scale_factor,
        )
        cursor = 0.0
        prev_job_span = None
        for job in result.jobs:
            job_span = tracer.add(
                f"job.{job.name}", cursor, cursor + job.total_time,
                cat="job", node="hive", lane="jobs", parent=query.span_id,
                failed_mapjoin=job.failed_mapjoin,
            )
            if prev_job_span is not None:
                tracer.link(prev_job_span, job_span, "stage")
            prev_job_span = job_span
            t = cursor
            prev_phase_span = None
            for phase, length, extra in (
                ("map", job.map_time,
                 {"tasks": job.map_tasks, "waves": job.map_waves,
                  "startup": params.map_task_startup}),
                ("shuffle", job.shuffle_time, {"bytes": job.shuffle_bytes}),
                ("reduce", job.reduce_time,
                 {"tasks": job.reduce_tasks,
                  "startup": params.reduce_task_startup}),
                ("overhead", job.overhead, {}),
            ):
                if length <= 0.0:
                    continue
                phase_span = tracer.add(
                    f"{job.name}.{phase}", t, t + length,
                    cat="phase", node="hive", lane=phase,
                    parent=job_span.span_id, **extra,
                )
                if prev_phase_span is not None:
                    kind = ("shuffle-barrier" if "shuffle" in
                            (phase, prev_phase_span.lane) else "barrier")
                    tracer.link(prev_phase_span, phase_span, kind)
                prev_phase_span = phase_span
                task_spans = (
                    job.map_task_spans if phase == "map"
                    else job.reduce_task_spans if phase == "reduce" else ()
                )
                last_in_slot: dict = {}
                for slot, start, end in task_spans:
                    task_span = tracer.add(
                        f"{phase}-task", t + start, t + end,
                        cat="task", node="hive", lane=f"{phase}-slot-{slot:03d}",
                        parent=phase_span.span_id,
                    )
                    prev_task = last_in_slot.get(slot)
                    if prev_task is not None:
                        tracer.link(prev_task, task_span, "slot")
                    last_in_slot[slot] = task_span
                t += length
            cursor += job.total_time
        if metrics:
            metrics.counter("hive.jobs").inc(len(result.jobs))
            metrics.counter("hive.map_tasks").inc(
                sum(j.map_tasks for j in result.jobs)
            )
            metrics.counter("hive.reduce_tasks").inc(
                sum(j.reduce_tasks for j in result.jobs)
            )
            metrics.counter("hive.shuffle_bytes").inc(
                sum(j.shuffle_bytes for j in result.jobs)
            )
            metrics.counter("hive.failed_mapjoins").inc(
                sum(1 for j in result.jobs if j.failed_mapjoin)
            )

    def _emit_utilization(self, result: HiveQueryResult, params, sampler) -> None:
        """Feed the finished job layout into a utilization sampler.

        Walks the same back-to-back job/phase cursor as :meth:`_emit_trace`
        so the series align with the phase spans.  Per phase:

        * ``map-slots`` / ``reduce-slots`` — fraction of configured task
          slots occupied, from the per-attempt spans;
        * ``cpu`` — active tasks against the map-slot count (each task
          saturates one decode/agg core; this is what makes Q1's map phase
          read as CPU-bound);
        * ``disk`` — each map task pulls ``map_scan_rate`` compressed
          bytes/s against the cluster's sequential HDFS read bandwidth
          (70 MB/s per node consumed vs 400 MB/s deliverable — the paper's
          Section 4.3 headroom argument);
        * ``network`` — shuffles achieve ``shuffle_efficiency`` of the
          aggregate NIC bandwidth while they run.
        """
        from repro.mapreduce.jobs import feed_task_occupancy

        profile = self.profile
        map_slots = params.map_slots(profile)
        reduce_slots = params.reduce_slots(profile)
        hdfs_read_capacity = profile.nodes * profile.hdfs_seq_read_bandwidth
        nic_capacity = profile.nodes * profile.network_bandwidth
        cursor = 0.0
        for job in result.jobs:
            t = cursor
            if job.map_time > 0.0:
                feed_task_occupancy(sampler, "hive", "map-slots",
                                    job.map_task_spans, map_slots, offset=t)
                feed_task_occupancy(sampler, "hive", "cpu",
                                    job.map_task_spans, map_slots, offset=t)
                feed_task_occupancy(sampler, "hive", "disk",
                                    job.map_task_spans, hdfs_read_capacity,
                                    offset=t, level=params.map_scan_rate)
                t += job.map_time
            if job.shuffle_time > 0.0:
                sampler.accumulate(
                    "hive", "network", t, t + job.shuffle_time,
                    level=params.shuffle_bandwidth(profile),
                    capacity=nic_capacity,
                )
                t += job.shuffle_time
            if job.reduce_time > 0.0:
                feed_task_occupancy(sampler, "hive", "reduce-slots",
                                    job.reduce_task_spans, reduce_slots, offset=t)
                feed_task_occupancy(sampler, "hive", "cpu",
                                    job.reduce_task_spans, map_slots, offset=t)
            cursor += job.total_time
        sampler.finish(result.total_time)

    # -- public API ---------------------------------------------------------------

    def run_query(self, number: int, scale_factor: float,
                  spec: QuerySpec | None = None,
                  tracer=None, metrics=None, sampler=None,
                  prof=None) -> HiveQueryResult:
        """Simulate one TPC-H query, returning the per-job time breakdown.

        ``spec`` overrides the stock plan spec (used by ablations, e.g.
        forcing a different join order).  ``tracer``/``metrics``/``sampler``
        (see :mod:`repro.obs`) record the mechanism breakdown; ``prof``
        charges the engine's host time to the ``hive.query`` subsystem
        counter (span construction nests under ``span.construct``).  All
        default to off and do not perturb the costing.
        """
        if prof is not None:
            with prof.section("hive.query"):
                return self._run_query_inner(
                    number, scale_factor, spec, tracer, metrics, sampler,
                    prof)
        return self._run_query_inner(
            number, scale_factor, spec, tracer, metrics, sampler, None)

    def _run_query_inner(self, number, scale_factor, spec, tracer, metrics,
                         sampler, prof) -> HiveQueryResult:
        if spec is None:
            spec = spec_for(number)
        params = self._params_for(number)
        tracker = JobTracker(
            self.profile, params,
            trace_tasks=bool(tracer) or bool(sampler),
        )
        result = HiveQueryResult(number=number, scale_factor=scale_factor)

        for ref in spec.hive_materialize_scans:
            phase = self._map_phase(spec, ref, scale_factor, params)
            job = tracker.run_map_only(f"mat.{ref}", phase)
            job.reduce_time += self._hdfs_write_time(
                self.volumes.bytes(ref, scale_factor)
            )
            result.jobs.append(job)
        for i in range(spec.hive_fs_jobs):
            result.jobs.append(self._small_job(f"fs.{i}", params, params.fs_job_time))

        for join in spec.effective_hive_joins():
            result.jobs.append(self._join_job(tracker, spec, join, scale_factor, params))
        for agg in spec.aggs:
            result.jobs.append(self._agg_job(tracker, spec, agg, scale_factor, params))
        if spec.has_order_by:
            result.jobs.append(self._small_job("sort", params))
        for i in range(spec.hive_extra_jobs):
            result.jobs.append(self._small_job(f"extra.{i}", params))
        if tracer:
            if prof is not None:
                with prof.section("span.construct"):
                    self._emit_trace(result, tracer, metrics, params=params)
            else:
                self._emit_trace(result, tracer, metrics, params=params)
        if sampler:
            self._emit_utilization(result, params, sampler)
        return result

    # -- fault injection ----------------------------------------------------------

    def _degraded_reduce_time(self, job: JobResult, params,
                              surviving_nodes: int, scale: float) -> float:
        """Reduce-phase time with the wave count recomputed on fewer slots.

        The span-derived part re-schedules into waves over the surviving
        reduce slots; the remainder (the HDFS output write folded into
        ``reduce_time`` after the tracker ran) scales with lost network
        capacity.
        """
        if not job.reduce_task_spans:
            return job.reduce_time * scale
        task_time = job.reduce_task_spans[0][2] - job.reduce_task_spans[0][1]
        old_slots = params.reduce_slots(self.profile)
        span_time = task_waves(len(job.reduce_task_spans), old_slots) * task_time
        extra = max(0.0, job.reduce_time - span_time)
        new_slots = surviving_nodes * params.reduce_slots_per_node
        return task_waves(len(job.reduce_task_spans), new_slots) * task_time + extra * scale

    def run_query_faulted(self, number: int, scale_factor: float, fault,
                          spec: QuerySpec | None = None,
                          tracer=None, metrics=None,
                          sampler=None) -> FaultedHiveResult:
        """Re-cost one query under a node fault, with MapReduce recovery.

        ``fault`` is a :class:`repro.faults.plan.FaultSpec` (duck-typed) of
        kind ``crash`` or ``straggler`` targeting node ``nK``.  ``fault.at``
        <= 1 is a fraction of the healthy runtime, else absolute seconds on
        the healthy timeline.

        Recovery semantics (Section 2's fault-tolerance contrast):

        * **crash** — the wave active at the crash re-executes the dead
          node's in-flight *and* completed map tasks on surviving slots
          (map output lived on the node's disks); every later phase runs on
          ``n-1`` nodes (fewer slots, less shuffle bandwidth).  A crash
          mid-shuffle/reduce degrades the job's remaining time by the lost
          capacity fraction.
        * **straggler** — map waves overlapping the fault window run with
          the slow node stretched ``fault.magnitude`` x and speculative
          backup copies on healthy slots.

        The healthy run is simulated internally with task tracing; the
        caller's ``tracer``/``sampler`` receive only the *faulted* timeline
        (fault marker, degraded-job spans, degraded-capacity series).
        """
        if fault.kind not in ("crash", "straggler"):
            raise ConfigurationError(
                f"hive fault injection handles crash/straggler, not {fault.kind!r}"
            )
        node = fault.target_index()
        nodes = self.profile.nodes
        if not 0 <= node < nodes:
            raise ConfigurationError(
                f"fault targets node {node}, cluster has {nodes}"
            )
        if nodes < 2:
            raise ConfigurationError("need >= 2 nodes to survive a node fault")

        from repro.obs.trace import Tracer

        params = self._params_for(number)
        healthy = self.run_query(number, scale_factor, spec=spec, tracer=Tracer())
        total = healthy.total_time
        at = fault.at * total if fault.at <= 1.0 else fault.at
        window_end = at + fault.duration if fault.duration else total
        scale = nodes / (nodes - 1)
        slots_per_node = params.map_slots_per_node
        map_slots = params.map_slots(self.profile)

        out = FaultedHiveResult(
            number=number, scale_factor=scale_factor, healthy=healthy,
            faulted_total=0.0,
            fault={"kind": fault.kind, "target": fault.target, "at": at},
        )

        def map_durations(job: JobResult) -> list[float]:
            return [end - start for _slot, start, end in job.map_task_spans]

        healthy_cursor = 0.0
        faulted_cursor = 0.0
        for job in healthy.jobs:
            job_start = healthy_cursor
            job_end = job_start + job.total_time
            healthy_cursor = job_end
            new_total = job.total_time
            affected = False

            if fault.kind == "crash":
                if job_end <= at:
                    pass  # finished before the crash
                elif job_start >= at:
                    # Whole job runs on the surviving n-1 nodes.
                    affected = True
                    durations = map_durations(job)
                    new_map = (
                        schedule_tasks(durations, (nodes - 1) * slots_per_node)
                        if durations else job.map_time
                    )
                    new_total = (
                        new_map + job.shuffle_time * scale
                        + self._degraded_reduce_time(job, params, nodes - 1, scale)
                        + job.overhead
                    )
                else:
                    # The job active at the crash.
                    affected = True
                    map_end = job_start + job.map_time
                    if at < map_end and job.map_task_spans:
                        recovered = schedule_tasks_recovering(
                            map_durations(job), map_slots, slots_per_node,
                            crash_node=node, crash_time=at - job_start,
                        )
                        out.killed_attempts += recovered.killed_attempts
                        out.reexecuted_tasks += recovered.reexecuted_tasks
                        out.wasted_task_seconds += recovered.wasted_time
                        new_total = (
                            recovered.makespan + job.shuffle_time * scale
                            + self._degraded_reduce_time(job, params, nodes - 1, scale)
                            + job.overhead
                        )
                    else:
                        # Mid-shuffle/reduce (or an untraced small job): the
                        # remaining work degrades by the lost capacity.
                        done = at - job_start
                        new_total = done + (job.total_time - done) * scale
            else:  # straggler
                map_start, map_end = job_start, job_start + job.map_time
                durations = map_durations(job)
                if durations and map_start < window_end and map_end > at:
                    affected = True
                    recovered = schedule_tasks_recovering(
                        durations, map_slots, slots_per_node,
                        straggler_node=node, slow_factor=fault.magnitude,
                    )
                    out.speculative_copies += recovered.speculative_copies
                    out.wasted_task_seconds += recovered.wasted_time
                    new_total = job.total_time - job.map_time + recovered.makespan

            if affected:
                out.affected_jobs.append(job.name)
                if tracer:
                    tracer.add(
                        f"degraded.{job.name}", faulted_cursor,
                        faulted_cursor + new_total,
                        cat="fault", node="hive", lane="degraded",
                        healthy_time=job.total_time,
                    )
                if sampler:
                    sampler.accumulate(
                        "hive", "fault-degraded", faulted_cursor,
                        faulted_cursor + new_total, level=1.0, capacity=1.0,
                    )
            faulted_cursor += new_total

        out.faulted_total = faulted_cursor
        if tracer:
            tracer.add(
                f"fault.{fault.kind}", at, at, cat="fault", node="hive",
                lane="faults", target=fault.target,
            )
        if metrics:
            metrics.counter("hive.faults.injected").inc()
            metrics.counter("hive.faults.reexecuted_tasks").inc(out.reexecuted_tasks)
            metrics.counter("hive.faults.speculative_copies").inc(out.speculative_copies)
        if sampler:
            sampler.finish(max(out.faulted_total, total))
        return out

    def query_time(self, number: int, scale_factor: float) -> float:
        return self.run_query(number, scale_factor).total_time

    def load_time(self, scale_factor: float) -> float:
        """Table 2's Hive load: parallel HDFS copy + RCFile conversion job.

        Lumped linear model calibrated to the measured 250 GB point: the
        cluster sustains ~116 MB/s end-to-end (the GZIP conversion writers
        are the bottleneck, not the disks).
        """
        nominal_bytes = scale_factor * 1e9
        return 120.0 + nominal_bytes / 116e6

    def validate_spec(self, number: int, scale_factor: float = 250.0) -> None:
        """Resolve every ref in a spec; raises PlanError on a missing volume."""
        spec = spec_for(number)
        for ref in spec.all_refs():
            self.volumes.volume(ref, scale_factor)
        if spec.hive_joins is not None and not spec.joins:
            raise PlanError(f"q{number}: hive_joins without a base join order")
