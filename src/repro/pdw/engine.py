"""The PDW query engine model: cost-based data-movement planning.

For each join the optimizer considers keeping both sides local (when the
distribution columns already align with the join keys), shuffling the
misaligned side(s) through DMS, or replicating one side to every compute
node — and picks the cheapest, exactly the behaviour Section 3.3.4.1 credits
for Q5 (shuffle orders on o_custkey, keep lineitem local) and Q19 (replicate
the filtered part rows).

Costs come from three overlapping resources per step: disk I/O on compressed
pages (with a buffer-pool model that makes small scale factors memory
resident — the paper's explanation for the 34x speedup at SF 250), CPU at a
per-row rate, and the 1 GbE fabric for DMS movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, PlanError
from repro.common.stats import fold_sum
from repro.common.units import GB
from repro.pdw.catalog import REPLICATED, distribution_of
from repro.simcluster.profile import HardwareProfile, paper_testbed
from repro.tpch.plans import AggSpec, JoinSpec, QuerySpec, spec_for
from repro.tpch.volumes import Calibration, VolumeModel


@dataclass(frozen=True)
class PdwParams:
    """Tunables of the PDW installation and cost model."""

    storage_compression: float = 0.40  # page compression on disk
    memory_scan_bandwidth: float = 10.0 * GB  # per node, buffer-pool resident
    buffer_pool_fraction: float = 0.70  # 24 GB max server memory less DMS/plan headroom
    row_cpu_cost: float = 2.2e-6  # seconds per row per core, baseline work
    join_cpu_factor: float = 1.2  # hash build/probe vs plain predicate
    agg_cpu_factor: float = 1.5
    shuffle_width_factor: float = 0.35  # DMS moves projected columns only
    spill_memory_fraction: float = 0.5  # of cluster memory before joins spill
    allow_replicate: bool = True  # ablation: disable small-table replication
    step_overhead: float = 1.0
    plan_overhead: float = 2.0
    failover_overhead: float = 30.0  # detect failure, fail over, resubmit


@dataclass
class PdwStep:
    """One operation of a parallel plan with its resource times."""

    kind: str  # "scan" | "local_join" | "shuffle_join" | "replicate_join" | "agg" | "sort"
    name: str
    io_time: float = 0.0
    cpu_time: float = 0.0
    net_time: float = 0.0
    moved_bytes: float = 0.0
    note: str = ""

    def elapsed(self, overhead: float) -> float:
        # Disk, CPU, and DMS movement overlap within a step; the slowest
        # resource determines the step's duration.
        return max(self.io_time, self.cpu_time, self.net_time) + overhead


@dataclass
class PdwQueryResult:
    number: int
    scale_factor: float
    steps: list[PdwStep] = field(default_factory=list)
    plan_overhead: float = 0.0
    step_overhead: float = 0.0

    @property
    def total_time(self) -> float:
        return self.plan_overhead + fold_sum(
            s.elapsed(self.step_overhead) for s in self.steps
        )

    @property
    def network_bytes(self) -> float:
        return sum(s.moved_bytes for s in self.steps)

    def step(self, name: str) -> PdwStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(f"no step {name!r} in {[s.name for s in self.steps]}")


class _CalibrationView:
    """Minimal calibration facade: lets a degraded (n-1 node) engine reuse an
    existing engine's volume model without re-running calibration."""

    def __init__(self, volumes: VolumeModel):
        self.volumes = volumes


@dataclass
class FaultedPdwResult:
    """Healthy-vs-faulted comparison of one PDW query under a node fault.

    PDW has no task-level recovery: a node failure aborts the running query
    and the whole query restarts once the appliance fails over — the cost
    amplification Section 2 contrasts with MapReduce's re-execute-one-task
    model.  Work done before the crash is pure waste.
    """

    number: int
    scale_factor: float
    healthy: PdwQueryResult
    faulted_total: float
    fault: dict = field(default_factory=dict)
    restarts: int = 0
    wasted_seconds: float = 0.0  # progress discarded by the abort

    @property
    def delay(self) -> float:
        return self.faulted_total - self.healthy.total_time


class PdwEngine:
    """Cost model for SQL Server PDW over the calibrated TPC-H volumes."""

    def __init__(
        self,
        calibration: Calibration,
        profile: HardwareProfile | None = None,
        params: PdwParams | None = None,
        cpu_weights: dict[int, float] | None = None,
    ):
        self.profile = profile or paper_testbed()
        self.params = params or PdwParams()
        self.volumes: VolumeModel = calibration.volumes
        self.cpu_weights = dict(cpu_weights or {})

    # -- resource rates ----------------------------------------------------------

    def scan_bandwidth(self, scale_factor: float) -> float:
        """Cluster-wide scan rate over compressed pages, buffer-pool aware.

        The pool behaves like a cliff, not a gradient: repeated full scans of
        a database larger than the pool thrash the LRU and hit disk for
        nearly every page.  This is the paper's SF 250 -> SF 1000 transition
        (e.g. Q6 jumps 5 s -> 41 s, an 8.2x step for 4x the data).
        """
        db_compressed = scale_factor * 1e9 * self.params.storage_compression
        pool = self.profile.cluster_memory * self.params.buffer_pool_fraction
        hot = 1.0 if db_compressed <= pool else 0.05
        per_node = (
            hot * self.params.memory_scan_bandwidth
            + (1.0 - hot) * self.profile.aggregate_disk_bandwidth
        )
        return self.profile.nodes * per_node

    @property
    def network_bandwidth(self) -> float:
        """Bisection bandwidth available to DMS."""
        return self.profile.nodes * self.profile.network_bandwidth

    @property
    def total_cores(self) -> int:
        return self.profile.nodes * self.profile.cores_per_node

    def _cpu(self, rows: float, number: int, factor: float = 1.0) -> float:
        weight = self.cpu_weights.get(number, 1.0)
        return rows * self.params.row_cpu_cost * factor * weight / self.total_cores

    # -- volume helpers ----------------------------------------------------------

    def _ref_volume(self, spec: QuerySpec, ref: str, sf: float):
        override = spec.pdw_volume_overrides.get(ref)
        return self.volumes.volume(override if override else ref, sf)

    def _moved_bytes(self, spec: QuerySpec, ref: str, sf: float) -> float:
        return self._ref_volume(spec, ref, sf).bytes * self.params.shuffle_width_factor

    # -- plan construction --------------------------------------------------------

    def _partition_of(self, spec: QuerySpec, ref: str, states: dict[str, str]) -> str:
        if ref in states:
            return states[ref]
        scan = spec.scan_for(ref)
        if scan is not None:
            return distribution_of(scan.table)
        # Aggregation outputs are produced already distributed on the key the
        # optimizer plans to join them on next.
        return "@aligned"

    def _scan_step(self, spec: QuerySpec, scan, sf: float, number: int) -> PdwStep:
        raw = self.volumes.volume(scan.table, sf)
        io = raw.bytes * self.params.storage_compression / self.scan_bandwidth(sf)
        cpu = self._cpu(raw.rows, number)
        return PdwStep(kind="scan", name=f"scan.{scan.ref}", io_time=io, cpu_time=cpu)

    def _join_step(
        self, spec: QuerySpec, join: JoinSpec, sf: float, number: int,
        states: dict[str, str],
    ) -> PdwStep:
        left_part = self._partition_of(spec, join.left, states)
        right_part = self._partition_of(spec, join.right, states)
        left_aligned = left_part in (join.left_key, REPLICATED, "@aligned")
        right_aligned = right_part in (join.right_key, REPLICATED, "@aligned")

        left_vol = self._ref_volume(spec, join.left, sf)
        right_vol = self._ref_volume(spec, join.right, sf)
        out_rows = self.volumes.rows(join.out, sf) if join.out else 1.0
        cpu = self._cpu(
            left_vol.rows + right_vol.rows + out_rows, number, self.params.join_cpu_factor
        )

        # A replicated input joins locally no matter how the other side is
        # distributed, and the output keeps the other side's distribution.
        if left_part == REPLICATED or right_part == REPLICATED:
            if join.out:
                if left_part == REPLICATED and right_part == REPLICATED:
                    states[join.out] = REPLICATED
                else:
                    states[join.out] = (
                        right_part if left_part == REPLICATED else left_part
                    )
            return PdwStep(
                kind="local_join",
                name=f"join.{join.out or join.left}",
                cpu_time=cpu,
                note="co-located join against a replicated table",
            )

        nodes = self.profile.nodes
        options: list[tuple[float, str, float]] = []  # (moved, kind, time)
        if left_aligned and right_aligned:
            options.append((0.0, "local_join", 0.0))
        else:
            moved = 0.0
            if not left_aligned:
                moved += self._moved_bytes(spec, join.left, sf)
            if not right_aligned:
                moved += self._moved_bytes(spec, join.right, sf)
            options.append((moved, "shuffle_join", moved / self.network_bandwidth))
            if self.params.allow_replicate:
                for side, vol_ref in (("left", join.left), ("right", join.right)):
                    moved = self._moved_bytes(spec, vol_ref, sf) * (nodes - 1)
                    options.append(
                        (moved, f"replicate_{side}", moved / self.network_bandwidth)
                    )

        moved, kind, net = min(options, key=lambda o: o[2])
        io = self._spill_io(
            (left_vol.bytes + right_vol.bytes) * self.params.shuffle_width_factor
        )
        if join.out:
            states[join.out] = join.left_key if kind != "replicate_left" else right_part
        note = {
            "local_join": "co-located join, no data movement",
            "shuffle_join": "DMS shuffle of misaligned side(s)",
            "replicate_left": f"replicated {join.left} to all nodes",
            "replicate_right": f"replicated {join.right} to all nodes",
        }[kind if not kind.startswith("replicate") else kind]
        return PdwStep(
            kind="local_join" if kind == "local_join" else kind,
            name=f"join.{join.out or join.left}",
            io_time=io,
            cpu_time=cpu,
            net_time=net,
            moved_bytes=moved,
            note=note,
        )

    def _spill_io(self, working_bytes: float) -> float:
        """Hash join/aggregate spill: working sets beyond memory hit disk twice."""
        budget = self.profile.cluster_memory * self.params.spill_memory_fraction
        spilled = max(0.0, working_bytes - budget)
        if spilled <= 0.0:
            return 0.0
        disk = self.profile.nodes * self.profile.aggregate_disk_bandwidth
        return 2.0 * spilled / disk

    def _agg_step(self, spec: QuerySpec, agg: AggSpec, sf: float, number: int) -> PdwStep:
        in_vol = self._ref_volume(spec, agg.input, sf)
        out_bytes = self.volumes.bytes(agg.out, sf) if agg.out else 4096.0
        cpu = self._cpu(in_vol.rows, number, self.params.agg_cpu_factor)
        net = out_bytes / self.network_bandwidth
        io = self._spill_io(out_bytes * self.params.shuffle_width_factor)
        return PdwStep(
            kind="agg",
            name=f"agg.{agg.out or agg.input}",
            io_time=io,
            cpu_time=cpu,
            net_time=net,
            moved_bytes=out_bytes,
            note="partial local aggregation + global re-aggregation",
        )

    # -- tracing ------------------------------------------------------------------

    def _emit_trace(self, result: PdwQueryResult, tracer, metrics) -> None:
        """Sequential step spans with DMS child spans, post-costing.

        PDW executes plan steps serially (DSQL step list); within a step the
        three resources overlap, so the step span is the max-resource
        elapsed time and the DMS movement appears as a child span on its own
        lane with the moved byte count.
        """
        query = tracer.add(
            f"pdw.q{result.number}", 0.0, result.total_time,
            cat="query", node="pdw", lane="query", sf=result.scale_factor,
        )
        cursor = result.plan_overhead
        prev_step_span = None
        for step in result.steps:
            elapsed = step.elapsed(result.step_overhead)
            step_span = tracer.add(
                f"step.{step.name}", cursor, cursor + elapsed,
                cat="step", node="pdw", lane="steps", parent=query.span_id,
                kind=step.kind, io_time=step.io_time, cpu_time=step.cpu_time,
                net_time=step.net_time,
                overhead=result.step_overhead,
            )
            if prev_step_span is not None:
                # DSQL steps are strictly serial: each waits on the last.
                tracer.link(prev_step_span, step_span, "step-seq")
            if step.moved_bytes > 0.0 and step.net_time > 0.0:
                dms_span = tracer.add(
                    f"dms.{step.name}", cursor, cursor + step.net_time,
                    cat="dms", node="pdw", lane="dms",
                    parent=step_span.span_id,
                    bytes=step.moved_bytes, kind=step.kind,
                )
                if prev_step_span is not None:
                    # The movement cannot start before the producing step
                    # finished — the DMS wait the what-if engine scales.
                    tracer.link(prev_step_span, dms_span, "dms-wait")
            prev_step_span = step_span
            cursor += elapsed
        if metrics:
            metrics.counter("pdw.steps").inc(len(result.steps))
            metrics.counter("pdw.dms_bytes").inc(result.network_bytes)
            for step in result.steps:
                metrics.counter(f"pdw.steps.{step.kind}").inc()

    def _emit_utilization(self, result: PdwQueryResult, sampler) -> None:
        """Feed the serial step layout into a utilization sampler.

        A step's three resource times overlap (the step elapses for the max
        of them), so each resource runs at ``time/elapsed`` mean intensity
        over the step window — the bound resource shows ~1.0 busy, the
        others proportionally less.  DMS movements also report the moved
        byte volume as a ``dms-inflight`` queue series over the network
        window, the reproduction's stand-in for DMS bytes in flight.
        """
        cursor = result.plan_overhead
        for step in result.steps:
            elapsed = step.elapsed(result.step_overhead)
            if elapsed > 0.0:
                for resource, busy_time in (
                    ("cpu", step.cpu_time),
                    ("disk", step.io_time),
                    ("network", step.net_time),
                ):
                    if busy_time > 0.0:
                        sampler.accumulate(
                            "pdw", resource, cursor, cursor + elapsed,
                            level=min(1.0, busy_time / elapsed),
                        )
                if step.moved_bytes > 0.0 and step.net_time > 0.0:
                    sampler.accumulate(
                        "pdw", "dms-inflight", cursor, cursor + step.net_time,
                        level=step.moved_bytes, metric="queue",
                    )
            cursor += elapsed
        sampler.finish(result.total_time)

    # -- public API ---------------------------------------------------------------

    def run_query(self, number: int, scale_factor: float,
                  tracer=None, metrics=None, sampler=None,
                  prof=None) -> PdwQueryResult:
        """Plan and cost one TPC-H query; returns the step breakdown.

        ``tracer``/``metrics``/``sampler`` (see :mod:`repro.obs`) record
        the data-movement breakdown; ``prof`` charges the engine's host
        time to the ``pdw.query`` subsystem counter.  All default to off.
        """
        if prof is not None:
            with prof.section("pdw.query"):
                return self._run_query_inner(
                    number, scale_factor, tracer, metrics, sampler, prof)
        return self._run_query_inner(
            number, scale_factor, tracer, metrics, sampler, None)

    def _run_query_inner(self, number, scale_factor, tracer, metrics,
                         sampler, prof) -> PdwQueryResult:
        spec = spec_for(number)
        result = PdwQueryResult(
            number=number,
            scale_factor=scale_factor,
            plan_overhead=self.params.plan_overhead,
            step_overhead=self.params.step_overhead,
        )
        states: dict[str, str] = {}
        for scan in spec.scans:
            if scan.table in ("nation", "region"):
                continue  # replicated tables: no parallel scan step needed
            result.steps.append(self._scan_step(spec, scan, scale_factor, number))
        for join in spec.joins:
            result.steps.append(
                self._join_step(spec, join, scale_factor, number, states)
            )
        for agg in spec.aggs:
            result.steps.append(self._agg_step(spec, agg, scale_factor, number))
        if spec.has_order_by:
            result.steps.append(
                PdwStep(kind="sort", name="sort", cpu_time=0.2,
                        note="control-node result ordering")
            )
        if tracer:
            if prof is not None:
                with prof.section("span.construct"):
                    self._emit_trace(result, tracer, metrics)
            else:
                self._emit_trace(result, tracer, metrics)
        if sampler:
            self._emit_utilization(result, sampler)
        return result

    # -- fault injection ----------------------------------------------------------

    def run_query_faulted(self, number: int, scale_factor: float, fault,
                          tracer=None, metrics=None,
                          sampler=None) -> FaultedPdwResult:
        """Re-cost one query under a node fault, with PDW's recovery semantics.

        ``fault`` is a :class:`repro.faults.plan.FaultSpec` (duck-typed) of
        kind ``crash`` or ``straggler``; ``fault.at`` <= 1 is a fraction of
        the healthy runtime, else absolute seconds.

        * **crash** — the query aborts; every second of progress is
          discarded.  After ``failover_overhead`` the whole query re-runs
          from scratch on the surviving ``n-1`` nodes (slower: less scan
          bandwidth, less DMS fabric).  This is the amplification the paper's
          Section 2 contrasts with MapReduce: lost work = *query* granularity,
          not task granularity.
        * **straggler** — no speculative execution: every parallel step
          overlapping the fault window runs at the slow node's pace
          (``fault.magnitude`` x).
        """
        if fault.kind not in ("crash", "straggler"):
            raise ConfigurationError(
                f"pdw fault injection handles crash/straggler, not {fault.kind!r}"
            )
        nodes = self.profile.nodes
        if not 0 <= fault.target_index() < nodes:
            raise ConfigurationError(
                f"fault targets node {fault.target_index()}, cluster has {nodes}"
            )
        if nodes < 2:
            raise ConfigurationError("need >= 2 nodes to survive a node fault")

        healthy = self.run_query(number, scale_factor)
        total = healthy.total_time
        at = fault.at * total if fault.at <= 1.0 else fault.at
        out = FaultedPdwResult(
            number=number, scale_factor=scale_factor, healthy=healthy,
            faulted_total=total,
            fault={"kind": fault.kind, "target": fault.target, "at": at},
        )

        if fault.kind == "crash":
            from dataclasses import replace as dc_replace

            degraded = PdwEngine(
                _CalibrationView(self.volumes),
                profile=dc_replace(self.profile, nodes=nodes - 1),
                params=self.params,
                cpu_weights=self.cpu_weights,
            )
            rerun = degraded.run_query(number, scale_factor).total_time
            out.restarts = 1
            out.wasted_seconds = at
            out.faulted_total = at + self.params.failover_overhead + rerun
            if tracer:
                tracer.add(
                    "pdw.aborted-attempt", 0.0, at, cat="fault", node="pdw",
                    lane="faults", wasted=at,
                )
                tracer.add(
                    f"fault.{fault.kind}", at, at, cat="fault", node="pdw",
                    lane="faults", target=fault.target,
                )
                tracer.add(
                    "pdw.query-restart", at + self.params.failover_overhead,
                    out.faulted_total, cat="fault", node="pdw", lane="faults",
                    surviving_nodes=nodes - 1,
                )
        else:  # straggler: the slow node gates every overlapping step
            window_end = at + fault.duration if fault.duration else total
            cursor = healthy.plan_overhead
            faulted = healthy.plan_overhead
            for step in healthy.steps:
                elapsed = step.elapsed(healthy.step_overhead)
                overlap = max(
                    0.0, min(cursor + elapsed, window_end) - max(cursor, at)
                )
                faulted += elapsed + overlap * (fault.magnitude - 1.0)
                cursor += elapsed
            out.faulted_total = faulted
            if tracer:
                tracer.add(
                    f"fault.{fault.kind}", at, min(window_end, total),
                    cat="fault", node="pdw", lane="faults",
                    target=fault.target, magnitude=fault.magnitude,
                )
        if sampler:
            sampler.accumulate("pdw", "fault-degraded", at, out.faulted_total,
                               level=1.0, capacity=1.0)
            sampler.finish(max(out.faulted_total, total))
        if metrics:
            metrics.counter("pdw.faults.injected").inc()
            metrics.counter("pdw.faults.query_restarts").inc(out.restarts)
        return out

    def query_time(self, number: int, scale_factor: float) -> float:
        return self.run_query(number, scale_factor).total_time

    def load_time(self, scale_factor: float) -> float:
        """Table 2's PDW load: dwloader splits text on the landing node.

        The landing node is the bottleneck (~54 MB/s effective end-to-end,
        calibrated at the 250 GB point), which is why PDW loads about twice
        as slowly as Hive at every scale factor.
        """
        nominal_bytes = scale_factor * 1e9
        return 120.0 + nominal_bytes / 54e6

    def validate_spec(self, number: int, scale_factor: float = 250.0) -> None:
        """Resolve every ref in a spec; raises PlanError on a missing volume."""
        spec = spec_for(number)
        for ref in spec.all_refs():
            override = spec.pdw_volume_overrides.get(ref, ref)
            self.volumes.volume(override, scale_factor)
        for scan in spec.scans:
            distribution_of(scan.table)
        if not spec.scans:
            raise PlanError(f"q{number}: spec has no scans")
