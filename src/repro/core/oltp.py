"""The OLTP study: YCSB latency/throughput curves (Figures 2-6).

The paper's measurement protocol is a *closed loop*: 800 client threads each
issue one request at a time against a throttled target rate, so achieved
throughput and latency obey the interactive response-time law
``X = N / (R + Z)``.  This module models each deployment as a closed
queueing network solved with Mean Value Analysis (MVA):

* **cpu** — 128 server cores (8 nodes x 16 hardware threads);
* **disk** — 64 data spindles doing random I/O; SQL Server reads 8 KB per
  miss, MongoDB 32 KB (the workload C differentiator, §3.4.3);
* **log** — SQL Server's commit-time log force (MongoDB ran without
  durability);
* **hot shard lock** — MongoDB 1.8's per-process global write lock, focused
  on the mongod holding the zipfian-hottest key (mongostat showed 25-45% of
  time in this lock under workload A);
* **hot row** — SQL Server's row lock on the hottest key under READ
  COMMITTED (re-running with READ UNCOMMITTED releases readers, the paper's
  §3.4.3 side experiment);
* **append hot spot** — Mongo-AS routes every append to the last chunk; in
  workload E that mongod's writer lock also waits behind scan readers
  (1832 ms appends), and in workload D pushing past ~20 kops/s crashes the
  server (socket exceptions), reproduced via :class:`ServerCrashed`.

Cache behaviour is computed, not assumed: the zipfian CDF over cache-unit
granularity gives each system's miss rate (32 KB mongo extents cache fewer
distinct hot records than 8 KB SQL pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ServerCrashed, WorkloadError
from repro.common.stats import harmonic_number
from repro.common.units import GB, KB, MB
from repro.ycsb.workloads import WORKLOADS, RECORD_BYTES, WorkloadSpec

AVG_SCAN_LENGTH = 500  # scans read uniform(1, 1000) records


@dataclass(frozen=True)
class OltpParams:
    """Cluster-wide constants of the YCSB testbed (Section 3.1/3.4.1)."""

    server_nodes: int = 8
    cores_per_node: int = 16
    memory_per_node: float = 32.0 * GB
    disks_per_node: int = 8
    disk_seek: float = 0.008  # random access on a 10K SAS drive
    disk_bandwidth: float = 100.0 * MB
    client_threads: int = 800
    record_count: int = 640_000_000
    record_bytes: int = RECORD_BYTES
    zipf_theta: float = 0.99

    @property
    def total_cores(self) -> int:
        return self.server_nodes * self.cores_per_node

    @property
    def total_disks(self) -> int:
        return self.server_nodes * self.disks_per_node

    @property
    def dataset_bytes(self) -> float:
        return self.record_count * self.record_bytes

    def io_time(self, nbytes: float) -> float:
        return self.disk_seek + nbytes / self.disk_bandwidth


@dataclass(frozen=True)
class SystemModel:
    """Behavioural knobs of one deployment (SQL-CS, Mongo-AS, Mongo-CS)."""

    name: str
    read_io_bytes: int  # bytes fetched from disk per cache miss
    cache_fraction: float  # of node memory usable as cache
    cache_efficiency: float  # useful-record fraction of a cached unit
    cpu_read: float  # seconds of CPU per read
    cpu_write: float
    cpu_scan: float  # per scan (500 records average)
    shard_count: int  # routing targets (128 mongods / 8 SQL nodes)
    writeback_multiplier: float = 0.5  # dirty-page flush cost per update
    uses_global_lock: bool = False  # MongoDB 1.8 per-process write lock
    has_log: bool = False  # commit-time log force (SQL)
    range_sharded: bool = False  # Mongo-AS chunks
    row_locks: bool = False  # SQL row-level locking
    append_crash_target: Optional[float] = None  # Mongo-AS workload D
    log_io: float = 0.0005  # group-committed log write
    row_lock_hold: float = 0.001  # X lock is held across the commit log force
    # Extensions the paper turned OFF for MongoDB (Section 3.4.1):
    journaled: bool = False  # wait for the 100 ms journal group flush
    replicated: bool = False  # async replica set (one secondary)
    journal_flush_interval: float = 0.1


SYSTEMS: dict[str, SystemModel] = {
    "sql-cs": SystemModel(
        name="sql-cs",
        read_io_bytes=8 * KB,
        cache_fraction=0.82,  # 24 GB buffer pool + OS cache of 32 GB
        cache_efficiency=1.0,  # 8 KB pages: little cache pollution
        cpu_read=0.00035,
        cpu_write=0.00045,
        cpu_scan=0.004,
        shard_count=8,
        writeback_multiplier=0.3,  # checkpoint coalesces dirty pages
        has_log=True,
        row_locks=True,
    ),
    "mongo-as": SystemModel(
        name="mongo-as",
        read_io_bytes=32 * KB,
        cache_fraction=0.90,  # mmap: nearly all of RAM
        cache_efficiency=0.5,  # 32 KB extents: half the cached bytes are cold
        cpu_read=0.00065,  # mongod + mongos hop
        cpu_write=0.0008,
        cpu_scan=0.003,
        shard_count=128,
        writeback_multiplier=0.8,  # 60 s fsync cycle, no write coalescing
        uses_global_lock=True,
        range_sharded=True,
        append_crash_target=20_000.0,
    ),
    "mongo-cs": SystemModel(
        name="mongo-cs",
        read_io_bytes=32 * KB,
        cache_fraction=0.90,
        cache_efficiency=0.4,  # worse locality without mongos batching
        cpu_read=0.00062,
        cpu_write=0.00075,
        cpu_scan=0.006,  # the client merges 128 partial scan results
        shard_count=128,
        writeback_multiplier=0.8,
        uses_global_lock=True,
    ),
}


@dataclass
class Station:
    """One MVA service station."""

    name: str
    servers: int
    # Per-class service seconds per operation of that class.
    service: dict[str, float] = field(default_factory=dict)
    background: float = 0.0  # demand not attributable to a foreground class

    def demand(self, mix: dict[str, float]) -> float:
        return sum(mix.get(c, 0.0) * s for c, s in self.service.items()) + self.background


@dataclass
class CurvePoint:
    """One plotted point: achieved throughput + per-class latencies."""

    system: str
    workload: str
    target: float
    achieved: float
    latency: dict[str, float]  # seconds per op class
    utilization: dict[str, float]

    def latency_ms(self, op_class: str) -> float:
        return self.latency[op_class] * 1000.0


def closed_mva(stations: list[Station], mix: dict[str, float], clients: int,
               think_time: float) -> tuple[float, float, dict[str, float]]:
    """Exact single-class MVA with the Seidmann multi-server approximation.

    Returns (throughput, avg response time, queue length per station), the
    queue lengths keyed by station name in station order.  A station's
    demand per server and its Seidmann delay term do not depend on the
    population, so they are computed once per call; each population step
    then does the same float operations, in the same order, as evaluating
    ``(d / c) * (1 + q) + d * (c - 1) / c`` afresh.
    """
    per_server = []
    delays = []
    for s in stations:
        d = s.demand(mix)
        per_server.append(d / s.servers)
        delays.append(d * (s.servers - 1) / s.servers)
    queues = [0.0] * len(stations)
    x = 0.0
    response = 0.0
    for n in range(1, clients + 1):
        response = 0.0
        station_r = []
        for demand, delay, q in zip(per_server, delays, queues):
            r = demand * (1.0 + q)
            station_r.append(r)
            response += r + delay
        x = n / (response + think_time)
        queues = [x * r for r in station_r]
    return x, response, {s.name: q for s, q in zip(stations, queues)}


class OltpStudy:
    """Reproduces the paper's YCSB evaluation (Figures 2-6 and load times)."""

    def __init__(self, params: OltpParams | None = None,
                 isolation: str = "read_committed",
                 systems: dict[str, SystemModel] | None = None):
        self.params = params or OltpParams()
        if isolation not in ("read_committed", "read_uncommitted"):
            raise WorkloadError(f"unknown isolation {isolation!r}")
        self.isolation = isolation
        self.systems = dict(systems if systems is not None else SYSTEMS)

    # -- cache and skew models ----------------------------------------------------

    def miss_rate(self, system: SystemModel, workload: WorkloadSpec) -> float:
        """Probability a request's record is not memory resident.

        Cache units (8 KB pages / 32 KB extents) are ranked by the zipfian
        popularity of the records they hold; the resident set is the top
        ``cache_bytes / unit`` units.  Workload D's read-latest pattern keeps
        its working set resident (the paper saw 99.5% hits).  A replica set
        stores two copies across the same eight nodes, halving the cache
        available to the primary copy.
        """
        if workload.request_distribution == "latest":
            return 0.005
        p = self.params
        cache_bytes = (
            p.server_nodes * p.memory_per_node
            * system.cache_fraction * system.cache_efficiency
        )
        if system.replicated:
            cache_bytes *= 0.5
        unit = max(system.read_io_bytes, p.record_bytes)
        total_units = p.dataset_bytes / unit
        cached_units = min(total_units, cache_bytes / unit)
        hit = harmonic_number(max(1, int(cached_units)), s=p.zipf_theta) / (
            harmonic_number(int(total_units), s=p.zipf_theta)
        )
        return max(0.0, 1.0 - hit)

    def hottest_key_share(self) -> float:
        """Zipfian mass of the single hottest key (rank 0)."""
        return 1.0 / harmonic_number(self.params.record_count, s=self.params.zipf_theta)

    def hottest_shard_share(self, system: SystemModel) -> float:
        """Share of requests landing on the shard holding the hottest key."""
        hot = self.hottest_key_share()
        return hot + (1.0 - hot) / system.shard_count

    # -- per-class service demands ---------------------------------------------------

    def _stations(self, system: SystemModel, workload: WorkloadSpec) -> list[Station]:
        p = self.params
        miss = self.miss_rate(system, workload)
        io = p.io_time(system.read_io_bytes)

        cpu = Station("cpu", p.total_cores)
        disk = Station("disk", p.total_disks)
        stations = [cpu, disk]

        cpu.service["read"] = system.cpu_read
        disk.service["read"] = miss * io

        cpu.service["update"] = system.cpu_write
        disk.service["update"] = miss * io  # fetch the page/extent to modify
        cpu.service["insert"] = system.cpu_write
        disk.service["insert"] = 0.1 * io  # appends fill the tail page

        # Deferred write-back of dirty data consumes disk capacity without
        # appearing in any op's latency.  Updates dirty random pages (SQL
        # checkpoints coalesce them; mongo's fsync cycle does not); appends
        # write back sequentially and are nearly free.
        disk.background = (
            workload.update * io * system.writeback_multiplier
            + workload.insert * 0.1 * io
        )

        # Scans read ~500 consecutive records.  Range sharding (Mongo-AS)
        # turns that into one near-sequential read on one chunk; hash
        # sharding fans it out as per-shard random page reads, of which the
        # cache absorbs the hit fraction.
        scan_bytes = AVG_SCAN_LENGTH * p.record_bytes
        if workload.scan > 0:
            unit = max(system.read_io_bytes, p.record_bytes)
            scan_units = scan_bytes / unit
            if system.range_sharded:
                # One seek plus a streaming read whenever any part is cold.
                p_cold = min(1.0, scan_units * miss)
                scan_io = p_cold * (p.disk_seek + scan_bytes / p.disk_bandwidth)
            else:
                fanout_penalty = 1.3 if system.shard_count > p.server_nodes else 1.0
                scan_io = scan_units * miss * p.io_time(unit) * fanout_penalty
            cpu.service["scan"] = system.cpu_scan
            disk.service["scan"] = scan_io

        if system.replicated:
            # The secondaries apply every write too: extra CPU and flush
            # traffic on the same spindles.
            for cls in ("update", "insert"):
                cpu.service[cls] = cpu.service[cls] * 1.8
            disk.background *= 1.8

        if system.journaled:
            # Safe-mode acks wait for the journal's 100 ms group flush:
            # a pure delay (no capacity limit) of half the interval on
            # average, plus sequential journal writes.
            journal = Station("journal", self.params.client_threads)
            wait = system.journal_flush_interval / 2.0
            journal.service["update"] = wait
            journal.service["insert"] = wait
            stations.append(journal)

        write_frac = workload.write_fraction
        if system.has_log:
            log = Station("log", p.server_nodes)  # one log disk per node
            log.service["update"] = system.log_io
            log.service["insert"] = system.log_io
            stations.append(log)

        if system.uses_global_lock and write_frac > 0:
            # The global write lock of the mongod holding the hottest key:
            # every write to that shard serializes, holding the lock across
            # any page fault taken inside it.
            hot_share = self.hottest_shard_share(system)
            hold = system.cpu_write + miss * io
            lock = Station("hotlock", 1)
            lock.service["update"] = hot_share * hold
            lock.service["insert"] = hot_share * hold
            # A read on that shard waits only when the writer is in.
            lock.service["read"] = hot_share * write_frac * hold
            stations.append(lock)

        if system.row_locks and workload.update > 0 and self.isolation == "read_committed":
            # SQL's hottest row: a reader's S lock waits behind an in-flight
            # X lock (probability ~ the update fraction); updates serialize
            # with each other.  READ UNCOMMITTED skips the reader side.
            hot = self.hottest_key_share()
            row = Station("hotrow", 1)
            row.service["update"] = hot * system.row_lock_hold
            row.service["read"] = hot * workload.update * system.row_lock_hold
            stations.append(row)

        if getattr(workload, "rmw", 0.0) > 0:
            # A read-modify-write visits every station its read and its
            # update would visit, back to back.
            for station in stations:
                read_s = station.service.get("read", 0.0)
                update_s = station.service.get("update", 0.0)
                if read_s or update_s:
                    station.service["rmw"] = read_s + update_s

        if system.range_sharded and workload.insert > 0:
            # Every append lands in the last chunk: one mongod's writer lock.
            # Under workload E that writer must also drain in-flight scan
            # readers before it can enter.
            if workload.scan > 0:
                hold = 0.3 * (p.disk_seek + scan_bytes / p.disk_bandwidth)
            else:
                hold = system.cpu_write + 0.00015  # chunk bookkeeping
            hot = Station("appendhot", 1)
            hot.service["insert"] = hold
            stations.append(hot)

        return stations

    @staticmethod
    def _mix(workload: WorkloadSpec) -> dict[str, float]:
        return {
            "read": workload.read,
            "update": workload.update,
            "insert": workload.insert,
            "scan": workload.scan,
            "rmw": workload.rmw,
        }

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, system_name: str, workload_name: str, target: float) -> CurvePoint:
        """One benchmark point: throttle to ``target`` ops/s, measure."""
        system = self.systems[system_name]
        workload = WORKLOADS[workload_name]
        if (
            system.append_crash_target is not None
            and workload.insert > 0
            and workload.request_distribution == "latest"
            and target > system.append_crash_target
        ):
            raise ServerCrashed(
                f"{system_name}: append path collapsed above "
                f"{system.append_crash_target:.0f} ops/s (socket exceptions, §3.4.3)"
            )

        stations = self._stations(system, workload)
        mix = self._mix(workload)
        n = self.params.client_threads

        # Find the think time that throttles the closed loop to the target.
        think = 0.0
        x, response, queue = closed_mva(stations, mix, n, think)
        for _ in range(8):
            think = max(0.0, n / target - response)
            x, response, queue = closed_mva(stations, mix, n, think)
            if x <= target * 1.001:
                break
        achieved = min(x, target)

        latency: dict[str, float] = {}
        for op_class, fraction in mix.items():
            if fraction <= 0:
                continue
            r = 0.0
            for s in stations:
                service = s.service.get(op_class, 0.0)
                r += (service / s.servers) * (1.0 + queue[s.name]) + service * (
                    s.servers - 1
                ) / s.servers
            latency[op_class] = r

        utilization = {
            s.name: min(1.0, achieved * s.demand(mix) / s.servers) for s in stations
        }
        return CurvePoint(
            system=system_name,
            workload=workload_name,
            target=target,
            achieved=achieved,
            latency=latency,
            utilization=utilization,
        )

    def peak_throughput(self, system_name: str, workload_name: str) -> float:
        """Saturation throughput (no throttle)."""
        system = self.systems[system_name]
        workload = WORKLOADS[workload_name]
        stations = self._stations(system, workload)
        x, _, _ = closed_mva(stations, self._mix(workload), self.params.client_threads, 0.0)
        return x

    def curve(self, system_name: str, workload_name: str,
              targets: list[float]) -> list[Optional[CurvePoint]]:
        """One figure series; crashed points are returned as None."""
        points: list[Optional[CurvePoint]] = []
        for target in targets:
            try:
                points.append(self.evaluate(system_name, workload_name, target))
            except ServerCrashed:
                points.append(None)
        return points

    def figure(self, workload_name: str, targets: list[float]) -> dict[str, list]:
        return {
            name: self.curve(name, workload_name, targets) for name in self.systems
        }

    # -- event-simulation cross-validation -----------------------------------------

    def sim_stations(self, system_name: str, workload_name: str,
                     scale: float = 0.02,
                     station_scales: dict | None = None):
        """Scaled-down event-sim stations plus the normalized op mix.

        The cluster is scaled by ``scale`` (server counts shrink, service
        times stay, so utilizations are preserved); ``station_scales`` maps
        station names to service-time multipliers (the what-if validation
        knob).  Returns ``(stations, mix)`` ready for
        :func:`repro.ycsb.eventsim.simulate_closed_loop` or
        :func:`~repro.ycsb.eventsim.simulate_open_loop`.
        """
        from repro.ycsb.eventsim import SimStation

        system = self.systems[system_name]
        workload = WORKLOADS[workload_name]
        mix = {c: f for c, f in self._mix(workload).items() if f > 0}
        total = sum(mix.values())
        mix = {c: f / total for c, f in mix.items()}

        stations = []
        for s in self._stations(system, workload):
            servers = max(1, round(s.servers * scale))
            service = {c: v for c, v in s.service.items() if v > 0 and c in mix}
            if station_scales and s.name in station_scales:
                factor = station_scales[s.name]
                service = {c: v * factor for c, v in service.items() if v * factor > 0}
            if service:
                stations.append(SimStation(s.name, servers, service))
        return stations, mix

    def event_sim_point(self, system_name: str, workload_name: str,
                        target: float, scale: float = 0.02,
                        duration: float = 120.0, seed: int = 1234,
                        tracer=None, metrics=None, sampler=None,
                        faults=None, retry_policy=None,
                        station_scales: dict | None = None,
                        live=None, bounded=False, prof=None):
        """Re-measure one figure point with the discrete-event simulator.

        The cluster and client population are scaled down by ``scale`` (the
        stations keep their service times, so utilizations are preserved),
        which keeps the event count tractable while validating the MVA
        numbers and producing the window-to-window standard errors the
        analytic model cannot.  Returns ``(CurvePoint, EventSimResult)``.

        ``tracer``/``metrics`` (see :mod:`repro.obs`) are forwarded to the
        event simulation: every completed request becomes a latency span and
        every station (cpu/disk/log/hotlock/...) emits hold and wait spans —
        which is how the workload A latency gap shows up as hot-lock waits.
        The cache model's verdict (miss rate, bytes fetched per miss — the
        8 KB-vs-32 KB differentiator) is recorded as gauges.

        ``station_scales`` maps station names to service-time multipliers
        (``{"hotlock": 0.5}`` halves the hot-lock demand).  It is the
        cost-model knob the what-if engine's predictions are validated
        against: exponential service draws scale linearly with their mean,
        so a scaled run consumes the identical RNG sequence.  ``None``
        leaves the code path (and output) byte-identical.
        """
        from repro.ycsb.eventsim import simulate_closed_loop

        point = self.evaluate(system_name, workload_name, target)
        system = self.systems[system_name]
        workload = WORKLOADS[workload_name]
        stations, mix = self.sim_stations(system_name, workload_name,
                                          scale=scale,
                                          station_scales=station_scales)
        clients = max(4, round(self.params.client_threads * scale))
        scaled_target = max(1.0, target * scale)
        # Think time from the response-time law at the scaled population.
        think = max(0.0, clients / scaled_target - point.latency.get("read", 0.001))
        if metrics:
            metrics.gauge("oltp.cache.miss_rate").set(
                self.miss_rate(system, workload)
            )
            metrics.gauge("oltp.cache.read_io_bytes").set(system.read_io_bytes)
            metrics.gauge("oltp.target").set(target)
            metrics.gauge("oltp.mva.achieved").set(point.achieved)
        sim = simulate_closed_loop(
            stations, mix, clients=clients, think_time=think,
            duration=duration, seed=seed,
            tracer=tracer, metrics=metrics, sampler=sampler,
            faults=faults, retry_policy=retry_policy,
            live=live, bounded=bounded, prof=prof,
        )
        if metrics:
            metrics.gauge("oltp.sim.throughput").set(sim.throughput)
        return point, sim

    # -- open-loop frontier (capacity planning beyond the paper's protocol) --------

    def open_loop_point(self, system_name: str, workload_name: str,
                        rate: float, scale: float = 1.0,
                        duration: float = 30.0, warmup: float = 5.0,
                        seed: int = 1234, workers: int | None = None,
                        tracer=None, metrics=None, sampler=None,
                        faults=None, retry_policy=None,
                        station_scales: dict | None = None,
                        live=None, bounded=False, prof=None,
                        overload=None):
        """Measure one *open-loop* point: Poisson arrivals at ``rate`` ops/s.

        ``rate`` is the cluster-scale target; arrivals and stations are both
        scaled down by ``scale``.  The default is the **full** cluster:
        unlike the closed-loop figures, a frontier run must saturate in the
        right place, and the bottlenecks here are serialization points (the
        global lock, the hot row, the group-committed log) whose one-server
        stations cannot shrink — ``scale < 1`` inflates their relative
        capacity and pushes the knee far past the real peak.  Use small
        scales only for latency shape, never for capacity.  ``workers``
        defaults to the paper's 800 client threads scaled — the finite
        dispatch pool whose slips the intended-start-time accounting
        charges back to the operations (no coordinated omission).  Returns
        the :class:`~repro.ycsb.eventsim.OpenLoopResult` with **unscaled**
        ``offered_rate``/``throughput`` so the numbers compose with the MVA
        figures.
        """
        from repro.ycsb.eventsim import simulate_open_loop

        stations, mix = self.sim_stations(system_name, workload_name,
                                          scale=scale,
                                          station_scales=station_scales)
        if workers is None:
            workers = max(4, round(self.params.client_threads * scale))
        scaled_rate = max(1e-9, rate * scale)
        if metrics:
            metrics.gauge("frontier.scale").set(scale)
            metrics.gauge("frontier.workers").set(workers)
        result = simulate_open_loop(
            stations, mix, rate=scaled_rate, workers=workers,
            duration=duration, warmup=warmup, seed=seed,
            tracer=tracer, metrics=metrics, sampler=sampler,
            faults=faults, retry_policy=retry_policy,
            live=live, bounded=bounded, prof=prof, overload=overload,
        )
        # Report at cluster scale: rates scale back up, latencies are
        # scale-invariant by construction.
        result.offered_rate = rate
        result.throughput = result.throughput / scale
        result.window_throughputs = [x / scale for x in result.window_throughputs]
        return result

    def frontier_report(self, systems=None, workloads=None, *,
                        slo_ms: float = 250.0, seed: int = 42,
                        scale: float = 1.0, measure_ops: int = 40000,
                        warmup_ops: int = 10000, min_window_s: float = 2.0,
                        concern: str | None = None, faults=None,
                        overload=None) -> dict:
        """Open-loop latency-throughput frontier (``repro-frontier/1``).

        Delegates to :func:`repro.ycsb.frontier.frontier_report`; see there
        for the sweep, the knee search, and the row fields.
        """
        from repro.ycsb.frontier import frontier_report

        return frontier_report(
            systems=systems, workloads=workloads, slo_ms=slo_ms, seed=seed,
            scale=scale, measure_ops=measure_ops, warmup_ops=warmup_ops,
            min_window_s=min_window_s, concern=concern, faults=faults,
            overload=overload,
            params=self.params, isolation=self.isolation,
        )

    def overload_report(self, policy=None, **kwargs) -> dict:
        """The metastable-failure demonstration (``repro-overload/1``).

        Delegates to :func:`repro.overload.report.overload_report`; see
        there for the scenario, the two arms, and the contrast verdict.
        """
        from repro.overload.report import overload_report

        return overload_report(policy, **kwargs)

    # Service stations that model a serialization point inside one process
    # rather than a pool of cluster hardware; the bottleneck report gives
    # each its own row with the mechanism it stands for.
    _LOCK_STATIONS = {
        "hotlock": ("mongod (hot shard)", "global-lock"),
        "hotrow": ("sql (hot row)", "row-lock"),
        "appendhot": ("append hot spot (last chunk)", "append-lock"),
    }

    def _attribute_point(self, system_name: str, workload_name: str,
                         target: float, utils: dict, source: str,
                         start: float = 0.0, end: float = 0.0) -> list:
        """Attributions from a station->busy-fraction map (MVA or measured)."""
        from repro.obs.bottleneck import Attribution, lock_band_note

        attributions = []
        shared = {k: v for k, v in utils.items() if k not in self._LOCK_STATIONS}
        if shared:
            top = max(sorted(shared), key=lambda k: shared[k])
            attributions.append(Attribution(
                phase=(f"{system_name} workload {workload_name} "
                       f"@ {target:g} ops/s [{source}]"),
                start=start, end=end,
                bottleneck=top, busy=shared[top],
                utilizations=dict(utils),
            ))
        for station, (phase, resource) in self._LOCK_STATIONS.items():
            if station not in utils:
                continue
            note = lock_band_note(utils[station]) if resource == "global-lock" else ""
            attributions.append(Attribution(
                phase=f"{phase} [{source}]", start=start, end=end,
                bottleneck=resource, busy=utils[station],
                utilizations={resource: utils[station]},
                note=note,
            ))
        return attributions

    def bottlenecks(self, system_name: str, workload_name: str, target: float,
                    sim: bool = False, duration: float = 30.0,
                    warmup: float = 10.0, seed: int = 1234,
                    interval: float = 0.5, scale: float = 1.0):
        """Bottleneck attributions for one figure point.

        Returns ``(CurvePoint, attributions, sampler)``.  By default the
        busy fractions come from the analytic MVA solution (cluster scale,
        instant).  With ``sim=True`` the point is re-measured on the event
        simulator with a :class:`~repro.obs.timeseries.UtilizationSampler`
        attached and the fractions are the post-warmup window means of the
        sampled station series — the full-scale (``scale=1.0``) default
        matters because capacity-1 serialization points such as the mongod
        global lock cannot be scaled down with the rest of the cluster.

        Either way, serialization-point stations (the global lock, the hot
        row, the append hot spot) get their own report rows; the global-lock
        row is annotated against the paper's 25-45%% mongostat band via
        :func:`repro.obs.bottleneck.lock_band_note`.

        Note the measured disk busy fraction excludes the deferred
        write-back traffic the MVA folds in as ``disk.background`` — the
        sim reports foreground service only, so its disk row reads lower
        than the analytic one by design.
        """
        point = self.evaluate(system_name, workload_name, target)
        if not sim:
            return point, self._attribute_point(
                system_name, workload_name, target, point.utilization, "mva"
            ), None
        from repro.obs.timeseries import UtilizationSampler

        sampler = UtilizationSampler(interval=interval)
        self.event_sim_point(
            system_name, workload_name, target, scale=scale,
            duration=duration, seed=seed, sampler=sampler,
        )
        measured = {
            s.node: s.window_mean(warmup, duration)
            for s in sampler.series(metric="busy")
        }
        attributions = self._attribute_point(
            system_name, workload_name, target, measured, "event-sim",
            start=warmup, end=duration,
        )
        return point, attributions, sampler

    # -- causal analysis: critical path & what-if ---------------------------------------

    def traced_point(self, system_name: str, workload_name: str, target: float,
                     scale: float = 0.02, duration: float = 120.0,
                     seed: int = 1234, station_scales: dict | None = None):
        """One event-sim point with a tracer attached.

        Returns ``(CurvePoint, EventSimResult, Tracer)`` — the raw material
        for critical-path extraction and what-if replay.
        """
        from repro.obs import Tracer

        tracer = Tracer()
        point, sim = self.event_sim_point(
            system_name, workload_name, target, scale=scale,
            duration=duration, seed=seed, tracer=tracer,
            station_scales=station_scales,
        )
        return point, sim, tracer

    def critical_path(self, system_name: str, workload_name: str, target: float,
                      scale: float = 0.02, duration: float = 120.0,
                      seed: int = 1234, warmup: float = 10.0):
        """Critical path of the slowest measured request at one figure point.

        An OLTP trace has no single query root, so the representative unit
        of work is the worst post-warmup request — the one whose station
        visits, lock waits and retries explain the latency tail.  Returns
        ``(CurvePoint, EventSimResult, Tracer, CriticalPath)``.
        """
        from repro.obs import critical_path as extract_path

        point, sim, tracer = self.traced_point(
            system_name, workload_name, target, scale=scale,
            duration=duration, seed=seed,
        )
        requests = [
            span for span in tracer.find(cat="request")
            if span.end >= warmup and not span.args.get("error")
        ]
        if not requests:
            raise WorkloadError(
                f"{system_name} workload {workload_name} @ {target:g}: "
                "no measured requests to extract a critical path from"
            )
        root = max(requests, key=lambda s: (s.duration, -s.span_id))
        return point, sim, tracer, extract_path(tracer, root=root)

    def whatif(self, system_name: str, workload_name: str, target: float,
               scales: dict, scale: float = 0.02, duration: float = 120.0,
               seed: int = 1234, warmup: float = 10.0):
        """What-if replay of one figure point with mechanisms scaled.

        ``scales`` comes from :func:`repro.obs.parse_whatif` (e.g.
        ``{"lock-wait": 0.5}``).  Returns ``(CurvePoint, EventSimResult,
        Tracer, WhatIfReport)``; the report's prediction is validated in the
        tests against re-running this simulator with the corresponding
        ``station_scales`` cost-model knob.
        """
        from repro.obs import oltp_whatif_report

        point, sim, tracer = self.traced_point(
            system_name, workload_name, target, scale=scale,
            duration=duration, seed=seed,
        )
        report = oltp_whatif_report(
            tracer, scales, warmup=warmup,
            target={"system": system_name, "workload": workload_name,
                    "target_ops": target},
        )
        return point, sim, tracer, report

    # -- replication & chaos (beyond the paper's bare deployments) ----------------------

    def availability_report(self, systems=None, concerns=None, *,
                            chaos=None, workload: str = "A",
                            shard_count: int = 4, record_count: int = 300,
                            operations: int = 500, replicas: int = 3,
                            seed: int = 11, replication=None,
                            tracer=None) -> dict:
        """Chaos-verified durability sweep (``repro-availability/1``).

        The paper ran MongoDB without replica sets and SQL Server without
        mirroring (§3.4.1), so a dead node simply took its key range down.
        This report measures the configurations the vendors actually ship:
        each (system, write-concern) cell runs the functional YCSB cluster
        under a seeded chaos schedule — member kills, partitions, lag
        spikes — and audits every *acknowledged* write after recovery.  The
        safety invariant: nothing acknowledged at ``journaled``/``majority``
        (or on a mirrored SQL Server) may be lost, ever; ``safe``-mode
        losses must sit inside the 100 ms journal flush window of a fault.

        Delegates to :func:`repro.faults.availability.availability_report`;
        see there for the row fields.
        """
        from repro.faults.availability import availability_report

        return availability_report(
            systems, concerns, chaos=chaos, workload=workload,
            shard_count=shard_count, record_count=record_count,
            operations=operations, replicas=replicas, seed=seed,
            replication=replication, tracer=tracer,
        )

    def live_report(self, system: str = "mongo-as", *,
                    concern="safe", workload: str = "A",
                    slo_rules="p99<=25ms@100ms,200ms",
                    slice_s: float = 0.1, chaos=None,
                    shard_count: int = 4, record_count: int = 300,
                    operations: int = 500, replicas: int = 3,
                    seed: int = 11, replication=None,
                    span_sample=None, prof=None) -> dict:
        """Watch one seeded chaos run live (``repro-live/1``).

        Runs a single (system, write-concern) chaos scenario — the same
        machinery as :meth:`availability_report` — with a
        :class:`~repro.obs.LiveTelemetry` collector attached: windowed
        latency digests, online multi-window burn-rate SLO evaluation on
        the virtual clock, and fault/election events noted for alert
        attribution.  A primary kill shows up as a burn-rate alert
        *attributed to the kill*, then clears after failover.

        ``slo_rules`` is the ``;``-separated grammar of
        :func:`repro.obs.parse_slo_rules` (or an already-parsed list);
        ``span_sample`` optionally attaches a tail-biased
        :class:`~repro.obs.SamplingTracer` (``RATE[,slow_ms=N]`` spec or a
        :class:`~repro.obs.SpanSamplePolicy`).  The defaults use short
        windows because the chaos runs live on a compressed virtual
        clock: ops take ~1 ms, elections ~250 ms.
        """
        from repro.faults.availability import availability_row
        from repro.faults.chaos import ChaosConfig
        from repro.obs import (
            LiveTelemetry,
            SamplingTracer,
            SpanSamplePolicy,
            build_live_report,
            parse_slo_rules,
        )
        from repro.replication.writeconcern import WriteConcern

        rules = (parse_slo_rules(slo_rules)
                 if isinstance(slo_rules, str) else list(slo_rules or []))
        if isinstance(chaos, str):
            chaos = ChaosConfig.parse(chaos)
        chaos = chaos or ChaosConfig()
        tracer = None
        if span_sample is not None:
            policy = (SpanSamplePolicy.parse(span_sample)
                      if isinstance(span_sample, str) else span_sample)
            tracer = SamplingTracer(policy)
        live = LiveTelemetry(slice_s=slice_s, rules=rules)
        concern_obj = None
        if system != "sql-cs":
            concern_obj = (WriteConcern.parse(concern)
                           if isinstance(concern, str) else concern)
        row = availability_row(
            system, concern_obj, chaos=chaos, workload=workload,
            shard_count=shard_count, record_count=record_count,
            operations=operations, replicas=replicas, seed=seed,
            replication=replication, tracer=tracer, live=live, prof=prof,
        )
        scenario = {
            "kind": "chaos",
            "system": system,
            "concern": row["concern"],
            "workload": workload,
            "operations": operations,
            "seed": seed,
            "chaos": chaos.spec_string(),
            "plan": row["plan"],
        }
        return build_live_report(live, scenario, sampler=tracer)

    # -- load phase (Section 3.4.2) -----------------------------------------------------

    def load_time_minutes(self, system_name: str, pre_split: bool = True) -> float:
        """Load 640M records; reproduces the 114 / 146 / 45 minute split.

        * Mongo-CS: batched inserts, CPU-bound across 128 mongods.
        * SQL-CS: one transaction per row — every insert forces the log.
        * Mongo-AS: Mongo-CS work plus mongos routing and (without the
          pre-split) chunk splits and balancer migrations.
        """
        p = self.params
        n = p.record_count
        if system_name == "sql-cs":
            # Log-force bound: ~1 ms per group commit, ~9 rows per group
            # (each insert is its own transaction, §3.4.2), one log disk
            # per node.
            per_insert = 0.001 / 9.1 / p.server_nodes
            return n * per_insert / 60.0
        if system_name == "mongo-cs":
            # Batched client inserts: ~0.35 ms of CPU per document across
            # 128 cores at ~65% efficiency.
            per_insert = 0.00035 / 0.65 / p.total_cores
            return n * per_insert / 60.0
        if system_name == "mongo-as":
            base = self.load_time_minutes("mongo-cs")
            routing = n * 0.0009 / p.total_cores / 60.0  # mongos + config hops
            if pre_split:
                return base + routing
            # Balancer-driven loading: roughly half the data is migrated
            # once; each migrated document goes through the normal insert
            # and delete paths (global write lock included), sustaining only
            # ~10 MB/s per node.
            migrated = 0.5 * p.dataset_bytes
            migration = migrated / (10e6 * p.server_nodes) / 60.0
            return base + routing + migration
        raise WorkloadError(f"unknown system {system_name!r}")
