"""Per-layer instrumentation for the benchmark's traced run.

The traced run wraps public functions of each program layer from the
benchmark's side; nothing under ``src/`` changes.  Every wrapped call is
charged to a layer key with a call count, inclusive time and self time
(inclusive time minus the time of wrapped calls nested inside it), using one
per-process stack.  Coarse calls (event-loop runs, simulator entry points,
dbgen, queries, relational operators, weight fits) are also kept as spans
with a parent and written out in Chrome trace-event form when the run ends.
Hot fine-grained calls (``Resource.request``, ``QuantileDigest.record``,
``bson.encode``, ...) would not fit in memory as one span each, so they are
kept as count/total/self aggregates only.

End-to-end metrics never come from a traced run: the wrappers add a
Python call and two clock reads to every wrapped call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import STORE_SYSTEMS

RELATIONAL_OPS = ("Scan", "Filter", "Project", "HashJoin", "Aggregate",
                  "Sort", "Distinct", "Limit")
QUERY_NUMBERS = range(1, 23)


class LayerTracer:
    """Count, inclusive time and self time per layer key, plus coarse spans."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)  # quantities fed by after-hooks
        self.peak = defaultdict(float)  # maxima fed by after-hooks
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.context = ""  # the system a functional phase is driving
        self.bufferpools: list = []  # every SQL buffer pool created
        self.origin = time.perf_counter()
        self._frames: list[float] = []  # child time of each open wrapped call
        self._depth = defaultdict(int)  # open calls per key (recursion guard)
        self._open_spans: list[int] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, name: str, key, *, span: bool = False,
             after=None) -> None:
        """Replace ``owner.name`` with a charging wrapper.

        ``key`` is the layer key, or a function of the call's positional
        arguments returning one.  ``after(args, result)`` runs once the call
        returned, to feed :attr:`extra`/:attr:`peak`.
        """
        fn = getattr(owner, name)
        clock = time.perf_counter
        frames, depth = self._frames, self._depth
        count, total, self_s = self.count, self.total, self.self_s
        spans, open_spans = self.spans, self._open_spans
        dynamic = callable(key)

        def wrapper(*args, **kwargs):
            k = key(args) if dynamic else key
            if span:
                index = len(spans)
                spans.append([k, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            frames.append(0.0)
            depth[k] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = frames.pop()
                if frames:
                    frames[-1] += elapsed
                count[k] += 1
                self_s[k] += elapsed - child
                depth[k] -= 1
                if not depth[k]:
                    total[k] += elapsed
                if span:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, wrapper)

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (a cell or a phase); charged to no layer."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open_spans[-1] if self._open_spans else -1])
        self._open_spans.append(index)
        try:
            yield
        finally:
            self._open_spans.pop()
            self.spans[index][2] = time.perf_counter()

    @property
    def attributed_s(self) -> float:
        """Wall time spent inside any wrapped call (the self times tile it)."""
        return sum(self.self_s.values())

    # -- export ---------------------------------------------------------------

    def chrome_trace(self, meta: dict) -> dict:
        """The spans as Chrome trace events, with the aggregates alongside."""
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        layers = {
            key: {"count": self.count[key], "total_s": self.total[key],
                  "self_s": self.self_s[key]}
            for key in sorted(self.count)
        }
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {**meta, "layers": layers}}

    def top_self(self, n: int = 3) -> list[tuple[str, float]]:
        ranked = sorted(self.self_s.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]


def install(tracer: LayerTracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.common.btree import BTree
    from repro.common.rng import SeedStream
    from repro.core import dss
    from repro.docstore import bson
    from repro.docstore.chunks import ConfigServer, MongosRouter
    from repro.docstore.cluster import MongoAsCluster, MongoCsCluster
    from repro.docstore.mongod import Mongod
    from repro.hive.engine import HiveEngine
    from repro.obs.digest import QuantileDigest
    from repro.obs.live import LiveTelemetry
    from repro.overload import sim as overload_sim
    from repro.overload.admission import AdmissionResource
    from repro.pdw.engine import PdwEngine
    from repro.relational.operators import Operator
    from repro.simcluster.events import Environment, Event, Resource
    from repro.sqlstore import server as sql_server
    from repro.sqlstore.bufferpool import BufferPool
    from repro.sqlstore.cluster import SqlCsCluster
    from repro.sqlstore.wal import WriteAheadLog
    from repro.tpch import volumes
    from repro.tpch.dbgen import DbGen
    from repro.ycsb import eventsim, histogram

    t = tracer
    extra, peak = t.extra, t.peak

    # simcluster: the discrete-event kernel.
    def after_request(args, grant):
        if not grant.triggered:  # queued: no free server
            extra["simcluster.resource_waits"] += 1
        queue = args[0].queue_length
        if queue > peak["simcluster.resource_queue"]:
            peak["simcluster.resource_queue"] = queue

    t.wrap(Environment, "timeout", "simcluster.timeout")
    t.wrap(Event, "succeed", "simcluster.succeed")
    t.wrap(Environment, "run", "simcluster.run", span=True)
    t.wrap(Resource, "request", "simcluster.resource.request",
           after=after_request)
    t.wrap(Resource, "release", "simcluster.resource.release")

    # ycsb eventsim, its result assembly, and the seed substreams.
    t.wrap(eventsim, "simulate_closed_loop", "ycsb.eventsim", span=True)
    t.wrap(eventsim, "simulate_open_loop", "ycsb.eventsim", span=True)
    t.wrap(histogram, "from_latencies", "ycsb.histogram")
    t.wrap(histogram, "from_digest", "ycsb.histogram")
    t.wrap(eventsim, "percentile", "common.stats.percentile")
    t.wrap(overload_sim, "percentile", "common.stats.percentile")
    t.wrap(SeedStream, "rng_for", "common.rng.substream")

    # obs: live telemetry and its quantile digests.
    for name in ("record_op", "record_censored", "record_shed"):
        t.wrap(LiveTelemetry, name, "obs.live.record")
    for name in ("record", "record_censored"):
        t.wrap(QuantileDigest, name, "obs.digest.record")

    # overload: the admission-controlled simulator.
    def after_overload(args, result):
        extra["overload.shed"] += result.shed_count
        extra["overload.arrivals"] += result.arrivals

    t.wrap(overload_sim, "overload_open_loop", "overload.sim", span=True,
           after=after_overload)
    t.wrap(AdmissionResource, "request", "overload.admission")

    # docstore: clusters, mongod, routing, BSON, chunk metadata.
    def after_cluster_scan(args, rows):
        extra[f"{t.context}.scan_returned"] += len(rows)

    def after_shard_scan(args, rows):
        extra[f"{t.context}.scan_examined"] += len(rows)

    def after_balancer(args, moved):
        extra["docstore.balancer_moves"] += moved

    for cluster in (MongoAsCluster, MongoCsCluster):
        for name in ("insert", "read", "update"):
            t.wrap(cluster, name, "docstore.cluster")
        t.wrap(cluster, "scan", "docstore.cluster", after=after_cluster_scan)
    t.wrap(MongoAsCluster, "run_balancer", "docstore.balancer",
           after=after_balancer)
    for name in ("insert", "find_one", "update"):
        t.wrap(Mongod, name, "docstore.mongod")
    t.wrap(Mongod, "scan", "docstore.mongod", after=after_shard_scan)
    t.wrap(bson, "encode", "docstore.bson")
    t.wrap(bson, "decode", "docstore.bson")
    t.wrap(MongosRouter, "route", "docstore.route")
    t.wrap(ConfigServer, "split_chunk", "docstore.split")
    for name in ("get", "insert", "range_scan", "delete"):
        t.wrap(BTree, name, "common.btree")

    # sqlstore: cluster, server, buffer pool, WAL, checkpoints, row codec.
    def after_access(args, hit):
        if hit:
            extra["sqlstore.bufferpool_hits"] += 1

    def after_append(args, record):
        extra["sqlstore.wal_bytes"] += record.byte_size

    for name in ("insert", "read", "update"):
        t.wrap(SqlCsCluster, name, "sqlstore.cluster")
        t.wrap(sql_server.SqlServerNode, name, "sqlstore.server")
    t.wrap(SqlCsCluster, "scan", "sqlstore.cluster", after=after_cluster_scan)
    t.wrap(sql_server.SqlServerNode, "scan", "sqlstore.server",
           after=after_shard_scan)
    t.wrap(sql_server.SqlServerNode, "checkpoint", "sqlstore.checkpoint")
    t.wrap(BufferPool, "__init__", "sqlstore.bufferpool.init",
           after=lambda args, _: t.bufferpools.append(args[0]))
    t.wrap(BufferPool, "access", "sqlstore.bufferpool", after=after_access)
    t.wrap(WriteAheadLog, "append", "sqlstore.wal", after=after_append)
    t.wrap(sql_server, "encode_row", "sqlstore.rowcodec")
    t.wrap(sql_server, "decode_row", "sqlstore.rowcodec")

    # tpch, the relational kernel, and the DSS cost models.
    def after_dbgen(args, db):
        extra["tpch.dbgen_rows"] += sum(
            len(db.table(name).rows) for name in db.table_names)

    def after_execute(args, rows):
        op = args[0]
        kind = type(op).__name__
        extra[f"relational.{kind}.rows_out"] += len(rows)
        if kind == "Scan":
            extra["relational.Scan.rows_examined"] += len(
                args[1].db.table(op.table).rows)

    t.wrap(DbGen, "generate", "tpch.dbgen", span=True, after=after_dbgen)
    t.wrap(volumes, "run_query", lambda args: f"tpch.q{args[0]:02d}",
           span=True)
    t.wrap(Operator, "execute",
           lambda args: f"relational.{type(args[0]).__name__}",
           span=True, after=after_execute)
    t.wrap(dss, "calibrate", "tpch.calibrate", span=True)
    t.wrap(dss, "fit_weight", "core.dss.fit", span=True)
    t.wrap(HiveEngine, "query_time", "hive.query_time")
    t.wrap(PdwEngine, "query_time", "pdw.query_time")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(t: LayerTracer, user_bytes: float) -> dict[str, float]:
    """The traced per-layer metrics of one unit (see BENCHMARK.json).

    ``user_bytes`` is the payload the functional workload wrote to SQL-CS,
    the base of ``sqlstore.wal_bytes_per_user_byte``.  Layers a workload
    does not reach report 0.
    """
    count, total, self_s, extra = t.count, t.total, t.self_s, t.extra
    events = count["simcluster.timeout"] + count["simcluster.succeed"]
    requests = count["simcluster.resource.request"]
    run_s = total["simcluster.run"]
    m = {
        "simcluster.events_scheduled": events,
        "simcluster.run_s": run_s,
        "simcluster.us_per_event": _ratio(run_s * 1e6, events),
        "simcluster.resource_requests": requests,
        "simcluster.resource_wait_frac": _ratio(
            extra["simcluster.resource_waits"], requests),
        "simcluster.resource_max_queue": t.peak["simcluster.resource_queue"],
        "simcluster.resource_s": (total["simcluster.resource.request"]
                                  + total["simcluster.resource.release"]),
        "ycsb.eventsim_s": total["ycsb.eventsim"],
        "ycsb.eventsim_outside_run_s": max(0.0, total["ycsb.eventsim"] - run_s),
        "ycsb.histogram_s": total["ycsb.histogram"],
        "common.stats.percentile_s": total["common.stats.percentile"],
        "common.rng.substreams": count["common.rng.substream"],
        "common.rng.substream_s": total["common.rng.substream"],
        "obs.live.records": count["obs.live.record"],
        "obs.live.record_s": total["obs.live.record"],
        "obs.digest.records": count["obs.digest.record"],
        "obs.digest.record_s": total["obs.digest.record"],
        "overload.sim_s": total["overload.sim"],
        "overload.admission_requests": count["overload.admission"],
        "overload.admission_s": total["overload.admission"],
        "overload.shed_frac": _ratio(extra["overload.shed"],
                                     extra["overload.arrivals"]),
        "docstore.bson_calls": count["docstore.bson"],
        "docstore.bson_s": total["docstore.bson"],
        "docstore.route_calls": count["docstore.route"],
        "docstore.route_s": total["docstore.route"],
        "docstore.chunk_splits": count["docstore.split"],
        "docstore.balancer_moves": extra["docstore.balancer_moves"],
        "common.btree_s": total["common.btree"],
        "sqlstore.bufferpool_hit_rate": _ratio(
            extra["sqlstore.bufferpool_hits"], count["sqlstore.bufferpool"]),
        "sqlstore.bufferpool_evictions": sum(
            pool.evictions for pool in t.bufferpools),
        "sqlstore.wal_bytes_per_user_byte": _ratio(
            extra["sqlstore.wal_bytes"], user_bytes),
        "sqlstore.checkpoints": count["sqlstore.checkpoint"],
        "sqlstore.checkpoint_s": total["sqlstore.checkpoint"],
        "tpch.dbgen_s": total["tpch.dbgen"],
        "tpch.dbgen_rows": extra["tpch.dbgen_rows"],
        "tpch.dbgen_rows_per_s": _ratio(extra["tpch.dbgen_rows"],
                                        total["tpch.dbgen"]),
        "relational.scan_rows_examined_per_output": _ratio(
            extra["relational.Scan.rows_examined"],
            extra["relational.Scan.rows_out"]),
        "core.dss.fit_s": total["core.dss.fit"],
        "hive.query_time_s": total["hive.query_time"],
        "pdw.query_time_s": total["pdw.query_time"],
    }
    for system in STORE_SYSTEMS:
        store = "sqlstore" if system == "sql-cs" else "docstore"
        m[f"{store}.{system}.scan_examined_per_returned"] = _ratio(
            extra[f"{system}.scan_examined"], extra[f"{system}.scan_returned"])
    for number in QUERY_NUMBERS:
        m[f"tpch.q{number:02d}_s"] = total[f"tpch.q{number:02d}"]
    for op in RELATIONAL_OPS:
        m[f"relational.{op}_self_s"] = self_s[f"relational.{op}"]
        m[f"relational.{op}_rows_out"] = extra[f"relational.{op}.rows_out"]
    return m
