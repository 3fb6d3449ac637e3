"""The four benchmark workloads: input generation, timed cells, and checks.

Every workload is a batch job driven by one caller with no threads: a closed
loop with concurrency 1 in wall time.  ("Open" and "closed" in the cell
names describe the *simulated* clients, in virtual time.)  A workload's
constructor is the set-up: it imports the program and generates every input
from the seed.  :meth:`cells` yields the timed cells in order; :meth:`check`
verifies their outputs afterwards, outside the timed phase, and fingerprints
them.  Every constructor takes ``(seed, size, clock)``: ``clock`` times
single program calls inside a cell (``functional-stores`` times each store
call), and stops while the host-speed probe runs (see ``hostspeed.py``).

The workloads drive the program through its public API: the study objects,
the cluster classes and ``DssStudy``.  The one exception is
``tpch-calibrate``, which wraps ``volumes.run_query`` to fingerprint the
query answers the calibration otherwise discards (see :class:`TpchCalibrate`).

Why these four (see README.md for the layer map):

* ``closed-ycsb`` — the discrete-event kernel and the closed-loop client
  loop do nearly all the work; results go into latency lists.
* ``open-frontier`` — the same kernel used differently: one process and one
  seed substream per op, an unbounded queue above the knee, results through
  bounded digests, plus the admission-controlled overload simulator.
* ``functional-stores`` — the event kernel does nothing; the functional
  Mongo-AS / Mongo-CS / SQL-CS stores (B-tree, BSON, pages, WAL) do it all.
  SQL-CS's table is about 3x its buffer pool; the Mongo stores fit in memory.
* ``tpch-calibrate`` — dbgen and the relational kernel do nearly all the
  work; the event kernel does none.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import string
from functools import partial

# Sizes are chosen so one repetition (one child process) takes about 2 s on
# a 2-vCPU host, and about a dozen repetitions fit in one run: fewer, longer
# repetitions gave no steadier medians (README.md, "Measured spread").
# ``tiny`` keeps the self-test fast.
SIZES = {
    "default": {
        # (cell, system, workload, target ops/s, scale, duration virtual s)
        "closed-ycsb": [
            ("eventsim.mongo-as.A", "mongo-as", "A", 10_000.0, 0.2, 20.0),
            ("eventsim.sql-cs.C", "sql-cs", "C", 60_000.0, 0.1, 13.0),
        ],
        # (cell, fraction of the MVA peak, duration, protected); warmup below
        "open-frontier": [
            ("rate-0.5x", 0.5, 0.8, False),
            ("rate-0.9x", 0.9, 0.8, False),
            ("rate-1.2x", 1.2, 0.8, False),
            ("rate-1.2x-protected", 1.2, 0.8, True),
        ],
        "open-frontier-warmup": 0.3,
        "functional-stores": {"records": 6_000, "a_ops": 6_000,
                              "e_ops": 60, "pool_pages": 18},
        "tpch-calibrate": 0.005,
    },
    "tiny": {
        "closed-ycsb": [
            ("eventsim.mongo-as.A", "mongo-as", "A", 10_000.0, 0.02, 12.0),
            ("eventsim.sql-cs.C", "sql-cs", "C", 60_000.0, 0.02, 11.0),
        ],
        "open-frontier": [
            ("rate-0.5x", 0.5, 0.2, False),
            ("rate-0.9x", 0.9, 0.2, False),
            ("rate-1.2x", 1.2, 0.2, False),
            ("rate-1.2x-protected", 1.2, 0.2, True),
        ],
        "open-frontier-warmup": 0.05,
        "functional-stores": {"records": 600, "a_ops": 600, "e_ops": 20,
                              "pool_pages": 2},
        "tpch-calibrate": 0.001,
    },
}

SHARDS = 16
# Small enough that loading splits Mongo-AS into a few dozen chunks, which
# its balancer then spreads over the shards.
MAX_CHUNK_DOCS = 250
FIELDS = tuple(f"field{i}" for i in range(10))
FIELD_CHARS = 100
VALUE_POOL = 1000
ZIPF_THETA = 0.99
STORE_SYSTEMS = ("mongo-as", "mongo-cs", "sql-cs")
INSERT, READ, UPDATE, SCAN = "insert", "read", "update", "scan"
STORE_OPS = (INSERT, READ, UPDATE, SCAN)
DSS_SWEEP_SF = 250


def fingerprint(value) -> str:
    """sha256 of ``repr`` of a deterministic output."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


class Checked:
    """What :meth:`check` found: ops, checks made and failed, fingerprints."""

    def __init__(self):
        self.ops = 0
        self.checks = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.latency: dict[str, list] = {}  # "system.op" -> seconds per call
        self.user_bytes = 0

    def expect(self, ok: bool, *context) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(" ".join(str(c) for c in context))


class ClosedYcsb:
    """``OltpStudy.event_sim_point``: closed-loop clients over the stations.

    ``eventsim.mongo-as.A`` is update-heavy, so requests queue behind the
    hot-lock station; ``eventsim.sql-cs.C`` is read-only and its stations
    are mostly idle.
    """

    def __init__(self, seed: int, size: str, clock):
        import repro.ycsb.eventsim  # noqa: F401  (imported lazily by the study)
        from repro.core.oltp import OltpStudy

        self.seed = seed
        self.spec = SIZES[size]["closed-ycsb"]
        self.study = OltpStudy()

    def _point(self, system, workload, target, scale, duration):
        return self.study.event_sim_point(
            system, workload, target, scale=scale, duration=duration,
            seed=self.seed)[1]

    def cells(self):
        for cell, *point in self.spec:
            yield cell, partial(self._point, *point)

    def check(self, outputs: dict) -> Checked:
        c = Checked()
        for cell, sim in outputs.items():
            c.ops += sim.completed_ops
            c.expect(sim.completed_ops > 0, cell, "completed no ops")
            c.expect(sim.error_count == 0, cell, "errors without faults")
            windows = sim.window_throughputs
            c.expect(math.isclose(sum(windows) / len(windows), sim.throughput,
                                  rel_tol=1e-9),
                     cell, "window throughputs do not add up")
            c.expect(all(0.0 < sim.latency_p95[k] <= sim.latency_p99[k]
                         for k in sim.latency_p99),
                     cell, "p95 above p99")
            c.fingerprints[cell] = fingerprint((
                sim.completed_ops, sim.throughput,
                sorted(sim.latency_p95.items()),
                sorted(sim.latency_p99.items()), windows,
            ))
        return c


class OpenFrontier:
    """``OltpStudy.open_loop_point`` on mongo-as workload A at full scale.

    Poisson arrivals at fractions of the MVA peak (about 15,289 ops/s): below
    the knee, near it, and 1.2x past it with an unbounded queue, each with
    bounded live digests; then 1.2x again under the default overload policy.
    """

    def __init__(self, seed: int, size: str, clock):
        import repro.overload.sim  # noqa: F401  (imported lazily by eventsim)
        import repro.ycsb.eventsim  # noqa: F401  (imported lazily by the study)
        from repro.core.oltp import OltpStudy
        from repro.obs.live import LiveTelemetry
        from repro.overload.policy import OverloadPolicy

        self.seed = seed
        self.spec = SIZES[size]["open-frontier"]
        self.warmup = SIZES[size]["open-frontier-warmup"]
        self.study = OltpStudy()
        self.peak = self.study.peak_throughput("mongo-as", "A")
        self.live = LiveTelemetry
        self.policy = OverloadPolicy.parse("default")

    def _point(self, fraction, duration, protected):
        if protected:
            hooks = {"overload": self.policy}
        else:
            hooks = {"live": self.live(), "bounded": True}
        return self.study.open_loop_point(
            "mongo-as", "A", self.peak * fraction, duration=duration,
            warmup=self.warmup, seed=self.seed, **hooks)

    def cells(self):
        for cell, *point in self.spec:
            yield cell, partial(self._point, *point)

    def check(self, outputs: dict) -> Checked:
        c = Checked()
        for (cell, _, _, protected), r in zip(self.spec, outputs.values()):
            c.ops += r.completed_ops
            c.expect(r.arrivals > 0, cell, "no arrivals")
            c.expect(r.arrivals == (r.completed_ops + r.unfinished_ops
                                    + r.shed_count + r.error_count),
                     cell, "arrivals not accounted for")
            c.expect(0.0 < r.p50 <= r.p99 <= r.p999, cell, "percentiles out of order")
            c.expect(protected or not r.shed, cell, "shed without a policy")
            c.fingerprints[cell] = fingerprint((
                r.arrivals, r.unfinished_ops, r.p50, r.p99, r.p999,
                r.max_dispatch_lag, sorted(r.shed.items()),
            ))
        return c


class FunctionalStores:
    """Mongo-AS, Mongo-CS and SQL-CS, 16 shards each, called op by op.

    Each system runs three phases on the same generated inputs: ``load``
    (inserts in key order; Mongo-AS then runs its balancer), ``A`` (50%
    reads and 50% updates on zipfian keys) and ``E`` (95% scans of length
    1..100 from zipfian keys, 5% appending inserts).  Records are ten
    100-character fields drawn from a seeded pool, so generating them costs
    nothing inside the timed phase.
    """

    def __init__(self, seed: int, size: str, clock):
        from repro.docstore.cluster import MongoAsCluster, MongoCsCluster
        from repro.sqlstore.cluster import SqlCsCluster

        spec = SIZES[size]["functional-stores"]
        self.clock = clock
        self.make = {
            "mongo-as": partial(MongoAsCluster, shard_count=SHARDS,
                                max_chunk_docs=MAX_CHUNK_DOCS),
            "mongo-cs": partial(MongoCsCluster, shard_count=SHARDS),
            "sql-cs": partial(SqlCsCluster, shard_count=SHARDS,
                              pool_pages=spec["pool_pages"]),
        }
        rng = random.Random(seed)
        alphabet = string.ascii_letters + string.digits
        pool = ["".join(rng.choices(alphabet, k=FIELD_CHARS))
                for _ in range(VALUE_POOL)]

        def record():
            return {f: pool[rng.randrange(VALUE_POOL)] for f in FIELDS}

        n = spec["records"]
        keys = [f"user{i:010d}" for i in range(n)]
        # Scrambled zipfian: popularity ranks are shuffled over the key
        # space so hot keys land in different chunks and shards.
        by_rank = list(keys)
        rng.shuffle(by_rank)
        weights, acc = [], 0.0
        for rank in range(n):
            acc += 1.0 / (rank + 1) ** ZIPF_THETA
            weights.append(acc)

        def zipf_keys(count):
            return rng.choices(by_rank, cum_weights=weights, k=count)

        def shuffled(items):
            rng.shuffle(items)
            return items

        # The mixes are exact and the scan lengths cover 1..100 evenly, in a
        # seeded order, so every seed asks for the same amount of work.
        count = spec["a_ops"]
        a_ops = []
        for key, kind in zip(zipf_keys(count), shuffled(
                [READ] * (count // 2) + [UPDATE] * (count - count // 2))):
            if kind == READ:
                a_ops.append((READ, key, None))
            else:
                value = (FIELDS[rng.randrange(len(FIELDS))],
                         pool[rng.randrange(VALUE_POOL)])
                a_ops.append((UPDATE, key, value))
        count = spec["e_ops"]
        inserts = round(0.05 * count)
        scans = count - inserts
        lengths = shuffled([1 + i * 100 // scans for i in range(scans)])
        e_ops, appended = [], 0
        for key, kind in zip(zipf_keys(count),
                             shuffled([SCAN] * scans + [INSERT] * inserts)):
            if kind == SCAN:
                e_ops.append((SCAN, key, lengths.pop()))
            else:
                e_ops.append((INSERT, f"user{n + appended:010d}", record()))
                appended += 1
        self.phases = {
            "load": [(INSERT, key, record()) for key in keys],
            "A": a_ops,
            "E": e_ops,
        }

    def _drive(self, cluster, ops) -> dict:
        """Issue ``ops`` one at a time, timing each call."""
        clock = self.clock
        insert, read = cluster.insert, cluster.read
        update, scan = cluster.update, cluster.scan
        results = []
        latency = {op: [] for op in STORE_OPS}
        for kind, key, arg in ops:
            start = clock()
            if kind == READ:
                result = read(key)
            elif kind == UPDATE:
                result = update(key, *arg)
            elif kind == SCAN:
                result = scan(key, arg)
            else:
                result = insert(key, arg)
            latency[kind].append(clock() - start)
            results.append(result)
        count = (cluster.row_count if hasattr(cluster, "row_count")
                 else cluster.doc_count)
        return {"results": results, "latency": latency, "count": count}

    def _phase(self, system, clusters, phase):
        if phase == "load":
            clusters[system] = self.make[system]()
        cluster = clusters[system]
        out = self._drive(cluster, self.phases[phase])
        if phase == "load" and system == "mongo-as":
            out["balancer_moves"] = cluster.run_balancer()
        if system == "sql-cs":
            # A phase is far shorter than a shard's automatic checkpoint
            # interval (10,000 ops), so end each phase with a checkpoint.
            out["checkpoint_pages"] = sum(
                shard.checkpoint() for shard in cluster.shards)
        return out

    def cells(self):
        clusters = {}
        for system in STORE_SYSTEMS:
            for phase in self.phases:
                yield f"{system}.{phase}", partial(self._phase, system,
                                                   clusters, phase)

    def check(self, outputs: dict) -> Checked:
        """Replay every op on a shadow dict and compare what came back."""
        c = Checked()
        for system in STORE_SYSTEMS:
            key_field = "_key" if system == "sql-cs" else "_id"
            shadow: dict[str, dict] = {}
            ordered: list[str] = []
            samples = {op: [] for op in STORE_OPS}
            for phase, ops in self.phases.items():
                out = outputs[f"{system}.{phase}"]
                stream = []
                for (kind, key, arg), result in zip(ops, out["results"]):
                    c.ops += 1
                    if kind == INSERT:
                        c.expect(result is None and key not in shadow,
                                 system, phase, kind, key)
                        shadow[key] = arg
                        bisect.insort(ordered, key)
                    elif kind == READ:
                        c.expect(result == shadow[key], system, phase, kind, key)
                        stream.append(result)
                    elif kind == UPDATE:
                        c.expect(result is True, system, phase, kind, key)
                        shadow[key] = {**shadow[key], arg[0]: arg[1]}
                    else:
                        first = bisect.bisect_left(ordered, key)
                        expected = ordered[first:first + arg]
                        got = [row[key_field] for row in result]
                        c.expect(got == expected and all(
                            {f: row[f] for f in FIELDS} == shadow[k]
                            for row, k in zip(result, got)),
                            system, phase, kind, key, arg)
                        stream.append(got)
                c.expect(out["count"] == len(shadow), system, phase,
                         "count", out["count"], "expected", len(shadow))
                c.fingerprints[f"{system}.{phase}"] = fingerprint((
                    stream, out["count"], out.get("balancer_moves"),
                    out.get("checkpoint_pages")))
                for kind, values in out["latency"].items():
                    samples[kind].extend(values)
            for kind, values in samples.items():
                c.latency[f"{system}.{kind}"] = values
        for kind, key, arg in (op for ops in self.phases.values() for op in ops):
            if kind == INSERT:
                c.user_bytes += len(key) + sum(len(v) for v in arg.values())
            elif kind == UPDATE:
                c.user_bytes += len(arg[1])
        return c


class TpchCalibrate:
    """``DssStudy`` calibration in a fresh process, then the SF-250 sweep.

    The calibration generates the database with dbgen and executes all 22
    queries on the relational kernel; the sweep prices every query on both
    engine cost models.  The op count is the number of rows dbgen is
    specified to generate at this scale factor.

    ``DssStudy`` keeps no query answers, so this is the one place the
    benchmark replaces a program function in every repetition:
    ``volumes.run_query``, where the calibration receives each answer, is
    wrapped to keep the answer's row count and fingerprint (not its rows).
    """

    def __init__(self, seed: int, size: str, clock):
        from repro.core.dss import DssStudy
        from repro.tpch import volumes
        from repro.tpch.queries import QUERY_NUMBERS
        from repro.tpch.schema import TABLE_NAMES, row_count

        self.study_class = DssStudy
        self.queries = QUERY_NUMBERS
        self.seed = seed
        self.sf = SIZES[size]["tpch-calibrate"]
        self.rows = sum(row_count(table, self.sf) for table in TABLE_NAMES)
        self.answers: dict[int, tuple[int, str]] = {}
        run_query = volumes.run_query

        def fingerprint_answer(number, db, ctx=None):
            rows = run_query(number, db, ctx)
            self.answers[number] = (len(rows), fingerprint(rows))
            return rows

        volumes.run_query = fingerprint_answer

    def _calibrate(self, holder):
        holder["study"] = self.study_class(calibration_sf=self.sf,
                                           seed=self.seed)
        return holder["study"]

    def _sweep(self, holder):
        study = holder["study"]
        return [(n, study.hive_time(n, DSS_SWEEP_SF),
                 study.pdw_time(n, DSS_SWEEP_SF)) for n in self.queries]

    def cells(self):
        holder = {}
        yield "calibrate", partial(self._calibrate, holder)
        yield "sweep", partial(self._sweep, holder)

    def check(self, outputs: dict) -> Checked:
        c = Checked()
        c.ops = self.rows
        c.expect(sorted(self.answers) == list(self.queries),
                 "answers for", sorted(self.answers))
        # At a small scale factor a few queries (Q2, Q11, Q18, ...) select no
        # rows, so each fingerprint also covers the rows and bytes of the
        # query's tagged intermediates, as the calibration recorded them.
        volumes = outputs["calibrate"].calibration.volumes
        for number in self.queries:
            stages = [(tag, volumes.volume(tag, self.sf))
                      for tag in volumes.tags if tag.startswith(f"q{number}.")]
            c.expect(bool(stages), f"q{number}", "no tagged intermediates")
            c.fingerprints[f"q{number:02d}"] = fingerprint(
                (self.answers.get(number), stages))
        sweep = outputs["sweep"]
        for number, hive, pdw in sweep:
            c.expect(all(t is not None and 0.0 < t < math.inf
                         for t in (hive, pdw)),
                     f"q{number}", "sweep time", hive, pdw)
        c.fingerprints["sweep"] = fingerprint(sweep)
        return c


WORKLOADS = {
    "closed-ycsb": ClosedYcsb,
    "open-frontier": OpenFrontier,
    "functional-stores": FunctionalStores,
    "tpch-calibrate": TpchCalibrate,
}

#: Every cell of every workload, for the ``cell.<cell>.wall_s`` metrics.
CELLS = {
    "closed-ycsb": [cell for cell, *_ in SIZES["default"]["closed-ycsb"]],
    "open-frontier": [cell for cell, *_ in SIZES["default"]["open-frontier"]],
    "functional-stores": [f"{system}.{phase}" for system in STORE_SYSTEMS
                          for phase in ("load", "A", "E")],
    "tpch-calibrate": ["calibrate", "sweep"],
}
