"""Discrete-event validation of the closed-loop queueing model.

The YCSB figures come from analytic MVA (fast, deterministic).  This module
re-runs the same closed loop — N client processes cycling through the same
service stations — on the discrete-event kernel, with exponential service
times and per-window measurement, exactly like the paper's protocol (average
over measurement windows, standard error across windows).

It serves two purposes:

* a **validation test**: at moderate utilization the event simulation and
  MVA must agree on throughput and latency within a few percent;
* **error bars**: the event simulation produces the window-to-window
  standard errors the analytic model cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

from repro.common.errors import FaultPlanError, SimulationError
from repro.common.rng import SeedStream, TpchRandom64, float_draws
from repro.common.stats import arithmetic_mean, percentile, std_error
from repro.simcluster.events import Environment, Resource


@dataclass(frozen=True)
class SimStation:
    """One service station: capacity plus per-op-class service means."""

    name: str
    servers: int
    service: dict  # op class -> mean service seconds


@dataclass
class EventSimResult:
    """Measured output of one closed-loop event simulation."""

    throughput: float  # ops/s over the measurement period
    latency: dict = field(default_factory=dict)  # class -> mean seconds
    latency_stderr: dict = field(default_factory=dict)  # class -> std error
    latency_p95: dict = field(default_factory=dict)  # class -> 95th percentile
    latency_p99: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)  # class -> LatencyHistogram
    window_throughputs: list = field(default_factory=list)
    completed_ops: int = 0
    # Fault-injection accounting (all zero on a healthy run).
    errors: dict = field(default_factory=dict)  # class -> abandoned ops
    retried_ops: int = 0
    backoff_seconds: float = 0.0

    @property
    def throughput_stderr(self) -> float:
        return std_error(self.window_throughputs)

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    @property
    def availability(self) -> float:
        attempted = self.completed_ops + self.error_count
        return self.completed_ops / attempted if attempted else 1.0


def station_routes(stations: list[SimStation], resources: dict,
                   mix: dict) -> dict[str, list[tuple[str, object, float]]]:
    """Per op class, the ``(station name, resource, mean)`` hops it visits.

    Hops keep the station order and skip stations with no service for the
    class, so a client walks its route without a per-visit lookup.  Every
    hop's mean is positive, so clients draw its exponential service time
    as ``-mean * log(1.0 - u)`` with no guard.  A class no station serves
    is rejected: its ops would finish in zero time, and a closed-loop
    client on an empty route never yields.
    """
    routes = {}
    for op_class in mix:
        hops = []
        for station in stations:
            mean = station.service.get(op_class, 0.0)
            if mean > 0.0:
                hops.append((station.name, resources[station.name], mean))
        if not hops:
            raise SimulationError(
                f"no station serves op class {op_class!r}")
        routes[op_class] = hops
    return routes


def class_thresholds(mix: dict) -> list[tuple[float, str]]:
    """Cumulative ``(threshold, op class)`` pairs, accumulated in mix order.

    Built once per run; :func:`_pick_class` then walks them per op.
    """
    thresholds = []
    acc = 0.0
    for op_class, fraction in mix.items():
        acc += fraction
        thresholds.append((acc, op_class))
    return thresholds


def _pick_class(u: float, thresholds: list[tuple[float, str]]) -> str:
    """The op class a uniform draw ``u`` picks (the last one if rounding
    leaves the cumulative sum below ``u``)."""
    for acc, op_class in thresholds:
        if u < acc:
            return op_class
    return thresholds[-1][1]


def _station_faults(faults, retry_policy):
    """``(StationFaults or None, retry policy)`` for the two FIFO simulators.

    An ``arrival-spike`` reshapes the arrival process, which only the
    overload-aware open loop models: here it would be silently ignored, so
    it is rejected before anything is built.
    """
    if not faults:
        return None, retry_policy
    from repro.faults.plan import StationFaults
    from repro.faults.retry import RetryPolicy

    station_faults = (
        faults if isinstance(faults, StationFaults) else StationFaults(faults)
    )
    if station_faults.arrival_windows():
        raise FaultPlanError(
            "arrival-spike only drives the overload-aware open-loop "
            "simulator; add --overload (this simulator would ignore it)"
        )
    if not station_faults:
        return None, retry_policy
    return station_faults, (retry_policy if retry_policy is not None
                            else RetryPolicy())


def simulate_closed_loop(
    stations: list[SimStation],
    mix: dict,
    clients: int,
    think_time: float = 0.0,
    duration: float = 60.0,
    warmup: float = 10.0,
    windows: int = 6,
    seed: int = 1234,
    tracer=None,
    metrics=None,
    sampler=None,
    faults=None,
    retry_policy=None,
    live=None,
    bounded=False,
    prof=None,
) -> EventSimResult:
    """Run N closed-loop clients over the stations and measure.

    Each client repeatedly: thinks (exponential with the given mean), picks
    an op class by the mix, then visits every station that serves that class
    (FIFO queueing, exponential service).  Latencies and completions are
    recorded per measurement window after the warm-up.

    With a ``tracer`` attached every completed request becomes a latency
    span (node ``client``, one lane per client thread) and every station
    resource emits hold/wait spans; ``metrics`` gets per-class op counters;
    a ``sampler`` (see :mod:`repro.obs.timeseries`) gets per-station busy
    and queue-depth series.  All default to off and change nothing about
    the simulated schedule.

    ``faults`` (a :class:`repro.faults.plan.StationFaults`, or anything
    iterable of :class:`~repro.faults.plan.FaultSpec`) injects faults on the
    simulated clock: ``disk-stall``/``net-spike`` inflate a station's
    service times over their window, ``op-error`` makes a station's ops fail
    transiently (clients retry with ``retry_policy``'s capped exponential
    backoff, abandoning the op when the policy gives up), and ``crash``
    shrinks a station's capacity over the window.  With ``faults`` left
    ``None`` the simulation draws the exact same random numbers as before
    the fault machinery existed — byte-identical results.  An
    ``arrival-spike`` raises :class:`~repro.common.errors.FaultPlanError`:
    only the overload-aware open loop models the arrival process.

    ``live`` (a :class:`~repro.obs.live.LiveTelemetry`) streams every
    measured completion into bounded-memory windowed digests and evaluates
    SLO burn-rate rules online on the virtual clock.  ``bounded=True``
    additionally drops the store-everything latency lists: percentiles,
    means and histograms then come from the digests (within one log-bucket
    of exact; ``latency_stderr`` is unavailable).  Both default off and
    leave the unwatched run byte-identical.

    ``prof`` (a :class:`~repro.obs.prof.ProfiledRun`) charges the event
    loop, span construction and digest updates to host-time subsystem
    counters.  Profiling only reads wall clocks: the simulated schedule,
    results and reports stay byte-identical with it on or off.
    """
    if clients < 1:
        raise SimulationError("need at least one client")
    if not mix or abs(sum(mix.values()) - 1.0) > 1e-9:
        raise SimulationError("op mix must sum to 1")
    if duration <= warmup:
        raise SimulationError("duration must exceed warmup")
    if bounded and not live:
        raise SimulationError("bounded mode needs a live telemetry sink")

    station_faults, policy = _station_faults(faults, retry_policy)

    if prof is not None:
        from repro.obs.prof import profiled_live, profiled_tracer

        tracer = profiled_tracer(tracer, prof)
        live = profiled_live(live, prof)

    env = Environment(tracer=tracer, metrics=metrics, sampler=sampler,
                      prof=prof)
    resources = {s.name: Resource(env, s.servers, name=s.name) for s in stations}
    seeds = SeedStream(seed)

    latencies: dict[str, list[float]] = {c: [] for c in mix}
    error_latencies: dict[str, list[float]] = {c: [] for c in mix}
    fault_stats = {"retried": 0, "backoff": 0.0}
    # Window throughput is counted incrementally (same arithmetic the old
    # store-everything completions list fed) so no per-op times are kept.
    measure = duration - warmup
    window_width = measure / windows
    window_counts = [0] * windows
    completed = [0]

    def clamp_end(end: float, at: float) -> float:
        # A window with no duration holds until the end of the run.
        return duration if end <= at else min(end, duration)

    if station_faults:
        # Annotate the schedule up front: every window is known a priori.
        for spec in station_faults.windows:
            end = clamp_end(spec.end, spec.at)
            if tracer:
                tracer.add(
                    f"fault.{spec.kind}", spec.at, end,
                    cat="fault", node="faults", lane=spec.target,
                    magnitude=spec.magnitude,
                )
            if sampler:
                sampler.accumulate(spec.target, "fault", spec.at, end,
                                   level=1.0, capacity=1.0)
            if metrics:
                metrics.counter(f"faults.{spec.kind}").inc()
            if live:
                live.note_event(f"{spec.kind}:{spec.target}", spec.at, end)

        def crash_driver(resource: Resource, servers: int, crash_windows):
            for at, end, lost in sorted(crash_windows):
                if at > env.now:
                    yield env.timeout(at - env.now)
                resource.set_capacity(max(1, int(round(servers * (1.0 - lost)))))
                restore = clamp_end(end, at)
                if restore > env.now:
                    yield env.timeout(restore - env.now)
                resource.set_capacity(servers)

        for s in stations:
            crash_windows = station_faults.crash_windows(s.name)
            if crash_windows:
                env.process(crash_driver(resources[s.name], s.servers,
                                         crash_windows))

    routes = station_routes(stations, resources, mix)
    thresholds = class_thresholds(mix)

    def client(index: int):
        # A client draws for its whole life: its stream comes a block at a
        # time, the same floats TpchRandom64.random_float would give.
        random_float = float_draws(seeds.seed_for("client", index)).__next__
        fault_rng = seeds.rng_for("fault", index) if station_faults else None
        # Sleeps yield bare float delays and a grant that comes back
        # already fired (a free server) is not yielded: the heap sees the
        # same pushes in the same order as with Timeout events.
        while True:
            if think_time > 0:
                yield -think_time * log(1.0 - random_float())
            op_class = _pick_class(random_float(), thresholds)
            start = env.now
            failed = False
            attempts = 0
            op_spans = []  # visit/backoff spans to parent under the request
            for name, resource, mean in routes[op_class]:
                while True:
                    t_enter = env.now
                    grant = resource.request()
                    if not grant.triggered:
                        yield grant
                    t_granted = env.now
                    service = -mean * log(1.0 - random_float())
                    if station_faults:
                        service *= station_faults.slowdown(name, env.now)
                    yield service
                    # Release on the normal path only — no try/finally.  A
                    # ``finally`` here would also fire on GeneratorExit when the
                    # garbage collector finalizes clients left suspended at the
                    # ``until`` cutoff, emitting phantom hold spans into the
                    # tracer at whatever moment collection happens to run.
                    resource.release()
                    if tracer:
                        # One span per station visit, split into queueing wait
                        # and service — the what-if engine's lock-wait handle.
                        visit = tracer.add(
                            f"visit.{name}", t_enter, env.now,
                            cat="visit", node="client",
                            lane=f"client-{index}",
                            cls=op_class, station=name,
                            wait=t_granted - t_enter,
                            service=env.now - t_granted,
                        )
                        if op_spans:
                            prev = op_spans[-1]
                            tracer.link(
                                prev, visit,
                                "retry" if prev.name == "retry.backoff"
                                else "seq",
                            )
                        op_spans.append(visit)
                    if station_faults:
                        probability = station_faults.error_probability(
                            name, env.now
                        )
                        if probability > 0.0 and fault_rng.random_float() < probability:
                            attempts += 1
                            if policy.gives_up(attempts, env.now - start):
                                failed = True
                                break
                            delay = policy.delay(attempts - 1)
                            fault_stats["retried"] += 1
                            fault_stats["backoff"] += delay
                            if tracer:
                                backoff = tracer.add(
                                    "retry.backoff", env.now, env.now + delay,
                                    cat="retry", node="client",
                                    lane=f"client-{index}",
                                    cls=op_class, attempt=attempts,
                                )
                                if op_spans:
                                    tracer.link(op_spans[-1], backoff, "retry")
                                op_spans.append(backoff)
                            if metrics:
                                metrics.counter("ycsb.retried_ops").inc()
                            yield env.timeout(delay)
                            continue  # retry this station visit
                    break
                if failed:
                    break
            if tracer:
                request = tracer.add(
                    f"request.{op_class}", start, env.now,
                    cat="request", node="client", lane=f"client-{index}",
                    cls=op_class, **({"error": True} if failed else {}),
                )
                for span in op_spans:
                    span.parent = request.span_id
            if metrics:
                metrics.counter(f"ycsb.ops.{op_class}").inc()
                if failed:
                    metrics.counter(f"ycsb.errors.{op_class}").inc()
            if env.now >= warmup:
                if live:
                    live.record_op(env.now, env.now - start, error=failed,
                                   cls=op_class)
                if failed:
                    if not bounded:
                        error_latencies[op_class].append(env.now - start)
                else:
                    completed[0] += 1
                    window_counts[
                        min(windows - 1, int((env.now - warmup) / window_width))
                    ] += 1
                    if not bounded:
                        latencies[op_class].append(env.now - start)
                if metrics:
                    metrics.counter("ycsb.measured_ops").inc()

    for i in range(clients):
        env.process(client(i))
    env.run(until=duration)
    if sampler:
        sampler.finish(env.now)
    if live:
        live.finish(env.now)

    result = EventSimResult(
        throughput=completed[0] / measure,
        completed_ops=completed[0],
    )
    result.window_throughputs = [c / window_width for c in window_counts]

    from repro.ycsb.histogram import LatencyHistogram, from_digest, from_latencies

    if bounded:
        # Digest-backed results: within one log-bucket of the exact values,
        # O(log(max/min)) memory per class, no stderr (it needs raw chunks).
        for op_class in mix:
            digest = live.class_digests.get(op_class)
            if digest is not None and digest.count:
                result.latency[op_class] = digest.mean
                result.latency_p95[op_class] = digest.percentile(95)
                result.latency_p99[op_class] = digest.percentile(99)
                result.histograms[op_class] = from_digest(digest)
            errors = live.class_errors.get(op_class, 0)
            if errors:
                histogram = result.histograms.setdefault(
                    op_class, LatencyHistogram())
                histogram.errors += errors
                result.errors[op_class] = errors
    else:
        for op_class, values in latencies.items():
            if not values:
                continue
            result.latency[op_class] = arithmetic_mean(values)
            result.latency_p95[op_class] = percentile(values, 95)
            result.latency_p99[op_class] = percentile(values, 99)
            result.histograms[op_class] = from_latencies(values)
            # Std error across evenly sized chunks approximates window error.
            chunk = max(1, len(values) // windows)
            means = [
                arithmetic_mean(values[i : i + chunk])
                for i in range(0, len(values) - chunk + 1, chunk)
            ]
            result.latency_stderr[op_class] = std_error(means)

        # Fold abandoned ops into the same histograms (YCSB accounts its
        # errors alongside the latencies): the burned latency is recorded
        # and the op is counted as an error.
        for op_class, values in error_latencies.items():
            if not values:
                continue
            histogram = result.histograms.setdefault(
                op_class, LatencyHistogram())
            for value in values:
                histogram.record(value)
                histogram.record_error()
            result.errors[op_class] = len(values)
    result.retried_ops = fault_stats["retried"]
    result.backoff_seconds = fault_stats["backoff"]
    if prof is not None:
        prof.note_ops(completed[0])
    return result


def mva_prediction(stations: list[SimStation], mix: dict, clients: int,
                   think_time: float = 0.0):
    """The analytic counterpart, for validation comparisons."""
    from repro.core.oltp import Station, closed_mva

    analytic = [
        Station(s.name, s.servers, service=dict(s.service)) for s in stations
    ]
    return closed_mva(analytic, mix, clients, think_time)


# -- open-loop (frontier) simulation ---------------------------------------------


@dataclass
class OpenLoopResult:
    """Measured output of one open-loop (Poisson-arrival) simulation.

    Latency accounting is **coordinated-omission-correct**: every latency is
    measured from the operation's *intended* start time — the moment its
    Poisson arrival was scheduled — so queueing delay from missed departures
    (all workers busy because the server stalled) is charged to the
    operation.  The ``uncorrected_*`` fields measure from the moment a
    worker actually picked the operation up, which is what a closed-loop
    client (and a naive load generator) reports; the gap between the two is
    the understatement coordinated omission hides.

    Measured arrivals still in flight when the run ends are **censored
    observations**, not discards: each contributes its lower bound
    ``end - intended`` to the pooled ``mean``/``p50``/``p95``/``p99``/
    ``p999``.  Dropping them would resurrect the survivorship cousin of
    coordinated omission — above saturation the slowest operations are
    exactly the ones that never finish.  The per-class dicts and
    ``uncorrected_*`` fields cover completed operations only (an op that
    never dispatched has no uncorrected latency at all).
    """

    offered_rate: float  # target arrival rate, ops/s
    throughput: float = 0.0  # completions/s over the measurement period
    arrivals: int = 0  # measured-window arrivals
    completed_ops: int = 0  # measured-window completions
    unfinished_ops: int = 0  # measured arrivals still in flight at cutoff
    latency: dict = field(default_factory=dict)  # class -> mean (intended)
    latency_p95: dict = field(default_factory=dict)
    latency_p99: dict = field(default_factory=dict)
    uncorrected_p99: dict = field(default_factory=dict)  # class -> p99
    histograms: dict = field(default_factory=dict)  # class -> LatencyHistogram
    # Overall (all classes pooled) intended-start-time percentiles.
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    p999: float = 0.0
    uncorrected_overall_p99: float = 0.0
    max_dispatch_lag: float = 0.0  # worst intended-to-dispatch slip
    window_throughputs: list = field(default_factory=list)
    # Fault-injection accounting (all zero on a healthy run).
    errors: dict = field(default_factory=dict)  # class -> abandoned ops
    retried_ops: int = 0
    backoff_seconds: float = 0.0
    # Overload accounting (all zero/empty without an overload policy —
    # the zero-cost-off contract: the plain path never touches these).
    shed: dict = field(default_factory=dict)  # shed reason -> measured ops
    goodput: float = 0.0  # within-SLO completions/s (== throughput w/o SLO)
    late_ops: int = 0  # completions past the SLO/deadline
    resubmits: int = 0  # impatient-client duplicate attempts issued
    budget_denied: int = 0  # resubmits refused by the retry budget
    duplicates: int = 0  # duplicate attempts that finished after resolution
    series: list = field(default_factory=list)  # per-slice overload series

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    @property
    def shed_count(self) -> int:
        return sum(self.shed.values())

    @property
    def goodput_fraction(self) -> float:
        """Fraction of measured arrivals completed inside the run."""
        return self.completed_ops / self.arrivals if self.arrivals else 1.0


def simulate_open_loop(
    stations: list[SimStation],
    mix: dict,
    rate: float,
    workers: int | None = None,
    duration: float = 60.0,
    warmup: float = 10.0,
    windows: int = 6,
    seed: int = 1234,
    tracer=None,
    metrics=None,
    sampler=None,
    faults=None,
    retry_policy=None,
    live=None,
    bounded=False,
    prof=None,
    overload=None,
) -> OpenLoopResult:
    """Drive the stations with open-loop Poisson arrivals at ``rate`` ops/s.

    Unlike :func:`simulate_closed_loop`, arrivals do not wait for prior
    completions: each operation has an *intended* start time drawn from a
    :class:`~repro.ycsb.arrivals.PoissonArrivals` schedule, and its latency
    is measured from that intended time through completion.  With a finite
    ``workers`` pool (a real load generator's thread count) an operation
    whose intended slot finds every worker busy is dispatched late — the
    wait is recorded as a ``dispatch.wait`` span and *included* in the
    operation's latency, which is the coordinated-omission fix.
    ``workers=None`` dispatches every arrival immediately (a pure open
    loop); the queueing then happens inside the stations and is charged to
    the operation all the same.

    ``faults``/``retry_policy`` compose exactly as in the closed loop:
    ``disk-stall``/``net-spike`` inflate service times over their window,
    ``op-error`` drives retries with capped backoff, ``crash`` shrinks a
    station's capacity.  Everything is a pure function of ``seed`` — each
    operation draws from its own :class:`~repro.common.rng.SeedStream`
    substream, so results do not depend on event interleaving.

    ``live``/``bounded`` behave as in :func:`simulate_closed_loop`: a
    :class:`~repro.obs.live.LiveTelemetry` sink streams completions (and
    the censored in-flight ops at cutoff) into windowed digests with
    online SLO evaluation; ``bounded=True`` replaces the store-everything
    latency lists with those digests.  ``prof`` charges host time to
    subsystem counters without perturbing any simulated output.

    ``overload`` (an :class:`~repro.overload.policy.OverloadPolicy`)
    switches to the admission-controlled simulator in
    :mod:`repro.overload.sim`: bounded station queues that shed, deadline
    propagation, and the impatient-client resubmit loop with its retry
    budget.  The ``None`` path below is byte-identical to the pre-overload
    simulator (zero-cost-off).
    """
    if overload is not None:
        from repro.overload.sim import overload_open_loop

        if tracer is not None or sampler is not None or bounded or prof:
            raise SimulationError(
                "the overload simulator supports faults/metrics/live only "
                "(no tracer, sampler, bounded, or prof)"
            )
        return overload_open_loop(
            stations, mix, rate, overload, workers=workers,
            duration=duration, warmup=warmup, windows=windows, seed=seed,
            faults=faults, metrics=metrics, live=live,
        )
    if rate <= 0:
        raise SimulationError(f"arrival rate must be > 0, got {rate:g}")
    if workers is not None and workers < 1:
        raise SimulationError("need at least one worker")
    if not mix or abs(sum(mix.values()) - 1.0) > 1e-9:
        raise SimulationError("op mix must sum to 1")
    if duration <= warmup:
        raise SimulationError("duration must exceed warmup")
    if bounded and not live:
        raise SimulationError("bounded mode needs a live telemetry sink")

    from repro.ycsb.arrivals import PoissonArrivals

    station_faults, policy = _station_faults(faults, retry_policy)

    if prof is not None:
        from repro.obs.prof import profiled_live, profiled_tracer

        tracer = profiled_tracer(tracer, prof)
        live = profiled_live(live, prof)

    env = Environment(tracer=tracer, metrics=metrics, sampler=sampler,
                      prof=prof)
    resources = {s.name: Resource(env, s.servers, name=s.name) for s in stations}
    pool = Resource(env, workers, name=None) if workers is not None else None
    seeds = SeedStream(seed)

    result = OpenLoopResult(offered_rate=rate)
    latencies: dict[str, list[float]] = {c: [] for c in mix}
    uncorrected: dict[str, list[float]] = {c: [] for c in mix}
    error_latencies: dict[str, list[float]] = {c: [] for c in mix}
    pending: dict[int, float] = {}  # measured in-flight ops: index -> intended
    counters = {"arrivals": 0, "retried": 0, "backoff": 0.0, "lag": 0.0}
    # Incremental window throughput (same arithmetic the old completions
    # list fed) plus, in bounded mode, a digest for the uncorrected pool.
    measure = duration - warmup
    window_width = measure / windows
    window_counts = [0] * windows
    completed = [0]
    uncorrected_digest = None
    if bounded:
        from repro.obs.digest import QuantileDigest

        uncorrected_digest = QuantileDigest(live.growth, live.min_value)

    def clamp_end(end: float, at: float) -> float:
        return duration if end <= at else min(end, duration)

    if station_faults:
        for spec in station_faults.windows:
            end = clamp_end(spec.end, spec.at)
            if tracer:
                tracer.add(
                    f"fault.{spec.kind}", spec.at, end,
                    cat="fault", node="faults", lane=spec.target,
                    magnitude=spec.magnitude,
                )
            if sampler:
                sampler.accumulate(spec.target, "fault", spec.at, end,
                                   level=1.0, capacity=1.0)
            if metrics:
                metrics.counter(f"faults.{spec.kind}").inc()
            if live:
                live.note_event(f"{spec.kind}:{spec.target}", spec.at, end)

        def crash_driver(resource: Resource, servers: int, crash_windows):
            for at, end, lost in sorted(crash_windows):
                if at > env.now:
                    yield env.timeout(at - env.now)
                resource.set_capacity(max(1, int(round(servers * (1.0 - lost)))))
                restore = clamp_end(end, at)
                if restore > env.now:
                    yield env.timeout(restore - env.now)
                resource.set_capacity(servers)

        for s in stations:
            crash_windows = station_faults.crash_windows(s.name)
            if crash_windows:
                env.process(crash_driver(resources[s.name], s.servers,
                                         crash_windows))

    routes = station_routes(stations, resources, mix)
    thresholds = class_thresholds(mix)
    # Op i draws from rng_for("op", i): the same seeds, the prefix hashed once.
    op_seed = seeds.counter("op")
    fault_seed = seeds.counter("op-fault")

    def operation(index: int, intended: float, measured: bool):
        random_float = TpchRandom64(op_seed(index)).random_float
        fault_rng = TpchRandom64(fault_seed(index)) if station_faults else None
        op_class = _pick_class(random_float(), thresholds)
        if measured:
            pending[index] = intended
        dispatch = intended
        op_spans = []
        if pool is not None:
            grant = pool.request()
            if not grant.triggered:
                yield grant
            dispatch = env.now
            lag = dispatch - intended
            counters["lag"] = max(counters["lag"], lag)
            if tracer and lag > 0.0:
                op_spans.append(tracer.add(
                    "dispatch.wait", intended, dispatch,
                    cat="dispatch", node="client", lane=f"op-{index}",
                    cls=op_class, wait=lag,
                ))
        failed = False
        attempts = 0
        for name, resource, mean in routes[op_class]:
            while True:
                t_enter = env.now
                grant = resource.request()
                if not grant.triggered:
                    yield grant
                t_granted = env.now
                service = -mean * log(1.0 - random_float())
                if station_faults:
                    service *= station_faults.slowdown(name, env.now)
                yield service
                # Release on the normal path only (see the closed loop's
                # note on GC-time phantom spans).
                resource.release()
                if tracer:
                    visit = tracer.add(
                        f"visit.{name}", t_enter, env.now,
                        cat="visit", node="client", lane=f"op-{index}",
                        cls=op_class, station=name,
                        wait=t_granted - t_enter,
                        service=env.now - t_granted,
                    )
                    if op_spans:
                        prev = op_spans[-1]
                        tracer.link(
                            prev, visit,
                            "retry" if prev.name == "retry.backoff" else "seq",
                        )
                    op_spans.append(visit)
                if station_faults:
                    probability = station_faults.error_probability(
                        name, env.now
                    )
                    if probability > 0.0 and fault_rng.random_float() < probability:
                        attempts += 1
                        if policy.gives_up(attempts, env.now - intended):
                            failed = True
                            break
                        delay = policy.delay(attempts - 1)
                        counters["retried"] += 1
                        counters["backoff"] += delay
                        if tracer:
                            backoff = tracer.add(
                                "retry.backoff", env.now, env.now + delay,
                                cat="retry", node="client",
                                lane=f"op-{index}",
                                cls=op_class, attempt=attempts,
                            )
                            if op_spans:
                                tracer.link(op_spans[-1], backoff, "retry")
                            op_spans.append(backoff)
                        if metrics:
                            metrics.counter("ycsb.retried_ops").inc()
                        yield env.timeout(delay)
                        continue
                break
            if failed:
                break
        if pool is not None:
            pool.release()
        if tracer:
            request = tracer.add(
                f"request.{op_class}", intended, env.now,
                cat="request", node="client", lane=f"op-{index}",
                cls=op_class, intended=intended, dispatch=dispatch,
                **({"error": True} if failed else {}),
            )
            for span in op_spans:
                span.parent = request.span_id
        if metrics:
            metrics.counter(f"ycsb.ops.{op_class}").inc()
            if failed:
                metrics.counter(f"ycsb.errors.{op_class}").inc()
        if measured:
            pending.pop(index, None)
            if live:
                live.record_op(env.now, env.now - intended, error=failed,
                               cls=op_class)
            if failed:
                if not bounded:
                    error_latencies[op_class].append(env.now - intended)
            else:
                completed[0] += 1
                window_counts[
                    min(windows - 1, int((env.now - warmup) / window_width))
                ] += 1
                if bounded:
                    uncorrected_digest.record(env.now - dispatch)
                else:
                    latencies[op_class].append(env.now - intended)
                    uncorrected[op_class].append(env.now - dispatch)
            if metrics:
                metrics.counter("ycsb.measured_ops").inc()

    def arrival_source():
        schedule = PoissonArrivals(rate, seeds.seed_for("arrivals"))
        index = 0
        for at in schedule.until(duration):
            if at > env.now:
                yield at - env.now
            measured = at >= warmup
            if measured:
                counters["arrivals"] += 1
            env.process(operation(index, at, measured))
            index += 1

    env.process(arrival_source())
    env.run(until=duration)
    if sampler:
        sampler.finish(env.now)
    if live:
        # Measured arrivals still in flight at cutoff are censored lower
        # bounds in the live digests too — same no-survivorship rule as
        # the corrected pool below.
        for intended in pending.values():
            live.record_censored(env.now, env.now - intended)
        live.finish(env.now)

    result.arrivals = counters["arrivals"]
    result.completed_ops = completed[0]
    finished_errors = (
        live.errors if bounded
        else sum(len(v) for v in error_latencies.values())
    )
    result.unfinished_ops = (
        counters["arrivals"] - completed[0] - finished_errors
    )
    result.throughput = completed[0] / measure
    result.max_dispatch_lag = counters["lag"]
    result.window_throughputs = [c / window_width for c in window_counts]

    from repro.ycsb.histogram import LatencyHistogram, from_digest, from_latencies

    if bounded:
        # Digest-backed results: within one log-bucket of exact, bounded
        # memory, no per-class uncorrected_p99 (kept pooled only).
        for op_class in mix:
            digest = live.class_digests.get(op_class)
            if digest is not None and digest.count:
                result.latency[op_class] = digest.mean
                result.latency_p95[op_class] = digest.percentile(95)
                result.latency_p99[op_class] = digest.percentile(99)
                result.histograms[op_class] = from_digest(digest)
            errors = live.class_errors.get(op_class, 0)
            if errors:
                histogram = result.histograms.setdefault(
                    op_class, LatencyHistogram())
                histogram.errors += errors
                result.errors[op_class] = errors
        pooled_digest = live.windowed.total()
        if pooled_digest.observations:
            result.mean = pooled_digest.mean_with_censored
            result.p50 = pooled_digest.percentile(50)
            result.p95 = pooled_digest.percentile(95)
            result.p99 = pooled_digest.percentile(99)
            result.p999 = pooled_digest.percentile(99.9)
        if uncorrected_digest.count:
            result.uncorrected_overall_p99 = uncorrected_digest.percentile(99)
    else:
        pooled: list[float] = []
        pooled_uncorrected: list[float] = []
        for op_class, values in latencies.items():
            if not values:
                continue
            result.latency[op_class] = arithmetic_mean(values)
            result.latency_p95[op_class] = percentile(values, 95)
            result.latency_p99[op_class] = percentile(values, 99)
            result.uncorrected_p99[op_class] = percentile(
                uncorrected[op_class], 99)
            result.histograms[op_class] = from_latencies(values)
            pooled.extend(values)
            pooled_uncorrected.extend(uncorrected[op_class])
        # Censored observations: measured arrivals still queued or in
        # service at cutoff contribute their lower bound end - intended to
        # the pooled percentiles.  Above saturation the never-finishing
        # ops ARE the tail; dropping them would understate p99 the same
        # way coordinated omission does.
        censored = [env.now - intended for intended in pending.values()]
        corrected = pooled + censored
        if corrected:
            result.mean = arithmetic_mean(corrected)
            result.p50 = percentile(corrected, 50)
            result.p95 = percentile(corrected, 95)
            result.p99 = percentile(corrected, 99)
            result.p999 = percentile(corrected, 99.9)
        if pooled_uncorrected:
            result.uncorrected_overall_p99 = percentile(pooled_uncorrected, 99)

        for op_class, values in error_latencies.items():
            if not values:
                continue
            histogram = result.histograms.setdefault(
                op_class, LatencyHistogram())
            for value in values:
                histogram.record(value)
                histogram.record_error()
            result.errors[op_class] = len(values)
    result.retried_ops = counters["retried"]
    result.backoff_seconds = counters["backoff"]
    if metrics:
        metrics.gauge("frontier.offered_rate").set(rate)
        metrics.gauge("frontier.throughput").set(result.throughput)
        metrics.gauge("frontier.p99").set(result.p99)
        metrics.gauge("frontier.max_dispatch_lag").set(result.max_dispatch_lag)
    if prof is not None:
        prof.note_ops(completed[0])
    return result
