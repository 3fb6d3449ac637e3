"""Overload-aware open-loop simulation: shedding, deadlines, retry storms.

This is the open-loop event simulation from :mod:`repro.ycsb.eventsim`
with the graceful-degradation layer threaded through:

* stations are :class:`~repro.overload.admission.AdmissionResource`
  instances — bounded queues that shed typed overload outcomes instead of
  growing without bound;
* every op carries an end-to-end **deadline** from its intended arrival
  (``policy.deadline_s``); expired ops are dropped at each queue hop, so
  no server burns service on a request whose client is gone;
* an optional **impatient client** resubmits an op that has not resolved
  within ``policy.client_timeout_s``, up to ``policy.max_attempts`` tries.
  Duplicates are *not cancelled* on success — exactly the wasted work that
  multiplies offered load during a retry storm — unless deadlines kill
  them at a hop.  A :class:`~repro.overload.policy.RetryBudget` caps what
  fraction of traffic those resubmits may be;
* an ``arrival-spike`` fault window multiplies the Poisson arrival rate —
  the metastable demo's transient trigger.

Everything stays a pure function of the seed: each (op, attempt) pair
draws from its own :class:`~repro.common.rng.SeedStream` substream, so
results are byte-identical across runs regardless of event interleaving.
The plain (``overload=None``) simulator path is untouched — zero-cost-off.
"""

from __future__ import annotations

from math import log

from repro.common.errors import SimulationError
from repro.common.rng import SeedStream, TpchRandom64
from repro.common.stats import arithmetic_mean, percentile
from repro.overload.admission import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    AdmissionResource,
)
from repro.overload.policy import OverloadPolicy, RetryBudget, class_priority
from repro.simcluster.events import Environment, Resource

# Attempt-shed reason for an op-error fault window (the attempt bounced
# off a transiently failing station; the client may resubmit on timeout).
SHED_FAULT = "fault"


def overload_open_loop(
    stations,
    mix: dict,
    rate: float,
    policy: OverloadPolicy,
    workers: int | None = None,
    duration: float = 60.0,
    warmup: float = 10.0,
    windows: int = 6,
    seed: int = 1234,
    faults=None,
    metrics=None,
    live=None,
    slo_s: float | None = None,
    series_slice: float | None = None,
):
    """Open-loop Poisson arrivals through admission-controlled stations.

    Returns an :class:`~repro.ycsb.eventsim.OpenLoopResult` whose overload
    fields (``shed``, ``goodput``, ``late_ops``, ``resubmits``,
    ``budget_denied``, ``series``) are populated.  ``slo_s`` is the
    goodput yardstick — a completion counts as *good* only if its
    end-to-end latency is within it (defaults to ``policy.deadline_s``;
    with neither set every completion is good).  ``series_slice`` turns on
    the per-slice time series the metastable report renders.
    """
    from repro.ycsb.eventsim import (
        OpenLoopResult, _pick_class, class_thresholds, station_routes)

    if rate <= 0:
        raise SimulationError(f"arrival rate must be > 0, got {rate:g}")
    if workers is not None and workers < 1:
        raise SimulationError("need at least one worker")
    if not mix or abs(sum(mix.values()) - 1.0) > 1e-9:
        raise SimulationError("op mix must sum to 1")
    if duration <= warmup:
        raise SimulationError("duration must exceed warmup")

    from repro.ycsb.arrivals import PoissonArrivals

    station_faults = None
    if faults:
        from repro.faults.plan import StationFaults

        station_faults = (
            faults if isinstance(faults, StationFaults) else StationFaults(faults)
        )
        if not station_faults:
            station_faults = None

    env = Environment(metrics=metrics)
    resources = {
        s.name: AdmissionResource(
            env, s.servers, name=s.name,
            queue_limit=policy.queue_limit, policy=policy.policy,
        )
        for s in stations
    }
    routes = station_routes(stations, resources, mix)
    thresholds = class_thresholds(mix)
    pool = Resource(env, workers) if workers is not None else None
    seeds = SeedStream(seed)
    slo = slo_s if slo_s is not None else policy.deadline_s
    budget = (
        RetryBudget(policy.retry_budget, policy.budget_burst)
        if policy.retry_budget is not None
        and policy.client_timeout_s is not None
        else None
    )

    result = OpenLoopResult(offered_rate=rate)
    latencies: dict[str, list[float]] = {c: [] for c in mix}
    uncorrected: dict[str, list[float]] = {c: [] for c in mix}
    shed_classes: dict[str, int] = {}
    pending: dict[int, float] = {}  # measured unresolved ops: index -> intended
    counters = {
        "arrivals": 0, "good": 0, "late": 0, "resubmits": 0,
        "budget_denied": 0, "duplicates": 0, "lag": 0.0,
    }
    shed_counts: dict[str, int] = {}
    measure = duration - warmup
    window_width = measure / windows
    window_counts = [0] * windows
    completed = [0]

    n_slices = 0
    if series_slice is not None:
        if series_slice <= 0:
            raise SimulationError("series slice must be > 0")
        n_slices = max(1, int(round(duration / series_slice)))
    series = {
        key: [0] * n_slices
        for key in ("arrivals", "completions", "good", "shed", "resubmits")
    }

    def slot(t: float) -> int:
        return min(n_slices - 1, int(t / series_slice))

    def bump(key: str, t: float) -> None:
        if n_slices:
            series[key][slot(t)] += 1

    if station_faults:
        for spec in station_faults.windows:
            end = duration if spec.end <= spec.at else min(spec.end, duration)
            if live:
                live.note_event(f"{spec.kind}:{spec.target}", spec.at, end)

        def crash_driver(resource, servers, crash_windows):
            for at, end, lost in sorted(crash_windows):
                if at > env.now:
                    yield env.timeout(at - env.now)
                resource.set_capacity(max(1, int(round(servers * (1.0 - lost)))))
                restore = duration if end <= at else min(end, duration)
                if restore > env.now:
                    yield env.timeout(restore - env.now)
                resource.set_capacity(servers)

        for s in stations:
            crash_windows = station_faults.crash_windows(s.name)
            if crash_windows:
                env.process(crash_driver(resources[s.name], s.servers,
                                         crash_windows))

    # -- per-op resolution ----------------------------------------------------

    def resolve_ok(state) -> None:
        t = env.now
        latency = t - state["intended"]
        good = slo is None or latency <= slo
        bump("completions", t)
        if good:
            bump("good", t)
        else:
            counters["late"] += 1
        if state["measured"]:
            pending.pop(state["index"], None)
            completed[0] += 1
            if good:
                counters["good"] += 1
            window_counts[
                min(windows - 1, int((t - warmup) / window_width))
            ] += 1
            latencies[state["class"]].append(latency)
            uncorrected[state["class"]].append(t - state["dispatched"])
            if live:
                live.record_op(t, latency, error=False, cls=state["class"])
        if metrics:
            metrics.counter(f"ycsb.ops.{state['class']}").inc()

    def resolve_shed(state) -> None:
        t = env.now
        reason = state["last_shed"] or SHED_QUEUE_FULL
        bump("shed", t)
        if state["measured"]:
            pending.pop(state["index"], None)
            shed_counts[reason] = shed_counts.get(reason, 0) + 1
            shed_classes[state["class"]] = (
                shed_classes.get(state["class"], 0) + 1)
            if live:
                live.record_shed(t, cls=state["class"], reason=reason)
        if metrics:
            metrics.counter(f"overload.shed.{reason}").inc()

    def maybe_finalize(state) -> None:
        if (state["outcome"] is None and state["live"] == 0
                and state["done_hedging"]):
            state["outcome"] = "shed"
            resolve_shed(state)

    # -- attempt / client processes -------------------------------------------

    # Attempt k of op i draws from rng_for("op", i, k) and its class from
    # rng_for("op-class", i): the same seeds, each prefix hashed once.
    op_seed = seeds.counter("op")
    fault_seed = seeds.counter("op-fault")
    class_seed = seeds.counter("op-class")

    def attempt(index: int, k: int, state) -> object:
        rng = TpchRandom64(op_seed(index, k))
        fault_rng = (
            TpchRandom64(fault_seed(index, k)) if station_faults else None)
        op_class = state["class"]
        deadline = state["deadline"]
        prio = class_priority(op_class)
        if pool is not None:
            grant = pool.request()
            if not grant.triggered:
                yield grant
            if k == 0:
                state["dispatched"] = env.now
                counters["lag"] = max(
                    counters["lag"], env.now - state["intended"])
        ok = True
        random_float = rng.random_float
        for name, resource, mean in routes[op_class]:
            if deadline is not None and env.now >= deadline:
                state["last_shed"] = SHED_DEADLINE
                ok = False
                break
            grant = resource.request(deadline=deadline, priority=prio)
            # A door-shed comes back fired too, with "queue-full".
            outcome = grant.value if grant.triggered else (yield grant)
            if outcome is not None:
                state["last_shed"] = outcome
                ok = False
                break
            if deadline is not None and env.now >= deadline:
                # Expired while queued under a non-purging policy: drop at
                # the hop, before any service is burned on a dead request.
                resource.release()
                state["last_shed"] = SHED_DEADLINE
                ok = False
                break
            service = -mean * log(1.0 - random_float())
            if station_faults:
                service *= station_faults.slowdown(name, env.now)
            yield service
            resource.release()
            if station_faults:
                probability = station_faults.error_probability(
                    name, env.now)
                if probability > 0.0 and fault_rng.random_float() < probability:
                    state["last_shed"] = SHED_FAULT
                    ok = False
                    break
        if pool is not None:
            pool.release()
        if ok:
            if state["outcome"] is None:
                state["outcome"] = "ok"
                resolve_ok(state)
            else:
                # A duplicate finishing after the op resolved: pure wasted
                # service — the retry storm's fuel.
                counters["duplicates"] += 1
        state["live"] -= 1
        maybe_finalize(state)

    def client(index: int, state) -> object:
        for k in range(1, policy.max_attempts):
            yield env.timeout(policy.client_timeout_s)
            if state["outcome"] is not None:
                break
            if (state["deadline"] is not None
                    and env.now >= state["deadline"]):
                break
            if budget is not None and not budget.try_retry():
                counters["budget_denied"] += 1
                break
            counters["resubmits"] += 1
            bump("resubmits", env.now)
            state["live"] += 1
            env.process(attempt(index, k, state))
        state["done_hedging"] = True
        maybe_finalize(state)

    def arrival_times() -> list[float]:
        schedule = PoissonArrivals(rate, seeds.seed_for("arrivals"))
        times = list(schedule.until(duration))
        if station_faults:
            for i, (at, end, factor) in enumerate(
                    station_faults.arrival_windows()):
                extra_rate = rate * (factor - 1.0)
                if extra_rate <= 0.0:
                    continue
                extra = PoissonArrivals(
                    extra_rate, seeds.seed_for("arrivals-spike", i))
                horizon = min(end, duration) - at
                if horizon <= 0.0:
                    continue
                times.extend(at + t for t in extra.until(horizon))
            times.sort()
        return times

    def arrival_source() -> object:
        for index, at in enumerate(arrival_times()):
            if at > env.now:
                yield at - env.now
            measured = at >= warmup
            if measured:
                counters["arrivals"] += 1
            bump("arrivals", at)
            cls_rng = TpchRandom64(class_seed(index))
            state = {
                "index": index,
                "intended": at,
                "dispatched": at,
                "class": _pick_class(cls_rng.random_float(), thresholds),
                "deadline": (
                    at + policy.deadline_s
                    if policy.deadline_s is not None else None),
                "outcome": None,
                "last_shed": None,
                "live": 1,
                "done_hedging": policy.client_timeout_s is None,
                "measured": measured,
            }
            if measured:
                pending[index] = at
            if budget is not None:
                budget.note_op()
            env.process(attempt(index, 0, state))
            if policy.client_timeout_s is not None and policy.max_attempts > 1:
                env.process(client(index, state))

    env.process(arrival_source())
    env.run(until=duration)
    if live:
        for intended in pending.values():
            live.record_censored(env.now, env.now - intended)
        live.finish(env.now)

    # -- result assembly (mirrors the plain open loop) ------------------------

    from repro.ycsb.histogram import LatencyHistogram, from_latencies

    result.arrivals = counters["arrivals"]
    result.completed_ops = completed[0]
    shed_measured = sum(shed_counts.values())
    result.unfinished_ops = counters["arrivals"] - completed[0] - shed_measured
    result.throughput = completed[0] / measure
    result.goodput = counters["good"] / measure
    result.max_dispatch_lag = counters["lag"]
    result.window_throughputs = [c / window_width for c in window_counts]

    pooled: list[float] = []
    pooled_uncorrected: list[float] = []
    for op_class, values in latencies.items():
        if not values:
            continue
        result.latency[op_class] = arithmetic_mean(values)
        result.latency_p95[op_class] = percentile(values, 95)
        result.latency_p99[op_class] = percentile(values, 99)
        result.uncorrected_p99[op_class] = percentile(uncorrected[op_class], 99)
        result.histograms[op_class] = from_latencies(values)
        pooled.extend(values)
        pooled_uncorrected.extend(uncorrected[op_class])
    # Censored accounting, extended: unresolved measured arrivals at cutoff
    # contribute their lower bound exactly as in the plain open loop.  Shed
    # ops are *not* censored — their fate is known — they land in the shed
    # counters and the per-class histograms' shed field instead.
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
    for op_class, count in shed_classes.items():
        histogram = result.histograms.setdefault(op_class, LatencyHistogram())
        histogram.shed += count

    result.shed = dict(sorted(shed_counts.items()))
    result.late_ops = counters["late"]
    result.resubmits = counters["resubmits"]
    result.budget_denied = counters["budget_denied"]
    result.duplicates = counters["duplicates"]
    if n_slices:
        result.series = [
            {
                "t": round(i * series_slice, 6),
                "arrivals": series["arrivals"][i],
                "completions": series["completions"][i],
                "good": series["good"][i],
                "shed": series["shed"][i],
                "resubmits": series["resubmits"][i],
            }
            for i in range(n_slices)
        ]
    if metrics:
        metrics.gauge("overload.goodput").set(result.goodput)
        metrics.gauge("overload.shed_ops").set(shed_measured)
    return result
