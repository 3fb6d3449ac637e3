"""Graceful degradation under overload: admission, deadlines, budgets,
breakers, and the metastable-failure demonstration (PR 10)."""

import json

import pytest

from repro.common.envelope import dumps_report
from repro.common.errors import (
    ConfigurationError,
    DeadlineExceeded,
    Overloaded,
    SimulationError,
)
from repro.common.rng import SeedStream
from repro.faults import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.runner import FaultedYcsbRun
from repro.obs.live import LiveTelemetry
from repro.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    AdmissionResource,
    BreakerBoard,
    CircuitBreaker,
    OverloadPolicy,
    RetryBudget,
    functional_overload_cell,
    overload_open_loop,
    overload_report,
    render_overload_report,
    validate_overload_report,
)
from repro.overload.report import DEMO_PLAN, demo_stations, run_overload_arm
from repro.simcluster.events import Environment
from repro.ycsb.eventsim import SimStation, simulate_open_loop
from repro.ycsb.generators import HotspotGenerator
from repro.ycsb.histogram import LatencyHistogram
from repro.ycsb.workloads import WORKLOADS


# -- policy spec parsing -------------------------------------------------------


class TestOverloadPolicy:
    def test_defaults_round_trip(self):
        policy = OverloadPolicy.parse("default")
        assert policy.queue_limit == 64
        assert policy.policy == "deadline-drop"
        assert policy.deadline_s == 0.5
        assert policy.retry_budget == 0.1
        assert policy.breaker
        assert OverloadPolicy.parse(policy.spec_string()) == policy

    def test_duration_units(self):
        policy = OverloadPolicy.parse("deadline=250ms,cooldown=2s")
        assert policy.deadline_s == 0.25
        assert policy.breaker_cooldown == 2.0

    def test_off_values(self):
        policy = OverloadPolicy.parse(
            "queue=off,policy=reject,deadline=off,budget=off,breaker=off")
        assert not policy.protected

    def test_unprotected_strips_server_side_only(self):
        policy = OverloadPolicy.parse("timeout=250ms,attempts=4")
        bare = policy.unprotected()
        assert not bare.protected
        assert bare.client_timeout_s == 0.25
        assert bare.max_attempts == 4

    @pytest.mark.parametrize("spec", [
        "", "nonsense", "queue=0", "policy=bogus", "deadline=-1",
        "budget=1.5", "breaker=maybe", "deadline=5parsecs",
        "queue=64,policy=deadline-drop,deadline=off",
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            OverloadPolicy.parse(spec)


# -- retry budget --------------------------------------------------------------


class TestRetryBudget:
    def test_caps_retry_fraction(self):
        budget = RetryBudget(0.1, burst=1.0)
        granted = 0
        for _ in range(1000):
            budget.note_op()
            if budget.try_retry():
                granted += 1
        # one token per ten ops, so at most ~10% of traffic is retries
        # (float accumulation may cost a grant every few cycles, never add one)
        assert 85 <= granted <= 100
        assert budget.denied == 1000 - granted

    def test_burst_allows_transient_spike(self):
        budget = RetryBudget(0.1, burst=5.0)
        assert sum(budget.try_retry() for _ in range(10)) == 5


# -- circuit breaker state machine ---------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        for t in range(2):
            breaker.record_failure(float(t))
            assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(2.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(2.5)
        assert breaker.fast_failures == 1

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0)
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.allow(1.5)  # the single half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow(1.6)  # only one probe at a time
        breaker.record_success(1.7)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow(1.8)

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.5)
        breaker.record_failure(1.6)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(2.0)   # cooldown restarts from the reopen
        assert breaker.allow(2.7)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state == BREAKER_CLOSED

    def test_transition_log(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0)
        breaker.record_failure(0.5)
        breaker.allow(2.0)
        breaker.record_success(2.1)
        assert [state for _at, state in breaker.transitions] == [
            BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED]

    def test_board_is_per_shard(self):
        board = BreakerBoard(threshold=1, cooldown=1.0)
        board.record_failure(0, 0.0)
        assert not board.allow(0, 0.1)
        assert board.allow(1, 0.1)
        snapshot = board.to_dict()
        assert snapshot["0"]["state"] == BREAKER_OPEN
        assert snapshot["1"]["state"] == BREAKER_CLOSED
        assert snapshot["1"]["transitions"] == []


# -- admission control ---------------------------------------------------------


def _drain(env, resource, hold=1.0):
    def holder():
        grant = resource.request()
        outcome = yield grant
        assert outcome is None
        yield env.timeout(hold)
        resource.release()
    return holder


class TestAdmissionResource:
    def test_reject_sheds_newcomer_when_full(self):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=1, policy="reject")
        outcomes = []

        def requester():
            grant = resource.request()
            outcome = yield grant
            outcomes.append(outcome)
            if outcome is None:
                yield env.timeout(1.0)
                resource.release()

        for _ in range(3):
            env.process(requester())
        env.run(until=5.0)
        assert outcomes.count(None) == 2       # served one at a time
        assert outcomes.count(SHED_QUEUE_FULL) == 1
        assert resource.shed[SHED_QUEUE_FULL] == 1

    def test_lifo_sheds_oldest_waiter(self):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=1, policy="lifo")
        shed_order = []

        def requester(tag):
            grant = resource.request()
            outcome = yield grant
            if outcome is None:
                yield env.timeout(10.0)
                resource.release()
            else:
                shed_order.append(tag)

        def staged():
            env.process(requester("a"))   # takes the slot
            yield env.timeout(0.1)
            env.process(requester("b"))   # queues
            yield env.timeout(0.1)
            env.process(requester("c"))   # overflow: sheds b (oldest)

        env.process(staged())
        env.run(until=5.0)
        assert shed_order == ["b"]

    def test_deadline_drop_purges_expired_waiters(self):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=8,
                                     policy="deadline-drop")
        outcomes = {}

        def requester(tag, deadline):
            grant = resource.request(deadline=deadline)
            outcomes[tag] = yield grant
            if outcomes[tag] is None:
                yield env.timeout(2.0)
                resource.release()

        def staged():
            env.process(requester("slow", None))      # holds slot 2s
            yield env.timeout(0.1)
            env.process(requester("doomed", 1.0))     # expires while queued
            env.process(requester("patient", None))

        env.process(staged())
        env.run(until=10.0)
        assert outcomes["slow"] is None
        assert outcomes["doomed"] == SHED_DEADLINE
        assert outcomes["patient"] is None
        assert resource.shed[SHED_DEADLINE] == 1

    def test_priority_sheds_worst_class(self):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=1, policy="priority")
        shed = []

        def requester(tag, priority):
            grant = resource.request(priority=priority)
            outcome = yield grant
            if outcome is None:
                yield env.timeout(10.0)
                resource.release()
            else:
                shed.append(tag)

        def staged():
            env.process(requester("first", 1))    # takes the slot
            yield env.timeout(0.1)
            env.process(requester("scan", 2))     # queues
            yield env.timeout(0.1)
            env.process(requester("read", 0))     # overflow: sheds the scan

        env.process(staged())
        env.run(until=5.0)
        assert shed == ["scan"]

    def test_newcomer_shed_at_full_queue_comes_back_fired(self):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=1, policy="reject")
        resource.request()            # takes the slot
        queued = resource.request()   # fills the queue
        sequence = env._sequence
        newcomer = resource.request()
        assert newcomer._fired and newcomer.value == SHED_QUEUE_FULL
        assert env._sequence == sequence
        assert resource.shed[SHED_QUEUE_FULL] == 1
        assert resource.queue_length == 1 and not queued.triggered

    def test_shed_queued_victim_resolves_through_the_heap(self):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=1, policy="lifo")
        resource.request()
        victim = resource.request()
        sequence = env._sequence
        newcomer = resource.request()
        assert not newcomer.triggered  # queued in the victim's place
        assert victim.triggered and not victim._fired
        assert env._sequence == sequence + 1
        env.run()
        assert victim._fired and victim.value == SHED_QUEUE_FULL
        assert resource.shed[SHED_QUEUE_FULL] == 1

    def test_deadline_drop_sheds_after_earliest_waiter_leaves(self):
        """Granting the earliest-deadline waiter leaves the purge's bound on
        the queued deadlines behind; later expiries are still shed, with
        "deadline", at the next request() or release(), in queue order."""
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=8,
                                     policy="deadline-drop")
        events = []

        def requester(tag, deadline, hold):
            outcome = yield resource.request(deadline=deadline)
            events.append((tag, outcome, env.now))
            if outcome is None:
                yield env.timeout(hold)
                resource.release()

        def staged():
            env.process(requester("holder", None, 1.0))
            yield env.timeout(0.1)
            env.process(requester("first", 1.2, 2.0))   # earliest deadline
            env.process(requester("b1", 2.0, 1.0))
            env.process(requester("b2", 2.0, 1.0))
            env.process(requester("c", 2.5, 1.0))
            yield env.timeout(2.1)
            # t=2.2: b1 and b2 have expired; this request() sheds them.
            env.process(requester("late", None, 1.0))

        env.process(staged())
        env.run()
        assert events == [
            ("holder", None, 0.0),
            ("first", None, 1.0),         # granted ahead of the expiries
            ("b1", SHED_DEADLINE, 2.2),   # shed by the newcomer's request()
            ("b2", SHED_DEADLINE, 2.2),
            ("c", SHED_DEADLINE, 3.0),    # shed by first's release()
            ("late", None, 3.0),
        ]
        assert resource.shed == {SHED_QUEUE_FULL: 0, SHED_DEADLINE: 3}
        assert resource.queue_length == 0 and resource.in_use == 0

    @pytest.mark.parametrize("policy, served", [
        ("reject", ["a", "b", "c", "d"]),
        ("lifo", ["a", "d", "c", "b"]),
        ("priority", ["a", "c", "d", "b"]),
        ("deadline-drop", ["a", "b", "d"]),   # c expires while queued
    ])
    def test_service_order_per_policy(self, policy, served):
        env = Environment()
        resource = AdmissionResource(env, 1, queue_limit=8, policy=policy)
        order = []

        def requester(tag, priority, deadline):
            outcome = yield resource.request(deadline=deadline,
                                             priority=priority)
            if outcome is None:
                order.append(tag)
                yield env.timeout(1.0)
                resource.release()

        def staged():
            for tag, priority, deadline in (("a", 1, None), ("b", 2, None),
                                            ("c", 0, 0.5), ("d", 1, None)):
                env.process(requester(tag, priority, deadline))
                yield env.timeout(0.1)

        env.process(staged())
        env.run()
        assert order == served
        assert resource.queue_length == 0

    def test_queue_limit_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            AdmissionResource(env, 1, queue_limit=0)
        with pytest.raises(SimulationError):
            AdmissionResource(env, 1, policy="fifo-ish")


# -- typed overload errors ------------------------------------------------------


class TestOverloadErrors:
    def test_hierarchy(self):
        assert issubclass(DeadlineExceeded, Overloaded)
        exc = DeadlineExceeded("too late", station="disk")
        assert exc.reason == "deadline"
        assert exc.station == "disk"


# -- shed accounting: histograms and live telemetry ----------------------------


class TestShedAccounting:
    def test_shed_excluded_from_mean_counted_in_error_rate(self):
        histogram = LatencyHistogram()
        histogram.record(0.010)
        histogram.record(0.020)
        histogram.record_shed()
        histogram.record_shed()
        assert histogram.mean == pytest.approx(0.015)
        assert histogram.total == 2
        assert histogram.error_rate == pytest.approx(2 / 4)
        assert "Shed: 2" in histogram.render()

    def test_merge_carries_shed(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_shed()
        b.record_shed()
        a.merge(b)
        assert a.shed == 2

    def test_live_records_sheds_outside_digest(self):
        live = LiveTelemetry(slice_s=1.0)
        live.record_op(0.5, 0.010, cls="read")
        live.record_shed(1.5, cls="read", reason="queue-full")
        live.finish(2.0)
        assert live.sheds == 1
        assert live.shed_reasons == {"queue-full": 1}
        merged = live.windowed.window(0.0, 2.0)
        assert merged.count == 1  # shed adds no latency sample
        assert live.error_slices.get(1) == 1  # but it burns the SLO


# -- the overload-aware open loop ----------------------------------------------


def _station():
    return [SimStation("server", 4, {"read": 0.01})]


class TestOverloadOpenLoop:
    def test_unprotected_run_is_byte_identical(self):
        """zero-cost-off: overload=None leaves the plain path untouched."""
        kwargs = dict(duration=8.0, warmup=2.0, seed=42)
        plain = simulate_open_loop(_station(), {"read": 1.0}, 300.0, **kwargs)
        again = simulate_open_loop(_station(), {"read": 1.0}, 300.0, **kwargs)
        assert plain.throughput == again.throughput
        assert plain.p99 == again.p99
        assert plain.shed == {} and plain.shed_count == 0

    def test_deterministic_per_seed(self):
        policy = OverloadPolicy.parse("timeout=250ms,attempts=4")
        results = [
            run_overload_arm(policy, duration=40.0, seed=7)
            for _ in range(2)
        ]
        assert results[0] == results[1]
        changed = run_overload_arm(policy, duration=40.0, seed=8)
        assert changed != results[0]

    def test_overload_sim_rejects_observability_kwargs(self):
        policy = OverloadPolicy()
        with pytest.raises(SimulationError):
            simulate_open_loop(_station(), {"read": 1.0}, 300.0,
                               duration=8.0, warmup=2.0, overload=policy,
                               bounded=True)

    def test_queue_full_sheds_under_saturation(self):
        policy = OverloadPolicy.parse(
            "queue=4,policy=reject,deadline=off,budget=off,breaker=off")
        result = overload_open_loop(
            _station(), {"read": 1.0}, 2000.0, policy,
            duration=10.0, warmup=2.0, seed=3,
        )
        assert result.shed.get(SHED_QUEUE_FULL, 0) > 0
        assert result.histograms["read"].shed == result.shed_count
        assert result.throughput < 2000.0

    def test_deadline_bounds_worst_case_latency(self):
        policy = OverloadPolicy.parse(
            "queue=64,policy=deadline-drop,deadline=200ms,budget=off,"
            "breaker=off")
        result = overload_open_loop(
            _station(), {"read": 1.0}, 1000.0, policy,
            duration=10.0, warmup=2.0, seed=3,
        )
        assert result.shed.get(SHED_DEADLINE, 0) > 0
        # Completed ops waited less than the deadline plus one service time.
        for histogram in result.histograms.values():
            if histogram.total:
                assert histogram.max_latency <= 0.2 + 0.2


# -- the metastable demonstration ----------------------------------------------


@pytest.fixture(scope="module")
def demo():
    return overload_report(seed=1234)


class TestMetastableDemo:
    def test_unprotected_stays_collapsed(self, demo):
        arm = demo["unprotected"]
        assert arm["collapsed_for_s"] >= 30.0
        assert not arm["recovered"]
        assert arm["resubmits"] > 10 * demo["protected"]["resubmits"]

    def test_protected_recovers_fast(self, demo):
        arm = demo["protected"]
        assert arm["recovered"]
        assert arm["time_to_recovery_s"] <= 15.0
        assert arm["goodput"] >= 0.9 * arm["baseline_goodput"]

    def test_verdict_and_schema(self, demo):
        assert demo["contrast"]["metastable_demonstrated"]
        validate_overload_report(demo)
        text = dumps_report(demo)
        assert text == dumps_report(json.loads(text))

    def test_render_shows_both_arms(self, demo):
        text = render_overload_report(demo)
        assert "unprotected" in text and "protected" in text
        assert "metastable failure demonstrated and fixed" in text

    def test_demo_is_deterministic(self, demo):
        assert dumps_report(overload_report(seed=1234)) == dumps_report(demo)

    def test_validation_rejects_mutations(self, demo):
        for mutate in (
            lambda d: d.pop("contrast"),
            lambda d: d["protected"].pop("series"),
            lambda d: d.update(schema="repro-overload/2"),
            lambda d: d["contrast"].update(metastable_demonstrated="yes"),
        ):
            broken = json.loads(dumps_report(demo))
            mutate(broken)
            with pytest.raises(ConfigurationError):
                validate_overload_report(broken)

    def test_field_replacements_only_raise_configuration_errors(
            self, demo, assert_validator_total):
        # A scenario that is not an object used to raise AttributeError.
        assert_validator_total(validate_overload_report, demo)

    def test_fault_must_start_after_warmup(self):
        with pytest.raises(ConfigurationError):
            run_overload_arm(OverloadPolicy(),
                             plan="arrival-spike:clients@2+5x2",
                             warmup=5.0, duration=30.0)


# -- functional breaker cell ---------------------------------------------------


class TestFunctionalCell:
    def test_breakers_cut_backoff_on_dead_shard(self):
        plan = FaultPlan.parse("kill-shard:0@0.3", seed=7)
        cell = functional_overload_cell(
            plan, OverloadPolicy(), shard_count=4, record_count=200,
            operations=600,
        )
        contrast = cell["contrast"]
        assert contrast["backoff_saved_seconds"] > 0
        assert contrast["breaker_trips"] >= 1
        assert cell["protected"]["shed"].get("breaker", 0) > 0
        boards = cell["protected"]["breakers"]
        assert any(shard["transitions"] for shard in boards.values())
        # Availability barely moves: the shard is dead either way.
        assert abs(contrast["availability_delta"]) < 0.05

    def test_unprotected_arm_matches_plain_runner(self):
        """zero-cost-off on the functional path, verified byte-for-byte."""
        from repro.faults.report import _build_cluster

        plan = FaultPlan.parse("kill-shard:0@0.3", seed=7)
        spec = WORKLOADS["A"]

        def run(overload):
            cluster = _build_cluster("mongo-as", 4, 200, seed=7)
            runner = FaultedYcsbRun(
                cluster, spec, record_count=200, operations=400,
                plan=plan, policy=RetryPolicy(), seed=7, overload=overload,
            )
            runner.load()
            return runner.run()

        plain = run(None)
        cell = run(OverloadPolicy().unprotected())
        assert plain.succeeded == cell.succeeded
        assert plain.errors == cell.errors
        assert plain.backoff_seconds == cell.backoff_seconds
        assert plain.duration == cell.duration
        assert cell.shed == {} and cell.breakers == {}

    def test_needs_a_shard_fault(self):
        from repro.common.errors import FaultPlanError

        with pytest.raises(FaultPlanError):
            functional_overload_cell(FaultPlan(), OverloadPolicy())


# -- retry deadline (satellite: op_timeout is a true end-to-end deadline) ------


class TestRetryDeadline:
    def test_gives_up_before_overshooting_timeout(self):
        policy = RetryPolicy(max_attempts=50, base_backoff=0.4,
                             backoff_cap=0.4, op_timeout=1.0)
        # elapsed 0.7 + next delay 0.4 would land past the 1.0s deadline:
        # the client gives up now instead of sleeping through it.
        assert policy.gives_up(1, 0.7)
        assert not policy.gives_up(1, 0.3)

    def test_worst_case_latency_bounded_by_timeout(self):
        """Regression: an op's latency never exceeds op_timeout plus one
        service time plus one failure detection."""
        from repro.faults.report import _build_cluster
        from repro.faults.runner import (
            FAILURE_DETECT_LATENCY,
            SERVICE_LATENCY,
        )

        policy = RetryPolicy(max_attempts=100, base_backoff=0.05,
                             backoff_cap=0.2, op_timeout=0.5)
        plan = FaultPlan.parse("kill-shard:0@0.2", seed=7)
        cluster = _build_cluster("mongo-as", 4, 200, seed=7)
        runner = FaultedYcsbRun(
            cluster, WORKLOADS["A"], record_count=200, operations=500,
            plan=plan, policy=policy, seed=7,
        )
        runner.load()
        stats = runner.run()
        assert stats.error_count > 0  # the dead shard did force give-ups
        bound = (policy.op_timeout + max(SERVICE_LATENCY.values())
                 + FAILURE_DETECT_LATENCY)
        for histogram in stats.histograms.values():
            assert histogram.max_latency <= bound + 1e-9


# -- hotspot generator (satellite) ---------------------------------------------


class TestHotspotGenerator:
    def test_deterministic(self):
        a = HotspotGenerator(1000, SeedStream(5).rng_for("h"))
        b = HotspotGenerator(1000, SeedStream(5).rng_for("h"))
        assert [a.next() for _ in range(500)] == [b.next() for _ in range(500)]

    def test_celebrity_draw_share(self):
        gen = HotspotGenerator(10_000, SeedStream(5).rng_for("h"),
                               hot_weight=0.5, shift_every=100_000)
        celebrity = gen.celebrity(0)
        draws = [gen.next() for _ in range(20_000)]
        share = draws.count(celebrity) / len(draws)
        assert 0.45 < share < 0.60  # ~50% plus the Zipf base's own hits

    def test_celebrity_shifts_between_epochs(self):
        gen = HotspotGenerator(10_000, SeedStream(5).rng_for("h"),
                               shift_every=10)
        first, second = gen.celebrity(0), gen.celebrity(1)
        assert first != second
        assert gen.epoch == 0
        for _ in range(10):
            gen.next()
        assert gen.epoch == 1

    def test_cdf_monotone(self):
        gen = HotspotGenerator(100, SeedStream(5).rng_for("h"))
        values = [gen.cdf(f) for f in (0.0, 0.1, 0.5, 1.0)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_workload_accepts_hotspot(self):
        from repro.ycsb.workloads import WorkloadSpec

        hot = WorkloadSpec(name="hot", description="hotspot smoke",
                           read=1.0, request_distribution="hotspot")
        assert hot.request_distribution == "hotspot"


# -- CLI ------------------------------------------------------------------------


class TestOverloadCli:
    def test_malformed_spec_exits_2(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["oltp", "--overload", "bogus=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overload_report_does_not_compose_with_reshard(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["oltp", "--overload", "--reshard"]) == 2
        assert "--reshard" in capsys.readouterr().err
