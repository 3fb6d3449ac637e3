"""Validation: the discrete-event closed loop agrees with the MVA model."""

import pytest

from repro.common.errors import FaultPlanError, SimulationError
from repro.faults.plan import FaultPlan
from repro.obs.live import LiveTelemetry
from repro.obs.prof import ProfiledRun
from repro.overload.policy import OverloadPolicy
from repro.overload.sim import overload_open_loop
from repro.ycsb.eventsim import (
    EventSimResult,
    SimStation,
    mva_prediction,
    simulate_closed_loop,
    simulate_open_loop,
)


def single_station(service=0.01, servers=1):
    return [SimStation("disk", servers, {"read": service})]


class TestBasics:
    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            simulate_closed_loop(single_station(), {"read": 1.0}, clients=0)
        with pytest.raises(SimulationError):
            simulate_closed_loop(single_station(), {"read": 0.5}, clients=1)
        with pytest.raises(SimulationError):
            simulate_closed_loop(single_station(), {"read": 1.0}, clients=1,
                                 duration=5.0, warmup=10.0)
        # A class no station serves: the closed loop used to spin forever
        # on the empty route, the open loops to finish its ops in 0 s.
        writes_only = [SimStation("disk", 1, {"update": 0.01})]
        mix = {"read": 0.5, "update": 0.5}
        with pytest.raises(SimulationError, match="'read'"):
            simulate_closed_loop(writes_only, {"read": 1.0}, clients=2,
                                 duration=5.0, warmup=1.0)
        with pytest.raises(SimulationError, match="'read'"):
            simulate_open_loop(writes_only, mix, rate=10.0, duration=5.0,
                               warmup=1.0)
        with pytest.raises(SimulationError, match="'read'"):
            overload_open_loop(writes_only, mix, 10.0,
                               OverloadPolicy.parse("default"),
                               duration=5.0, warmup=1.0)
        # An arrival spike reshapes arrivals, which only the overload
        # simulator models: the FIFO simulators used to ignore it silently.
        spike = FaultPlan.parse("arrival-spike:clients@1+1x3").station_faults
        with pytest.raises(FaultPlanError, match="arrival-spike"):
            simulate_closed_loop(single_station(), {"read": 1.0}, clients=2,
                                 duration=5.0, warmup=1.0, faults=spike)
        with pytest.raises(FaultPlanError, match="arrival-spike"):
            simulate_open_loop(single_station(), {"read": 1.0}, rate=10.0,
                               duration=5.0, warmup=1.0, faults=spike)

    def test_deterministic_given_seed(self):
        a = simulate_closed_loop(single_station(), {"read": 1.0}, clients=4,
                                 duration=20.0, seed=9)
        b = simulate_closed_loop(single_station(), {"read": 1.0}, clients=4,
                                 duration=20.0, seed=9)
        assert a.throughput == b.throughput
        assert a.latency == b.latency

    def test_result_reports_windows_and_errors(self):
        result = simulate_closed_loop(single_station(), {"read": 1.0}, clients=4,
                                      duration=40.0, windows=4, seed=2)
        assert isinstance(result, EventSimResult)
        assert len(result.window_throughputs) == 4
        assert result.throughput_stderr >= 0.0
        assert result.latency_stderr["read"] >= 0.0
        assert result.completed_ops > 100


class TestAgreementWithMva:
    def test_saturated_single_server(self):
        """At saturation throughput -> 1/service regardless of model."""
        stations = single_station(service=0.01)
        sim = simulate_closed_loop(stations, {"read": 1.0}, clients=20,
                                   duration=120.0, seed=5)
        x_mva, _, _ = mva_prediction(stations, {"read": 1.0}, 20)
        assert sim.throughput == pytest.approx(100.0, rel=0.08)
        assert x_mva == pytest.approx(100.0, rel=0.02)

    def test_moderate_load_throughput_agrees(self):
        stations = [
            SimStation("cpu", 8, {"read": 0.004, "update": 0.006}),
            SimStation("disk", 4, {"read": 0.008, "update": 0.004}),
        ]
        mix = {"read": 0.8, "update": 0.2}
        sim = simulate_closed_loop(stations, mix, clients=12, think_time=0.02,
                                   duration=120.0, seed=3)
        x_mva, r_mva, _ = mva_prediction(stations, mix, 12, 0.02)
        assert sim.throughput == pytest.approx(x_mva, rel=0.12)

    def test_latency_grows_with_clients(self):
        stations = single_station(service=0.01, servers=2)
        few = simulate_closed_loop(stations, {"read": 1.0}, clients=2,
                                   duration=60.0, seed=7)
        many = simulate_closed_loop(stations, {"read": 1.0}, clients=40,
                                    duration=60.0, seed=7)
        assert many.latency["read"] > few.latency["read"] * 2

    def test_think_time_throttles_throughput(self):
        stations = single_station(service=0.001, servers=4)
        unthrottled = simulate_closed_loop(stations, {"read": 1.0}, clients=10,
                                           duration=60.0, seed=11)
        throttled = simulate_closed_loop(stations, {"read": 1.0}, clients=10,
                                         think_time=0.05, duration=60.0, seed=11)
        assert throttled.throughput < 0.5 * unthrottled.throughput
        # Response-time law sanity: X ~ N / (R + Z).
        expected = 10 / (throttled.latency["read"] + 0.05)
        assert throttled.throughput == pytest.approx(expected, rel=0.1)

    def test_multi_class_latency_ordering(self):
        stations = [
            SimStation("cpu", 4, {"read": 0.002, "scan": 0.02}),
        ]
        mix = {"read": 0.9, "scan": 0.1}
        sim = simulate_closed_loop(stations, mix, clients=8, duration=90.0, seed=13)
        assert sim.latency["scan"] > sim.latency["read"]


class TestHotspotBehaviour:
    def test_single_server_hotspot_queues_like_the_paper(self):
        """A 1-server station at overload absorbs clients (workload E appends)."""
        stations = [
            SimStation("work", 16, {"read": 0.004, "insert": 0.004}),
            SimStation("hotspot", 1, {"insert": 0.02}),
        ]
        mix = {"read": 0.5, "insert": 0.5}
        sim = simulate_closed_loop(stations, mix, clients=40, duration=90.0, seed=17)
        # Appends pile up at the hotspot; reads stay fast.
        assert sim.latency["insert"] > 5 * sim.latency["read"]


class TestPercentiles:
    def test_tail_latency_exceeds_mean(self):
        stations = single_station(service=0.01, servers=2)
        result = simulate_closed_loop(stations, {"read": 1.0}, clients=10,
                                      duration=90.0, seed=23)
        assert result.latency_p95["read"] > result.latency["read"]
        assert result.latency_p99["read"] >= result.latency_p95["read"]

    def test_percentiles_tighten_under_light_load(self):
        stations = single_station(service=0.001, servers=8)
        light = simulate_closed_loop(stations, {"read": 1.0}, clients=2,
                                     think_time=0.05, duration=60.0, seed=29)
        heavy = simulate_closed_loop(stations, {"read": 1.0}, clients=64,
                                     duration=60.0, seed=29)
        assert light.latency_p99["read"] < heavy.latency_p99["read"]


class TestHistogramIntegration:
    def test_histograms_match_summary_stats(self):
        stations = single_station(service=0.005, servers=2)
        result = simulate_closed_loop(stations, {"read": 1.0}, clients=8,
                                      duration=60.0, seed=37)
        hist = result.histograms["read"]
        assert hist.total == len(
            [1 for _ in range(hist.total)]
        )  # populated
        assert hist.mean == pytest.approx(result.latency["read"], rel=1e-9)
        # YCSB bucket semantics round up to the bucket edge.
        assert hist.percentile(95) >= result.latency_p95["read"] - hist.bucket_width
        assert "AverageLatency" in hist.render("READ")


class TestSchedulePin:
    """Literal outputs of small cells, fixed before the kernel was slimmed.

    The determinism tests above compare a run with a run of the same code.
    These compare with numbers recorded from an earlier version of the
    kernel and the three client loops, so a change that reorders events,
    draws a random number in a different order or skips a fault query
    fails here even if it is deterministic.  The heap entries each run
    dispatches are pinned too, so the heap traffic stays the same.
    """

    STATIONS = [
        SimStation("cpu", 2, {"read": 0.004, "update": 0.006}),
        SimStation("lock", 1, {"update": 0.002}),
        SimStation("disk", 1, {"read": 0.003, "update": 0.003}),
    ]
    MIX = {"read": 0.5, "update": 0.5}
    FAULTS = "crash:cpu@3+2x0.5;op-error:disk@2+3x0.3;disk-stall:disk@4+1x3"

    def _closed(self, **kwargs):
        return simulate_closed_loop(
            self.STATIONS, self.MIX, clients=6, think_time=0.01,
            duration=8.0, warmup=2.0, windows=4, seed=17, **kwargs)

    def _open(self, **kwargs):
        return simulate_open_loop(
            self.STATIONS, self.MIX, rate=300.0, duration=6.0, warmup=1.0,
            windows=4, seed=5, **kwargs)

    def _overload(self, **kwargs):
        return overload_open_loop(
            self.STATIONS, self.MIX, rate=700.0,
            policy=OverloadPolicy.parse("default"), duration=6.0, warmup=1.0,
            windows=4, seed=5, **kwargs)

    @staticmethod
    def _assert_pinned(result, ops, throughput, p99, windows, shed=None):
        assert result.completed_ops == ops
        assert result.throughput == throughput
        assert {c: repr(v) for c, v in result.latency_p99.items()} == p99
        assert result.window_throughputs == windows
        if shed is not None:
            assert result.shed == shed

    def test_closed_loop(self):
        self._assert_pinned(
            self._closed(), 1489, 248.16666666666666,
            {"read": "0.029699837103302484", "update": "0.045331063662442314"},
            [240.0, 250.66666666666666, 242.66666666666666, 259.3333333333333])

    def test_closed_loop_with_faults(self):
        result = self._closed(faults=FaultPlan.parse(self.FAULTS))
        self._assert_pinned(
            result, 1025, 170.83333333333334,
            {"read": "0.17737586374528158", "update": "0.18093279360438425"},
            [119.33333333333333, 79.33333333333333, 242.66666666666666, 242.0])
        assert result.errors == {"update": 1}
        assert result.retried_ops == 125
        assert result.backoff_seconds == 8.399999999999986

    def test_open_loop_unbounded(self):
        self._assert_pinned(
            self._open(), 1489, 297.8,
            {"read": "0.20159101955626468", "update": "0.20107982219645265"},
            [269.6, 282.4, 344.8, 294.4], shed={})

    def test_open_loop_bounded_with_live(self):
        result = self._open(workers=4, live=LiveTelemetry(slice_s=1.0),
                            bounded=True)
        self._assert_pinned(
            result, 1257, 251.4,
            {"read": "0.8570452249641718", "update": "0.8998974862123805"},
            [193.6, 262.4, 278.4, 271.2], shed={})

    def test_open_loop_with_faults(self):
        result = self._open(faults=FaultPlan.parse(self.FAULTS))
        self._assert_pinned(
            result, 1143, 228.6,
            {"read": "1.5162433669115993", "update": "1.4459656160365189"},
            [264.0, 217.6, 148.8, 284.0], shed={})
        assert result.errors == {"update": 1}
        assert result.retried_ops == 212
        assert result.backoff_seconds == 14.100000000000028

    def test_overload_default_policy(self):
        self._assert_pinned(
            self._overload(), 1501, 300.2,
            {"read": "0.4071527814713754", "update": "0.4185030492235152"},
            [250.4, 311.2, 315.2, 324.0], shed={"queue-full": 1902})

    @pytest.mark.parametrize("cell, faulted, events", [
        ("_closed", False, 9287),
        ("_closed", True, 7363),
        ("_open", False, 13182),
        ("_open", True, 12735),
    ])
    def test_dispatched_heap_entries(self, cell, faulted, events):
        prof = ProfiledRun(sample=False)
        faults = {"faults": FaultPlan.parse(self.FAULTS)} if faulted else {}
        getattr(self, cell)(prof=prof, **faults)
        assert prof.events == events

    def test_overload_with_faults(self):
        self._assert_pinned(
            self._overload(faults=FaultPlan.parse(self.FAULTS)), 1045, 209.0,
            {"read": "0.5151577400585097", "update": "0.5096745142801777"},
            [227.2, 229.6, 101.6, 277.6],
            shed={"deadline": 75, "fault": 198, "queue-full": 2085})
