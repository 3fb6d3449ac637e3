"""Properties of the open-loop Poisson arrival generator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.rng import TpchRandom64
from repro.ycsb.arrivals import PoissonArrivals

rates = st.floats(min_value=0.01, max_value=1e6,
                  allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = PoissonArrivals(1000.0, seed=42).take(500)
        b = PoissonArrivals(1000.0, seed=42).take(500)
        assert a == b  # byte-identical floats, not approximately equal

    def test_different_seeds_differ(self):
        a = PoissonArrivals(1000.0, seed=42).take(50)
        b = PoissonArrivals(1000.0, seed=43).take(50)
        assert a != b

    def test_until_matches_take(self):
        """until() is the same schedule as repeated next_arrival()."""
        horizon = 0.25
        from_until = list(PoissonArrivals(800.0, seed=9).until(horizon))
        reference = [t for t in PoissonArrivals(800.0, seed=9).take(500)
                     if t < horizon]
        assert from_until == reference

    @given(rates, seeds)
    @settings(max_examples=60)
    def test_schedule_is_pure_function_of_rate_and_seed(self, rate, seed):
        assert (PoissonArrivals(rate, seed).take(40)
                == PoissonArrivals(rate, seed).take(40))


def scalar_arrivals(rate, seed, count):
    """The schedule drawn one ``TpchRandom64.random_float`` at a time."""
    rng, now, times = TpchRandom64(seed), 0.0, []
    for _ in range(count):
        now += -math.log(1.0 - rng.random_float()) / rate
        times.append(now)
    return times


class TestBlockDrawnSchedule:
    """Arrivals come from block-drawn floats; the schedule must be the
    scalar generator's bit for bit, past several blocks."""

    @given(rates, st.integers(min_value=-(2**65), max_value=2**65),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_take_equals_the_scalar_reference(self, rate, seed, count):
        assert (PoissonArrivals(rate, seed).take(count)
                == scalar_arrivals(rate, seed, count))

    def test_until_and_next_arrival_share_one_stream(self):
        reference = scalar_arrivals(800.0, 9, 302)
        schedule = PoissonArrivals(800.0, seed=9)
        assert list(schedule.until(reference[299])) == reference[:299]
        # until consumed the arrival at the horizon; the stream goes on.
        assert schedule.next_arrival() == reference[300]
        assert schedule.take(1) == reference[301:]


class TestMonotonicity:
    @given(rates, seeds)
    @settings(max_examples=60)
    def test_strictly_increasing(self, rate, seed):
        times = PoissonArrivals(rate, seed).take(200)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_until_respects_horizon(self):
        for at in PoissonArrivals(500.0, seed=3).until(2.0):
            assert at < 2.0


class TestMeanRate:
    @pytest.mark.parametrize("rate", [10.0, 1_000.0, 50_000.0])
    def test_empirical_rate_within_tolerance(self, rate):
        """20k exponential gaps: the mean is within 3 stderr of 1/rate."""
        count = 20_000
        last = PoissonArrivals(rate, seed=1234).take(count)[-1]
        empirical = count / last
        # stderr of the mean gap is (1/rate)/sqrt(n); invert conservatively.
        tolerance = 3.0 / math.sqrt(count)
        assert abs(empirical - rate) / rate < tolerance

    def test_higher_rate_means_denser_schedule(self):
        slow = PoissonArrivals(100.0, seed=7).take(1000)[-1]
        fast = PoissonArrivals(10_000.0, seed=7).take(1000)[-1]
        assert fast < slow

    def test_gaps_are_finite(self):
        times = PoissonArrivals(0.5, seed=11).take(1000)
        assert all(math.isfinite(t) for t in times)


class TestValidation:
    @pytest.mark.parametrize("rate", [0.0, -1.0, -1e-9])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(SimulationError):
            PoissonArrivals(rate)

    def test_negative_take_rejected(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(1.0).take(-1)
