"""Tests for the Table-3-style statistics helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import (
    arithmetic_mean,
    fold_sum,
    geometric_mean,
    harmonic_number,
    percentile,
    scaling_factors,
    std_deviation,
    std_error,
)

positive_floats = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


class TestMeans:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0

    def test_geometric_mean_known_value(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(positive_floats)
    @settings(max_examples=50)
    def test_am_gm_inequality(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) * (1 + 1e-9)

    def test_paper_table3_am_gm_sf250(self):
        # Table 3 reports AM=605, GM=474 for Hive at SF 250 over these times.
        hive_250 = [207, 411, 508, 367, 536, 79, 1007, 967, 2033, 489, 242,
                    253, 392, 154, 444, 460, 654, 786, 376, 606, 1431, 908]
        assert round(arithmetic_mean(hive_250)) == 605
        assert round(geometric_mean(hive_250)) == 474


class TestFoldSum:
    def test_rounds_after_every_addition(self):
        # Compensated summation (the builtin sum from Python 3.12) gives 1.0.
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0

    def test_starts_from_int_zero(self):
        assert fold_sum([]) == 0 and type(fold_sum([])) is int
        assert fold_sum(iter([1, 2, 3])) == 6
        assert fold_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3


class TestDispersion:
    def test_std_deviation_known(self):
        assert std_deviation([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)

    def test_std_error_scales_with_n(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert std_error(values) == pytest.approx(std_deviation(values) / 2.0)

    def test_single_value_has_zero_spread(self):
        assert std_deviation([5.0]) == 0.0
        assert std_error([5.0]) == 0.0


class TestPercentile:
    def test_bounds(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 5
        assert percentile(values, 50) == 3

    def test_interpolation(self):
        assert percentile([10, 20], 50) == pytest.approx(15.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestScalingFactors:
    def test_paper_like_series(self):
        # Hive Q1: 207 -> 443 -> 1376 -> 5357 gives factors ~2.1, 3.1, 3.9.
        factors = scaling_factors([207, 443, 1376, 5357])
        assert [round(f, 1) for f in factors] == [2.1, 3.1, 3.9]

    def test_short_series(self):
        assert scaling_factors([5.0]) == []

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaling_factors([0.0, 1.0])


class TestHarmonicNumber:
    def test_exact_small(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_large_matches_log_growth(self):
        # H_n ~ ln(n) + gamma for s = 1.
        n = 10_000_000
        approx = harmonic_number(n)
        assert approx == pytest.approx(math.log(n) + 0.5772156649, rel=1e-4)

    def test_generalized_converges(self):
        # H_{n,2} -> pi^2/6.
        assert harmonic_number(5_000_000, s=2.0) == pytest.approx(math.pi**2 / 6, rel=1e-4)

    def test_zipfian_exponent_large_n(self):
        # The YCSB zipfian constant 0.99: check monotonicity and sanity.
        h1 = harmonic_number(1_000_000, s=0.99)
        h2 = harmonic_number(2_000_000, s=0.99)
        assert h2 > h1 > 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            harmonic_number(0)

    @pytest.mark.parametrize("s", [0.99, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 10_000, 10_001, 640_000_000])
    def test_cached_head_equals_the_uncached_sum(self, n, s):
        """The 10,000-term head is summed once per exponent; every value
        equals summing it afresh, bit for bit, on repeated calls too."""
        if n <= 10_000:
            want = fold_sum(1.0 / i**s for i in range(1, n + 1))
        else:
            head = fold_sum(1.0 / i**s for i in range(1, 10_001))
            if s == 1.0:
                tail = math.log(n) - math.log(10_000)
            else:
                tail = (n ** (1.0 - s) - 10_000 ** (1.0 - s)) / (1.0 - s)
            want = head + tail + 0.5 * (1.0 / n**s - 1.0 / 10_000**s)
        for _ in range(2):
            assert repr(harmonic_number(n, s=s)) == repr(want)
