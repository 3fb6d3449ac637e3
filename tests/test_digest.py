"""Property tests for the streaming quantile digest (repro.obs.digest).

The digest's contract: bounded memory (log-bucketed counts, no samples),
percentiles within one log bucket of the exact nearest-rank answer, exact
merges (bucket counts are integers), and windowed queries that agree with
a from-scratch digest over the same operations.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.obs.digest import (
    DEFAULT_GROWTH,
    QuantileDigest,
    WindowedDigest,
)

latencies_strategy = st.lists(
    st.floats(min_value=1e-5, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300,
)

percentiles_strategy = st.sampled_from([50.0, 90.0, 95.0, 99.0, 99.9, 100.0])


def exact_nearest_rank(values, pct):
    """The textbook nearest-rank percentile the digest approximates."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]


class TestPercentileAccuracy:
    @given(latencies_strategy, percentiles_strategy)
    @settings(max_examples=120)
    def test_within_one_log_bucket_of_exact(self, values, pct):
        """Digest percentile is >= exact and <= exact * growth.

        The digest reports the upper edge of the bucket holding the
        nearest-rank sample, so it never understates, and a bucket spans a
        factor of ``growth`` — the documented 5% relative error bound.
        """
        digest = QuantileDigest()
        digest.record_many(values)
        exact = exact_nearest_rank(values, pct)
        reported = digest.percentile(pct)
        assert reported >= exact * (1.0 - 1e-9)
        assert reported <= max(exact, digest.min_value) * DEFAULT_GROWTH * (
            1.0 + 1e-9)

    @given(latencies_strategy)
    @settings(max_examples=60)
    def test_exact_stream_stats(self, values):
        digest = QuantileDigest()
        digest.record_many(values)
        assert digest.count == len(values)
        assert digest.mean == pytest.approx(sum(values) / len(values))
        assert digest.min == pytest.approx(min(values))
        assert digest.max == pytest.approx(max(values))

    @given(latencies_strategy,
           st.floats(min_value=1e-4, max_value=10.0, allow_nan=False))
    @settings(max_examples=80)
    def test_count_over_is_conservative(self, values, threshold):
        """count_over never overstates: whole buckets above the cutoff only."""
        digest = QuantileDigest()
        digest.record_many(values)
        actual = sum(1 for v in values if v > threshold)
        assert digest.count_over(threshold) <= actual


class TestMerge:
    @given(latencies_strategy, st.integers(min_value=1, max_value=7))
    @settings(max_examples=80)
    def test_merge_order_independent(self, values, chunks):
        """Chunked merges agree with each other exactly, regardless of order."""
        parts = [values[i::chunks] for i in range(chunks)]
        forward = QuantileDigest()
        for part in parts:
            chunk = QuantileDigest()
            chunk.record_many(part)
            forward.merge(chunk)
        backward = QuantileDigest()
        for part in reversed(parts):
            chunk = QuantileDigest()
            chunk.record_many(part)
            backward.merge(chunk)
        assert forward.buckets == backward.buckets
        assert forward.count == backward.count
        assert forward.total == pytest.approx(backward.total, rel=1e-12)
        assert forward.min == backward.min
        assert forward.max == backward.max

    @given(latencies_strategy, st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_merge_equals_single_stream(self, values, chunks):
        """Merging per-chunk digests reproduces the single-stream digest."""
        single = QuantileDigest()
        single.record_many(values)
        merged = QuantileDigest()
        for i in range(chunks):
            chunk = QuantileDigest()
            chunk.record_many(values[i::chunks])
            merged.merge(chunk)
        assert merged.buckets == single.buckets
        assert merged.count == single.count
        # Summation order differs, so the float total only matches closely.
        assert merged.total == pytest.approx(single.total, rel=1e-9)

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ConfigurationError):
            QuantileDigest(growth=1.05).merge(QuantileDigest(growth=1.1))


def log_and_nudge_index(digest, value):
    """The bucket index as it was computed before the edge table: a log
    estimate nudged until ``edge(i-1) < value <= edge(i)``."""
    if value <= digest.min_value:
        return 0
    index = int(math.log(value / digest.min_value)
                / math.log(digest.growth)) + 1
    while value > digest.bucket_edge(index):
        index += 1
    while index > 0 and value <= digest.bucket_edge(index - 1):
        index -= 1
    return index


GEOMETRIES = [(DEFAULT_GROWTH, 1e-6), (1.1, 1e-3)]


class TestBucketIndex:
    """``bucket_index`` bisects a table of the bucket edges; it must give
    the log-and-nudge index everywhere, edges included."""

    @pytest.mark.parametrize("growth,min_value", GEOMETRIES)
    def test_every_edge_and_its_neighbours(self, growth, min_value):
        digest = QuantileDigest(growth, min_value)
        values = [0.0, -0.0, -1.0, -math.inf, min_value, 5e-324]
        for index in range(700):  # past 1e6 s in both geometries
            edge = digest.bucket_edge(index)
            values += [edge, math.nextafter(edge, 0.0),
                       math.nextafter(edge, math.inf)]
        for value in values:
            assert (digest.bucket_index(value)
                    == log_and_nudge_index(digest, value)), value

    @pytest.mark.parametrize("growth,min_value", GEOMETRIES)
    @given(values=st.lists(st.floats(min_value=-1.0, max_value=1e4,
                                     allow_nan=False), max_size=50))
    @settings(max_examples=60)
    def test_random_latencies(self, growth, min_value, values):
        digest = QuantileDigest(growth, min_value)
        for value in values:
            assert (digest.bucket_index(value)
                    == log_and_nudge_index(digest, value)), value

    def test_digests_of_one_geometry_share_the_table(self):
        first, second = QuantileDigest(), QuantileDigest()
        first.record(50.0)
        assert second.bucket_index(50.0) == first.bucket_index(50.0)
        assert second._edges is first._edges

    @pytest.mark.parametrize("value,error", [
        (math.inf, OverflowError), (math.nan, ValueError),
    ])
    def test_infinite_and_nan_raise_and_change_nothing(self, value, error):
        digest = QuantileDigest()
        digest.record_many([0.001, 0.2])
        digest.record_censored(3.0)
        before = digest.to_dict()
        with pytest.raises(error):
            digest.record(value)
        with pytest.raises(error):
            digest.record_censored(value)
        assert digest.to_dict() == before


class TestCensored:
    def test_censored_counts_toward_percentiles_not_mean(self):
        digest = QuantileDigest()
        digest.record_many([0.001] * 98)
        digest.record_censored(10.0)
        digest.record_censored(10.0)
        # The two in-flight lower bounds occupy the top 2% of the ranks.
        assert digest.percentile(99) >= 10.0
        assert digest.percentile(50) < 0.0011
        # ... but a lower bound must not bias the mean downward-looking stats.
        assert digest.mean == pytest.approx(0.001)
        assert digest.mean_with_censored > digest.mean
        assert digest.observations == 100
        assert digest.count == 98

    def test_roundtrip(self):
        digest = QuantileDigest()
        digest.record_many([0.001, 0.05, 2.0])
        digest.record_censored(7.0)
        clone = QuantileDigest.from_dict(digest.to_dict())
        assert clone.to_dict() == digest.to_dict()
        assert clone.percentile(99) == digest.percentile(99)


ops_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.floats(min_value=1e-5, max_value=10.0, allow_nan=False),
    ),
    min_size=1, max_size=200,
)


class TestWindowed:
    @given(ops_strategy,
           st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
           st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
    @settings(max_examples=80)
    def test_window_query_equals_from_scratch(self, ops, start, width):
        """window(start, end) == a digest of every op in overlapping slices."""
        windowed = WindowedDigest(slice_s=1.0)
        for t, latency in ops:
            windowed.record(t, latency)
        end = start + width
        queried = windowed.window(start, end)
        scratch = QuantileDigest()
        for t, latency in ops:
            index = int(t / 1.0)
            if index * 1.0 < end and (index + 1) * 1.0 > start:
                scratch.record(latency)
        assert queried.buckets == scratch.buckets
        assert queried.count == scratch.count
        assert queried.total == pytest.approx(scratch.total, rel=1e-9)

    @given(ops_strategy)
    @settings(max_examples=40)
    def test_total_covers_everything(self, ops):
        windowed = WindowedDigest(slice_s=1.0)
        for t, latency in ops:
            windowed.record(t, latency)
        assert windowed.total().count == len(ops)
