"""Tests for the dbgen-style RNGs, including the paper's RANDOM overflow bug."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import SeedStream, TpchRandom, TpchRandom64, to_int32, to_int64


class TestInt32Semantics:
    def test_to_int32_identity_in_range(self):
        assert to_int32(123) == 123
        assert to_int32(-5) == -5
        assert to_int32(2**31 - 1) == 2**31 - 1

    def test_to_int32_wraps(self):
        assert to_int32(2**31) == -(2**31)
        assert to_int32(3_200_000_000) == 3_200_000_000 - 2**32

    def test_to_int64_wraps(self):
        assert to_int64(2**63) == -(2**63)
        assert to_int64(42) == 42


class TestTpchRandomOverflow:
    """Section 3.3.1: RANDOM produces negative partkeys at SF 16000."""

    def test_partkey_range_overflows_at_sf_16000(self):
        # partkey is drawn on [1, SF * 200_000]; at SF 16000 the span is
        # 3.2e9 > INT32_MAX, so the 32-bit generator must emit negatives.
        rng = TpchRandom(seed=7)
        values = [rng.random_int(1, 16000 * 200_000) for _ in range(2000)]
        assert any(v < 0 for v in values), "expected the paper's overflow bug"

    def test_no_overflow_at_sf_4000(self):
        rng = TpchRandom(seed=7)
        high = 4000 * 200_000  # 8e8 < INT32_MAX: still safe
        values = [rng.random_int(1, high) for _ in range(2000)]
        assert all(1 <= v <= high for v in values)

    def test_random64_fix_never_overflows(self):
        rng = TpchRandom64(seed=7)
        high = 16000 * 200_000
        values = [rng.random_int(1, high) for _ in range(2000)]
        assert all(1 <= v <= high for v in values)

    def test_deterministic_streams(self):
        a = [TpchRandom(seed=5).random_int(1, 100) for _ in range(10)]
        b = [TpchRandom(seed=5).random_int(1, 100) for _ in range(10)]
        assert a == b


class TestTpchRandom64:
    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=50)
    def test_random_int_in_bounds(self, low, width):
        rng = TpchRandom64(seed=1234)
        high = low + width
        for _ in range(20):
            assert low <= rng.random_int(low, high) <= high

    def test_random_int_rejects_empty_range(self):
        with pytest.raises(ValueError):
            TpchRandom64(1).random_int(10, 5)

    def test_uniform_and_float_bounds(self):
        rng = TpchRandom64(seed=9)
        for _ in range(100):
            assert 0.0 <= rng.random_float() < 1.0
            assert 2.0 <= rng.uniform(2.0, 3.0) < 3.0

    @given(st.integers(min_value=-(2**65), max_value=2**65))
    @settings(max_examples=200)
    def test_random_float_is_next_raw_scaled(self, seed):
        """The inlined splitmix64 step in random_float keeps next_raw's bits."""
        rng, twin = TpchRandom64(seed), TpchRandom64(seed)
        for _ in range(3):
            assert rng.random_float() == twin.next_raw() / 2**64
            assert rng._state == twin._state

    def test_choice_and_shuffle(self):
        rng = TpchRandom64(seed=3)
        items = list(range(20))
        assert rng.choice(items) in items
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        with pytest.raises(ValueError):
            rng.choice([])

    def test_distribution_roughly_uniform(self):
        rng = TpchRandom64(seed=11)
        counts = [0] * 10
        for _ in range(20_000):
            counts[rng.random_int(0, 9)] += 1
        assert min(counts) > 1500 and max(counts) < 2500


class _NextRawReference:
    """``TpchRandom64``'s draw contract spelled through ``next_raw``: every
    draw is one splitmix64 step, and ``random_int``/``choice`` reduce it
    modulo the span."""

    def __init__(self, seed):
        self.rng = TpchRandom64(seed)

    def random_int(self, low, high):
        if high < low:
            raise ValueError("empty range")
        return low + self.rng.next_raw() % (high - low + 1)

    def choice(self, items):
        if not items:
            raise ValueError("empty sequence")
        return items[self.random_int(0, len(items) - 1)]

    def random_float(self):
        return self.rng.next_raw() / 2**64

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.random_int(0, i)
            items[i], items[j] = items[j], items[i]

    def skip(self, count):
        for _ in range(count):
            self.rng.next_raw()


_DRAWS = st.lists(
    st.one_of(
        # Spans up to 2**64, negative lows, and empty ranges (width < 0).
        st.tuples(st.just("random_int"), st.integers(-(2**64), 2**64),
                  st.integers(-3, 2**64 - 1)),
        st.tuples(st.just("choice"), st.lists(st.integers(), max_size=6)),
        st.tuples(st.just("random_float")),
        st.tuples(st.just("shuffle"), st.lists(st.integers(), max_size=8)),
        st.tuples(st.just("skip"), st.integers(0, 5)),
    ),
    max_size=30,
)


def _draw(rng, op):
    """Apply one drawn call; a refused call returns ``ValueError``."""
    name, *args = op
    try:
        if name == "random_int":
            low, width = args
            return rng.random_int(low, low + width)
        if name == "shuffle":
            items = list(args[0])
            rng.shuffle(items)
            return items
        return getattr(rng, name)(*args)
    except ValueError:
        return ValueError


class TestDrawContract:
    """The inlined splitmix64 steps keep ``next_raw``'s stream bit for bit."""

    @given(st.integers(min_value=-(2**65), max_value=2**65), _DRAWS)
    @settings(max_examples=300, deadline=None)
    def test_interleaved_draws_match_next_raw_reference(self, seed, ops):
        rng, reference = TpchRandom64(seed), _NextRawReference(seed)
        for op in ops:
            assert _draw(rng, op) == _draw(reference, op), op
            assert rng._state == reference.rng._state

    def test_refused_draws_raise_and_leave_the_stream(self):
        rng = TpchRandom64(5)
        with pytest.raises(ValueError):
            rng.random_int(0, -1)
        with pytest.raises(ValueError):
            rng.choice([])
        with pytest.raises(ValueError):
            rng.choice("")
        assert rng.next_raw() == TpchRandom64(5).next_raw()

    def test_full_64_bit_span(self):
        rng, twin = TpchRandom64(9), TpchRandom64(9)
        assert rng.random_int(-(2**63), 2**63 - 1) == twin.next_raw() - 2**63

    def test_state_is_the_only_slot(self):
        rng = TpchRandom64(1)
        assert TpchRandom64.__slots__ == ("_state",)
        assert not hasattr(rng, "__dict__")
        with pytest.raises(AttributeError):
            rng.extra = 1


class TestSeedStream:
    def test_stable_and_distinct(self):
        stream = SeedStream(42)
        a = stream.seed_for("ycsb", "a")
        assert a == SeedStream(42).seed_for("ycsb", "a")
        assert a != stream.seed_for("ycsb", "b")
        assert a != SeedStream(43).seed_for("ycsb", "a")

    def test_rng_for_returns_distinct_streams(self):
        stream = SeedStream(1)
        r1 = stream.rng_for("x")
        r2 = stream.rng_for("y")
        assert [r1.random_int(0, 10**9) for _ in range(4)] != [
            r2.random_int(0, 10**9) for _ in range(4)
        ]
