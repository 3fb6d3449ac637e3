"""Tests for the RCFile format, the metastore layouts, and the Hive engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, StorageError
from repro.hive import (
    HiveEngine,
    HiveTableLayout,
    Metastore,
    TPCH_LAYOUTS,
    decode,
    encode,
    measure_compression_ratio,
    read_column,
)
from repro.tpch.schema import orderkey_bucket, sparse_orderkey, table_bytes
from repro.tpch.volumes import calibrate


@pytest.fixture(scope="module")
def calibration():
    return calibrate(0.01, 42)


@pytest.fixture(scope="module")
def engine(calibration):
    return HiveEngine(calibration)


class TestRcFile:
    ROWS = [
        {"k": 1, "name": "alpha", "price": 1.5, "note": None},
        {"k": 2, "name": "beta", "price": -2.25, "note": "x"},
        {"k": 3, "name": "gamma gamma", "price": 0.0, "note": "yy"},
    ]
    COLS = ["k", "name", "price", "note"]

    def test_roundtrip(self):
        data = encode(self.ROWS, self.COLS)
        cols, rows = decode(data)
        assert cols == self.COLS
        assert rows == self.ROWS

    def test_roundtrip_multiple_row_groups(self):
        rows = [{"i": i, "s": f"value-{i % 7}"} for i in range(1000)]
        data = encode(rows, ["i", "s"], row_group_size=128)
        _, decoded = decode(data)
        assert decoded == rows

    def test_read_single_column_skips_others(self):
        data = encode(self.ROWS, self.COLS)
        assert read_column(data, "name") == ["alpha", "beta", "gamma gamma"]
        with pytest.raises(StorageError):
            read_column(data, "nope")

    def test_bad_magic(self):
        with pytest.raises(StorageError):
            decode(b"not an rcfile")

    def test_compression_on_repetitive_data(self):
        rows = [{"flag": "AAAA", "v": 1} for _ in range(5000)]
        ratio = measure_compression_ratio(rows, ["flag", "v"], raw_width=12)
        assert ratio < 0.5

    def test_tpch_lineitem_compresses(self, small_db):
        from repro.tpch.schema import LINEITEM

        rows = small_db.table("lineitem").rows[:2000]
        ratio = measure_compression_ratio(rows, LINEITEM.names, LINEITEM.row_width)
        assert 0.1 < ratio < 0.8

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "a": st.integers(min_value=-(2**40), max_value=2**40),
                    "b": st.one_of(st.none(), st.text(max_size=20)),
                    "c": st.floats(allow_nan=False, allow_infinity=False, width=32),
                }
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, rows):
        data = encode(rows, ["a", "b", "c"], row_group_size=16)
        _, decoded = decode(data)
        assert decoded == rows


# Sparse-orderkey layouts, with and without partitions: the keys reach every
# bucket at 8, 100 and 1,000 buckets, and a quarter of them at 64 and 512.
_SPARSE_LAYOUTS = [
    HiveTableLayout("orders", partition_count=partitions, bucket_count=buckets,
                    nonempty_bucket_fraction=0.25)
    for buckets in (8, 64, 100, 512, 1000)
    for partitions in (1, 25)
]


def _reference_file_sizes(layout, sf, ratio):
    """``file_sizes`` rebuilding the occupied-bucket set on every call,
    with the non-empty files sized from that set's count."""
    total = table_bytes(layout.name, sf) * ratio
    if layout.nonempty_bucket_fraction >= 1.0:
        return [total / layout.file_count] * layout.file_count
    occupied = {orderkey_bucket(sparse_orderkey(i), layout.bucket_count)
                for i in range(1, 8 * layout.bucket_count + 1)}
    per_file = total / (len(occupied) * layout.partition_count)
    sizes = []
    for bucket_id in range(layout.bucket_count):
        sizes.append(per_file if bucket_id in occupied else 0.0)
    return sizes * layout.partition_count


class TestMetastore:
    def test_table1_layouts(self):
        assert TPCH_LAYOUTS["lineitem"].bucket_count == 512
        assert TPCH_LAYOUTS["customer"].partition_count == 25
        assert TPCH_LAYOUTS["customer"].bucket_count == 8
        assert TPCH_LAYOUTS["customer"].file_count == 200
        assert TPCH_LAYOUTS["nation"].file_count == 1

    def test_lineitem_has_128_nonempty_files(self):
        ms = Metastore()
        sizes = ms.file_sizes("lineitem", 250)
        assert len(sizes) == 512
        nonempty = [s for s in sizes if s > 0]
        assert len(nonempty) == 128
        # Non-empty files are interleaved (ids = 1..8 mod 32), not contiguous.
        first_32 = sizes[:32]
        assert sum(1 for s in first_32 if s > 0) == 8
        assert first_32[0] == 0.0 and first_32[1] > 0

    def test_total_bytes_match_compression(self):
        ms = Metastore(compression_ratios={"part": 0.3})
        from repro.tpch.schema import table_bytes

        assert ms.compressed_bytes("part", 100) == pytest.approx(
            table_bytes("part", 100) * 0.3
        )

    def test_bucket_compatibility(self):
        ms = Metastore()
        assert ms.buckets_compatible("lineitem", "orders")  # 512 vs 512
        assert ms.buckets_compatible("lineitem", "part")  # 512 vs 8
        assert ms.buckets_compatible("customer", "part")  # 8 vs 8

    def test_file_sizes_match_the_rebuilding_reference(self):
        for layout in [*TPCH_LAYOUTS.values(), *_SPARSE_LAYOUTS]:
            for sf in (0.005, 1, 250, 16_000):
                for ratio in (0.3, 0.38, 1.0):
                    assert layout.file_sizes(sf, ratio) == _reference_file_sizes(
                        layout, sf, ratio), (layout, sf, ratio)

    def test_tpch_layouts_keep_the_rounded_fraction_sizing(self):
        """Sizing by the occupied count gives TPC-H's layouts the very
        floats ``round(file_count * nonempty_bucket_fraction)`` gave."""
        for layout in TPCH_LAYOUTS.values():
            assert len(layout.occupied_buckets) * layout.partition_count == max(
                1, round(layout.file_count * layout.nonempty_bucket_fraction))

    def test_occupied_buckets_are_built_once_per_layout(self, monkeypatch):
        import repro.hive.metastore as metastore

        calls = []

        def spy(index):
            calls.append(index)
            return sparse_orderkey(index)

        monkeypatch.setattr(metastore, "sparse_orderkey", spy)
        layout = HiveTableLayout("lineitem", bucket_column="l_orderkey",
                                 bucket_count=512, nonempty_bucket_fraction=0.25)
        for sf in (0.005, 1, 250, 1000, 16_000) * 10:
            assert sum(1 for size in layout.file_sizes(sf, 0.38) if size) == 128
        assert 0 < len(calls) <= 8 * layout.bucket_count

    @pytest.mark.parametrize("buckets", [8, 64, 100, 512, 1000])
    @pytest.mark.parametrize("partitions", [1, 25])
    def test_sparse_sizes_add_up_to_the_table(self, buckets, partitions):
        layout = HiveTableLayout("orders", partition_count=partitions,
                                 bucket_count=buckets, nonempty_bucket_fraction=0.25)
        sizes = layout.file_sizes(250, 0.38)
        assert len(sizes) == layout.file_count
        assert sum(sizes) == pytest.approx(table_bytes("orders", 250) * 0.38, rel=1e-12)
        nonempty = {size for size in sizes if size}
        assert len(nonempty) == 1  # the non-empty files share equally
        assert sizes.count(0.0) == (
            (buckets - len(layout.occupied_buckets)) * partitions)

    def test_invalid_layout(self):
        with pytest.raises(ConfigurationError):
            HiveTableLayout("x", bucket_count=0)
        with pytest.raises(ConfigurationError):
            HiveTableLayout("x", nonempty_bucket_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Metastore().layout("nope")


class TestHiveEngine:
    def test_all_specs_resolve(self, engine):
        for number in range(1, 23):
            engine.validate_spec(number)

    def test_query_times_positive_and_grow_with_sf(self, engine):
        for number in (1, 5, 6, 19):
            t250 = engine.query_time(number, 250)
            t1000 = engine.query_time(number, 1000)
            assert 0 < t250 < t1000

    def test_q1_has_map_heavy_agg_job(self, engine):
        result = engine.run_query(1, 250)
        agg = result.job("agg.q1.agg")
        # 384 empty bucket files plus the 128 non-empty ones (each split into
        # one task per 256 MB block).
        assert agg.map_tasks >= 512
        assert agg.map_time > 60

    def test_q22_structure_matches_paper(self, engine):
        result = engine.run_query(22, 250)
        names = [j.name for j in result.jobs]
        assert "mat.q22.candidates" in names  # sub-query 1
        assert "fs.0" in names  # the filesystem job
        assert any(n.startswith("agg.q22.avg") for n in names)  # sub-query 2
        assert any(n.startswith("agg.q22.orders") for n in names)  # sub-query 3

    def test_q22_map_join_always_fails(self, engine):
        """Table 5: the sub-query 4 map join fails at every scale factor."""
        for sf in (250, 1000, 4000, 16000):
            result = engine.run_query(22, sf)
            join = result.job("join.q22.anti")
            assert join.failed_mapjoin
            assert join.map_time >= engine.base_params.mapjoin_failure_delay

    def test_small_dimension_map_joins_succeed(self, engine):
        result = engine.run_query(5, 250)
        nr = result.job("join.q5.nation_region")
        assert not nr.failed_mapjoin
        assert "map-side join succeeded" in nr.notes

    def test_q5_hive_order_uses_common_joins_on_lineitem(self, engine):
        result = engine.run_query(5, 1000)
        job = result.job("join.q5.hive.join_lineitem")
        assert "common join" in job.notes
        assert job.shuffle_time > 0

    def test_customer_bucket_splits_at_16tb(self, engine):
        """Q22 sub-query 1: 200 map tasks at small SFs, 600 at 16 TB."""
        small = engine.run_query(22, 250).job("mat.q22.candidates")
        big = engine.run_query(22, 16000).job("mat.q22.candidates")
        assert small.map_tasks == 200
        assert big.map_tasks == 600

    def test_load_time_roughly_linear(self, engine):
        t = [engine.load_time(sf) / 60 for sf in (250, 1000, 4000, 16000)]
        assert 30 < t[0] < 50  # paper: 38 minutes
        assert t[3] / t[2] == pytest.approx(4.0, rel=0.15)

    def test_cpu_weight_slows_query(self, calibration):
        slow = HiveEngine(calibration, cpu_weights={1: 4.0})
        fast = HiveEngine(calibration, cpu_weights={1: 1.0})
        assert slow.query_time(1, 1000) > fast.query_time(1, 1000)
