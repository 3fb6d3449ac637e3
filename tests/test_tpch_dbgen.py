"""Tests for the dbgen port: cardinalities, spec rules, and the sparse keys."""

import hashlib

import pytest

from repro.common.rng import TpchRandom64
from repro.tpch.dbgen import (
    CURRENT_DATE,
    DbGen,
    demonstrate_random_overflow,
    partsupp_suppkey,
    retail_price,
)
from repro.tpch.schema import (
    orderkey_bucket,
    row_count,
    sparse_orderkey,
    table_bytes,
    database_bytes,
)


class TestSchemaMetadata:
    def test_row_counts_scale_linearly(self):
        assert row_count("customer", 1.0) == 150_000
        assert row_count("customer", 0.01) == 1500
        assert row_count("orders", 2.0) == 3_000_000
        assert row_count("nation", 1000.0) == 25
        assert row_count("region", 0.001) == 5

    def test_table_bytes_positive_and_linear(self):
        assert table_bytes("lineitem", 2.0) == pytest.approx(
            2.0 * table_bytes("lineitem", 1.0)
        )
        assert database_bytes(1.0) > table_bytes("lineitem", 1.0)

    def test_sparse_orderkey_pattern(self):
        # First 8 keys of every 32 are used: 1..8, then 33..40, ...
        keys = [sparse_orderkey(i) for i in range(1, 17)]
        assert keys == [1, 2, 3, 4, 5, 6, 7, 8, 33, 34, 35, 36, 37, 38, 39, 40]
        with pytest.raises(ValueError):
            sparse_orderkey(0)

    def test_sparse_keys_fill_exactly_128_of_512_buckets(self):
        # The root cause of Table 4: hash-bucketing sparse orderkeys into 512
        # buckets leaves only 128 non-empty.
        buckets = {orderkey_bucket(sparse_orderkey(i)) for i in range(1, 100_000)}
        assert len(buckets) == 128


class TestSpecFormulas:
    def test_retail_price_known_values(self):
        assert retail_price(1) == pytest.approx((90000 + 0 + 100) / 100)
        assert retail_price(1000) == pytest.approx((90000 + 100 + 0) / 100)

    def test_partsupp_suppkey_in_range_and_spread(self):
        suppliers = 100
        keys = {
            partsupp_suppkey(p, s, suppliers) for p in range(1, 500) for s in range(4)
        }
        assert all(1 <= k <= suppliers for k in keys)
        assert len(keys) == suppliers  # formula covers every supplier

    def test_part_has_four_distinct_suppliers(self):
        for partkey in (1, 57, 499, 2000):
            slots = {partsupp_suppkey(partkey, s, 1000) for s in range(4)}
            assert len(slots) == 4


class TestGeneratedData:
    def test_cardinalities(self, tiny_db):
        assert tiny_db.table("customer").row_count == 750
        assert tiny_db.table("orders").row_count == 7500
        assert tiny_db.table("part").row_count == 1000
        assert tiny_db.table("partsupp").row_count == 4000
        assert tiny_db.table("nation").row_count == 25
        assert tiny_db.table("region").row_count == 5
        lines = tiny_db.table("lineitem").row_count
        assert 7500 * 1 <= lines <= 7500 * 7
        # Average ~4 lines per order.
        assert 3.5 <= lines / 7500 <= 4.5

    def test_determinism(self):
        a = DbGen(0.002, seed=7).generate()
        b = DbGen(0.002, seed=7).generate()
        assert a.table("orders").rows[:50] == b.table("orders").rows[:50]
        c = DbGen(0.002, seed=8).generate()
        assert a.table("orders").rows[:50] != c.table("orders").rows[:50]

    def test_orderkeys_are_sparse(self, tiny_db):
        for row in tiny_db.table("orders").rows[:200]:
            assert 1 <= row["o_orderkey"] % 32 <= 8

    def test_custkeys_skip_multiples_of_three(self, tiny_db):
        assert all(r["o_custkey"] % 3 != 0 for r in tiny_db.table("orders").rows)

    def test_lineitem_foreign_keys_resolve(self, tiny_db):
        orderkeys = {r["o_orderkey"] for r in tiny_db.table("orders").rows}
        partkeys = {r["p_partkey"] for r in tiny_db.table("part").rows}
        suppkeys = {r["s_suppkey"] for r in tiny_db.table("supplier").rows}
        for row in tiny_db.table("lineitem").rows[:2000]:
            assert row["l_orderkey"] in orderkeys
            assert row["l_partkey"] in partkeys
            assert row["l_suppkey"] in suppkeys

    def test_lineitem_supplier_is_a_partsupp_supplier(self, tiny_db):
        ps = {(r["ps_partkey"], r["ps_suppkey"]) for r in tiny_db.table("partsupp").rows}
        for row in tiny_db.table("lineitem").rows[:2000]:
            assert (row["l_partkey"], row["l_suppkey"]) in ps

    def test_date_ordering_invariants(self, tiny_db):
        orders_by_key = {r["o_orderkey"]: r for r in tiny_db.table("orders").rows}
        for row in tiny_db.table("lineitem").rows[:2000]:
            order = orders_by_key[row["l_orderkey"]]
            assert row["l_shipdate"] > order["o_orderdate"]
            assert row["l_receiptdate"] > row["l_shipdate"]
            assert "1992-01-01" <= order["o_orderdate"] <= "1998-08-02"

    def test_returnflag_linestatus_rules(self, tiny_db):
        for row in tiny_db.table("lineitem").rows[:2000]:
            if row["l_receiptdate"] <= CURRENT_DATE:
                assert row["l_returnflag"] in ("R", "A")
            else:
                assert row["l_returnflag"] == "N"
            expected = "O" if row["l_shipdate"] > CURRENT_DATE else "F"
            assert row["l_linestatus"] == expected

    def test_orderstatus_consistent_with_lines(self, tiny_db):
        lines_by_order = {}
        for row in tiny_db.table("lineitem").rows:
            lines_by_order.setdefault(row["l_orderkey"], []).append(row["l_linestatus"])
        for row in tiny_db.table("orders").rows[:500]:
            statuses = lines_by_order[row["o_orderkey"]]
            if all(s == "F" for s in statuses):
                assert row["o_orderstatus"] == "F"
            elif all(s == "O" for s in statuses):
                assert row["o_orderstatus"] == "O"
            else:
                assert row["o_orderstatus"] == "P"

    def test_phone_country_code_matches_nation(self, tiny_db):
        for row in tiny_db.table("customer").rows[:200]:
            assert int(row["c_phone"][:2]) == row["c_nationkey"] + 10

    def test_selectivity_hooks_exist(self, tiny_db):
        parts = tiny_db.table("part").rows
        assert any("green" in r["p_name"] for r in parts)
        assert any(r["p_name"].startswith("forest") for r in parts)
        supp = tiny_db.table("supplier").rows
        assert any(
            "Customer" in r["s_comment"] and "Complaints" in r["s_comment"] for r in supp
        )
        orders = tiny_db.table("orders").rows
        needle = [r for r in orders if "special" in r["o_comment"] and "requests" in r["o_comment"]]
        assert 0 < len(needle) < len(orders) * 0.2

    def test_totalprice_matches_lineitems(self, tiny_db):
        lines_by_order = {}
        for row in tiny_db.table("lineitem").rows:
            lines_by_order.setdefault(row["l_orderkey"], []).append(row)
        for row in tiny_db.table("orders").rows[:100]:
            expected = sum(
                l["l_extendedprice"] * (1 + l["l_tax"]) * (1 - l["l_discount"])
                for l in lines_by_order[row["o_orderkey"]]
            )
            assert row["o_totalprice"] == pytest.approx(expected, abs=0.01)

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            DbGen(0)

    @pytest.mark.parametrize("seed, expected", [
        (11, "012bcc84e37f020de6b5c81c8d3ef339594b3cd08c33d350161618b2aa2faf7a"),
        (23, "b5e367a8673c2d7f4a297968886cb4adfd1838c87f104aa4bbc44af25bec67d2"),
    ])
    def test_generated_bytes_are_pinned(self, seed, expected):
        """Every table, row and value at SF 0.001, as generated before the
        splitmix64 step was inlined into the draws."""
        db = DbGen(0.001, seed).generate()
        digest = hashlib.sha256()
        for name in db.table_names:
            digest.update(name.encode())
            for row in db.table(name).rows:
                digest.update(repr(row).encode())
        assert digest.hexdigest() == expected

    def test_tables_draw_block_streams(self, monkeypatch):
        """Every table draws through ``raw_draws``: the scalar class's
        ``random_int`` and ``choice`` are never called."""
        calls = []
        for name in ("random_int", "choice"):
            original = getattr(TpchRandom64, name)

            def spy(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(TpchRandom64, name, spy)
        db = DbGen(0.001, 11).generate()
        assert db.table("lineitem").row_count > 0
        assert calls == []

    def test_orders_without_customers_are_refused(self):
        with pytest.raises(ValueError, match="no customers"):
            DbGen(0.000001).generate()


class TestOverflowDemonstration:
    def test_sf_16000_produces_negative_keys(self):
        keys = demonstrate_random_overflow(16_000)
        assert any(k < 0 for k in keys)

    def test_sf_4000_is_safe(self):
        keys = demonstrate_random_overflow(4_000)
        assert all(k >= 1 for k in keys)
