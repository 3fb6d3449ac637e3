"""Tests for the relational operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.relational import (
    Agg,
    Aggregate,
    Database,
    Distinct,
    ExecutionContext,
    Filter,
    HashJoin,
    Limit,
    Project,
    Rows,
    Scan,
    Schema,
    Column,
    Sort,
    TableData,
    col,
    lit,
    run,
)


def make_db():
    db = Database()
    orders = TableData(
        "orders",
        Schema.of(Column.int_("o_id"), Column.int_("o_cust"), Column.float_("o_total")),
        [
            {"o_id": 1, "o_cust": 10, "o_total": 100.0},
            {"o_id": 2, "o_cust": 10, "o_total": 50.0},
            {"o_id": 3, "o_cust": 20, "o_total": 75.0},
            {"o_id": 4, "o_cust": 30, "o_total": 20.0},
        ],
    )
    customers = TableData(
        "customers",
        Schema.of(Column.int_("c_id"), Column.str_("c_name", 10)),
        [
            {"c_id": 10, "c_name": "alice"},
            {"c_id": 20, "c_name": "bob"},
            {"c_id": 40, "c_name": "carol"},
        ],
    )
    db.add(orders)
    db.add(customers)
    return db


class TestScanFilterProject:
    def test_scan_all(self):
        assert len(run(Scan("orders"), make_db())) == 4

    def test_scan_with_predicate_and_columns(self):
        rows = run(
            Scan("orders", predicate=col("o_total") > lit(40), columns=["o_id"]),
            make_db(),
        )
        assert rows == [{"o_id": 1}, {"o_id": 2}, {"o_id": 3}]

    def test_unknown_table(self):
        with pytest.raises(PlanError):
            run(Scan("nope"), make_db())

    def test_filter(self):
        rows = run(Filter(Scan("orders"), col("o_cust") == lit(10)), make_db())
        assert [r["o_id"] for r in rows] == [1, 2]

    def test_project_expressions(self):
        rows = run(
            Project(Scan("orders"), {"id": "o_id", "double": col("o_total") * lit(2)}),
            make_db(),
        )
        assert rows[0] == {"id": 1, "double": 200.0}


class TestHashJoin:
    def test_inner(self):
        plan = HashJoin(
            Scan("orders"), Scan("customers"), ["o_cust"], ["c_id"], how="inner"
        )
        rows = run(plan, make_db())
        assert len(rows) == 3  # order 4 has no customer 30
        assert {r["o_id"] for r in rows} == {1, 2, 3}
        assert rows[0]["c_name"] == "alice"

    def test_left_outer_fills_none(self):
        plan = HashJoin(Scan("orders"), Scan("customers"), ["o_cust"], ["c_id"], how="left")
        rows = run(plan, make_db())
        assert len(rows) == 4
        missing = [r for r in rows if r["o_id"] == 4][0]
        assert missing["c_name"] is None

    def test_semi(self):
        plan = HashJoin(Scan("customers"), Scan("orders"), ["c_id"], ["o_cust"], how="semi")
        rows = run(plan, make_db())
        assert {r["c_name"] for r in rows} == {"alice", "bob"}

    def test_anti(self):
        plan = HashJoin(Scan("customers"), Scan("orders"), ["c_id"], ["o_cust"], how="anti")
        rows = run(plan, make_db())
        assert [r["c_name"] for r in rows] == ["carol"]

    def test_one_to_many_expands(self):
        plan = HashJoin(Scan("customers"), Scan("orders"), ["c_id"], ["o_cust"])
        rows = run(plan, make_db())
        assert sum(1 for r in rows if r["c_name"] == "alice") == 2

    def test_invalid_join(self):
        with pytest.raises(PlanError):
            HashJoin(Scan("a"), Scan("b"), ["x"], ["y"], how="cross")
        with pytest.raises(PlanError):
            HashJoin(Scan("a"), Scan("b"), [], [])


class TestAggregate:
    def test_group_by(self):
        plan = Aggregate(
            Scan("orders"),
            keys=["o_cust"],
            aggs={
                "total": Agg("sum", col("o_total")),
                "n": Agg("count"),
                "biggest": Agg("max", col("o_total")),
            },
        )
        rows = {r["o_cust"]: r for r in run(plan, make_db())}
        assert rows[10] == {"o_cust": 10, "total": 150.0, "n": 2, "biggest": 100.0}
        assert rows[30]["n"] == 1

    def test_global_aggregate(self):
        plan = Aggregate(Scan("orders"), keys=[], aggs={"avg": Agg("avg", col("o_total"))})
        rows = run(plan, make_db())
        assert len(rows) == 1
        assert rows[0]["avg"] == pytest.approx(61.25)

    def test_global_aggregate_on_empty_input(self):
        plan = Aggregate(
            Filter(Scan("orders"), col("o_total") > lit(1e9)),
            keys=[],
            aggs={"n": Agg("count"), "s": Agg("sum", col("o_total"))},
        )
        rows = run(plan, make_db())
        assert rows == [{"n": 0, "s": None}]

    def test_count_distinct(self):
        plan = Aggregate(
            Scan("orders"), keys=[], aggs={"custs": Agg("count_distinct", col("o_cust"))}
        )
        assert run(plan, make_db())[0]["custs"] == 3

    def test_invalid_agg(self):
        with pytest.raises(PlanError):
            Agg("median", col("x"))
        with pytest.raises(PlanError):
            Agg("sum")


class TestSortLimitDistinct:
    def test_sort_multi_key(self):
        plan = Sort(Scan("orders"), [("o_cust", False), ("o_total", True)])
        rows = run(plan, make_db())
        assert [(r["o_cust"], r["o_total"]) for r in rows] == [
            (10, 100.0),
            (10, 50.0),
            (20, 75.0),
            (30, 20.0),
        ]

    def test_limit(self):
        assert len(run(Limit(Scan("orders"), 2), make_db())) == 2
        with pytest.raises(PlanError):
            Limit(Scan("orders"), -1)

    def test_distinct(self):
        rows = run(Distinct(Scan("orders"), columns=["o_cust"]), make_db())
        assert sorted(r["o_cust"] for r in rows) == [10, 20, 30]

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_sort_property(self, values):
        rows_in = [{"v": v} for v in values]
        rows = run(Sort(Rows(rows_in), [("v", False)]), Database())
        assert [r["v"] for r in rows] == sorted(values)


class TestMissingColumn:
    """Every operator reports a column its input lacks as a PlanError."""

    @pytest.mark.parametrize("plan", [
        Scan("orders", columns=["o_id", "o_nope"]),
        HashJoin(Scan("orders"), Scan("customers"), ["o_nope"], ["c_id"]),
        Aggregate(Scan("orders"), keys=["o_nope"], aggs={"n": Agg("count")}),
        Distinct(Scan("orders"), columns=["o_nope"]),
        Filter(Scan("orders"), col("o_nope") > lit(1)),
        Project(Scan("orders"), {"x": col("o_nope") * lit(2)}),
        Sort(Scan("orders"), [("o_nope", False)]),
        Aggregate(Scan("orders"), keys=[], aggs={"s": Agg("sum", col("o_nope"))}),
    ], ids=["scan-columns", "join-key", "group-key", "distinct", "predicate",
            "projection", "sort-key", "aggregate-input"])
    def test_missing_column_is_a_plan_error(self, plan):
        with pytest.raises(PlanError, match=r"no column 'o_nope'; has \[.*'o_id'"):
            run(plan, make_db())


class TestTagsAndStats:
    def test_tagged_operator_records_stats(self):
        db = make_db()
        ctx = ExecutionContext(db)
        plan = Filter(Scan("orders", tag="scan"), col("o_total") > lit(40), tag="filtered")
        run(plan, db, ctx)
        assert ctx.stats["scan"].rows == 4
        assert ctx.stats["filtered"].rows == 3
        assert ctx.stats["filtered"].bytes > 0
        assert ctx.stats["filtered"].avg_width > 0

    def test_rows_operator(self):
        rows = run(Rows([{"x": 1}]), Database())
        assert rows == [{"x": 1}]
