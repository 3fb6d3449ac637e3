"""Tests for the expression AST."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.hive.hiveql import execute
from repro.relational import Column, Database, Project, Rows, Schema, TableData, run
from repro.relational.expressions import (
    BinOp,
    CaseWhen,
    Col,
    InList,
    LikeOp,
    Lit,
    NotOp,
    Substr,
    YearOf,
    case,
    col,
    date_add,
    lit,
)


class TestBasicOps:
    def test_comparisons(self):
        row = {"a": 5, "b": 7}
        assert (col("a") < col("b")).eval(row) is True
        assert (col("a") >= lit(5)).eval(row) is True
        assert (col("a") == lit(6)).eval(row) is False
        assert (col("a") != lit(6)).eval(row) is True

    def test_arithmetic(self):
        row = {"price": 100.0, "disc": 0.1}
        revenue = col("price") * (lit(1) - col("disc"))
        assert revenue.eval(row) == pytest.approx(90.0)
        assert (col("price") + lit(1)).eval(row) == 101.0
        assert (col("price") - lit(1)).eval(row) == 99.0
        assert (col("price") / lit(4)).eval(row) == 25.0

    def test_boolean_combinators(self):
        row = {"x": 3}
        assert ((col("x") > lit(1)) & (col("x") < lit(5))).eval(row) is True
        assert ((col("x") > lit(9)) | (col("x") < lit(5))).eval(row) is True
        assert (~(col("x") > lit(1))).eval(row) is False

    def test_missing_column_raises(self):
        with pytest.raises(PlanError):
            col("nope").eval({"a": 1})


class TestSqlHelpers:
    def test_like_percent(self):
        row = {"name": "forest green metallic"}
        assert col("name").like("forest%").eval(row)
        assert col("name").like("%green%").eval(row)
        assert not col("name").like("green%").eval(row)

    def test_like_underscore_and_literal_specials(self):
        assert col("s").like("a_c").eval({"s": "abc"})
        assert not col("s").like("a_c").eval({"s": "abbc"})
        # Regex metacharacters in the pattern must be treated literally.
        assert col("s").like("a.c%").eval({"s": "a.cde"})
        assert not col("s").like("a.c%").eval({"s": "axcde"})

    def test_not_like(self):
        assert col("s").not_like("%special%").eval({"s": "ordinary packages"})

    def test_in_and_between(self):
        row = {"mode": "AIR", "qty": 25}
        assert col("mode").in_(["AIR", "AIR REG"]).eval(row)
        assert col("qty").between(20, 30).eval(row)
        assert not col("qty").between(26, 30).eval(row)

    def test_substr_is_one_based(self):
        assert col("phone").substr(1, 2).eval({"phone": "13-2345"}) == "13"
        with pytest.raises(PlanError):
            col("x").substr(0, 2)

    def test_year(self):
        assert col("d").year().eval({"d": "1995-03-15"}) == 1995

    def test_case_when(self):
        expr = case([(col("t").like("PROMO%"), col("v"))], default=0)
        assert expr.eval({"t": "PROMO BURNISHED", "v": 7.0}) == 7.0
        assert expr.eval({"t": "STANDARD", "v": 7.0}) == 0

    def test_case_requires_branch(self):
        with pytest.raises(PlanError):
            CaseWhen([], lit(0))


class TestDateAdd:
    def test_add_days(self):
        assert date_add("1994-01-01", days=90) == "1994-04-01"

    def test_add_months(self):
        assert date_add("1995-10-15", months=3) == "1996-01-15"

    def test_add_years(self):
        assert date_add("1994-02-28", years=1) == "1995-02-28"

    def test_month_end_clamping(self):
        assert date_add("1994-01-31", months=1) == "1994-02-28"

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=50)
    def test_days_roundtrip_ordering(self, days):
        later = date_add("1992-01-01", days=days)
        assert later >= "1992-01-01"  # ISO strings order chronologically


# -- the compiled kernel against a tree-walking reference ------------------------

_REFERENCE_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.truediv,
}


def reference(expr, row):
    """Evaluate by walking the tree, one node at a time."""
    if isinstance(expr, Col):
        return row[expr.name]
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return bool(reference(expr.left, row)) and bool(reference(expr.right, row))
        if expr.op == "or":
            return bool(reference(expr.left, row)) or bool(reference(expr.right, row))
        return _REFERENCE_OPS[expr.op](reference(expr.left, row),
                                       reference(expr.right, row))
    if isinstance(expr, NotOp):
        return not bool(reference(expr.inner, row))
    if isinstance(expr, LikeOp):
        return bool(expr._compiled.match(str(reference(expr.inner, row))))
    if isinstance(expr, InList):
        return reference(expr.inner, row) in expr.values
    if isinstance(expr, Substr):
        value = str(reference(expr.inner, row))
        return value[expr.start - 1 : expr.start - 1 + expr.length]
    if isinstance(expr, YearOf):
        return int(str(reference(expr.inner, row))[:4])
    if isinstance(expr, CaseWhen):
        for cond, value in expr.branches:
            if reference(cond, row):
                return reference(value, row)
        return reference(expr.default, row)
    raise TypeError(f"no reference for {type(expr).__name__}")


def _outcome(evaluate):
    """A value with its type, or the type of the exception raised."""
    try:
        value = evaluate()
    except Exception as exc:  # the two evaluators must fail alike
        return ("raised", type(exc))
    return ("value", type(value), repr(value))


_SCALARS = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.sampled_from(["", "a%b", "1995-03-15", "PROMO x", "ab"]),
)
_LEAVES = st.one_of(
    st.builds(Col, st.sampled_from(["i", "f", "s", "d"])),
    st.builds(Lit, _SCALARS),
)


def _extend(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(sorted(_REFERENCE_OPS) + ["and", "or"]),
                  children, children),
        st.builds(NotOp, children),
        st.builds(LikeOp, children, st.text(alphabet="ab%_.1-", max_size=4)),
        st.builds(InList, children, st.lists(_SCALARS, max_size=3).map(tuple)),
        st.builds(Substr, children, st.integers(1, 4), st.integers(0, 3)),
        st.builds(YearOf, children),
        st.builds(lambda branches, default: CaseWhen(branches, default),
                  st.lists(st.tuples(children, children), min_size=1, max_size=2),
                  children),
    )


_ROWS = st.fixed_dictionaries({
    "i": st.integers(min_value=-5, max_value=5),
    "f": st.floats(min_value=-10, max_value=10, allow_nan=False),
    "s": st.sampled_from(["", "ab", "PROMO a", "a.b", "1994-01-01"]),
    "d": st.sampled_from(["1995-03-15", "1998-12-01"]),
})


class TestCompiledKernel:
    @given(st.recursive(_LEAVES, _extend, max_leaves=10), _ROWS)
    @settings(max_examples=300, deadline=None)
    def test_compiled_matches_reference(self, expr, row):
        assert _outcome(lambda: expr.eval(row)) == _outcome(
            lambda: reference(expr, row))

    def test_node_compiles_once(self):
        expr = col("a") + lit(1)
        assert expr.compiled() is expr.compiled()
        assert expr.eval({"a": 1}) == 2

    def test_long_and_or_chains_compile_flat(self):
        expr = col("a") > lit(0)
        for i in range(500):
            expr = expr & (col("a") > lit(i - 10))
        assert expr.eval({"a": 5}) is False
        assert (expr | (col("a") == lit(5))).eval({"a": 5}) is True

    def test_too_deep_nesting_is_a_plan_error(self):
        expr = col("a")
        for _ in range(300):
            expr = expr + lit(1)
        with pytest.raises(PlanError, match="nests too deeply"):
            expr.eval({"a": 1})

    def test_unknown_operator_is_rejected(self):
        with pytest.raises(PlanError):
            BinOp("or __import__('os') or", col("a"), lit(1))


class TestSourceInjection:
    """Names and literals reach generated code as data, never as source."""

    WEIRD_NAME = "a'b\"c\\d\ne"
    PAYLOAD = "') or __import__('os') or ('"

    def test_column_name_is_data(self):
        row = {self.WEIRD_NAME: 42, "a": 1}
        assert col(self.WEIRD_NAME).eval(row) == 42
        rows = run(Project(Rows([row]), {self.WEIRD_NAME: col(self.WEIRD_NAME)}),
                   Database())
        assert rows == [{self.WEIRD_NAME: 42}]

    def test_literal_is_data(self):
        assert lit(self.PAYLOAD).eval({}) == self.PAYLOAD
        assert (col("x") == lit(self.PAYLOAD)).eval({"x": self.PAYLOAD}) is True
        assert col("x").in_([self.PAYLOAD]).eval({"x": self.PAYLOAD}) is True
        assert col("x").like(self.PAYLOAD).eval({"x": self.PAYLOAD}) is True

    def test_hiveql_string_literal_is_data(self):
        db = Database()
        db.add(TableData("t", Schema.of(Column.str_("s", 40)),
                         [{"s": self.PAYLOAD}, {"s": "plain"}]))
        quoted = "'" + self.PAYLOAD.replace("'", "''") + "'"
        assert execute(f"SELECT s FROM t WHERE s = {quoted}", db) == [
            {"s": self.PAYLOAD}]
