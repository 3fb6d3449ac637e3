"""Physical operators: scan, filter, project, hash join, aggregate, sort.

Operators form a tree; ``run(plan, db)`` executes it bottom-up and returns a
list of dict rows.  Any operator can carry a ``tag``: tagged operators record
their output cardinality and byte volume into the :class:`ExecutionContext`,
which is how the engine cost models learn the true intermediate sizes of each
TPC-H query (Section 3.3.4 of the paper reasons entirely in terms of these
volumes).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from repro.common.errors import PlanError
from repro.common.stats import fold_sum
from repro.relational.expressions import Col, Expr, _wrap, reading, row_loop
from repro.relational.schema import Database, estimate_row_width


@dataclass
class StageStat:
    """Cardinality and size of one tagged operator's output."""

    rows: int
    bytes: int

    @property
    def avg_width(self) -> float:
        return self.bytes / self.rows if self.rows else 0.0


class ExecutionContext:
    """Carries the database and collects tagged operator statistics."""

    def __init__(self, db: Database):
        self.db = db
        self.stats: dict[str, StageStat] = {}

    def record(self, tag: str, rows: list[dict]) -> None:
        width = estimate_row_width(rows[0]) if rows else 0
        self.stats[tag] = StageStat(rows=len(rows), bytes=len(rows) * width)


class Operator:
    """Base class; subclasses implement ``_execute``."""

    tag: Optional[str] = None

    def execute(self, ctx: ExecutionContext) -> list[dict]:
        rows = self._execute(ctx)
        if self.tag is not None:
            ctx.record(self.tag, rows)
        return rows

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        raise NotImplementedError

    _loop = None

    def _run_loop(self, rows: list[dict], outputs: Optional[dict],
                  predicate: Optional[Expr]) -> list[dict]:
        """Run this operator's generated row loop (see ``row_loop``).

        The loop is compiled at the first execute, not at construction: the
        optimizer sets some operator fields after building the operator.
        """
        if self._loop is None:
            self._loop = row_loop(outputs, predicate)
        with reading(rows):
            return self._loop(rows)


class Scan(Operator):
    """Full scan of a base table, optionally filtering and projecting inline."""

    def __init__(
        self,
        table: str,
        predicate: Optional[Expr] = None,
        columns: Optional[list[str]] = None,
        tag: Optional[str] = None,
    ):
        self.table = table
        self.predicate = predicate
        self.columns = columns
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        rows = ctx.db.table(self.table).rows
        if self.predicate is None and self.columns is None:
            return list(rows)
        outputs = None if self.columns is None else {c: Col(c) for c in self.columns}
        return self._run_loop(rows, outputs, self.predicate)


class Rows(Operator):
    """Wrap an already-materialized row list as a plan input."""

    def __init__(self, rows: list[dict], tag: Optional[str] = None):
        self._rows = rows
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        return self._rows


class Filter(Operator):
    """Keep the child's rows for which the predicate holds."""

    def __init__(self, child: Operator, predicate: Expr, tag: Optional[str] = None):
        self.child = child
        self.predicate = predicate
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        return self._run_loop(self.child.execute(ctx), None, self.predicate)


class Project(Operator):
    """Compute output columns; values may be column names or expressions."""

    def __init__(self, child: Operator, outputs: dict, tag: Optional[str] = None):
        self.child = child
        self.outputs = {name: _as_expr(spec) for name, spec in outputs.items()}
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        return self._run_loop(self.child.execute(ctx), self.outputs, None)


def _as_expr(spec) -> Expr:
    if isinstance(spec, Expr):
        return spec
    if isinstance(spec, str):
        return Col(spec)
    return _wrap(spec)


class HashJoin(Operator):
    """Equi-join on key column lists; supports inner/left/semi/anti.

    The build side is ``right``; output rows merge left columns with right
    columns (left values win on a name clash, which TPC-H never has).
    ``semi`` emits each left row with at least one match; ``anti`` emits each
    left row with none (NOT EXISTS).  ``left`` outer fills unmatched right
    columns with ``None``.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        how: str = "inner",
        tag: Optional[str] = None,
    ):
        if how not in ("inner", "left", "semi", "anti"):
            raise PlanError(f"unknown join type {how!r}")
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join key lists must be non-empty and equal length")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.how = how
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        left_rows = self.left.execute(ctx)
        right_rows = self.right.execute(ctx)
        with reading(left_rows, right_rows):
            return self._join(left_rows, right_rows)

    def _join(self, left_rows: list[dict], right_rows: list[dict]) -> list[dict]:
        # One key column gives a scalar key, several a tuple: either way keys
        # are equal exactly when the key columns' values are.
        lkey = itemgetter(*self.left_keys)
        rkey = itemgetter(*self.right_keys)
        if self.how == "semi":
            keys = set(map(rkey, right_rows))
            return [r for r in left_rows if lkey(r) in keys]
        if self.how == "anti":
            keys = set(map(rkey, right_rows))
            return [r for r in left_rows if lkey(r) not in keys]

        table: defaultdict = defaultdict(list)
        for row in right_rows:
            table[rkey(row)].append(row)
        get = table.get
        if self.how == "inner":
            return [{**match, **row} for row in left_rows
                    for match in get(lkey(row), ())]

        right_cols: list[str] = []
        if right_rows:
            right_cols = [c for c in right_rows[0] if c not in set(self.left_keys)]
        out: list[dict] = []
        for row in left_rows:
            matches = get(lkey(row))
            if matches:
                out.extend({**match, **row} for match in matches)
            else:
                merged = dict(row)
                for c in right_cols:
                    merged.setdefault(c, None)
                out.append(merged)
        return out


@dataclass(frozen=True)
class Agg:
    """One aggregate: function name plus input expression (None for COUNT(*))."""

    func: str
    expr: Optional[Expr] = None

    def __post_init__(self):
        valid = ("sum", "count", "avg", "min", "max", "count_distinct")
        if self.func not in valid:
            raise PlanError(f"unknown aggregate {self.func!r}; valid: {valid}")
        if self.func != "count" and self.expr is None:
            raise PlanError(f"{self.func} requires an input expression")


class Aggregate(Operator):
    """Hash group-by.  ``keys=[]`` produces a single global-aggregate row."""

    def __init__(
        self,
        child: Operator,
        keys: list[str],
        aggs: dict[str, Agg],
        tag: Optional[str] = None,
    ):
        self.child = child
        self.keys = keys
        self.aggs = aggs
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        rows = self.child.execute(ctx)
        with reading(rows):
            return self._aggregate(rows)

    def _aggregate(self, rows: list[dict]) -> list[dict]:
        keys = self.keys
        if not keys:
            # A global aggregate emits one row, over empty input too.
            groups = {(): rows}
        else:
            groups = defaultdict(list)
            key = itemgetter(*keys)
            for row in rows:
                groups[key(row)].append(row)

        aggs = [(name, agg.func,
                 None if agg.expr is None else agg.expr.compiled())
                for name, agg in self.aggs.items()]
        out = []
        for key, members in groups.items():
            result = {keys[0]: key} if len(keys) == 1 else dict(zip(keys, key))
            for name, func, fn in aggs:
                result[name] = _apply_agg(func, fn, members)
            out.append(result)
        return out


def _apply_agg(func: str, fn, rows: list[dict]):
    if func == "count":
        return len(rows)
    values = list(map(fn, rows))
    if func == "count_distinct":
        return len(set(values))
    if not values:
        return None
    if func == "sum":
        return fold_sum(values)
    if func == "avg":
        return fold_sum(values) / len(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    raise PlanError(f"unhandled aggregate {func}")


class Sort(Operator):
    """ORDER BY a list of ``(column_or_expr, descending)`` pairs."""

    def __init__(self, child: Operator, keys: list[tuple], tag: Optional[str] = None):
        self.child = child
        self.keys = [(_as_expr(k), bool(desc)) for k, desc in keys]
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        rows = self.child.execute(ctx)
        with reading(rows):
            # Stable sort applied from the least-significant key backwards.
            for expr, desc in reversed(self.keys):
                rows = sorted(rows, key=expr.compiled(), reverse=desc)
        return rows


class Limit(Operator):
    """Keep the child's first ``n`` rows."""

    def __init__(self, child: Operator, n: int, tag: Optional[str] = None):
        if n < 0:
            raise PlanError("LIMIT must be non-negative")
        self.child = child
        self.n = n
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        return self.child.execute(ctx)[: self.n]


class Distinct(Operator):
    """Row-level DISTINCT over selected columns (or all columns)."""

    def __init__(self, child: Operator, columns: Optional[list[str]] = None, tag=None):
        self.child = child
        self.columns = columns
        self.tag = tag

    def _execute(self, ctx: ExecutionContext) -> list[dict]:
        rows = self.child.execute(ctx)
        cols = self.columns
        if cols is None:  # whole rows, keyed on their values by column name
            keys = [tuple(row[c] for c in sorted(row)) for row in rows]
        elif not cols:
            return rows[:1]  # every row has the same, empty key
        else:
            with reading(rows):
                keys = list(map(itemgetter(*cols), rows))
        seen = set()
        out = []
        for key, row in zip(keys, rows):
            if key not in seen:
                seen.add(key)
                out.append(row if cols is None else {c: row[c] for c in cols})
        return out


def run(plan: Operator, db: Database, ctx: Optional[ExecutionContext] = None) -> list[dict]:
    """Execute a plan against a database, returning materialized rows."""
    if ctx is None:
        ctx = ExecutionContext(db)
    return plan.execute(ctx)
