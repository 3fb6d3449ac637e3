"""Logical plan rewrites: predicate pushdown and early projection.

The relational kernel executes plans exactly as written; this module adds
the two classic rewrites every cost-based system performs (and the paper's
Hive 0.7 mostly did not):

* **predicate pushdown** — conjuncts of a :class:`Filter` that reference
  only one side of a join move below the join, shrinking build/probe inputs;
* **projection pruning** — a :class:`Scan` asked only for some columns
  materializes only those columns.

``optimize(plan, required_columns)`` rewrites bottom-up and is
answer-preserving: the optimizer tests prove rewritten plans return the same
rows while the tagged operator statistics show strictly less data flowing.
"""

from __future__ import annotations

from typing import Optional

from repro.relational.expressions import BinOp, Col, Expr
from repro.relational.operators import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    Rows,
    Scan,
    Sort,
)


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a tree of ANDs into its conjuncts."""
    if isinstance(expr, BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_together(conjuncts: list[Expr]) -> Optional[Expr]:
    """Rebuild a conjunction; None for an empty list."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = result & conjunct
    return result


def columns_of(expr: Expr) -> set[str]:
    """Every column name an expression references."""
    if isinstance(expr, Col):
        return {expr.name}
    found: set[str] = set()
    for attr in ("left", "right", "inner", "default"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr):
            found |= columns_of(child)
    for branch in getattr(expr, "branches", []) or []:
        cond, value = branch
        found |= columns_of(cond) | columns_of(value)
    return found


def output_columns(plan: Operator) -> Optional[set[str]]:
    """The column set a subplan produces, or None when unknown."""
    if isinstance(plan, Scan):
        if plan.columns is not None:
            return set(plan.columns)
        return None  # depends on the table schema at execution time
    if isinstance(plan, Project):
        return set(plan.outputs)
    if isinstance(plan, Aggregate):
        return set(plan.keys) | set(plan.aggs)
    if isinstance(plan, HashJoin):
        left = output_columns(plan.left)
        right = output_columns(plan.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(plan, (Filter, Sort, Limit, Distinct)):
        return output_columns(plan.child)
    if isinstance(plan, Rows):
        return None
    return None


def _push_into(plan: Operator, conjuncts: list[Expr]) -> tuple[Operator, list[Expr]]:
    """Try to sink conjuncts into ``plan``; returns (new plan, leftovers)."""
    if not conjuncts:
        return plan, []
    if isinstance(plan, Scan):
        predicate = and_together(
            ([plan.predicate] if plan.predicate is not None else []) + conjuncts
        )
        return (
            Scan(plan.table, predicate=predicate, columns=plan.columns,
                 tag=plan.tag),
            [],
        )
    if isinstance(plan, Filter):
        inner, leftovers = _push_into(plan.child, conjuncts)
        return Filter(inner, plan.predicate, tag=plan.tag), leftovers
    if isinstance(plan, HashJoin):
        left_cols = output_columns(plan.left)
        right_cols = output_columns(plan.right)
        push_left, push_right, stay = [], [], []
        for conjunct in conjuncts:
            needed = columns_of(conjunct)
            if left_cols is not None and needed <= left_cols:
                push_left.append(conjunct)
            elif right_cols is not None and needed <= right_cols:
                push_right.append(conjunct)
            # Join keys are always available on their own side too.
            elif needed <= set(plan.left_keys):
                push_left.append(conjunct)
            elif needed <= set(plan.right_keys):
                push_right.append(conjunct)
            else:
                stay.append(conjunct)
        new_left, left_rest = _push_into(plan.left, push_left)
        new_right, right_rest = _push_into(plan.right, push_right)
        rewritten = HashJoin(
            new_left, new_right, plan.left_keys, plan.right_keys,
            how=plan.how, tag=plan.tag,
        )
        return rewritten, stay + left_rest + right_rest
    # Anything else: cannot push further.
    return plan, conjuncts


def optimize(plan: Operator) -> Operator:
    """Rewrite a plan bottom-up; answer-preserving."""
    # Recurse first so inner filters sink before outer ones.
    if isinstance(plan, Filter):
        child = optimize(plan.child)
        conjuncts = split_conjuncts(plan.predicate)
        pushed, leftovers = _push_into(child, conjuncts)
        remainder = and_together(leftovers)
        if remainder is None:
            if plan.tag is not None:
                return Filter(pushed, _TRUE, tag=plan.tag)
            return pushed
        return Filter(pushed, remainder, tag=plan.tag)
    if isinstance(plan, HashJoin):
        return HashJoin(
            optimize(plan.left), optimize(plan.right),
            plan.left_keys, plan.right_keys, how=plan.how, tag=plan.tag,
        )
    if isinstance(plan, Project):
        return Project(optimize(plan.child), plan.outputs, tag=plan.tag)
    if isinstance(plan, Aggregate):
        return Aggregate(optimize(plan.child), plan.keys, plan.aggs, tag=plan.tag)
    if isinstance(plan, Sort):
        rewritten = Sort(optimize(plan.child), [])
        rewritten.keys = plan.keys
        rewritten.tag = plan.tag
        return rewritten
    if isinstance(plan, Limit):
        return Limit(optimize(plan.child), plan.n, tag=plan.tag)
    if isinstance(plan, Distinct):
        return Distinct(optimize(plan.child), plan.columns, tag=plan.tag)
    return plan


class _AlwaysTrue(Expr):
    def source(self, env: dict) -> str:
        return "True"

    def __repr__(self) -> str:
        return "TRUE"


_TRUE = _AlwaysTrue()
