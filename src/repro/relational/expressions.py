"""Scalar expression trees evaluated against dict rows.

Expressions support Python operator overloading so query definitions read
close to SQL::

    (col("l_shipdate") <= lit("1998-09-01")) & (col("l_discount") > lit(0.05))

``Expr.eval(row)`` computes the value; the tree form also lets planners
inspect predicates (e.g. which columns a filter touches).

Evaluation is compiled, not interpreted: each node renders itself as Python
source over the row ``r`` (``Expr.source``), and a root node's source is
compiled once into one function.  A column reads as ``r['name']`` with the
name ``repr``-quoted; literals, LIKE matchers and IN sets are bound by name in
the generated function's namespace and never spliced into the source; that
namespace has no builtins beyond the few the templates call.  A missing column
surfaces as a :class:`~repro.common.errors.PlanError` through :func:`reading`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.common.errors import PlanError


class Expr:
    """Base class for all scalar expressions."""

    def source(self, env: dict) -> str:
        """Python source computing this node from the row ``r``.

        Values the source needs (literals, matchers, sets) are bound into
        ``env`` with :func:`_bind` and referenced by name.
        """
        raise NotImplementedError

    def compiled(self) -> Callable[[dict], Any]:
        """This node as one function of a row, compiled on first use."""
        fn = self.__dict__.get("_fn")
        if fn is None:
            env = _namespace()
            fn = _compile(f"lambda r: {self.source(env)}", env)
            self.__dict__["_fn"] = fn  # also on the frozen dataclasses
        return fn

    def eval(self, row: dict) -> Any:
        """This expression's value for one row."""
        with reading((row,)):
            return self.compiled()(row)

    # -- comparison operators ------------------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return BinOp("==", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return BinOp("!=", self, _wrap(other))

    def __lt__(self, other):
        return BinOp("<", self, _wrap(other))

    def __le__(self, other):
        return BinOp("<=", self, _wrap(other))

    def __gt__(self, other):
        return BinOp(">", self, _wrap(other))

    def __ge__(self, other):
        return BinOp(">=", self, _wrap(other))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __truediv__(self, other):
        return BinOp("/", self, _wrap(other))

    # -- boolean combinators (SQL AND/OR/NOT) --------------------------------
    def __and__(self, other):
        return BinOp("and", self, _wrap(other))

    def __or__(self, other):
        return BinOp("or", self, _wrap(other))

    def __invert__(self):
        return NotOp(self)

    # Hashability is required because __eq__ is overloaded.
    def __hash__(self):
        return id(self)

    # -- SQL-flavoured helpers ------------------------------------------------
    def like(self, pattern: str) -> "LikeOp":
        return LikeOp(self, pattern)

    def not_like(self, pattern: str) -> "NotOp":
        return NotOp(LikeOp(self, pattern))

    def in_(self, values) -> "InList":
        return InList(self, tuple(values))

    def between(self, low, high) -> "BinOp":
        return (self >= _wrap(low)) & (self <= _wrap(high))

    def substr(self, start: int, length: int) -> "Substr":
        return Substr(self, start, length)

    def year(self) -> "YearOf":
        return YearOf(self)


def _wrap(value) -> Expr:
    return value if isinstance(value, Expr) else Lit(value)


# -- compiling to Python source --------------------------------------------------


def _namespace() -> dict:
    """Globals of one generated function: only the builtins templates call."""
    return {"__builtins__": {}, "str": str, "int": int}


def _bind(env: dict, value) -> str:
    """Bind ``value`` under a fresh name in ``env``; returns the name."""
    name = f"_{len(env)}"
    env[name] = value
    return name


def _key(name, env: dict) -> str:
    """A dict key as source: a plain ``str`` is ``repr``-quoted, else bound."""
    return repr(name) if type(name) is str else _bind(env, name)


def _compile(source: str, env: dict) -> Callable:
    try:
        code = compile(source, "<relational>", "eval")
    except (SyntaxError, RecursionError) as exc:
        # Python's parser refuses about 200 nested parentheses.
        raise PlanError(f"expression nests too deeply to compile: {exc}") from None
    return eval(code, env)


def row_loop(outputs: Optional[dict[str, Expr]],
             predicate: Optional[Expr]) -> Callable[[list], list]:
    """``[<outputs> for r in rows if <predicate>]`` as one generated function.

    ``outputs`` maps column names to expressions and gives each kept row a
    new dict in that order; None keeps the row itself.  No predicate keeps
    every row.
    """
    env = _namespace()
    item = "r" if outputs is None else "{%s}" % ", ".join(
        f"{_key(name, env)}: {expr.source(env)}" for name, expr in outputs.items())
    where = "" if predicate is None else f" if {predicate.source(env)}"
    return _compile(f"lambda rows: [{item} for r in rows{where}]", env)


@contextmanager
def reading(*inputs: Iterable[dict]) -> Iterator[None]:
    """Run generated code over ``inputs``; a missing column is a PlanError.

    Generated code reads a column as a plain ``r['name']``.  Its KeyError
    becomes the PlanError naming the column and what the first input row
    lacking it has; a KeyError no input row explains propagates unchanged.
    """
    try:
        yield
    except KeyError as exc:
        name = exc.args[0] if exc.args else None
        for row in chain(*inputs):
            if name not in row:
                raise PlanError(
                    f"row has no column {name!r}; has {sorted(row)}") from None
        raise


@dataclass(frozen=True, eq=False)
class Col(Expr):
    """A column reference."""

    name: str

    def source(self, env: dict) -> str:
        return f"r[{_key(self.name, env)}]"

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Lit(Expr):
    """A literal constant."""

    value: Any

    def source(self, env: dict) -> str:
        return _bind(env, self.value)

    def __repr__(self) -> str:
        return repr(self.value)


# The operator allow-list: HiveQL builds BinOps from user text, and only these
# templates and ``and``/``or`` ever reach generated source.
_BINOP_SOURCE = {
    "==": "({} == {})", "!=": "({} != {})", "<": "({} < {})",
    "<=": "({} <= {})", ">": "({} > {})", ">=": "({} >= {})",
    "+": "({} + {})", "-": "({} - {})", "*": "({} * {})", "/": "({} / {})",
}


class BinOp(Expr):
    """Binary operator; ``and``/``or`` short-circuit like SQL's two-valued logic."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _BINOP_SOURCE and op not in ("and", "or"):
            raise PlanError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def source(self, env: dict) -> str:
        if self.op in ("and", "or"):
            # One flat test for a whole chain (``a & b & c``), which returns
            # a bool and tests each operand at most once, left to right.
            tests = f" {self.op} ".join(e.source(env) for e in self._chain())
            return f"(True if {tests} else False)"
        return _BINOP_SOURCE[self.op].format(
            self.left.source(env), self.right.source(env))

    def _chain(self) -> Iterator[Expr]:
        for side in (self.left, self.right):
            if isinstance(side, BinOp) and side.op == self.op:
                yield from side._chain()
            else:
                yield side

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class NotOp(Expr):
    def __init__(self, inner: Expr):
        self.inner = inner

    def source(self, env: dict) -> str:
        return f"(not {self.inner.source(env)})"

    def __repr__(self) -> str:
        return f"(not {self.inner!r})"


class LikeOp(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one character)."""

    def __init__(self, inner: Expr, pattern: str):
        self.inner = inner
        self.pattern = pattern
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._compiled = re.compile(f"^{regex}$", re.DOTALL)

    def source(self, env: dict) -> str:
        match = _bind(env, self._compiled.match)
        return f"({match}(str({self.inner.source(env)})) is not None)"

    def __repr__(self) -> str:
        return f"({self.inner!r} LIKE {self.pattern!r})"


class InList(Expr):
    def __init__(self, inner: Expr, values: tuple):
        self.inner = inner
        self.values = frozenset(values)

    def source(self, env: dict) -> str:
        return f"({self.inner.source(env)} in {_bind(env, self.values)})"

    def __repr__(self) -> str:
        return f"({self.inner!r} IN {sorted(self.values)!r})"


class Substr(Expr):
    """SQL SUBSTRING with 1-based ``start``."""

    def __init__(self, inner: Expr, start: int, length: int):
        if start < 1 or length < 0:
            raise PlanError("substr uses 1-based start and non-negative length")
        self.inner = inner
        self.start = start
        self.length = length

    def source(self, env: dict) -> str:
        low = _bind(env, self.start - 1)
        high = _bind(env, self.start - 1 + self.length)
        return f"str({self.inner.source(env)})[{low}:{high}]"

    def __repr__(self) -> str:
        return f"substr({self.inner!r}, {self.start}, {self.length})"


class YearOf(Expr):
    """EXTRACT(YEAR FROM date-string)."""

    def __init__(self, inner: Expr):
        self.inner = inner

    def source(self, env: dict) -> str:
        return f"int(str({self.inner.source(env)})[:4])"

    def __repr__(self) -> str:
        return f"year({self.inner!r})"


class CaseWhen(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    def __init__(self, branches: list[tuple[Expr, Expr]], default: Expr):
        if not branches:
            raise PlanError("CASE needs at least one WHEN branch")
        self.branches = [(cond, _wrap(value)) for cond, value in branches]
        self.default = _wrap(default)

    def source(self, env: dict) -> str:
        text = self.default.source(env)
        for cond, value in reversed(self.branches):
            text = f"({value.source(env)} if {cond.source(env)} else {text})"
        return text

    def __repr__(self) -> str:
        parts = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.branches)
        return f"CASE {parts} ELSE {self.default!r} END"


# -- public constructors -------------------------------------------------------


def col(name: str) -> Col:
    """Reference a column."""
    return Col(name)


def lit(value) -> Lit:
    """A literal constant."""
    return Lit(value)


def case(branches: list[tuple[Expr, Any]], default=0) -> CaseWhen:
    """Build a CASE expression; values are auto-wrapped literals."""
    return CaseWhen(branches, default)


def date_add(iso_date: str, days: int = 0, months: int = 0, years: int = 0) -> str:
    """Date arithmetic on ISO strings: ``date '1994-01-01' + interval ...``."""
    d = date.fromisoformat(iso_date)
    if days:
        d = d + timedelta(days=days)
    if months or years:
        total = d.month - 1 + months + 12 * years
        year = d.year + total // 12
        month = total % 12 + 1
        # Clamp the day like SQL engines do (Jan 31 + 1 month -> Feb 28/29).
        for day in (d.day, 30, 29, 28):
            try:
                d = date(year, month, day)
                break
            except ValueError:
                continue
    return d.isoformat()
