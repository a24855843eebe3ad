"""Evaluate SQL expressions over rows, with SQL three-valued logic.

The evaluator follows the host-database semantics the rewriter relies on:

* comparisons involving NULL yield *unknown* (Python ``None``),
* ``AND``/``OR`` use Kleene logic, ``NOT unknown = unknown``,
* ``IN`` returns unknown when no item matches but a NULL item exists,
* ``WHERE`` keeps a row only when its condition is *true* (not unknown).

A :class:`RowEnvironment` binds column names (optionally qualified by the
table binding name) to values for one row.  Sub-queries are delegated to an
optional query executor callback so this module stays independent of the
engine's SELECT machinery.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Mapping, Sequence

from repro.errors import EvaluationError
from repro.sql import ast


class RowEnvironment:
    """Column bindings for a single row.

    ``scopes`` maps a binding name (table name or alias, lowercase) to a
    mapping from lowercase column names to values.  Unqualified lookups
    search all scopes of the innermost level first and fail on ambiguity
    within a level, as SQL does; ``parent`` holds the enclosing query's
    environment for correlated sub-queries (inner bindings shadow outer).
    """

    def __init__(
        self,
        scopes: Mapping[str, Mapping[str, object]],
        parent: "RowEnvironment | None" = None,
    ):
        self._scopes = scopes
        self._parent = parent

    @classmethod
    def single(cls, binding: str, columns: Sequence[str], row: Sequence[object]):
        """Environment for one row of one table."""
        values = {name.lower(): value for name, value in zip(columns, row)}
        return cls({binding.lower(): values})

    def lookup(self, name: str, table: str | None = None) -> object:
        key = name.lower()
        if table is not None:
            scope = self._scopes.get(table.lower())
            if scope is None:
                if self._parent is not None:
                    return self._parent.lookup(name, table)
                raise EvaluationError(f"unknown table binding {table!r}")
            if key not in scope:
                raise EvaluationError(f"no column {name!r} in {table!r}")
            return scope[key]
        hits = [scope[key] for scope in self._scopes.values() if key in scope]
        if len(hits) > 1:
            raise EvaluationError(f"ambiguous column {name!r}")
        if hits:
            return hits[0]
        if self._parent is not None:
            return self._parent.lookup(name, table)
        raise EvaluationError(f"unknown column {name!r}")

    def merged(self, other: "RowEnvironment") -> "RowEnvironment":
        """Combine two same-level environments (used for joins)."""
        scopes = dict(self._scopes)
        for binding, scope in other._scopes.items():
            if binding in scopes:
                raise EvaluationError(f"duplicate table binding {binding!r}")
            scopes[binding] = scope
        return RowEnvironment(scopes, parent=self._parent)


#: Executes a nested SELECT and returns its rows (list of tuples).
QueryExecutor = Callable[[ast.Select, "RowEnvironment"], list[tuple]]


class Evaluator:
    """Evaluates expression ASTs over row environments."""

    def __init__(
        self,
        params: Sequence[object] = (),
        query_executor: QueryExecutor | None = None,
    ):
        self._params = tuple(params)
        self._query_executor = query_executor

    # ------------------------------------------------------------------

    def evaluate(self, expr: ast.Expr, env: RowEnvironment) -> object:
        """Evaluate ``expr``; returns ``None`` for SQL NULL / unknown."""
        method = getattr(self, f"_eval_{type(expr).__name__.lower()}", None)
        if method is None:
            raise EvaluationError(
                f"cannot evaluate expression node {type(expr).__name__}"
            )
        return method(expr, env)

    def is_true(self, expr: ast.Expr, env: RowEnvironment) -> bool:
        """SQL condition check: true only (unknown and false reject)."""
        value = self.evaluate(expr, env)
        return bool(value) and value is not None

    # ------------------------------------------------------------------
    # Leaves

    def _eval_literal(self, expr: ast.Literal, env: RowEnvironment) -> object:
        return expr.value

    def _eval_column(self, expr: ast.Column, env: RowEnvironment) -> object:
        return env.lookup(expr.name, expr.table)

    def _eval_param(self, expr: ast.Param, env: RowEnvironment) -> object:
        if expr.index >= len(self._params):
            raise EvaluationError(
                f"parameter {expr.index + 1} not bound ({len(self._params)} given)"
            )
        return self._params[expr.index]

    # ------------------------------------------------------------------
    # Operators

    def _eval_unary(self, expr: ast.Unary, env: RowEnvironment) -> object:
        value = self.evaluate(expr.operand, env)
        if expr.op == "NOT":
            if value is None:
                return None
            return not value
        if value is None:
            return None
        number = _require_number(value, expr.op)
        return -number if expr.op == "-" else number

    def _eval_binary(self, expr: ast.Binary, env: RowEnvironment) -> object:
        op = expr.op
        if op == "AND":
            left = self.evaluate(expr.left, env)
            if left is not None and not left:
                return False
            right = self.evaluate(expr.right, env)
            if right is not None and not right:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.evaluate(expr.left, env)
            if left is not None and left:
                return True
            right = self.evaluate(expr.right, env)
            if right is not None and right:
                return True
            if left is None or right is None:
                return None
            return False

        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if op == "||":
            if left is None or right is None:
                return None
            return _sql_text(left) + _sql_text(right)
        if op == "LIKE":
            if left is None or right is None:
                return None
            return _like_match(_sql_text(left), _sql_text(right))
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        if op == "IS":
            if left is None or right is None:
                return left is None and right is None
            return bool(_compare("=", left, right))
        if left is None or right is None:
            return None
        a = _require_number(left, op)
        b = _require_number(right, op)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return None  # sqlite yields NULL on division by zero
            result = a / b
            if isinstance(left, int) and isinstance(right, int):
                return int(a // b) if result >= 0 else -int(-a // b)
            return result
        if op == "%":
            if b == 0:
                return None
            return math.fmod(a, b)
        raise EvaluationError(f"unknown binary operator {op!r}")

    # ------------------------------------------------------------------
    # Predicates

    def _eval_inlist(self, expr: ast.InList, env: RowEnvironment) -> object:
        operand = self.evaluate(expr.operand, env)
        if operand is None:
            return None
        saw_null = False
        for item in expr.items:
            value = self.evaluate(item, env)
            if value is None:
                saw_null = True
            elif _compare("=", operand, value) is True:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_betweenexpr(self, expr: ast.BetweenExpr, env: RowEnvironment) -> object:
        operand = self.evaluate(expr.operand, env)
        low = self.evaluate(expr.low, env)
        high = self.evaluate(expr.high, env)
        lower_ok = _compare("<=", low, operand)
        upper_ok = _compare("<=", operand, high)
        if lower_ok is None or upper_ok is None:
            inside = None
        else:
            inside = lower_ok and upper_ok
        if inside is None:
            return None
        return not inside if expr.negated else inside

    def _eval_isnull(self, expr: ast.IsNull, env: RowEnvironment) -> object:
        value = self.evaluate(expr.operand, env)
        return (value is not None) if expr.negated else (value is None)

    def _eval_casewhen(self, expr: ast.CaseWhen, env: RowEnvironment) -> object:
        for condition, value in expr.branches:
            if self.is_true(condition, env):
                return self.evaluate(value, env)
        if expr.otherwise is not None:
            return self.evaluate(expr.otherwise, env)
        return None

    # ------------------------------------------------------------------
    # Sub-queries

    def _run_subquery(self, query: ast.Select, env: RowEnvironment) -> list[tuple]:
        if self._query_executor is None:
            raise EvaluationError(
                "sub-queries require a query executor (use PreferenceEngine)"
            )
        return self._query_executor(query, env)

    def _eval_exists(self, expr: ast.Exists, env: RowEnvironment) -> object:
        rows = self._run_subquery(expr.query, env)
        found = len(rows) > 0
        return not found if expr.negated else found

    def _eval_insubquery(self, expr: ast.InSubquery, env: RowEnvironment) -> object:
        operand = self.evaluate(expr.operand, env)
        if operand is None:
            return None
        saw_null = False
        for row in self._run_subquery(expr.query, env):
            if len(row) != 1:
                raise EvaluationError("IN sub-query must return one column")
            if row[0] is None:
                saw_null = True
            elif _compare("=", operand, row[0]) is True:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_scalarsubquery(self, expr: ast.ScalarSubquery, env: RowEnvironment) -> object:
        rows = self._run_subquery(expr.query, env)
        if not rows:
            return None
        if len(rows) > 1 or len(rows[0]) != 1:
            raise EvaluationError("scalar sub-query must return a single value")
        return rows[0][0]

    # ------------------------------------------------------------------
    # Functions

    def _eval_funccall(self, expr: ast.FuncCall, env: RowEnvironment) -> object:
        name = expr.name
        if name in ("TOP", "LEVEL", "DISTANCE"):
            raise EvaluationError(
                f"quality function {name} is only valid in a preference "
                "query (select list or BUT ONLY clause)"
            )
        handler = _FUNCTIONS.get(name)
        if handler is None:
            raise EvaluationError(f"unknown function {name}")
        args = [self.evaluate(arg, env) for arg in expr.args]
        return handler(args)


# ----------------------------------------------------------------------
# Value helpers


def _require_number(value: object, op: str) -> float | int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    raise EvaluationError(f"operator {op!r} needs numeric operands, got {value!r}")


def _sql_text(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _coerce_pair(left: object, right: object) -> tuple[object, object]:
    """Coerce for comparison: numbers compare numerically, text as text.

    Mixed number/text compares like sqlite with NUMERIC affinity: if the
    text looks numeric it is compared as a number, otherwise type order
    puts numbers before text — we raise instead, because silent type-order
    comparisons hide schema bugs.
    """
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            return left, float(right)
        except ValueError:
            raise EvaluationError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, str) and isinstance(right, (int, float)):
        try:
            return float(left), right
        except ValueError:
            raise EvaluationError(f"cannot compare {left!r} with {right!r}")
    raise EvaluationError(f"cannot compare {left!r} with {right!r}")


def _compare(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    a, b = _coerce_pair(left, right)
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvaluationError(f"unknown comparison {op!r}")


def _like_match(text: str, pattern: str) -> bool:
    regex = ["^"]
    for char in pattern:
        if char == "%":
            regex.append(".*")
        elif char == "_":
            regex.append(".")
        else:
            regex.append(re.escape(char))
    regex.append("$")
    return re.match("".join(regex), text, re.IGNORECASE | re.DOTALL) is not None


def _fn_abs(args: list[object]) -> object:
    (value,) = args
    if value is None:
        return None
    return abs(_require_number(value, "ABS"))


def _fn_length(args: list[object]) -> object:
    (value,) = args
    if value is None:
        return None
    return len(_sql_text(value))


def _fn_upper(args: list[object]) -> object:
    (value,) = args
    return None if value is None else _sql_text(value).upper()


def _fn_lower(args: list[object]) -> object:
    (value,) = args
    return None if value is None else _sql_text(value).lower()


def _fn_round(args: list[object]) -> object:
    if not args or args[0] is None:
        return None
    digits = int(_require_number(args[1], "ROUND")) if len(args) > 1 else 0
    return round(_require_number(args[0], "ROUND"), digits)


def _fn_coalesce(args: list[object]) -> object:
    for value in args:
        if value is not None:
            return value
    return None


def _fn_min(args: list[object]) -> object:
    present = [a for a in args if a is not None]
    if len(present) != len(args) or not present:
        return None  # sqlite scalar MIN/MAX yield NULL if any arg is NULL
    return min(present)


def _fn_max(args: list[object]) -> object:
    present = [a for a in args if a is not None]
    if len(present) != len(args) or not present:
        return None
    return max(present)


_FUNCTIONS = {
    "ABS": _fn_abs,
    "LENGTH": _fn_length,
    "UPPER": _fn_upper,
    "LOWER": _fn_lower,
    "ROUND": _fn_round,
    "COALESCE": _fn_coalesce,
    "MIN": _fn_min,
    "MAX": _fn_max,
}
