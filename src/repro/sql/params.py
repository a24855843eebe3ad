"""Bind ``?`` parameters into statement ASTs.

The commercial Preference driver substituted parameter markers before the
Preference SQL Optimizer ran, because rewriting duplicates expressions
(the WHERE clause appears once per tuple copy) and would scramble
positional parameters.  This module does the same: it replaces every
:class:`~repro.sql.ast.Param` with a literal, after which the rewritten
SQL is self-contained.  Pass-through (non-preference) statements keep their
markers and use the host database's native binding instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DriverError
from repro.sql import ast


def bind_parameters(statement: ast.Statement, params: Sequence[object]) -> ast.Statement:
    """Return ``statement`` with every ``?`` replaced by its parameter."""
    binder = _Binder(params)
    bound = binder.statement(statement)
    binder.check_exhausted()
    return bound


class _Binder:
    def __init__(self, params: Sequence[object]):
        self._params = tuple(params)
        self._used: set[int] = set()

    def check_exhausted(self) -> None:
        if len(self._used) != len(self._params):
            raise DriverError(
                f"{len(self._params)} parameters supplied but only "
                f"{len(self._used)} markers found"
            )

    # ------------------------------------------------------------------

    def statement(self, statement: ast.Statement) -> ast.Statement:
        if isinstance(statement, ast.ExplainPreference):
            return ast.ExplainPreference(statement=self.statement(statement.statement))
        if isinstance(statement, ast.Select):
            return self.select(statement)
        if isinstance(statement, ast.Insert):
            return ast.Insert(
                table=statement.table,
                columns=statement.columns,
                values=tuple(
                    tuple(self.expr(value) for value in row)
                    for row in statement.values
                ),
                query=self.select(statement.query) if statement.query else None,
            )
        if isinstance(statement, ast.CreatePreference):
            return ast.CreatePreference(
                name=statement.name,
                table=statement.table,
                term=self.pref(statement.term),
            )
        return statement

    def select(self, select: ast.Select) -> ast.Select:
        return ast.Select(
            items=tuple(
                item
                if isinstance(item, ast.Star)
                else ast.SelectItem(expr=self.expr(item.expr), alias=item.alias)
                for item in select.items
            ),
            sources=tuple(self.source(source) for source in select.sources),
            where=self.expr(select.where) if select.where is not None else None,
            preferring=(
                self.pref(select.preferring)
                if select.preferring is not None
                else None
            ),
            grouping=select.grouping,
            but_only=(
                self.expr(select.but_only) if select.but_only is not None else None
            ),
            group_by=tuple(self.expr(e) for e in select.group_by),
            having=self.expr(select.having) if select.having is not None else None,
            order_by=tuple(
                ast.OrderItem(expr=self.expr(item.expr), descending=item.descending)
                for item in select.order_by
            ),
            limit=self.expr(select.limit) if select.limit is not None else None,
            offset=self.expr(select.offset) if select.offset is not None else None,
            distinct=select.distinct,
        )

    def source(self, source: ast.FromSource) -> ast.FromSource:
        if isinstance(source, ast.SubquerySource):
            return ast.SubquerySource(query=self.select(source.query), alias=source.alias)
        if isinstance(source, ast.Join):
            return ast.Join(
                kind=source.kind,
                left=self.source(source.left),
                right=self.source(source.right),
                condition=(
                    self.expr(source.condition)
                    if source.condition is not None
                    else None
                ),
            )
        return source

    def pref(self, term: ast.PrefTerm) -> ast.PrefTerm:
        if isinstance(term, ast.CascadePref):
            return ast.CascadePref(parts=tuple(self.pref(p) for p in term.parts))
        if isinstance(term, ast.ParetoPref):
            return ast.ParetoPref(parts=tuple(self.pref(p) for p in term.parts))
        if isinstance(term, ast.ElsePref):
            return ast.ElsePref(parts=tuple(self.pref(p) for p in term.parts))
        if isinstance(term, ast.AroundPref):
            return ast.AroundPref(
                operand=self.expr(term.operand), target=self.expr(term.target)
            )
        if isinstance(term, ast.BetweenPref):
            return ast.BetweenPref(
                operand=self.expr(term.operand),
                low=self.expr(term.low),
                high=self.expr(term.high),
            )
        if isinstance(term, ast.LowestPref):
            return ast.LowestPref(operand=self.expr(term.operand))
        if isinstance(term, ast.HighestPref):
            return ast.HighestPref(operand=self.expr(term.operand))
        if isinstance(term, ast.ScorePref):
            return ast.ScorePref(operand=self.expr(term.operand))
        if isinstance(term, ast.PosPref):
            return ast.PosPref(
                operand=self.expr(term.operand),
                values=tuple(self.expr(v) for v in term.values),
            )
        if isinstance(term, ast.NegPref):
            return ast.NegPref(
                operand=self.expr(term.operand),
                values=tuple(self.expr(v) for v in term.values),
            )
        if isinstance(term, ast.ContainsPref):
            return ast.ContainsPref(
                operand=self.expr(term.operand), terms=self.expr(term.terms)
            )
        if isinstance(term, ast.ExplicitPref):
            return ast.ExplicitPref(
                operand=self.expr(term.operand),
                pairs=tuple(
                    (self.expr(better), self.expr(worse))
                    for better, worse in term.pairs
                ),
            )
        return term

    def expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Param):
            if expr.index >= len(self._params):
                raise DriverError(
                    f"statement needs at least {expr.index + 1} parameters, "
                    f"got {len(self._params)}"
                )
            self._used.add(expr.index)
            return ast.Literal(value=self._params[expr.index])
        if isinstance(expr, ast.Unary):
            return ast.Unary(op=expr.op, operand=self.expr(expr.operand))
        if isinstance(expr, ast.Binary):
            return ast.Binary(
                op=expr.op, left=self.expr(expr.left), right=self.expr(expr.right)
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                operand=self.expr(expr.operand),
                items=tuple(self.expr(item) for item in expr.items),
                negated=expr.negated,
            )
        if isinstance(expr, ast.InSubquery):
            return ast.InSubquery(
                operand=self.expr(expr.operand),
                query=self.select(expr.query),
                negated=expr.negated,
            )
        if isinstance(expr, ast.BetweenExpr):
            return ast.BetweenExpr(
                operand=self.expr(expr.operand),
                low=self.expr(expr.low),
                high=self.expr(expr.high),
                negated=expr.negated,
            )
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(operand=self.expr(expr.operand), negated=expr.negated)
        if isinstance(expr, ast.Cast):
            return ast.Cast(operand=self.expr(expr.operand), type_name=expr.type_name)
        if isinstance(expr, ast.Collate):
            return ast.Collate(operand=self.expr(expr.operand), collation=expr.collation)
        if isinstance(expr, ast.Exists):
            return ast.Exists(query=self.select(expr.query), negated=expr.negated)
        if isinstance(expr, ast.ScalarSubquery):
            return ast.ScalarSubquery(query=self.select(expr.query))
        if isinstance(expr, ast.FuncCall):
            return ast.FuncCall(
                name=expr.name,
                args=tuple(self.expr(arg) for arg in expr.args),
                star=expr.star,
            )
        if isinstance(expr, ast.CaseWhen):
            return ast.CaseWhen(
                branches=tuple(
                    (self.expr(condition), self.expr(value))
                    for condition, value in expr.branches
                ),
                otherwise=(
                    self.expr(expr.otherwise) if expr.otherwise is not None else None
                ),
            )
        return expr
