"""Render AST nodes back to SQL text.

The printer emits the dialect the node tree expresses: a plain ``Select``
prints as standard SQL (what the rewriter ships to the host database), a
preference ``Select`` prints the full Preference SQL block.  Output is
deterministic and fully parenthesised where precedence could be ambiguous,
so ``parse(to_sql(parse(q)))`` is a fixpoint — pinned by round-trip tests.
"""

from __future__ import annotations

from repro.sql import ast
from repro.sql.tokens import KEYWORDS


def quote_string(value: str) -> str:
    """SQL-quote a string literal, doubling embedded quotes."""
    escaped = value.replace("'", "''")
    return f"'{escaped}'"


def quote_identifier(name: str) -> str:
    """Double-quote an SQL identifier, doubling embedded quotes."""
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def format_literal(value: object) -> str:
    """Render a Python literal value as a SQL literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "1"
    if value is False:
        return "0"
    if isinstance(value, str):
        return quote_string(value)
    if isinstance(value, float):
        # repr keeps full precision; trim a trailing ".0" is NOT done so the
        # host database sees an unambiguous float literal.
        return repr(value)
    return str(value)


def to_sql(node: ast.Node) -> str:
    """Render any AST node (statement, expression or preference term)."""
    if isinstance(node, ast.Select):
        return _select(node)
    if isinstance(node, ast.Insert):
        return _insert(node)
    if isinstance(node, ast.CreatePreference):
        return (
            f"CREATE PREFERENCE {_identifier(node.name)} ON {_identifier(node.table)}"
            f" AS {_pref(node.term)}"
        )
    if isinstance(node, ast.DropPreference):
        return f"DROP PREFERENCE {_identifier(node.name)}"
    if isinstance(node, ast.CreatePreferenceView):
        return f"CREATE PREFERENCE VIEW {_identifier(node.name)} AS {_select(node.query)}"
    if isinstance(node, ast.DropPreferenceView):
        return f"DROP PREFERENCE VIEW {_identifier(node.name)}"
    if isinstance(node, ast.CreatePreferenceConstraint):
        return _constraint(node)
    if isinstance(node, ast.DropPreferenceConstraint):
        return f"DROP PREFERENCE CONSTRAINT {_identifier(node.name)}"
    if isinstance(node, ast.ExplainPreference):
        return f"EXPLAIN PREFERENCE {to_sql(node.statement)}"
    if isinstance(node, ast.PrefTerm):
        return _pref(node)
    if isinstance(node, ast.Expr):
        return _expr(node)
    raise TypeError(f"cannot print node of type {type(node).__name__}")


# ----------------------------------------------------------------------
# Statements


def _select(select: ast.Select) -> str:
    parts = []
    if select.ctes:
        parts.append("WITH " + ", ".join(_common_table(cte) for cte in select.ctes))
    parts.append("SELECT")
    if select.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(item) for item in select.items))
    parts.append("FROM")
    parts.append(", ".join(_source(source) for source in select.sources))
    if select.where is not None:
        parts.append(f"WHERE {_expr(select.where)}")
    if select.preferring is not None:
        parts.append(f"PREFERRING {_pref(select.preferring)}")
    if select.grouping:
        parts.append("GROUPING " + ", ".join(_expr(col) for col in select.grouping))
    if select.but_only is not None:
        parts.append(f"BUT ONLY {_expr(select.but_only)}")
    if select.group_by:
        parts.append("GROUP BY " + ", ".join(_expr(e) for e in select.group_by))
    if select.having is not None:
        parts.append(f"HAVING {_expr(select.having)}")
    if select.order_by:
        rendered = ", ".join(
            _expr(item.expr) + (" DESC" if item.descending else "")
            for item in select.order_by
        )
        parts.append("ORDER BY " + rendered)
    if select.limit is not None:
        parts.append(f"LIMIT {_expr(select.limit)}")
        if select.offset is not None:
            parts.append(f"OFFSET {_expr(select.offset)}")
    return " ".join(parts)


def _common_table(cte: ast.CommonTable) -> str:
    keyword = " MATERIALIZED" if cte.materialized else ""
    return f"{_identifier(cte.name)} AS{keyword} ({_select(cte.query)})"


#: sqlite's keywords; with the dialect's own, a name spelled like one of
#: them prints quoted.
_SQLITE_KEYWORDS = """
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH
    AUTOINCREMENT BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED
    DELETE DESC DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUDE
    EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM
    FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX
    INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS ISNULL JOIN KEY
    LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING NOTNULL
    NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS
    SAVEPOINT SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION
    TRIGGER UNBOUNDED UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL
    WHEN WHERE WINDOW WITH WITHOUT
"""
_RESERVED = KEYWORDS | frozenset(_SQLITE_KEYWORDS.split())


def _identifier(name: str) -> str:
    """``name`` bare when it is a plain identifier (ASCII letters, digits
    and ``_``, no leading digit) and no keyword, else quoted: ``"my col"``,
    ``"order"``, ``"LEVEL(color)"``."""
    if name.isidentifier() and name.isascii() and name.upper() not in _RESERVED:
        return name
    return quote_identifier(name)


def _identifiers(names: tuple[str, ...]) -> str:
    return ", ".join(_identifier(name) for name in names)


def _star(star: ast.Star) -> str:
    return f"{_identifier(star.table)}.*" if star.table else "*"


def _select_item(item: ast.SelectItem | ast.Star) -> str:
    if isinstance(item, ast.Star):
        return _star(item)
    rendered = _expr(item.expr)
    if item.alias:
        rendered += f" AS {_identifier(item.alias)}"
    return rendered


def _source(source: ast.FromSource) -> str:
    if isinstance(source, ast.TableRef):
        if source.alias:
            return f"{_identifier(source.name)} AS {_identifier(source.alias)}"
        return _identifier(source.name)
    if isinstance(source, ast.SubquerySource):
        return f"({_select(source.query)}) AS {_identifier(source.alias)}"
    if isinstance(source, ast.Join):
        left = _source(source.left)
        right = _source(source.right)
        if source.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        keyword = "JOIN" if source.kind == "INNER" else f"{source.kind} JOIN"
        return f"{left} {keyword} {right} ON {_expr(source.condition)}"
    raise TypeError(f"unknown FROM source {type(source).__name__}")


def _insert(insert: ast.Insert) -> str:
    parts = [f"INSERT INTO {_identifier(insert.table)}"]
    if insert.columns:
        parts.append(f"({_identifiers(insert.columns)})")
    if insert.query is not None:
        parts.append(_select(insert.query))
    else:
        rows = ", ".join(
            "(" + ", ".join(_expr(value) for value in row) + ")"
            for row in insert.values
        )
        parts.append(f"VALUES {rows}")
    return " ".join(parts)


def _constraint(node: ast.CreatePreferenceConstraint) -> str:
    head = (
        f"CREATE PREFERENCE CONSTRAINT {_identifier(node.name)}"
        f" ON {_identifier(node.table)}"
    )
    if node.kind == "key":
        return f"{head} KEY ({_identifiers(node.columns)})"
    if node.kind == "not_null":
        return f"{head} NOT NULL ({_identifiers(node.columns)})"
    if node.kind == "check":
        return f"{head} CHECK ({_expr(node.check)})"
    if node.kind == "fd":
        return (
            f"{head} FD ({_identifiers(node.columns)})"
            f" DETERMINES ({_identifiers(node.determines)})"
        )
    raise TypeError(f"unknown constraint kind {node.kind!r}")


# ----------------------------------------------------------------------
# Preference terms


def _pref(term: ast.PrefTerm, parent: str = "top") -> str:
    if isinstance(term, ast.CascadePref):
        rendered = " CASCADE ".join(_pref(part, "cascade") for part in term.parts)
        return f"({rendered})" if parent in ("pareto", "else") else rendered
    if isinstance(term, ast.ParetoPref):
        rendered = " AND ".join(_pref(part, "pareto") for part in term.parts)
        return f"({rendered})" if parent == "else" else rendered
    if isinstance(term, ast.ElsePref):
        return " ELSE ".join(_pref(part, "else") for part in term.parts)
    if isinstance(term, ast.AroundPref):
        return f"{_expr(term.operand)} AROUND {_expr(term.target)}"
    if isinstance(term, ast.BetweenPref):
        return f"{_expr(term.operand)} BETWEEN {_expr(term.low)}, {_expr(term.high)}"
    if isinstance(term, ast.LowestPref):
        return f"LOWEST({_expr(term.operand)})"
    if isinstance(term, ast.HighestPref):
        return f"HIGHEST({_expr(term.operand)})"
    if isinstance(term, ast.ScorePref):
        return f"SCORE({_expr(term.operand)})"
    if isinstance(term, ast.PosPref):
        if len(term.values) == 1:
            return f"{_expr(term.operand)} = {_expr(term.values[0])}"
        values = ", ".join(_expr(value) for value in term.values)
        return f"{_expr(term.operand)} IN ({values})"
    if isinstance(term, ast.NegPref):
        if len(term.values) == 1:
            return f"{_expr(term.operand)} <> {_expr(term.values[0])}"
        values = ", ".join(_expr(value) for value in term.values)
        return f"{_expr(term.operand)} NOT IN ({values})"
    if isinstance(term, ast.ContainsPref):
        return f"{_expr(term.operand)} CONTAINS {_expr(term.terms)}"
    if isinstance(term, ast.ExplicitPref):
        pairs = ", ".join(
            f"{_expr(better)} > {_expr(worse)}" for better, worse in term.pairs
        )
        return f"EXPLICIT({_expr(term.operand)}, {pairs})"
    if isinstance(term, ast.NamedPref):
        return f"PREFERENCE {_identifier(term.name)}"
    raise TypeError(f"unknown preference term {type(term).__name__}")


# ----------------------------------------------------------------------
# Expressions

#: Binding strength; higher binds tighter.  Used to decide parenthesisation.
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4,
    "<>": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "IS": 4,
    "LIKE": 4,
    "+": 5,
    "-": 5,
    "||": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


def _wrap_predicate(rendered: str, parent_precedence: int) -> str:
    """Predicates (IN, BETWEEN, IS NULL) bind like comparisons: inside a
    tighter-binding context they need explicit parentheses."""
    if parent_precedence > 4:
        return f"({rendered})"
    return rendered


def _expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    if isinstance(expr, ast.Literal):
        return format_literal(expr.value)
    if isinstance(expr, ast.Column):
        if expr.table:
            return f"{_identifier(expr.table)}.{_identifier(expr.name)}"
        return _identifier(expr.name)
    if isinstance(expr, ast.Star):
        return _star(expr)
    if isinstance(expr, ast.Param):
        return "?"
    if isinstance(expr, ast.Unary):
        if expr.op == "NOT":
            rendered = f"NOT ({_expr(expr.operand)})"
            # NOT binds looser than comparisons: parenthesise when nested
            # in a comparison/arithmetic context.
            if parent_precedence > 3:
                return f"({rendered})"
            return rendered
        if isinstance(expr.operand, ast.Unary) and expr.operand.op in ("-", "+"):
            # `--a` would lex as a line comment; force parentheses.
            return f"{expr.op}({_expr(expr.operand)})"
        return f"{expr.op}{_expr(expr.operand, 7)}"
    if isinstance(expr, ast.Binary):
        precedence = _PRECEDENCE[expr.op]
        # Comparisons and LIKE do not chain in SQL: parenthesise nested
        # comparisons on either side.  For associative/left-associative
        # operators, only the right side needs the +1.
        non_associative = precedence == 4
        left = _expr(expr.left, precedence + 1 if non_associative else precedence)
        right = _expr(expr.right, precedence + 1)
        rendered = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({rendered})"
        return rendered
    if isinstance(expr, ast.InList):
        keyword = "NOT IN" if expr.negated else "IN"
        items = ", ".join(_expr(item) for item in expr.items)
        rendered = f"{_expr(expr.operand, 5)} {keyword} ({items})"
        return _wrap_predicate(rendered, parent_precedence)
    if isinstance(expr, ast.InSubquery):
        keyword = "NOT IN" if expr.negated else "IN"
        rendered = f"{_expr(expr.operand, 5)} {keyword} ({_select(expr.query)})"
        return _wrap_predicate(rendered, parent_precedence)
    if isinstance(expr, ast.BetweenExpr):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        rendered = (
            f"{_expr(expr.operand, 5)} {keyword} "
            f"{_expr(expr.low, 5)} AND {_expr(expr.high, 5)}"
        )
        return _wrap_predicate(rendered, parent_precedence)
    if isinstance(expr, ast.IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        rendered = f"{_expr(expr.operand, 5)} {keyword}"
        return _wrap_predicate(rendered, parent_precedence)
    if isinstance(expr, ast.Exists):
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} ({_select(expr.query)})"
    if isinstance(expr, ast.ScalarSubquery):
        return f"({_select(expr.query)})"
    if isinstance(expr, ast.FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(_expr(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.Cast):
        return f"CAST({_expr(expr.operand)} AS {expr.type_name})"
    if isinstance(expr, ast.Collate):
        # COLLATE binds tighter than any operator: a compound operand,
        # a unary minus included, needs its parentheses.
        operand = _expr(expr.operand, 8)
        if isinstance(expr.operand, ast.Unary) and not operand.startswith("("):
            operand = f"({operand})"
        return f"{operand} COLLATE {expr.collation}"
    if isinstance(expr, ast.CaseWhen):
        parts = ["CASE"]
        for condition, value in expr.branches:
            parts.append(f"WHEN {_expr(condition)} THEN {_expr(value)}")
        if expr.otherwise is not None:
            parts.append(f"ELSE {_expr(expr.otherwise)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"unknown expression {type(expr).__name__}")
