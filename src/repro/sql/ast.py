"""AST nodes for the Preference SQL dialect.

Three node families:

* **Expressions** — ordinary SQL scalar/boolean expressions.  Shared by the
  WHERE clause, the select list, BUT ONLY conditions and the operands of
  base preferences.
* **Preference terms** — the contents of a PREFERRING clause.  These are
  *not* boolean expressions: ``AND`` there denotes Pareto accumulation and
  ``ELSE`` layers POS/NEG-style alternatives (paper section 2.2.2).
* **Statements** — SELECT (the full Preference SQL query block), INSERT,
  and the Preference Definition Language (CREATE/DROP PREFERENCE).

All nodes are frozen dataclasses: the rewriter clones and transforms trees,
so immutability keeps sharing safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ----------------------------------------------------------------------
# Expressions


class Node:
    """Marker base class for all AST nodes."""

    __slots__ = ()


class Expr(Node):
    """Marker base class for scalar/boolean expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean or NULL (value=None)."""

    value: Union[int, float, str, bool, None]


@dataclass(frozen=True)
class Column(Expr):
    """A possibly qualified column reference such as ``a.price``."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        """The display form, e.g. ``cars.price`` or ``price``."""
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    table: str | None = None


@dataclass(frozen=True)
class Param(Expr):
    """A ``?`` placeholder; ``index`` is its 0-based position in the text."""

    index: int


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operator application: ``-x``, ``+x`` or ``NOT x``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator application.

    ``op`` covers arithmetic (``+ - * / %``), comparisons
    (``= <> < <= > >=``), the NULL-safe equality ``IS``, ``LIKE``, string
    concatenation ``||`` and the boolean connectives ``AND`` / ``OR``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal/scalar items."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expr
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class BetweenExpr(Expr):
    """Standard SQL ``expr [NOT] BETWEEN low AND high`` (WHERE context)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesised SELECT used as a scalar value."""

    query: "Select"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call ``name(arg, ...)``; ``name`` is stored uppercase.

    The quality functions TOP/LEVEL/DISTANCE parse as FuncCall and are
    resolved against the PREFERRING clause by the planner.
    """

    name: str
    args: tuple[Expr, ...]
    star: bool = False  # COUNT(*)


@dataclass(frozen=True)
class Cast(Expr):
    """``CAST(expr AS type)``; ``type_name`` is stored uppercase.

    The rank expressions use ``CAST(x AS NUMERIC) = x`` to ask the host
    whether ``x`` is a number or text that spells one.
    """

    operand: Expr
    type_name: str


@dataclass(frozen=True)
class Collate(Expr):
    """``expr COLLATE name``; ``collation`` is stored uppercase.

    Grouping keys compare ``COLLATE BINARY``, as the engine groups them,
    whatever collation their column declares.
    """

    operand: Expr
    collation: str


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END`` (searched form)."""

    branches: tuple[tuple[Expr, Expr], ...]
    otherwise: Expr | None = None


# ----------------------------------------------------------------------
# Preference terms (contents of PREFERRING / CREATE PREFERENCE ... AS)


class PrefTerm(Node):
    """Marker base class for preference terms."""

    __slots__ = ()


@dataclass(frozen=True)
class AroundPref(PrefTerm):
    """``expr AROUND value`` — favour values close to a numeric target."""

    operand: Expr
    target: Expr


@dataclass(frozen=True)
class BetweenPref(PrefTerm):
    """``expr BETWEEN low, up`` — favour values inside the interval.

    Outside the interval, closer to the nearer limit is better.
    """

    operand: Expr
    low: Expr
    high: Expr


@dataclass(frozen=True)
class LowestPref(PrefTerm):
    """``LOWEST(expr)`` — smaller values are better."""

    operand: Expr


@dataclass(frozen=True)
class HighestPref(PrefTerm):
    """``HIGHEST(expr)`` — larger values are better."""

    operand: Expr


@dataclass(frozen=True)
class PosPref(PrefTerm):
    """``expr IN (v1, ...)`` or ``expr = v`` — favoured value set."""

    operand: Expr
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class NegPref(PrefTerm):
    """``expr NOT IN (v1, ...)`` or ``expr <> v`` — disliked value set."""

    operand: Expr
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class ContainsPref(PrefTerm):
    """``expr CONTAINS 'w1 w2 ...'`` — simple full-text preference.

    Tuples containing more of the query terms are better (cmp. [LeK99]).
    """

    operand: Expr
    terms: Expr


@dataclass(frozen=True)
class ExplicitPref(PrefTerm):
    """``EXPLICIT(expr, 'a' > 'b', ...)`` — finite better-than relation.

    Each pair states "left is better than right".  The induced order is the
    transitive closure; the model layer rejects cyclic inputs because they
    would violate the strict-partial-order requirement.
    """

    operand: Expr
    pairs: tuple[tuple[Expr, Expr], ...]


@dataclass(frozen=True)
class ScorePref(PrefTerm):
    """``SCORE(expr)`` — numerical ranking, higher score is better.

    An extension flagged in the paper's outlook ("an even richer preference
    type system (including numerical ranking)", section 5).
    """

    operand: Expr


@dataclass(frozen=True)
class NamedPref(PrefTerm):
    """``PREFERENCE name`` — reference to a catalog-stored preference."""

    name: str


@dataclass(frozen=True)
class ElsePref(PrefTerm):
    """Layered alternatives: ``p1 ELSE p2 [ELSE ...]``.

    Models the paper's POS/POS and POS/NEG combinations, e.g.
    ``color = 'white' ELSE color = 'yellow'`` or
    ``category = 'roadster' ELSE category <> 'passenger'``.
    """

    parts: tuple[PrefTerm, ...]


@dataclass(frozen=True)
class ParetoPref(PrefTerm):
    """Pareto accumulation: ``p1 AND p2 [AND ...]`` — equal importance."""

    parts: tuple[PrefTerm, ...]


@dataclass(frozen=True)
class CascadePref(PrefTerm):
    """Cascade (prioritisation): ``p1 CASCADE p2`` — ordered importance.

    ``,`` is an accepted synonym for ``CASCADE`` (paper section 2.2.2).
    """

    parts: tuple[PrefTerm, ...]


# ----------------------------------------------------------------------
# Statements


class Statement(Node):
    """Marker base class for statements."""

    __slots__ = ()


@dataclass(frozen=True)
class SelectItem(Node):
    """One select-list entry: an expression with an optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef(Node):
    """A base table reference ``name [AS alias]`` in the FROM clause."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name the table is visible under in the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubquerySource(Node):
    """A derived table ``(SELECT ...) AS alias`` in the FROM clause."""

    query: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(Node):
    """``left <kind> JOIN right [ON condition]``."""

    kind: str  # "INNER", "LEFT", "CROSS"
    left: "FromSource"
    right: "FromSource"
    condition: Expr | None = None

    @property
    def binding(self) -> str:  # pragma: no cover - joins have no single name
        raise AttributeError("a join has no single binding name")


FromSource = Union[TableRef, SubquerySource, Join]


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY entry."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class CommonTable(Node):
    """One ``name AS [MATERIALIZED] (SELECT ...)`` entry of a WITH prologue.

    The rewriter emits one to compute every rank once per row (the paper's
    auxiliary view ``Aux`` of section 3.2, inside a single statement);
    ``MATERIALIZED`` stops the host from inlining it back into each use.
    """

    name: str
    query: "Select"
    materialized: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """The full Preference SQL query block (paper section 2.2.5).

    ``preferring``, ``grouping`` and ``but_only`` are the Preference SQL
    extensions; when all three are None this is a plain SQL SELECT.
    ``ctes`` is the ``WITH`` prologue, which only plain SQL may carry.
    """

    items: tuple[SelectItem | Star, ...]
    sources: tuple[FromSource, ...]
    where: Expr | None = None
    preferring: PrefTerm | None = None
    grouping: tuple[Column, ...] = ()
    but_only: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None
    distinct: bool = False
    ctes: tuple[CommonTable, ...] = ()

    @property
    def is_preference_query(self) -> bool:
        """True when the block uses any Preference SQL extension."""
        return self.preferring is not None


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table [(cols)] VALUES (...) | SELECT ...``.

    Preference SQL queries "can also be invoked as sub-queries of INSERT
    statements" (paper section 2.2.5), so ``query`` may carry PREFERRING.
    """

    table: str
    columns: tuple[str, ...] = ()
    values: tuple[tuple[Expr, ...], ...] = ()
    query: Select | None = None

    @property
    def is_preference_query(self) -> bool:
        """True when the inserted rows come from a preference query."""
        return self.query is not None and self.query.is_preference_query


@dataclass(frozen=True)
class CreatePreference(Statement):
    """PDL: ``CREATE PREFERENCE name ON table AS <preference term>``."""

    name: str
    table: str
    term: PrefTerm


@dataclass(frozen=True)
class DropPreference(Statement):
    """PDL: ``DROP PREFERENCE name``."""

    name: str


@dataclass(frozen=True)
class CreatePreferenceView(Statement):
    """PDL: ``CREATE PREFERENCE VIEW name AS <select>``.

    The view's BMO result is materialized into a backing table (named
    after the view) and maintained by the driver when DML touches the
    base tables — incrementally where the dominance structure allows it,
    by flagged full recompute otherwise (see
    :mod:`repro.engine.incremental`).
    """

    name: str
    query: "Select"


@dataclass(frozen=True)
class DropPreferenceView(Statement):
    """PDL: ``DROP PREFERENCE VIEW name`` — drops view and backing table."""

    name: str


@dataclass(frozen=True)
class CreatePreferenceConstraint(Statement):
    """PDL: declare an integrity constraint for semantic optimization.

    Four forms, mirroring the constraint classes Chomicki's semantic
    optimization consumes::

        CREATE PREFERENCE CONSTRAINT name ON table KEY (col, ...)
        CREATE PREFERENCE CONSTRAINT name ON table NOT NULL (col, ...)
        CREATE PREFERENCE CONSTRAINT name ON table CHECK (expr)
        CREATE PREFERENCE CONSTRAINT name ON table FD (col, ...) DETERMINES (col, ...)

    Declared constraints are *trusted*: the planner uses them without
    re-verifying against the data (unlike "observed" constraints, which
    are statistics-proven and data_version-scoped).
    """

    name: str
    table: str
    kind: str  # "key" | "not_null" | "check" | "fd"
    columns: tuple[str, ...] = ()
    determines: tuple[str, ...] = ()
    check: Expr | None = None


@dataclass(frozen=True)
class DropPreferenceConstraint(Statement):
    """PDL: ``DROP PREFERENCE CONSTRAINT name``."""

    name: str


@dataclass(frozen=True)
class ExplainPreference(Statement):
    """``EXPLAIN PREFERENCE <select|insert>`` — plan inspection.

    Executing it never touches user data: the wrapped statement is parsed,
    parameters bound and handed to the cost-based planner, and the chosen
    strategy, per-step cost estimates and the rewritten SQL come back as a
    two-column result relation (see :mod:`repro.plan.explain`).
    """

    statement: "Select | Insert"


# ----------------------------------------------------------------------
# Tree utilities


def walk_expr(expr: Expr):
    """Yield ``expr`` and all expression nodes beneath it (pre-order)."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, InList):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, InSubquery):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, BetweenExpr):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.low)
        yield from walk_expr(expr.high)
    elif isinstance(expr, (IsNull, Cast, Collate)):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, CaseWhen):
        for condition, value in expr.branches:
            yield from walk_expr(condition)
            yield from walk_expr(value)
        if expr.otherwise is not None:
            yield from walk_expr(expr.otherwise)


def walk_pref(term: PrefTerm):
    """Yield ``term`` and all preference terms beneath it (pre-order)."""
    yield term
    if isinstance(term, (ElsePref, ParetoPref, CascadePref)):
        for part in term.parts:
            yield from walk_pref(part)


def base_terms(term: PrefTerm) -> list[PrefTerm]:
    """All non-composite preference terms in ``term``, left to right."""
    return [
        node
        for node in walk_pref(term)
        if not isinstance(node, (ParetoPref, CascadePref, ElsePref))
    ]


def substitute(expr: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Return ``expr`` with every node found in ``mapping`` replaced.

    Matching is structural (nodes are frozen dataclasses); replacement
    happens top-down, so a mapped node's children are not visited.  Used by
    the engine and the rewriter to swap quality-function calls for computed
    columns.
    """
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, Unary):
        return Unary(op=expr.op, operand=substitute(expr.operand, mapping))
    if isinstance(expr, Binary):
        return Binary(
            op=expr.op,
            left=substitute(expr.left, mapping),
            right=substitute(expr.right, mapping),
        )
    if isinstance(expr, InList):
        return InList(
            operand=substitute(expr.operand, mapping),
            items=tuple(substitute(item, mapping) for item in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, BetweenExpr):
        return BetweenExpr(
            operand=substitute(expr.operand, mapping),
            low=substitute(expr.low, mapping),
            high=substitute(expr.high, mapping),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(operand=substitute(expr.operand, mapping), negated=expr.negated)
    if isinstance(expr, Cast):
        return Cast(operand=substitute(expr.operand, mapping), type_name=expr.type_name)
    if isinstance(expr, Collate):
        return Collate(operand=substitute(expr.operand, mapping), collation=expr.collation)
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name,
            args=tuple(substitute(arg, mapping) for arg in expr.args),
            star=expr.star,
        )
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            branches=tuple(
                (substitute(cond, mapping), substitute(value, mapping))
                for cond, value in expr.branches
            ),
            otherwise=(
                substitute(expr.otherwise, mapping)
                if expr.otherwise is not None
                else None
            ),
        )
    return expr
