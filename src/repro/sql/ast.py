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

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Union, get_args, get_type_hints

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
#
# The node classes are the one description of the tree's shape: a field
# whose annotation names a node class (alone, in a tuple or a union) holds
# children, every other field is data.  ``walk`` and ``transform`` read
# that table, so a new node class needs no traversal code of its own.

#: The expressions that hold a SELECT; ``walk_expr`` and ``substitute``
#: stop at them.
SUBQUERIES = (InSubquery, Exists, ScalarSubquery)

#: The shapes of a FROM source, to ``walk`` a join tree without its
#: conditions or derived tables' queries.
FROM_SOURCES = (TableRef, SubquerySource, Join)

#: The composite preference terms, whose parts are preference terms.
COMPOSITES = (ElsePref, ParetoPref, CascadePref)

#: Per node class: the names of its fields that can hold nodes, and of
#: all its fields (the constructor's arguments, in order).
_CHILDREN: dict[type, tuple[str, ...]] = {}
_FIELDS: dict[type, tuple[str, ...]] = {}


def _child_fields(cls: type) -> tuple[str, ...]:
    """Read a node class's shape off its annotations, once."""
    hints = get_type_hints(cls)
    _FIELDS[cls] = tuple(field.name for field in fields(cls))
    _CHILDREN[cls] = tuple(name for name in _FIELDS[cls] if _holds_nodes(hints[name]))
    return _CHILDREN[cls]


def _holds_nodes(hint: object) -> bool:
    if isinstance(hint, type) and issubclass(hint, Node):
        return True
    return any(_holds_nodes(arg) for arg in get_args(hint))


def _gather(value: tuple, into: type | tuple[type, ...], out: list[Node]) -> None:
    for item in value:
        if isinstance(item, into):
            out.append(item)
        elif type(item) is tuple:
            _gather(item, into, out)


def walk(node: Node, into: type | tuple[type, ...] = Node) -> Iterator[Node]:
    """Yield ``node`` and the nodes beneath it, pre-order in field order.

    Only children that are instances of ``into`` are visited (and
    entered): ``walk(select)`` sees every node of a statement,
    ``walk(expr, Expr)`` stops at a sub-query's SELECT.
    """
    stack = [node]
    pop, children_of = stack.pop, _CHILDREN.get
    while stack:
        node = pop()
        yield node
        names = children_of(type(node))
        if names is None:
            names = _child_fields(type(node))
        if not names:
            continue
        children: list[Node] = []
        for name in names:
            value = getattr(node, name)
            if isinstance(value, into):
                children.append(value)
            elif type(value) is tuple:
                _gather(value, into, children)
        if children:
            children.reverse()
            stack += children


def transform(node: Node, fn: Callable[[Node], Node | None]) -> Node:
    """Rebuild ``node`` through ``fn``.

    ``fn`` sees each node top-down and returns its replacement, which is
    not entered, or None to keep the node and transform its children.  A
    subtree in which nothing changed comes back as the same object.
    """
    replacement = fn(node)
    if replacement is not None:
        return replacement
    cls = type(node)
    names = _CHILDREN.get(cls)
    if names is None:
        names = _child_fields(cls)
    changed: dict[str, object] | None = None
    for name in names:
        value = getattr(node, name)
        if isinstance(value, Node):
            rebuilt: object = transform(value, fn)
        elif type(value) is tuple:
            rebuilt = _transform_tuple(value, fn)
        else:
            continue
        if rebuilt is not value:
            if changed is None:
                changed = {}
            changed[name] = rebuilt
    if changed is None:
        return node
    return cls(
        *[changed[name] if name in changed else getattr(node, name) for name in _FIELDS[cls]]
    )


def _transform_tuple(value: tuple, fn: Callable[[Node], Node | None]) -> tuple:
    items = [
        transform(item, fn) if isinstance(item, Node)
        else _transform_tuple(item, fn) if type(item) is tuple
        else item
        for item in value
    ]
    for new, old in zip(items, value):
        if new is not old:
            return tuple(items)
    return value


def walk_expr(expr: Expr) -> Iterator[Node]:
    """Yield ``expr`` and all expression nodes beneath it (pre-order),
    without entering sub-queries."""
    return walk(expr, Expr)


def walk_pref(term: PrefTerm) -> Iterator[Node]:
    """Yield ``term`` and all preference terms beneath it (pre-order)."""
    return walk(term, PrefTerm)


def substitute(expr: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Return ``expr`` with every node found in ``mapping`` replaced.

    Matching is structural (nodes are frozen dataclasses); replacement
    happens top-down, so a mapped node's children are not visited, nor
    are sub-queries.  Used by the engine and the rewriter to swap
    quality-function calls for computed columns.
    """
    if not mapping:
        return expr

    def swap(node: Node) -> Node | None:
        found = mapping.get(node)
        if found is None and isinstance(node, SUBQUERIES):
            return node
        return found

    return transform(expr, swap)
