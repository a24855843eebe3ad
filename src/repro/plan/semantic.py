"""Semantic preference optimization: constraint-driven winnow rewrites.

Chomicki (*Semantic optimization of preference queries*) observed that
integrity constraints let a preference planner do strictly better than
generic cost-based choice: a constraint can prove a winnow *redundant*
(every candidate is maximal, or at most one candidate survives the hard
conditions), prove a preference *dimension* constant over the candidate
set (shrinking the dominance test), or prove the whole preference a
*weak order* over the constrained domain — in which case the BMO set is
simply the rank-vector minimum and one host-side ordered scan replaces
the quadratic dominance test entirely.

This pass runs *before* strategy pricing (see
:func:`repro.plan.planner.plan_statement`): a fired rewrite replaces the
NOT EXISTS text of the ``rewrite`` strategy and re-prices it, so the
cost model compares the semantic plan against the in-memory skylines on
equal footing.  The rules, in the order they are tried:

1. **winnow-eliminated (keyed selection)** — the WHERE equality
   conjuncts (closed under functional dependencies) pin a whole key, so
   at most one candidate survives and BMO is the identity: the
   PREFERRING clause is dropped.
2. **winnow-eliminated (constant preference)** — every preference
   dimension is constant over the candidate set (operand columns pinned
   by WHERE equalities, singleton CHECK domains, or FDs), so no
   candidate dominates another: the PREFERRING clause is dropped.
3. **dimension reduction** — some dimensions are constant: they are
   removed from the Pareto/cascade tree (a dimension on which all
   candidates tie contributes nothing to dominance) and the smaller
   tree is planned normally.
4. **weak-order single pass** — the (possibly reduced) tree is a
   cascade of weak-order bases with SQL rank forms, and every operand
   column is proven NOT NULL (and numeric, for numeric bases): the BMO
   set is exactly the rows whose rank vector equals the lexicographic
   minimum, computed host-side by one ordered scan (row-value
   comparison against an ``ORDER BY … LIMIT 1`` sub-select).  When the
   first rank is LOWEST/HIGHEST of a key column the winner is provably
   unique and the scan degenerates to ``ORDER BY … LIMIT 1``.

Soundness preconditions are checked per rule and every constraint that
justified a fired rewrite is reported — with its provenance (declared /
schema / observed) — in the ``constraints used`` row of ``EXPLAIN
PREFERENCE``.  Observed constraints are data_version-scoped (see
:mod:`repro.plan.constraints`), so DML that breaks one also retires
every plan it justified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Protocol

from repro.model.builder import build_preference
from repro.model.categorical import LayeredPreference
from repro.model.composite import PrioritizationPreference
from repro.model.numeric import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.model.preference import Preference, WeakOrderBase
from repro.model.quality import QUALITY_FUNCTIONS
from repro.model.text import ContainsPreference
from repro.plan.constraints import TableConstraints
from repro.rewrite.levels import pushdown_rank_expressions
from repro.sql import ast
from repro.sql.printer import to_sql

#: Weak-order bases whose rank is a *numeric* function of the operand;
#: their SQL rank form sorts text values lexicographically while the
#: in-memory rank treats them as incomparable, so the single-pass rule
#: demands a numeric-type proof for every operand column.
_NUMERIC_LEAVES = (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)


class ConstraintProvider(Protocol):
    """What the semantic pass needs from a constraint source."""

    def for_table(self, table: str) -> TableConstraints: ...

    def observed_fd(
        self, table: str, lhs: tuple[str, ...], rhs: str
    ) -> bool: ...

    def observed_key(self, table: str, columns: tuple[str, ...]) -> bool: ...

    def observed_not_null(self, table: str, column: str) -> bool: ...

    def observed_numeric(self, table: str, column: str) -> bool: ...


@dataclass(frozen=True)
class SemanticRewrite:
    """Outcome of the semantic pass for one SELECT.

    ``select`` is the statement the planner should continue with: the
    original minus dropped dimensions, or minus the whole PREFERRING
    clause for the winnow-elimination rules.  ``single_pass_sql`` (when
    set) is the complete host-side replacement text the ``rewrite``
    strategy executes instead of the NOT EXISTS anti-join.
    """

    rule: str
    select: ast.Select
    single_pass_sql: str | None
    sort_keys: int
    scans: int
    winners: str  # 'one' | 'all' | 'skyline'
    constraints_used: tuple[str, ...]
    original_preference: str
    original_dimensions: int
    notes: tuple[str, ...] = ()


def semantic_rewrite(
    select: ast.Select,
    term: ast.PrefTerm,
    constraints: ConstraintProvider,
) -> SemanticRewrite | None:
    """Try the semantic rules on one SELECT; None when nothing fires.

    ``term`` is the PREFERRING clause with named preferences already
    inlined (the planner resolves them; this module never touches the
    catalog).  The analysis never executes the query — only bounded
    constraint probes through ``constraints``.
    """
    if select.preferring is None or select.but_only is not None:
        return None
    if len(select.sources) != 1 or not isinstance(
        select.sources[0], ast.TableRef
    ):
        return None
    source = select.sources[0]
    if _query_blockers(select):
        return None
    table = source.name.lower()
    bindings = {source.binding.lower(), table}
    used: set[str] = set()
    catalog = constraints.for_table(table)

    unit_columns: dict[int, set[str]] = {}
    units = list(_units(term))
    for unit in units:
        columns = _unit_columns(unit, bindings)
        if columns is None:
            return None
        unit_columns[id(unit)] = columns

    fixed = _fixed_columns(select.where, bindings, catalog)
    original_preference = to_sql(select.preferring)

    def ensure_fixed(column: str) -> bool:
        if column in fixed:
            return True
        if not fixed:
            return False
        lhs = tuple(sorted(fixed))
        if constraints.observed_fd(table, lhs, column):
            fixed[column] = (
                f"fd({', '.join(lhs)} -> {column}) [observed]",
            )
            return True
        return False

    constant = [
        all(ensure_fixed(column) for column in unit_columns[id(unit)])
        for unit in units
    ]

    def labels_of(columns: Iterator[str] | set[str]) -> None:
        for column in columns:
            used.update(fixed.get(column, ()))

    def eliminated(rule: str, winners: str) -> SemanticRewrite:
        reduced = replace(select, preferring=None, grouping=())
        return SemanticRewrite(
            rule=rule,
            select=reduced,
            single_pass_sql=to_sql(reduced),
            sort_keys=0,
            scans=1,
            winners=winners,
            constraints_used=tuple(sorted(used)),
            original_preference=original_preference,
            original_dimensions=len(units),
        )

    # Rule 1: a pinned key admits at most one candidate row.
    for key_columns, provenance in catalog.keys:
        if all(column in fixed for column in key_columns):
            used.add(f"key({', '.join(key_columns)}) [{provenance}]")
            labels_of(key_columns)
            return eliminated("winnow-eliminated (keyed selection)", "one")

    # Rule 2: every dimension constant — winnow is the identity.
    if all(constant):
        for unit in units:
            labels_of(unit_columns[id(unit)])
        return eliminated("winnow-eliminated (constant preference)", "all")

    # Rule 3: drop the constant dimensions from the tree.
    dropped = sum(constant)
    if dropped:
        for unit, is_constant in zip(units, constant):
            if is_constant:
                labels_of(unit_columns[id(unit)])
        reduced_term = _reduce(term, fixed, bindings)
        assert reduced_term is not None  # not all units were constant
    else:
        reduced_term = term

    reduction_rule = (
        f"dimension reduction ({dropped} of {len(units)} dimensions constant)"
    )

    def reduction_only() -> SemanticRewrite | None:
        if not dropped:
            return None
        return SemanticRewrite(
            rule=reduction_rule,
            select=replace(select, preferring=reduced_term),
            single_pass_sql=None,
            sort_keys=0,
            scans=0,
            winners="skyline",
            constraints_used=tuple(sorted(used)),
            original_preference=original_preference,
            original_dimensions=len(units),
        )

    # Rule 4: weak-order single pass over the (reduced) tree.
    if select.grouping or select.group_by or select.having:
        return reduction_only()
    try:
        preference = build_preference(reduced_term)
    except Exception:  # construction errors surface on the normal path
        return reduction_only()
    if not _is_weak_order(preference):
        return reduction_only()
    ranks = pushdown_rank_expressions(preference)
    if ranks is None:
        return reduction_only()

    single_used: set[str] = set()

    def prove_not_null(column: str) -> bool:
        provenance = catalog.not_null.get(column)
        if provenance is not None:
            single_used.add(f"not null({column}) [{provenance}]")
            return True
        if constraints.observed_not_null(table, column):
            single_used.add(f"not null({column}) [observed]")
            return True
        return False

    def prove_numeric(column: str) -> bool:
        provenance = catalog.numeric.get(column)
        if provenance is not None:
            single_used.add(f"numeric({column}) [{provenance}]")
            return True
        domain = catalog.domains.get(column)
        if domain is not None and domain[0] and all(
            isinstance(value, (int, float)) for value in domain[0]
        ):
            single_used.add(f"domain({column}) [{domain[1]}]")
            return True
        if constraints.observed_numeric(table, column):
            single_used.add(f"numeric({column}) [observed]")
            return True
        return False

    leaves = list(preference.iter_base())
    for leaf in leaves:
        if isinstance(leaf, ContainsPreference):
            return reduction_only()  # text matching stays out of the single pass
        numeric_leaf = isinstance(leaf, _NUMERIC_LEAVES)
        for operand in leaf.operands:
            if numeric_leaf:
                if not _simple_arithmetic(operand):
                    return reduction_only()
            elif not isinstance(operand, (ast.Column, ast.Literal)):
                return reduction_only()
            for node in ast.walk_expr(operand):
                if not isinstance(node, ast.Column):
                    continue
                column = node.name.lower()
                if not prove_not_null(column):
                    return reduction_only()
                if numeric_leaf and not prove_numeric(column):
                    return reduction_only()
    used.update(single_used)

    # Variant: LOWEST/HIGHEST of a key column has a provably unique
    # winner — the scan degenerates to ORDER BY … LIMIT 1.
    single_winner = False
    if not select.order_by and select.limit is None and select.offset is None:
        first = leaves[0]
        if (
            isinstance(first, (LowestPreference, HighestPreference))
            and len(first.operands) == 1
            and isinstance(first.operands[0], ast.Column)
        ):
            column = first.operands[0].name.lower()
            for key_columns, provenance in catalog.keys:
                if key_columns == (column,):
                    used.add(f"key({column}) [{provenance}]")
                    single_winner = True
                    break
            else:
                if constraints.observed_key(table, (column,)):
                    used.add(f"key({column}) [observed]")
                    single_winner = True

    sql = _single_pass_sql(select, source, ranks, single_winner)
    rule = "weak-order single pass"
    if single_winner:
        rule += " (keyed single winner)"
    if dropped:
        rule = f"dimension reduction + {rule}"
    return SemanticRewrite(
        rule=rule,
        select=replace(select, preferring=reduced_term),
        single_pass_sql=sql,
        sort_keys=len(ranks),
        scans=1 if single_winner else 2,
        winners="one" if single_winner else "skyline",
        constraints_used=tuple(sorted(used)),
        original_preference=original_preference,
        original_dimensions=len(units),
    )


# ----------------------------------------------------------------------
# Preconditions and structural helpers


def _query_blockers(select: ast.Select) -> bool:
    """Parameters or quality-function calls anywhere in the block.

    LEVEL/DISTANCE/TOP adornments need the engine's quality resolver, so
    no host-only rewrite can serve them; '?' parameters would be printed
    into SQL text the rewrite executes without bindings.
    """
    exprs: list[ast.Expr] = [
        item.expr for item in select.items if isinstance(item, ast.SelectItem)
    ]
    if select.where is not None:
        exprs.append(select.where)
    exprs.extend(item.expr for item in select.order_by)
    exprs.extend(select.group_by)
    if select.having is not None:
        exprs.append(select.having)
    if select.limit is not None:
        exprs.append(select.limit)
    if select.offset is not None:
        exprs.append(select.offset)
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.Param):
                return True
            if (
                isinstance(node, ast.FuncCall)
                and node.name in QUALITY_FUNCTIONS
            ):
                return True
    return False


def _units(term: ast.PrefTerm) -> Iterator[ast.PrefTerm]:
    """The dominance dimensions: Pareto/cascade parts, ELSE kept atomic
    (an ELSE chain builds to a single layered weak order)."""
    if isinstance(term, (ast.ParetoPref, ast.CascadePref)):
        for part in term.parts:
            yield from _units(part)
    else:
        yield term


def _unit_columns(
    unit: ast.PrefTerm, bindings: set[str]
) -> set[str] | None:
    """Columns one dimension depends on; None when un-analyzable
    (parameters, sub-queries, quality calls, foreign qualifiers)."""
    columns: set[str] = set()
    for node in ast.walk(unit, (ast.PrefTerm, ast.Expr)):
        if isinstance(node, ast.NamedPref):
            return None  # caller inlines; a survivor means no resolver
        if isinstance(node, (ast.Param, *ast.SUBQUERIES)):
            return None
        if isinstance(node, ast.FuncCall) and node.name in QUALITY_FUNCTIONS:
            return None
        if isinstance(node, ast.Column):
            if node.table and node.table.lower() not in bindings:
                return None
            columns.add(node.name.lower())
    return columns


def _fixed_columns(
    where: ast.Expr | None,
    bindings: set[str],
    catalog: TableConstraints,
) -> dict[str, tuple[str, ...]]:
    """Columns provably constant over the candidate set.

    Maps each column to the ``constraints used`` labels that justify it
    (empty for plain WHERE equality pins).  Sources: ``col = literal``
    equality conjuncts (NULL rows fail the comparison, so no NOT NULL
    proof is needed), singleton CHECK domains of NOT NULL columns (a
    sqlite CHECK passes on NULL, hence the extra proof), and the
    declared-FD closure of those.
    """
    fixed: dict[str, tuple[str, ...]] = {}
    for conjunct in _conjuncts(where):
        column = _pinned_column(conjunct, bindings)
        if column is not None:
            fixed.setdefault(column, ())
    for column, (values, provenance) in catalog.domains.items():
        if len(values) == 1 and column in catalog.not_null:
            fixed.setdefault(
                column,
                (
                    f"domain({column}) [{provenance}]",
                    f"not null({column}) [{catalog.not_null[column]}]",
                ),
            )
    changed = True
    while changed:
        changed = False
        for lhs, rhs, provenance in catalog.fds:
            if all(column in fixed for column in lhs):
                label = (
                    f"fd({', '.join(lhs)} -> {', '.join(rhs)}) [{provenance}]"
                )
                justification = tuple(
                    dict.fromkeys(
                        label
                        for column in lhs
                        for label in fixed[column]
                    )
                ) + (label,)
                for column in rhs:
                    if column not in fixed:
                        fixed[column] = justification
                        changed = True
    return fixed


def _conjuncts(expr: ast.Expr | None) -> Iterator[ast.Expr]:
    if expr is None:
        return
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _pinned_column(expr: ast.Expr, bindings: set[str]) -> str | None:
    if not (isinstance(expr, ast.Binary) and expr.op == "="):
        return None
    column, literal = expr.left, expr.right
    if isinstance(column, ast.Literal) and isinstance(literal, ast.Column):
        column, literal = literal, column
    if not (isinstance(column, ast.Column) and isinstance(literal, ast.Literal)):
        return None
    if column.table and column.table.lower() not in bindings:
        return None
    if literal.value is None:
        return None  # col = NULL matches nothing; candidates are empty
    return column.name.lower()


def _reduce(
    term: ast.PrefTerm,
    fixed: dict[str, tuple[str, ...]],
    bindings: set[str],
) -> ast.PrefTerm | None:
    """``term`` minus its constant dimensions (None if all constant)."""
    if isinstance(term, (ast.ParetoPref, ast.CascadePref)):
        parts = [
            reduced
            for part in term.parts
            if (reduced := _reduce(part, fixed, bindings)) is not None
        ]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return type(term)(parts=tuple(parts))
    columns = _unit_columns(term, bindings)
    if columns is not None and all(column in fixed for column in columns):
        return None
    return term


def _is_weak_order(preference: Preference) -> bool:
    """Is the whole tree a weak order (total, rankable) by construction?

    Weak-order bases and layered (ELSE/POS/NEG) preferences are weak
    orders; a cascade of weak orders is the lexicographic composition,
    itself a weak order.  Pareto composition, EXPLICIT partial orders
    and custom preferences are not.
    """
    if isinstance(preference, PrioritizationPreference):
        return all(_is_weak_order(part) for part in preference.children())
    if isinstance(preference, (WeakOrderBase, LayeredPreference)):
        return True
    return False


def _simple_arithmetic(expr: ast.Expr) -> bool:
    """Columns, numeric literals and +,-,* over them: expressions whose
    host arithmetic provably matches the engine's float ranks (division
    is excluded — sqlite divides integers integrally)."""
    if isinstance(expr, ast.Column):
        return True
    if isinstance(expr, ast.Literal):
        return isinstance(expr.value, (int, float)) and not isinstance(
            expr.value, bool
        )
    if isinstance(expr, ast.Unary) and expr.op in ("-", "+"):
        return _simple_arithmetic(expr.operand)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*"):
        return _simple_arithmetic(expr.left) and _simple_arithmetic(expr.right)
    return False


# ----------------------------------------------------------------------
# SQL synthesis


def _single_pass_sql(
    select: ast.Select,
    source: ast.TableRef,
    ranks: tuple[ast.Expr, ...],
    single_winner: bool,
) -> str:
    """The host-side replacement query for the weak-order single pass.

    General form (ties kept): a row-value comparison filters the scan to
    the rows whose rank vector equals the lexicographic minimum found by
    an ``ORDER BY … LIMIT 1`` sub-select; the original projection,
    DISTINCT, ORDER BY and LIMIT apply on top, exactly where the engine
    would apply them (after the winnow).  Keyed single winner: the
    minimum row *is* the result, so one ordered scan suffices.
    """
    rank_sqls = [to_sql(rank) for rank in ranks]
    if single_winner:
        head = to_sql(
            replace(
                select,
                preferring=None,
                grouping=(),
                order_by=(),
                limit=None,
                offset=None,
            )
        )
        return f"{head} ORDER BY {', '.join(rank_sqls)} LIMIT 1"
    source_sql = source.name + (f" AS {source.alias}" if source.alias else "")
    where_sql = to_sql(select.where) if select.where is not None else None
    inner = f"SELECT {', '.join(rank_sqls)} FROM {source_sql}"
    if where_sql:
        inner += f" WHERE {where_sql}"
    ordinals = ", ".join(str(i + 1) for i in range(len(rank_sqls)))
    inner += f" ORDER BY {ordinals} LIMIT 1"
    head = to_sql(
        replace(
            select,
            preferring=None,
            grouping=(),
            where=None,
            order_by=(),
            limit=None,
            offset=None,
        )
    )
    sql = f"{head} WHERE "
    if where_sql:
        sql += f"({where_sql}) AND "
    sql += f"({', '.join(rank_sqls)}) = ({inner})"
    if select.order_by:
        rendered = ", ".join(
            to_sql(item.expr) + (" DESC" if item.descending else "")
            for item in select.order_by
        )
        sql += f" ORDER BY {rendered}"
    if select.limit is not None:
        sql += f" LIMIT {to_sql(select.limit)}"
        if select.offset is not None:
            sql += f" OFFSET {to_sql(select.offset)}"
    return sql
