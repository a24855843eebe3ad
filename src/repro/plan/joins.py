"""Join-aware preference planning: the in-memory join scan.

The paper's Preference SQL Optimizer rewrites the *full* SQL92 query
block, joins included; until this module existed, the in-memory fast
paths of :mod:`repro.plan.planner` were confined to single-table FROM
clauses and every join was forced through the quadratic ``NOT EXISTS``
anti-join.  The **join scan** (:func:`build_join_scan` /
:func:`join_memory_parts`) lifts that restriction: the host database is
already the right place to execute a join, so the hard-condition
pushdown simply ships the whole multi-table FROM.  The scan SELECT
projects every column of every joined table under a *flattened*
(collision-free) alias, sqlite materialises the joined candidate rows,
and the residual preference block is requalified onto one synthetic
single-table relation the engine evaluates exactly like any pushdown
result — columnar kernels, SQL rank pushdown and GROUPING fast paths
included.

The module also owns :func:`estimation_predicate`, which folds explicit
``JOIN … ON`` conditions into the WHERE conjunction so comma-join lists
and JOIN syntax price identically (they are the same query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import PlanError
from repro.model.builder import NameResolver
from repro.model.preference import Preference
from repro.model.quality import result_name
from repro.plan.pivot import ranked_scan_sql
from repro.rewrite.planner import Schema
from repro.sql import ast

#: Registration name of the synthetic single-table relation the residual
#: of a join scan runs over (the joined candidate rows).
JOIN_RELATION = "__pref_join"


@dataclass(frozen=True)
class JoinSource:
    """One base table of a multi-table FROM, with its schema columns."""

    binding: str
    table: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class JoinScan:
    """A join-eligible FROM clause, flattened for the in-memory engine.

    ``flat_names`` maps ``(binding_lower, column_lower)`` to the unique
    output name the scan SELECT aliases that column to; ``owners`` maps
    an unqualified column name to its owning binding when exactly one
    joined table has it (the rewriter rejects genuinely ambiguous
    references before planning reaches this point).
    """

    sources: tuple[JoinSource, ...]
    flat_names: dict[tuple[str, str], str]
    owners: dict[str, str]

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(source.table for source in self.sources)

    def source_for(self, binding: str) -> JoinSource:
        key = binding.lower()
        for source in self.sources:
            if source.binding.lower() == key:
                return source
        raise PlanError(f"unknown table binding {binding!r}")

    def owner_of(self, column: ast.Column) -> str:
        """The binding a column reference belongs to."""
        if column.table is not None:
            return self.source_for(column.table).binding
        owner = self.owners.get(column.name.lower())
        if owner is None:
            raise PlanError(
                f"cannot attribute column {column.name!r} to a joined table"
            )
        return owner

    def flat_name(self, column: ast.Column) -> str:
        binding = self.owner_of(column)
        key = (binding.lower(), column.name.lower())
        if key not in self.flat_names:
            raise PlanError(
                f"unknown column {column.qualified!r} in the join scan"
            )
        return self.flat_names[key]


# ----------------------------------------------------------------------
# FROM-shape analysis


def estimation_predicate(select: ast.Select) -> ast.Expr | None:
    """The WHERE conjunction *plus* every JOIN … ON condition.

    Comma-join lists put the join predicate in WHERE; explicit JOIN
    syntax puts it in the ON clause.  Selectivity estimation must see
    both, or semantically identical queries price differently.  Nested
    queries estimate independently.
    """
    parts = [
        join.condition
        for source in select.sources
        # A join tree leans left: its innermost join comes last pre-order.
        for join in reversed(list(ast.walk(source, ast.FROM_SOURCES)))
        if isinstance(join, ast.Join) and join.condition is not None
    ]
    if select.where is not None:
        parts.append(select.where)
    if not parts:
        return None
    predicate = parts[0]
    for part in parts[1:]:
        predicate = ast.Binary(op="AND", left=predicate, right=part)
    return predicate


def build_join_scan(
    select: ast.Select, schema: Schema | None
) -> tuple[JoinScan | None, str]:
    """Analyse a multi-table FROM into a :class:`JoinScan`, or a reason.

    Requires every source to be a base table (or a join tree of base
    tables) present in ``schema`` — the flattened projection needs the
    column lists.  LEFT joins are scan-eligible: sqlite executes the
    join either way.
    """
    nodes = [
        node for source in select.sources for node in ast.walk(source, ast.FROM_SOURCES)
    ]
    if any(isinstance(node, ast.SubquerySource) for node in nodes):
        return None, "derived tables in FROM need the host database"
    refs = [node for node in nodes if isinstance(node, ast.TableRef)]
    if len(refs) < 2:
        return None, "in-memory evaluation needs base-table sources"
    lowered = {name.lower(): columns for name, columns in (schema or {}).items()}
    sources: list[JoinSource] = []
    for ref in refs:
        columns = lowered.get(ref.name.lower())
        if columns is None:
            return None, (
                f"join pushdown needs schema knowledge of table {ref.name!r}"
            )
        sources.append(
            JoinSource(
                binding=ref.binding, table=ref.name, columns=tuple(columns)
            )
        )

    # Flattened output names: keep a column's own name when it is unique
    # across the whole join, else prefix the binding; a numeric suffix
    # breaks any remaining tie (e.g. a table literally named ``d_k``).
    counts: dict[str, int] = {}
    for source in sources:
        for column in source.columns:
            counts[column.lower()] = counts.get(column.lower(), 0) + 1
    flat_names: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    owners: dict[str, str] = {}
    for source in sources:
        for column in source.columns:
            key = column.lower()
            if counts[key] == 1:
                owners[key] = source.binding
                candidate = column
            else:
                candidate = f"{source.binding}_{column}"
            suffix = 2
            while candidate.lower() in taken:
                candidate = f"{source.binding}_{column}_{suffix}"
                suffix += 1
            taken.add(candidate.lower())
            flat_names[(source.binding.lower(), key)] = candidate
    return (
        JoinScan(sources=tuple(sources), flat_names=flat_names, owners=owners),
        "",
    )


# ----------------------------------------------------------------------
# Residual flattening


def _flatten(node: ast.Node, rename: Callable[[ast.Column], ast.Expr]) -> ast.Node:
    """Rebuild an expression or preference term with every column renamed
    (sub-queries stay as written)."""

    def visit(inner: ast.Node) -> ast.Node | None:
        if isinstance(inner, ast.Column):
            return rename(inner)
        if isinstance(inner, ast.NamedPref):  # pragma: no cover - inlined upstream
            raise PlanError("named preferences must be inlined before flattening")
        return inner if isinstance(inner, ast.SUBQUERIES) else None

    return ast.transform(node, visit)


def _scan_items(scan: JoinScan) -> tuple[ast.SelectItem, ...]:
    """The flattened projection the join scan SELECT ships to sqlite."""
    items: list[ast.SelectItem] = []
    for source in scan.sources:
        for column in source.columns:
            items.append(
                ast.SelectItem(
                    expr=ast.Column(name=column, table=source.binding),
                    alias=scan.flat_names[(source.binding.lower(), column.lower())],
                )
            )
    return tuple(items)


def join_memory_parts(
    select: ast.Select,
    scan: JoinScan,
    resolver: NameResolver | None = None,
    rank_exprs: Sequence[ast.Expr] | None = None,
    preference: Preference | None = None,
) -> tuple[str, ast.Select, int]:
    """Split a join SELECT into (pushdown SQL, residual block, rank width).

    The pushdown executes the whole join (and the original WHERE) on the
    host database under the flattened projection, behind the same pivot
    filter (:func:`repro.plan.pivot.ranked_scan_sql`); the residual is the
    same query block requalified onto the synthetic single-table relation
    :data:`JOIN_RELATION` holding the joined candidate rows.  Mirrors
    :func:`repro.plan.planner.in_memory_parts` for single tables.
    """
    from repro.plan.planner import inline_named_preferences

    def rename(column: ast.Column) -> ast.Column:
        return ast.Column(name=scan.flat_name(column))

    pushdown = ranked_scan_sql(
        select,
        _scan_items(scan),
        list(scan.flat_names.values()),
        [scan.flat_name(column) for column in select.grouping],
        rank_exprs,
        preference,
    )

    residual_items: list[ast.SelectItem | ast.Star] = []
    aliases: dict[str, ast.Expr] = {}
    for item in select.items:
        if isinstance(item, ast.Star):
            if item.table is None:
                residual_items.append(ast.Star())
                continue
            source = scan.source_for(item.table)
            for column in source.columns:
                flat = scan.flat_names[(source.binding.lower(), column.lower())]
                residual_items.append(
                    ast.SelectItem(expr=ast.Column(name=flat), alias=flat)
                )
            continue
        if item.alias:
            aliases.setdefault(item.alias.lower(), item.expr)
        residual_items.append(
            ast.SelectItem(
                expr=_flatten(item.expr, rename),
                alias=item.alias or result_name(item.expr),
            )
        )

    term = select.preferring
    if term is not None:
        if resolver is not None:
            term = inline_named_preferences(term, resolver)
        term = _flatten(term, rename)

    # ORDER BY may reference a select-list alias (standard SQL), which is
    # resolved here to the aliased item's expression; every column is
    # qualified by the join relation.  So the engine resolves no ORDER BY
    # name against the residual's select list, whose names are the host's
    # (``a.x`` and ``b.x`` are both ``x``) and may repeat.
    def qualify(column: ast.Column) -> ast.Column:
        return ast.Column(name=scan.flat_name(column), table=JOIN_RELATION)

    def rename_order(column: ast.Column) -> ast.Expr:
        target = aliases.get(column.name.lower()) if column.table is None else None
        return qualify(column) if target is None else _flatten(target, qualify)

    residual = ast.Select(
        items=tuple(residual_items),
        sources=(ast.TableRef(name=JOIN_RELATION),),
        where=None,
        preferring=term,
        grouping=tuple(rename(column) for column in select.grouping),
        but_only=(
            _flatten(select.but_only, rename)
            if select.but_only is not None
            else None
        ),
        order_by=tuple(
            ast.OrderItem(
                expr=_flatten(order_item.expr, rename_order),
                descending=order_item.descending,
            )
            for order_item in select.order_by
        ),
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
    return pushdown, residual, len(rank_exprs or ())
