"""One rank CTE and its pivot: keep only what one pivot cannot beat.

Both host shapes that compare rank columns read a materialised rank CTE:
``bnl``'s scan, which ships its candidates into Python for the winnow,
and the rewrite's ``Aux`` (paper section 3.2), which the ``NOT EXISTS``
anti-join compares with itself.  Any row that some row dominates cannot
be maximal, because dominance is transitive — winnow commutes with a
selection that keeps every maximal tuple (Chomicki, *Preference
Queries*).  So :func:`rank_cte` follows the rank CTE with one pivot row
per GROUPING partition and keeps only the rows that pivot does not beat:

.. code-block:: sql

    WITH <rank CTE> AS MATERIALIZED (
      SELECT ..., <rank_0> AS <r0>, ... FROM t WHERE <WHERE>),
    __pref_pivot AS MATERIALIZED (
      SELECT <r0>, ..., <key>, min(<pivot key>) FROM <rank CTE>
      GROUP BY <key> COLLATE BINARY)                  -- GROUPING only
    SELECT c.* FROM <rank CTE> AS c                   -- the survivors
    WHERE NOT EXISTS (
      SELECT 1 FROM __pref_pivot AS d
      WHERE d.<key> IS c.<key> COLLATE BINARY         -- same partition
        AND <dominance condition over d.<rK>, c.<rK>>)

The pivot is the row with the least sum of ranks (for a cascade, of its
first part's ranks): sqlite gives the bare columns of an aggregate query
with a single ``min()`` the values of the row that holds the minimum.
The dominance condition is the rewrite's own
(:func:`repro.rewrite.conditions.better_condition`), exact for flat
Pareto, flat cascade and mixed nesting.  Partitions compare keys as
binary values, like the engine's own grouping, whatever collation the
column declares.

``bnl`` (:func:`ranked_scan_sql`) ships the survivors: its rank CTE is
``SELECT *, <rank> AS __pref_rank_K`` over the query's FROM and WHERE,
and the kernel adopts the very rank cells the pivot compared, so the
filter never changes a winner set, its order or a value — only how many
rows cross into Python.  Its filter is off when the scan appends no rank
columns, under BUT ONLY (the threshold runs before the winnow, so a pivot
that fails it must not discard anything), and when the source's column
names are unknown or do not hold a GROUPING key: the rank columns are
named apart from the source's own, so the pivot never reads a user column
in their place.

The rewrite (:mod:`repro.rewrite.planner`) materialises the survivors as
``__pref_live`` and runs its anti-join over them on both sides: a row the
pivot beats is beaten by no survivor it could hide behind, since whatever
beats it the pivot beats too.  ``Aux`` already applies BUT ONLY to every
row, so that pivot stays on under BUT ONLY.  The pivot costs a fixed
0.1–0.2 ms, so the planner asks for it only on tables of at least
:data:`PIVOT_MIN_ROWS` rows.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from typing import Container, Sequence

from repro.model.composite import PrioritizationPreference
from repro.model.preference import Preference
from repro.rewrite.conditions import Accessor, better_condition, same_group
from repro.sql import ast
from repro.sql.printer import to_sql

#: Alias prefix of the rank columns the scan appends to its select list;
#: the driver splits them off the fetched rows by position.
RANK_COLUMN_PREFIX = "__pref_rank_"

#: Least row count of the preference table for which the planner gives a
#: chosen ``rewrite`` the pivot.  The table bounds ``Aux``; the pivot's
#: fixed cost (a GROUP BY over ``Aux`` and a second materialised CTE,
#: 0.1–0.2 ms) paid off from about 300 ``Aux`` rows in a probe of the
#: ``jobs`` queries.  Among the benchmark's tables the search-mask
#: ``products`` (300 rows) stays below it and keeps the paper's shape;
#: ``jobs`` (30,000) and the traffic tables (3,000–6,000) reach it.
PIVOT_MIN_ROWS = 2000


def ranked_scan_sql(
    select: ast.Select,
    items: tuple[ast.SelectItem | ast.Star, ...],
    columns: Sequence[str] | None,
    keys: Sequence[str],
    rank_exprs: Sequence[ast.Expr] | None,
    preference: Preference | None,
) -> str:
    """The in-memory strategies' host scan: ``items`` plus one aliased rank
    column per ``rank_exprs`` over ``select``'s FROM and WHERE, filtered by
    the pivot when it applies (module docstring).

    ``columns`` are the names ``items`` produce (None when unknown),
    ``keys`` the GROUPING keys among them and ``preference`` the tree
    ``rank_exprs`` rank, one expression per base preference in tree
    order.
    """
    taken = {name.lower() for name in columns or ()}
    ranks = [
        fresh_name(f"{RANK_COLUMN_PREFIX}{index}", taken)
        for index in range(len(rank_exprs or ()))
    ]
    scan = ast.Select(
        items=items
        + tuple(
            ast.SelectItem(expr=expr, alias=name)
            for expr, name in zip(rank_exprs or (), ranks)
        ),
        sources=select.sources,
        where=select.where,
    )
    body = to_sql(scan)
    if (
        not ranks
        or preference is None
        or select.but_only is not None
        or columns is None
        or not {key.lower() for key in keys} <= taken
    ):
        return body
    # A name that occurs nowhere in the scan cannot be one of its tables.
    text = body.lower()
    ctes, survivors = rank_cte(
        fresh_name("__pref_scan", text),
        scan,
        preference,
        ranks,
        keys,
        text,
    )
    return to_sql(replace(survivors, ctes=ctes))


def rank_cte(
    name: str,
    query: ast.Select,
    preference: Preference,
    ranks: Sequence[str],
    keys: Sequence[str],
    taken: Container[str],
) -> tuple[tuple[ast.CommonTable, ast.CommonTable], ast.Select]:
    """The materialised rank CTE ``name`` over ``query``, the pivot CTE
    after it, and the SELECT of the rank CTE's rows the pivot does not
    beat (module docstring).

    ``ranks`` name ``query``'s rank columns, one per base preference of
    ``preference`` in tree order, and ``keys`` its GROUPING key columns.
    The pivot's name does not occur in ``taken`` (lowercased SQL text, or
    names).
    """
    pivot = fresh_name("__pref_pivot", taken)
    column = dict(zip(preference.iter_base(), ranks))
    # One pass, no sort: the bare columns come from the minimum's row.
    pick = ast.Select(
        items=tuple(
            ast.SelectItem(expr=ast.Column(name=picked)) for picked in [*ranks, *keys]
        )
        + (
            ast.SelectItem(
                expr=ast.FuncCall(name="min", args=(_pivot_key(preference, column),))
            ),
        ),
        sources=(ast.TableRef(name=name),),
        group_by=tuple(
            ast.Collate(operand=ast.Column(name=key), collation="BINARY")
            for key in keys
        ),
    )

    def copy(alias: str) -> Accessor:
        return lambda leaf: ast.Column(name=column[leaf], table=alias)

    conditions = [
        same_group(ast.Column(name=key, table="d"), ast.Column(name=key, table="c"))
        for key in keys
    ]
    conditions.append(better_condition(preference, copy("d"), copy("c")))
    beaten = ast.Select(
        items=(ast.SelectItem(expr=ast.Literal(value=1)),),
        sources=(ast.TableRef(name=pivot, alias="d"),),
        where=reduce(
            lambda left, right: ast.Binary(op="AND", left=left, right=right),
            conditions,
        ),
    )
    survivors = ast.Select(
        items=(ast.Star(table="c"),),
        sources=(ast.TableRef(name=name, alias="c"),),
        where=ast.Exists(query=beaten, negated=True),
    )
    ctes = (
        ast.CommonTable(name=name, query=query, materialized=True),
        ast.CommonTable(name=pivot, query=pick, materialized=True),
    )
    return ctes, survivors


def _pivot_key(preference: Preference, column: dict[Preference, str]) -> ast.Expr:
    """What the pivot minimises: the sum of the rank columns, or a
    cascade's first part's.  A row with the least sum has no Pareto
    dominator, and the least first part beats every row it is not tied
    with; any row would be sound."""
    if isinstance(preference, PrioritizationPreference):
        return _pivot_key(preference.children()[0], column)
    return reduce(
        lambda left, right: ast.Binary(op="+", left=left, right=right),
        (ast.Column(name=column[leaf]) for leaf in preference.iter_base()),
    )


def fresh_name(base: str, taken: Container[str]) -> str:
    """``base``, suffixed with the least counter that makes it absent from
    ``taken``: lowercased names, or lowercased SQL text."""
    name, counter = base, 0
    while name.lower() in taken:
        counter += 1
        name = f"{base}_{counter}"
    return name
