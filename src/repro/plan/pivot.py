"""The in-memory scan's pivot filter: ship only what one pivot cannot beat.

The ``bnl`` strategy scans its candidates into Python and winnows them
there.  Any row that some candidate dominates cannot be maximal, because
dominance is transitive — winnow commutes with a selection that keeps
every maximal tuple (Chomicki, *Preference Queries*).  So the scan runs
as one statement that first picks one pivot row per GROUPING partition
and ships only the candidates that pivot does not beat:

.. code-block:: sql

    WITH __pref_scan AS MATERIALIZED (
      SELECT *, <rank_0> AS __pref_rank_0, ... FROM t WHERE <WHERE>),
    __pref_pivot AS MATERIALIZED (
      SELECT __pref_rank_0, ..., "<key>", min(<pivot key>) FROM __pref_scan
      GROUP BY "<key>" COLLATE BINARY)             -- GROUPING only
    SELECT c.* FROM __pref_scan AS c
    WHERE NOT EXISTS (
      SELECT 1 FROM __pref_pivot AS d
      WHERE d."<key>" IS c."<key>" COLLATE BINARY  -- same partition
        AND (<dominance condition over d.__pref_rank_K, c.__pref_rank_K>))

The pivot is the row with the least sum of ranks (for a cascade, of its
first part's ranks): sqlite gives the bare columns of an aggregate query
with a single ``min()`` the values of the row that holds the minimum.

The dominance condition is the rewrite's own
(:func:`repro.rewrite.conditions.better_condition`) over the rank
columns, exact for flat Pareto, flat cascade and mixed nesting.  The
kernel then adopts the very rank cells the pivot compared, so the filter
never changes a winner set, its order or a value — only how many rows
cross into Python.  Partitions compare keys as binary values, like the
engine's own grouping, whatever collation the column declares.

The filter is off when the scan appends no rank columns, under BUT ONLY
(its threshold runs before the winnow, so a pivot that fails it must not
discard anything), and when the source's column names are unknown or do
not hold a GROUPING key: the rank columns are named apart from the
source's own, so the pivot never reads a user column in their place.
"""

from __future__ import annotations

from functools import reduce
from typing import Container, Sequence

from repro.model.composite import PrioritizationPreference
from repro.model.preference import Preference
from repro.rewrite.conditions import Accessor, better_condition
from repro.sql import ast
from repro.sql.printer import quote_identifier, to_sql

#: Alias prefix of the rank columns the scan appends to its select list;
#: the driver splits them off the fetched rows by position.
RANK_COLUMN_PREFIX = "__pref_rank_"


def ranked_scan_sql(
    select: ast.Select,
    items: tuple[ast.SelectItem | ast.Star, ...],
    columns: Sequence[str] | None,
    keys: Sequence[str],
    rank_exprs: Sequence[ast.Expr] | None,
    preference: Preference | None,
) -> str:
    """The in-memory strategies' host scan: ``items`` plus one aliased rank
    column per ``rank_exprs`` over ``select``'s FROM and WHERE, wrapped in
    the pivot filter when it applies (module docstring).

    ``columns`` are the names ``items`` produce (None when unknown),
    ``keys`` the GROUPING keys among them and ``preference`` the tree
    ``rank_exprs`` rank, one expression per base preference in tree
    order.
    """
    taken = {name.lower() for name in columns or ()}
    ranks = [
        _fresh(f"{RANK_COLUMN_PREFIX}{index}", taken)
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
    return _pivot_filter(body, preference, ranks, keys)


def _pivot_filter(
    body: str,
    preference: Preference,
    ranks: Sequence[str],
    keys: Sequence[str],
) -> str:
    # A name that occurs nowhere in the scan cannot be one of its tables.
    text = body.lower()
    scan = _fresh("__pref_scan", text)
    pivot = _fresh("__pref_pivot", text)
    column = dict(zip(preference.iter_base(), ranks))
    keys = [quote_identifier(key) for key in keys]
    # One pass, no sort: the bare columns come from the minimum's row.
    pick = (
        f"SELECT {', '.join([*ranks, *keys])}, "
        f"min({to_sql(_pivot_key(preference, column))}) FROM {scan}"
    )
    if keys:
        pick += " GROUP BY " + ", ".join(f"{key} COLLATE BINARY" for key in keys)

    def copy(alias: str) -> Accessor:
        return lambda leaf: ast.Column(name=column[leaf], table=alias)

    conditions = [f"d.{key} IS c.{key} COLLATE BINARY" for key in keys]
    conditions.append(f"({to_sql(better_condition(preference, copy('d'), copy('c')))})")
    return (
        f"WITH {scan} AS MATERIALIZED ({body}), "
        f"{pivot} AS MATERIALIZED ({pick}) "
        f"SELECT c.* FROM {scan} AS c WHERE NOT EXISTS "
        f"(SELECT 1 FROM {pivot} AS d WHERE {' AND '.join(conditions)})"
    )


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


def _fresh(base: str, taken: Container[str]) -> str:
    """``base``, suffixed with the least counter that makes it absent from
    ``taken``: lowercased names, or lowercased SQL text."""
    name, counter = base, 0
    while name.lower() in taken:
        counter += 1
        name = f"{base}_{counter}"
    return name
