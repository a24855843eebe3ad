"""Compiled dominance comparators over shared rank columns.

The generic :meth:`Preference.is_better` re-evaluates base-preference
ranks on every comparison.  Skyline algorithms perform O(n·s) comparisons,
so for rank-based preference trees (every built-in except EXPLICIT) it
pays to precompute one rank column per base preference
(:mod:`repro.engine.columns`) and compare plain floats afterwards — the
same idea as the rewrite's materialised level columns (paper section 3.2),
applied to the in-memory path.

:func:`compile_better` returns an index-based ``better(i, j)`` predicate
equivalent to ``preference.is_better(vectors[i], vectors[j])``, or
``None`` when the tree contains an EXPLICIT preference (a genuine partial
order without a rank) — callers then fall back to the generic path.
Callers that already hold a :class:`~repro.engine.columns.RankColumns`
(:func:`~repro.engine.algorithms.winnow_kernel`, the SQL rank pushdown
path) pass it in so the ranks are computed exactly once per query.
Equivalence with the generic semantics is property-tested in
``tests/test_compiled.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.deadline import CHECK_EVERY, active_deadline
from repro.engine.columns import RankColumns, compute_rank_columns
from repro.model.preference import Preference

BetterFn = Callable[[int, int], bool]
EqualFn = Callable[[int, int], bool]


def _make(node: tuple, ranks: RankColumns) -> tuple[BetterFn, EqualFn]:
    """Closures for one shape node, indexing into the shared columns."""
    kind = node[0]
    if kind == "leaf":
        column = ranks.columns[node[1]]
        return (
            lambda i, j: column[i] < column[j],
            lambda i, j: column[i] == column[j],
        )

    children = node[1]
    if all(child[0] == "leaf" for child in children):
        if len(children) == ranks.width:
            rows = ranks.rows  # the whole tree is flat: reuse the cache
        else:
            rows = list(
                zip(*(ranks.columns[child[1]] for child in children))
            )
        if kind == "pareto":
            # Flat Pareto of rank leaves: one tuple per row; dominance is
            # componentwise <= plus inequality.
            def better(i: int, j: int) -> bool:
                a, b = rows[i], rows[j]
                if a == b:
                    return False
                return all(x <= y for x, y in zip(a, b))

            def equal(i: int, j: int) -> bool:
                return rows[i] == rows[j]

            return better, equal
        # Flat cascade of rank leaves: plain lexicographic tuple order.
        return (
            lambda i, j: rows[i] < rows[j],
            lambda i, j: rows[i] == rows[j],
        )

    parts = [_make(child, ranks) for child in children]
    if kind == "pareto":

        # prefcheck: disable=deadline-poll -- per-pair comparator over the tree's components (query width); the BNL loops that call it poll
        def better(i: int, j: int) -> bool:
            strict = False
            for child_better, child_equal in parts:
                if child_better(i, j):
                    strict = True
                elif not child_equal(i, j):
                    return False
            return strict

        def equal(i: int, j: int) -> bool:
            return all(child_equal(i, j) for _b, child_equal in parts)

        return better, equal

    # cascade
    # prefcheck: disable=deadline-poll -- per-pair comparator over the tree's components (query width); the BNL loops that call it poll
    def better(i: int, j: int) -> bool:
        for child_better, child_equal in parts:
            if child_better(i, j):
                return True
            if not child_equal(i, j):
                return False
        return False

    def equal(i: int, j: int) -> bool:
        return all(child_equal(i, j) for _b, child_equal in parts)

    return better, equal


def compile_better(
    preference: Preference,
    vectors: Sequence[tuple],
    ranks: RankColumns | None = None,
) -> BetterFn | None:
    """An index-based fast ``better(i, j)``, or None if unsupported."""
    if ranks is None:
        ranks = compute_rank_columns(preference, vectors)
    if ranks is None:
        return None
    better, _equal = _make(ranks.shape.tree, ranks)
    return better


def generic_better(
    preference: Preference, vectors: Sequence[tuple]
) -> BetterFn:
    """The uncompiled fallback with the same index-based signature.

    When a query deadline is active at compile time, the comparator
    polls it every :data:`~repro.deadline.CHECK_EVERY` calls: the
    skyline loops only poll per *outer* row, and for generic trees each
    inner scan is O(n) ``is_better`` evaluations — far too long a gap
    for a runaway EXPLICIT-preference query to honor its timeout.  The
    counter is a closure cell, negligible next to ``is_better`` itself;
    deadline-free queries get the bare comparator.
    """
    deadline = active_deadline()
    if deadline is None:

        def better(i: int, j: int) -> bool:
            return preference.is_better(vectors[i], vectors[j])

        return better

    calls = [0]

    def checked_better(i: int, j: int) -> bool:
        calls[0] += 1
        if not calls[0] % CHECK_EVERY:
            deadline.check()
        return preference.is_better(vectors[i], vectors[j])

    return checked_better


def best_better(
    preference: Preference,
    vectors: Sequence[tuple],
    ranks: RankColumns | None = None,
) -> BetterFn:
    """The fastest available dominance predicate for this input."""
    compiled = compile_better(preference, vectors, ranks=ranks)
    if compiled is not None:
        return compiled
    return generic_better(preference, vectors)
