"""Dominance conditions between two tuple copies.

Given a preference P and two copies of a row (the candidate ``outer`` and
the potential dominator ``inner``), this module builds the SQL conditions

* ``better(inner, outer)``          — inner is strictly better,
* ``better_or_equal(inner, outer)`` — inner is better or substitutable,
* ``equal(inner, outer)``           — substitutable.

Each copy is an :data:`Accessor`: the SQL value it exposes for one base
preference.  The rewrite's rank CTE passes level-column references
(``d.__r0``), as the paper's auxiliary view ``Aux`` does (section 3.2,
and :mod:`repro.rewrite.paper_style`); sources without a rowid pass the
rank expressions inline (:func:`repro.rewrite.levels.leaf_value`).  For
Pareto accumulation the generated shape is exactly the paper's:

    A2.Makelevel <= A1.Makelevel AND A2.Diesellevel <= A1.Diesellevel
    AND (A2.Makelevel < A1.Makelevel OR A2.Diesellevel < A1.Diesellevel)

Cascade becomes the lexicographic expansion, and EXPLICIT preferences —
which are genuine partial orders without rank columns — expand into a
disjunction over the transitive closure of their better-than graph, on
the operand value the accessor exposes.
"""

from __future__ import annotations

from typing import Callable

from repro.model.categorical import ExplicitPreference
from repro.model.composite import ParetoPreference, PrioritizationPreference
from repro.model.preference import Preference
from repro.sql import ast

#: One tuple copy: base preference → the SQL value that copy compares
#: (a rank, smaller is better; the operand for an EXPLICIT preference).
Accessor = Callable[[Preference], ast.Expr]


def _and(parts: list[ast.Expr]) -> ast.Expr:
    result = parts[0]
    for part in parts[1:]:
        result = ast.Binary(op="AND", left=result, right=part)
    return result


def _or(parts: list[ast.Expr]) -> ast.Expr:
    result = parts[0]
    for part in parts[1:]:
        result = ast.Binary(op="OR", left=result, right=part)
    return result


def better_condition(
    preference: Preference, inner: Accessor, outer: Accessor
) -> ast.Expr:
    """SQL condition: the inner tuple is strictly better than the outer."""
    if isinstance(preference, ParetoPreference):
        parts = preference.children()
        all_boe = [better_or_equal_condition(p, inner, outer) for p in parts]
        any_better = [better_condition(p, inner, outer) for p in parts]
        return _and(all_boe + [_or(any_better)])
    if isinstance(preference, PrioritizationPreference):
        parts = preference.children()
        alternatives: list[ast.Expr] = []
        prefix_equal: list[ast.Expr] = []
        for part in parts:
            step = better_condition(part, inner, outer)
            alternatives.append(_and(prefix_equal + [step]))
            prefix_equal = prefix_equal + [equal_condition(part, inner, outer)]
        return _or(alternatives)
    if isinstance(preference, ExplicitPreference):
        pairs = sorted(preference.closure_pairs, key=repr)
        inner_value = inner(preference)
        outer_value = outer(preference)
        return _or(
            [
                ast.Binary(
                    op="AND",
                    left=ast.Binary(
                        op="=", left=inner_value, right=ast.Literal(value=better)
                    ),
                    right=ast.Binary(
                        op="=", left=outer_value, right=ast.Literal(value=worse)
                    ),
                )
                for better, worse in pairs
            ]
        )
    # Weak-order base preference: strict rank comparison.
    return ast.Binary(op="<", left=inner(preference), right=outer(preference))


def same_group(inner: ast.Expr, outer: ast.Expr) -> ast.Expr:
    """SQL condition: two GROUPING keys name the same partition.  NULL
    keys form one partition (``IS``), and keys compare as binary values,
    as the engine groups them, whatever collation their column declares."""
    return ast.Binary(
        op="IS", left=inner, right=ast.Collate(operand=outer, collation="BINARY")
    )


def equal_condition(
    preference: Preference, inner: Accessor, outer: Accessor
) -> ast.Expr:
    """SQL condition: the two tuples are substitutable under P."""
    if isinstance(preference, (ParetoPreference, PrioritizationPreference)):
        return _and(
            [equal_condition(p, inner, outer) for p in preference.children()]
        )
    return ast.Binary(op="=", left=inner(preference), right=outer(preference))


def better_or_equal_condition(
    preference: Preference, inner: Accessor, outer: Accessor
) -> ast.Expr:
    """SQL condition: inner is better than or substitutable with outer."""
    if isinstance(
        preference, (ParetoPreference, PrioritizationPreference, ExplicitPreference)
    ):
        return _or(
            [
                better_condition(preference, inner, outer),
                equal_condition(preference, inner, outer),
            ]
        )
    # Weak orders collapse to one comparison — the paper's `<=` form.
    return ast.Binary(op="<=", left=inner(preference), right=outer(preference))
