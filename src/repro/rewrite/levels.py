"""Translate base preferences into SQL rank expressions.

This generalises the paper's level columns (section 3.2):

    CASE WHEN Make = 'Audi' THEN 1 ELSE 2 END AS Makelevel

Every weak-order base preference becomes a *rank expression* where smaller
is better, built from SQL92 entry-level constructs (searched CASE,
comparisons, arithmetic):

* layered (POS/NEG/ELSE chains) — the bucket-index CASE above,
* AROUND t       — ``CASE WHEN x >= t THEN x - t ELSE t - x END``,
* BETWEEN l, u   — distance to the violated interval limit,
* LOWEST/HIGHEST — the value itself / its negation,
* SCORE          — the negated score,
* CONTAINS       — the number of missing terms via ``instr(lower(x), t)``
  tests: literal substrings, ASCII case-folding, like the model.

SQL NULL handling matches the in-memory model: layered CASE expressions
drop NULLs into the OTHERS level exactly like the paper's CASE.  Numeric
preferences read their operand as the model's
:func:`~repro.model.preference.coerce_number` does:
``CASE WHEN CAST(x AS NUMERIC) = x THEN <rank of x * 1.0> ELSE 1e15 END``.
NULL, a BLOB and text that is not wholly a number (``''``, ``'n/a'``,
``'12abc'``) rank as :data:`NULL_RANK` (worst); the rest is read as a
REAL, so numeric text in a TEXT column ranks as its number, not by string
order, and integers above 2**53 round exactly like Python floats.

:func:`level_columns` names one such value per base preference — the
paper's ``Makelevel``/``Diesellevel`` columns of its auxiliary view
``Aux`` — for the rewrite's rank CTE and the exhibition script alike.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import RewriteError
from repro.model.categorical import OTHERS, ExplicitPreference, LayeredPreference
from repro.model.numeric import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.model.preference import NULL_RANK, Preference
from repro.model.text import ContainsPreference
from repro.sql import ast

#: Rewrites an operand expression into a given alias family (qualifying
#: its column references); supplied by the planner.
Qualifier = Callable[[ast.Expr], ast.Expr]


def _null_rank_literal() -> ast.Literal:
    return ast.Literal(value=NULL_RANK)


def _membership(operand: ast.Expr, values: frozenset) -> ast.Expr:
    """``operand IN (...)`` / ``operand = v`` test for one bucket."""
    literals = tuple(
        ast.Literal(value=value) for value in sorted(values, key=repr)
    )
    if len(literals) == 1:
        return ast.Binary(op="=", left=operand, right=literals[0])
    return ast.InList(operand=operand, items=literals)


def _numeric_rank(
    operand: ast.Expr, rank: Callable[[ast.Expr], ast.Expr]
) -> ast.Expr:
    """``rank`` of the operand read as a REAL (``x * 1.0``, like the model's
    ``float(value)``) where the model's ``coerce_number`` gives a number,
    else :data:`NULL_RANK`: for NULL, a BLOB, or text that does not spell a
    number.  ``CAST(x AS NUMERIC) = x`` tells them apart: the cast gives
    ``x`` NUMERIC affinity in the comparison, and sqlite converts text
    under that affinity only when the whole text is a well-formed number.
    """
    spelled = ast.Binary(
        op="=", left=ast.Cast(operand=operand, type_name="NUMERIC"), right=operand
    )
    number = ast.Binary(op="*", left=operand, right=ast.Literal(value=1.0))
    return ast.CaseWhen(
        branches=((spelled, rank(number)),), otherwise=_null_rank_literal()
    )


def layered_rank(preference: LayeredPreference, qualify: Qualifier) -> ast.Expr:
    """The bucket-index CASE expression for a layered preference."""
    operands = [qualify(expr) for expr in preference.operands]
    branches: list[tuple[ast.Expr, ast.Expr]] = []
    for index, bucket in enumerate(preference.buckets):
        if bucket is OTHERS:
            continue
        operand_index, values = bucket
        branches.append(
            (_membership(operands[operand_index], values), ast.Literal(value=index))
        )
    return ast.CaseWhen(
        branches=tuple(branches),
        otherwise=ast.Literal(value=preference.others_index),
    )


def around_rank(preference: AroundPreference, qualify: Qualifier) -> ast.Expr:
    target = ast.Literal(value=preference.target)
    return _numeric_rank(
        qualify(preference.operand),
        lambda number: ast.CaseWhen(
            branches=(
                (
                    ast.Binary(op=">=", left=number, right=target),
                    ast.Binary(op="-", left=number, right=target),
                ),
            ),
            otherwise=ast.Binary(op="-", left=target, right=number),
        ),
    )


def between_rank(preference: BetweenPreference, qualify: Qualifier) -> ast.Expr:
    low = ast.Literal(value=preference.low)
    high = ast.Literal(value=preference.high)
    return _numeric_rank(
        qualify(preference.operand),
        lambda number: ast.CaseWhen(
            branches=(
                (
                    ast.Binary(op="<", left=number, right=low),
                    ast.Binary(op="-", left=low, right=number),
                ),
                (
                    ast.Binary(op=">", left=number, right=high),
                    ast.Binary(op="-", left=number, right=high),
                ),
            ),
            otherwise=ast.Literal(value=0),
        ),
    )


def lowest_rank(preference: LowestPreference, qualify: Qualifier) -> ast.Expr:
    return _numeric_rank(qualify(preference.operand), lambda number: number)


def highest_rank(
    preference: HighestPreference | ScorePreference, qualify: Qualifier
) -> ast.Expr:
    return _numeric_rank(
        qualify(preference.operand),
        lambda number: ast.Unary(op="-", operand=number),
    )


def contains_rank(preference: ContainsPreference, qualify: Qualifier) -> ast.Expr:
    operand = qualify(preference.operand)
    # sqlite's lower() folds ASCII only, and the model's terms are folded
    # the same way; instr() takes the term literally (no LIKE wildcards).
    folded = ast.FuncCall(name="LOWER", args=(operand,))
    misses: ast.Expr | None = None
    for term in preference.terms:
        found = ast.Binary(
            op=">",
            left=ast.FuncCall(name="INSTR", args=(folded, ast.Literal(value=term))),
            right=ast.Literal(value=0),
        )
        test = ast.CaseWhen(
            branches=((found, ast.Literal(value=0)),),
            otherwise=ast.Literal(value=1),
        )
        misses = test if misses is None else ast.Binary(op="+", left=misses, right=test)
    return ast.CaseWhen(
        branches=(
            # NULL text ranks strictly worse than missing every term,
            # matching ContainsPreference.rank (the in-memory model).
            (ast.IsNull(operand=operand), _null_rank_literal()),
        ),
        otherwise=misses,
    )


def rank_expression(preference: Preference, qualify: Qualifier) -> ast.Expr:
    """Dispatch: the rank expression of any weak-order base preference."""
    if isinstance(preference, LayeredPreference):
        return layered_rank(preference, qualify)
    if isinstance(preference, AroundPreference):
        return around_rank(preference, qualify)
    if isinstance(preference, BetweenPreference):
        return between_rank(preference, qualify)
    if isinstance(preference, LowestPreference):
        return lowest_rank(preference, qualify)
    if isinstance(preference, (HighestPreference, ScorePreference)):
        return highest_rank(preference, qualify)
    if isinstance(preference, ContainsPreference):
        return contains_rank(preference, qualify)
    raise RewriteError(
        f"no rank expression for {preference.kind} preferences"
    )


def pushdown_rank_expressions(
    preference: Preference,
) -> tuple[ast.Expr, ...] | None:
    """One SQL rank expression per base preference in tree order, or None.

    The SQL rank pushdown appends these to the driver's scan SELECT so
    the host database returns ready-made rank columns — the same level
    columns the ``NOT EXISTS`` rewrite inlines into its dominance
    conditions (paper section 3.2), surfaced once per row instead of per
    comparison.  Returns None when any base lacks a rank expression
    (EXPLICIT, or a custom preference type): the plan then computes rank
    columns in Python, or falls back to per-pair closures.

    Operands are emitted unqualified (identity qualifier): the scan runs
    over the query's own FROM source, so the original column references
    resolve unchanged.
    """
    expressions: list[ast.Expr] = []
    for leaf in preference.iter_base():
        try:
            expressions.append(rank_expression(leaf, lambda expr: expr))
        except RewriteError:
            return None
    return tuple(expressions)


def leaf_value(leaf: Preference, qualify: Qualifier) -> ast.Expr:
    """What a dominance test compares for one base preference.

    Its rank expression — or, for an EXPLICIT preference, a partial
    order without ranks, the operand itself, which the dominance
    condition tests against the closure pairs.
    """
    if isinstance(leaf, ExplicitPreference):
        return qualify(leaf.operand)
    return rank_expression(leaf, qualify)


def level_columns(
    leaves: Sequence[Preference],
    qualify: Qualifier,
    name: Callable[[Preference, int], str] = lambda _leaf, index: f"__r{index}",
) -> tuple[dict[Preference, str], tuple[ast.SelectItem, ...]]:
    """The level columns of paper section 3.2, one per base preference.

    Returns the column name each leaf reads and the aliased select items
    that compute every :func:`leaf_value` once per row.  ``name`` picks
    the column name of the leaf at each position.
    """
    columns: dict[Preference, str] = {}
    items: list[ast.SelectItem] = []
    for index, leaf in enumerate(leaves):
        columns[leaf] = name(leaf, index)
        items.append(ast.SelectItem(expr=leaf_value(leaf, qualify), alias=columns[leaf]))
    return columns, tuple(items)


def explicit_level_expression(
    preference: ExplicitPreference, qualify: Qualifier
) -> ast.Expr:
    """CASE mapping explicit values to their DAG depth (for LEVEL())."""
    operand = qualify(preference.operand)
    depth_map = preference.depth_map
    branches = []
    for value in sorted(depth_map, key=repr):
        branches.append(
            (
                ast.Binary(op="=", left=operand, right=ast.Literal(value=value)),
                ast.Literal(value=depth_map[value]),
            )
        )
    return ast.CaseWhen(
        branches=tuple(branches),
        otherwise=ast.Literal(value=preference.max_depth + 1),
    )
