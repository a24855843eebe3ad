"""The exhibition rewrite of paper section 3.2: view + anti-join script.

The paper demonstrates the selection method on the Cars relation as a
three-step SQL92 script: materialise level columns in an auxiliary view,
then keep every tuple for which no tuple with component-wise smaller-or-
equal and somewhere strictly smaller levels exists:

.. code-block:: sql

    CREATE VIEW Aux AS
      SELECT *, CASE WHEN Make = 'Audi' THEN 1 ELSE 2 END AS Makelevel,
                CASE WHEN Diesel = 'yes' THEN 1 ELSE 2 END AS Diesellevel
      FROM Cars;
    SELECT ... FROM Aux A1 WHERE NOT EXISTS (SELECT 1 FROM Aux A2 WHERE ...);
    DROP VIEW Aux;

:func:`paper_style_script` reproduces this script for any single-table
Pareto accumulation of weak-order base preferences.  Its level columns come
from :func:`repro.rewrite.levels.level_columns` and its anti-join body from
:func:`repro.rewrite.conditions.better_condition`, exactly as in the
production path (:mod:`repro.rewrite.planner`), which puts the same ``Aux``
into one statement as a materialized CTE; benchmark E3 runs both and checks
they agree.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.model.builder import NameResolver, build_preference
from repro.model.categorical import LayeredPreference
from repro.model.composite import ParetoPreference
from repro.model.preference import Preference, WeakOrderBase
from repro.rewrite.conditions import Accessor, better_condition
from repro.rewrite.levels import level_columns
from repro.sql import ast
from repro.sql.printer import to_sql


def _level_column_name(base: Preference, index: int) -> str:
    operands = base.operands
    if len(operands) == 1 and isinstance(operands[0], ast.Column):
        return f"{operands[0].name}level"
    return f"level{index}"


def paper_style_script(
    select: ast.Select,
    view_name: str = "prefsql_aux",
    resolver: NameResolver | None = None,
) -> list[str]:
    """Emit the section 3.2 script for a preference query.

    Returns ``[CREATE VIEW ..., SELECT ..., DROP VIEW ...]``.  Supported
    exactly for the paper's demonstration class: one base table, a Pareto
    accumulation (or single) weak-order preference, no GROUPING/BUT ONLY
    and no quality functions in the select list.
    """
    if select.preferring is None:
        raise RewriteError("not a preference query")
    if select.grouping or select.but_only is not None:
        raise RewriteError(
            "the paper-style script covers plain Pareto queries; use the "
            "planner rewrite for GROUPING/BUT ONLY"
        )
    if len(select.sources) != 1 or not isinstance(select.sources[0], ast.TableRef):
        raise RewriteError("the paper-style script needs a single base table")

    preference = build_preference(select.preferring, resolver=resolver)
    if isinstance(preference, ParetoPreference):
        parts = preference.children()
    else:
        parts = (preference,)
    bases: list[Preference] = []
    for part in parts:
        if not isinstance(part, (WeakOrderBase, LayeredPreference)):
            raise RewriteError(
                "the paper-style script supports Pareto accumulation of "
                f"weak-order base preferences; got {part.kind}"
            )
        bases.append(part)

    source = select.sources[0]
    taken: set[str] = set()

    def level_name(base: Preference, index: int) -> str:
        name = _level_column_name(base, index)
        if name.lower() in taken:
            name = f"{name}{index}"
        taken.add(name.lower())
        return name

    # View columns are unqualified: the identity qualifier.
    columns, levels = level_columns(bases, lambda expr: expr, level_name)
    level_items = [to_sql(item.expr) + f" AS {item.alias}" for item in levels]

    where_clause = f" WHERE {to_sql(select.where)}" if select.where is not None else ""
    create_view = (
        f"CREATE VIEW {view_name} AS SELECT *, "
        + ", ".join(level_items)
        + f" FROM {source.name}{where_clause}"
    )

    def copy(alias: str) -> Accessor:
        return lambda leaf: ast.Column(name=columns[leaf], table=alias)

    dominance = to_sql(better_condition(preference, copy("A2"), copy("A1")))

    projection = ", ".join(
        "A1.*" if isinstance(item, ast.Star) else f"A1.{to_sql(item.expr)}"
        for item in select.items
    )
    main_select = (
        f"SELECT {projection} FROM {view_name} A1 "
        f"WHERE NOT EXISTS (SELECT 1 FROM {view_name} A2 WHERE {dominance})"
    )

    drop_view = f"DROP VIEW {view_name}"
    return [create_view, main_select, drop_view]
