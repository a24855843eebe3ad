"""Bind ``?`` parameters into statement ASTs.

The commercial Preference driver substituted parameter markers before the
Preference SQL Optimizer ran, because rewriting duplicates expressions
(the WHERE clause appears once per tuple copy) and would scramble
positional parameters.  This module does the same: it replaces every
:class:`~repro.sql.ast.Param` with a literal, after which the rewritten
SQL is self-contained.  Pass-through (non-preference) statements keep their
markers and use the host database's native binding instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DriverError
from repro.sql import ast

#: The statements whose markers are bound; any other statement comes back
#: as it is, and then takes no parameters.
_BOUND = (ast.Select, ast.Insert, ast.CreatePreference, ast.ExplainPreference)


def bind_parameters(statement: ast.Statement, params: Sequence[object]) -> ast.Statement:
    """Return ``statement`` with every ``?`` replaced by its parameter."""
    values = tuple(params)
    used: set[int] = set()

    def bind(node: ast.Node) -> ast.Node | None:
        if not isinstance(node, ast.Param):
            return None
        if node.index >= len(values):
            raise DriverError(
                f"statement needs at least {node.index + 1} parameters, "
                f"got {len(values)}"
            )
        used.add(node.index)
        return ast.Literal(value=values[node.index])

    bound = ast.transform(statement, bind) if isinstance(statement, _BOUND) else statement
    if len(used) != len(values):
        raise DriverError(
            f"{len(values)} parameters supplied but only "
            f"{len(used)} markers found"
        )
    return bound
