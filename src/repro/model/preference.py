"""Core preference abstractions.

Terminology follows the paper:

* ``is_better(v, w)`` is the strict partial order ``v <_P w`` read as
  "v is better than w",
* ``is_equal(v, w)`` is *substitutability*: the two operand vectors are
  interchangeable for this preference (same level/distance for weak-order
  base types, identical values for EXPLICIT).  Pareto accumulation needs it
  for the "equal or better in any other component" part of its definition
  (section 2.2.2), and cascading needs it to know when to consult the less
  important preference.

Operand vectors: every preference exposes ``operands`` — the tuple of SQL
expressions whose per-row values it consumes, in a fixed order.  Composite
preferences concatenate their children's operand lists and slice the vector
back apart, so a single flat evaluation per row suffices.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from typing import Sequence

from repro.sql import ast

#: Rank used for SQL NULL operands: NULLs are the worst possible match.
#: The rewriter mirrors this with ``CASE WHEN x IS NULL ... THEN 1e15`` so the
#: in-memory engine and the host database agree (see docs/ARCHITECTURE.md,
#: "Columnar execution").
NULL_RANK = 1.0e15

#: Text sqlite converts to a number under NUMERIC affinity.
_NUMERIC_TEXT = re.compile(
    r"[ \t\n\v\f\r]*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ \t\n\v\f\r]*"
)


class Preference(ABC):
    """A strict partial order over operand value vectors."""

    #: short type tag used in explanations and repr, e.g. "AROUND".
    kind: str = "PREFERENCE"

    @property
    @abstractmethod
    def operands(self) -> tuple[ast.Expr, ...]:
        """The expressions this preference evaluates, in vector order."""

    @abstractmethod
    def is_better(self, v: Sequence[object], w: Sequence[object]) -> bool:
        """True iff vector ``v`` is strictly better than ``w``."""

    @abstractmethod
    def is_equal(self, v: Sequence[object], w: Sequence[object]) -> bool:
        """True iff ``v`` and ``w`` are substitutable for this preference."""

    def is_better_or_equal(self, v: Sequence[object], w: Sequence[object]) -> bool:
        """``v`` is better than or substitutable with ``w``."""
        return self.is_equal(v, w) or self.is_better(v, w)

    @property
    def arity(self) -> int:
        """Number of operand values this preference consumes."""
        return len(self.operands)

    def children(self) -> tuple["Preference", ...]:
        """Direct constituents (empty for base preferences)."""
        return ()

    def iter_base(self):
        """Yield all base preferences in the tree, left to right."""
        stack: list[Preference] = [self]
        while stack:
            node = stack.pop(0)
            kids = node.children()
            if kids:
                stack = list(kids) + stack
            else:
                yield node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.sql.printer import to_sql

        rendered = ", ".join(to_sql(e) for e in self.operands)
        return f"<{self.kind} on ({rendered})>"


class BasePreference(Preference):
    """A non-composite preference over a single operand expression."""

    def __init__(self, operand: ast.Expr):
        self._operand = operand

    @property
    def operand(self) -> ast.Expr:
        """The single operand expression."""
        return self._operand

    @property
    def operands(self) -> tuple[ast.Expr, ...]:
        return (self._operand,)


class WeakOrderBase(BasePreference):
    """A base preference whose order is induced by a numeric rank.

    All built-in base types except EXPLICIT are weak orders: every operand
    value maps to a rank where *smaller is better*, and two values with the
    same rank are substitutable.  This is exactly the property the paper's
    rewrite exploits with its ``Makelevel``/``Diesellevel`` CASE columns
    (section 3.2): dominance tests reduce to ``<`` / ``<=`` on ranks.
    """

    @abstractmethod
    def rank(self, value: object) -> float:
        """Map one operand value to its rank; smaller is better.

        Implementations must map ``None`` (SQL NULL) to :data:`NULL_RANK`.
        """

    def is_better(self, v: Sequence[object], w: Sequence[object]) -> bool:
        return self.rank(v[0]) < self.rank(w[0])

    def is_equal(self, v: Sequence[object], w: Sequence[object]) -> bool:
        return self.rank(v[0]) == self.rank(w[0])

    def best_rank(self) -> float | None:
        """The rank of a perfect match, or None if it is data-dependent.

        AROUND/BETWEEN/layered preferences have an absolute optimum
        (distance 0 / level 0); LOWEST/HIGHEST/SCORE only have one relative
        to the candidate set, so they return None and quality functions
        compute the optimum dynamically (see :mod:`repro.model.quality`).
        """
        return 0.0


def coerce_number(value: object) -> float:
    """Interpret an operand value as a number; NULL maps to NaN.

    Text that spells a number is accepted because SQL backends (sqlite in
    particular) happily store numeric text in typed columns.  "Spells a
    number" is sqlite's rule, so the SQL rank expressions can test it with
    ``CAST(x AS NUMERIC) = x``: ASCII digits with an optional sign,
    fraction and exponent, and surrounding ASCII whitespace.  Python's
    wider ``float()`` syntax (``'inf'``, ``'1_000'``, non-ASCII digits) is
    NaN here, as is any other value (a BLOB, say).
    """
    if value is None:
        return math.nan
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and _NUMERIC_TEXT.fullmatch(value):
        return float(value)
    return math.nan
