"""Token definitions for the Preference SQL dialect.

The keyword list is the union of the SQL92 entry-level subset the rewriter
targets and the Preference SQL extensions introduced by the paper:
``PREFERRING``, ``GROUPING``, ``BUT ONLY``, the base preference keywords
(``AROUND``, ``LOWEST``, ``HIGHEST``, ``CONTAINS``, ``EXPLICIT``, ``SCORE``),
the constructors (``CASCADE``, ``ELSE`` inside a preference term), the
quality functions (``TOP``, ``LEVEL``, ``DISTANCE``) and the plan
inspection statement ``EXPLAIN PREFERENCE``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PARAM = "parameter"
    EOF = "eof"


#: Keywords of the dialect, uppercase.  Matching is case-insensitive, as in
#: the paper which spells ``else`` both lower- and uppercase.
KEYWORDS = frozenset(
    {
        # Standard SQL core.
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "LIKE",
        "BETWEEN",
        "COLLATE",
        "EXISTS",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "OUTER",
        "CROSS",
        "ON",
        "UNION",
        "ALL",
        "INSERT",
        "INTO",
        "VALUES",
        "CREATE",
        "DROP",
        "VIEW",
        "TABLE",
        "LIMIT",
        "OFFSET",
        "TRUE",
        "FALSE",
        # Preference SQL extensions.
        "PREFERRING",
        "GROUPING",
        "BUT",
        "ONLY",
        "CASCADE",
        "AROUND",
        "LOWEST",
        "HIGHEST",
        "CONTAINS",
        "EXPLICIT",
        "SCORE",
        "TOP",
        "LEVEL",
        "DISTANCE",
        "PREFERENCE",
        "EXPLAIN",
    }
)

#: Multi-character operators, longest first so the lexer can match greedily.
OPERATORS = (
    "<>",
    "<=",
    ">=",
    "!=",
    "||",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "(",
    ")",
    ",",
    ".",
    ";",
    "[",
    "]",
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` is the normalized form: keywords are uppercased, identifiers
    keep their original spelling, string literals are unquoted and
    unescaped, numbers stay textual (the parser converts them).
    """

    type: TokenType
    value: str
    position: int
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def is_operator(self, *ops: str) -> bool:
        """Return True if this token is one of the given operators."""
        return self.type is TokenType.OPERATOR and self.value in ops

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}:{self.value!r}@{self.line}:{self.column}"
