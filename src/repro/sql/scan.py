"""A lenient walker over host SQL text, and the two questions asked of it.

Pass-through statements never meet the dialect parser — they may be any
SQL sqlite accepts — yet the driver must know which table a DML or DDL
statement targets (preference views over it need maintenance:
:func:`dml_target`) and whether the statement ends a transaction
(:func:`first_keyword`).  Both read :func:`walk`, which knows just enough
lexical structure never to mistake the inside of a comment, string or
quoted identifier for a keyword, and tracks parenthesis depth so a CTE
prologue or sub-select can neither hide nor fake the statement's verb.

:class:`repro.sql.lexer.Lexer` is deliberately not reused: it rejects
characters that are legal in host SQL (backtick identifiers, ``:name`` /
``@name`` / ``$name`` / ``?1`` parameters, ``x'..'`` blobs, ``==``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

from repro.sql.printer import quote_identifier


class Token(NamedTuple):
    """One lexical unit: a ``word`` (as written), a quoted ``name``
    (unquoted in ``text``), a ``param`` marker (``?``, ``?1``, ``:x``,
    ``@x``, ``$x``) or an ``op`` (any other single character), with the
    parenthesis ``depth`` it sits at."""

    kind: str
    text: str
    start: int
    end: int
    depth: int

    @property
    def keyword(self) -> str:
        """The uppercased word; ``""`` for anything that is not a word."""
        return self.text.upper() if self.kind == "word" else ""


_END = Token("end", "", 0, 0, 0)


def _quoted(sql: str, pos: int, close: str) -> tuple[str, int]:
    """The quoted run opened at ``pos``: its unescaped text and its end.

    A doubled closing quote is an escaped quote (not for ``]``); an
    unterminated run extends to the end of the text.
    """
    start = scan = pos + 1
    while True:
        found = sql.find(close, scan)
        if found == -1:
            return sql[start:], len(sql)
        if close == "]" or not sql.startswith(close * 2, found):
            return sql[start:found].replace(close * 2, close), found + 1
        scan = found + 2


#: The rest of a word or parameter name, from its second character on.
_WORD_TAIL = re.compile(r"\w*")


def walk(sql: str) -> Iterator[Token]:
    """Yield the tokens of ``sql``; whitespace, ``--`` and ``/* */``
    comments, string literals and the parentheses themselves are
    consumed silently."""
    pos, depth, length = 0, 0, len(sql)
    while pos < length:
        char = sql[pos]
        end = pos + 1
        if char.isalpha() or char == "_":
            end = _WORD_TAIL.match(sql, end).end()
            yield Token("word", sql[pos:end], pos, end, depth)
        elif char.isspace():
            pass
        elif sql.startswith("--", pos):
            newline = sql.find("\n", pos)
            end = length if newline == -1 else newline + 1
        elif sql.startswith("/*", pos):
            close = sql.find("*/", pos + 2)
            end = length if close == -1 else close + 2
        elif char == "'":
            end = _quoted(sql, pos, "'")[1]
        elif char in '"`[':
            text, end = _quoted(sql, pos, "]" if char == "[" else char)
            yield Token("name", text, pos, end, depth)
        elif char in "()":
            depth += 1 if char == "(" else -1
        else:
            kind = "op"
            if char in "?:@$":
                # ``?`` alone is a marker; ``:``, ``@``, ``$`` need a name.
                tail = _WORD_TAIL.match(sql, end).end()
                if char == "?" or tail > end:
                    kind, end = "param", tail
            yield Token(kind, sql[pos:end], pos, end, depth)
        pos = end


def first_keyword(sql: str) -> str:
    """The statement's leading keyword, uppercased (``""`` if none):
    ``/* undo */ ROLLBACK;`` reads as ``ROLLBACK``."""
    return next(walk(sql), _END).keyword


@dataclass(frozen=True)
class DmlTarget:
    """One intercepted statement, resolved to its target table.

    ``select_sql`` is the pre-image SELECT — for DELETE the statement
    with its DELETE keyword spliced to ``SELECT *`` (parameters
    untouched), for UPDATE a rowid-targeted ``SELECT rowid, * … WHERE``
    built from the statement's own top-level WHERE tail (None when the
    tail cannot be reused, e.g. exotic parameter styles or an UPDATE …
    FROM); ``param_offset`` counts the ``?`` markers consumed by the SET
    clause, i.e. how many leading parameters the pre-image SELECT must
    skip; ``conflict`` marks conflict clauses (``INSERT OR REPLACE`` /
    ``REPLACE INTO`` / ``UPDATE OR …``), whose side-deletions delta
    capture cannot see.  ``op`` may also be ``drop_table`` /
    ``alter_rename`` (refused while views depend on the table) or
    ``alter`` (full recompute after execution).
    """

    op: str
    table: str  # lowercase, unquoted
    select_sql: str | None = None
    conflict: bool = False
    param_offset: int = 0


#: Statement verb → the keyword that introduces its table name.
_TABLE_INTRODUCER = {
    "INSERT": "INTO",
    "REPLACE": "INTO",
    "DELETE": "FROM",
    "UPDATE": None,
    "DROP": "TABLE",
    "ALTER": "TABLE",
}


def dml_target(sql: str) -> DmlTarget | None:
    """Resolve one statement to the DML operation and table it targets.

    Robust against the ways a statement's *leading token* can hide the
    operation: ``--`` and ``/* */`` comments before the keyword, and CTE
    prologues (``WITH ... INSERT/UPDATE/DELETE``) — either would
    otherwise silently skip preference-view maintenance.  Returns None
    for anything that is not INSERT/DELETE/UPDATE/DROP TABLE/ALTER TABLE
    (including plain SELECT behind a CTE).
    """
    tokens = walk(sql)
    advance = lambda: next(tokens, _END)
    verb = advance()
    if verb.keyword == "WITH":
        # Step over the CTE prologue to the statement's own verb.
        verbs = ("SELECT", *_TABLE_INTRODUCER)
        verb = next((t for t in tokens if t.depth == 0 and t.keyword in verbs), _END)
    keyword = verb.keyword
    if keyword not in _TABLE_INTRODUCER:
        return None
    word = advance()
    conflict = keyword == "REPLACE"
    if word.keyword == "OR" and keyword in ("INSERT", "UPDATE"):
        # UPDATE OR REPLACE may delete conflicting rows the snapshot of
        # the WHERE-matching set cannot see; every INSERT OR … counts.
        conflict = advance().keyword == "REPLACE" or keyword == "INSERT"
        word = advance()
    introducer = _TABLE_INTRODUCER[keyword]
    if introducer is not None:
        if word.keyword != introducer:
            return None
        word = advance()
    if keyword == "DROP" and word.keyword == "IF":
        advance()  # EXISTS
        word = advance()
    # A possibly quoted, possibly schema-qualified name (``main.t``): the
    # table is the last part.
    following = advance()
    while following.kind == "op" and following.text == ".":
        word, following = advance(), advance()
    name = word.text if word.kind in ("word", "name") else ""
    table = name.lower()
    if keyword in ("INSERT", "REPLACE"):
        return DmlTarget("insert", table, conflict=conflict)
    if keyword == "DELETE":
        # Pre-image query: the same statement with DELETE spliced to
        # SELECT * — WHERE clause and parameter markers are untouched.
        return DmlTarget("delete", table, sql[: verb.start] + "SELECT *" + sql[verb.end :])
    if keyword == "DROP":
        return DmlTarget("drop_table", table)
    if keyword == "ALTER":
        renames = following.keyword == "RENAME"
        return DmlTarget("alter_rename" if renames else "alter", table)
    # UPDATE: find the statement's top-level WHERE behind the SET clause,
    # counting the plain ``?`` markers before it.  The tail cannot be
    # reused under numbered/named parameter styles, or for an ``UPDATE …
    # FROM`` join whose WHERE references other tables.
    placeholders, where = 0, ""
    for token in chain((following,), tokens):
        if token.kind == "param" and token.text == "?":
            placeholders += 1
        elif token.kind == "param" or (token.depth == 0 and token.keyword == "FROM"):
            return DmlTarget("update", table, conflict=conflict)
        elif token.depth == 0 and token.keyword == "WHERE":
            where = sql[token.start :]
            break
    select_sql = f"SELECT rowid, * FROM {quote_identifier(name)} {where}".rstrip()
    return DmlTarget("update", table, select_sql, conflict, placeholders)
