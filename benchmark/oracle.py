"""Independent answers to compare the program's answers against.

The nested-loop evaluator is the repository's semantic oracle
(ROADMAP aim 3).  A preference statement over one table with at most
:data:`NESTED_LOOP_LIMIT` candidates is answered by
``PreferenceEngine(algorithm="nested_loop")`` over the candidates a raw
``sqlite3`` connection fetched; anything bigger, or a join, by a fresh
driver connection forced onto the strategy family the planner did *not*
choose (``rewrite`` ↔ in-memory).  Plain SQL is answered by raw
``sqlite3``.  All of it runs outside the timed windows.
"""

from __future__ import annotations

import re
import sqlite3
import zlib
from typing import Iterable, Sequence

import repro
from benchmark.workloads import IN_MEMORY, Op
from repro.engine import PreferenceEngine, Relation
from repro.plan import in_memory_parts
from repro.sql import ast, parse_statement
from repro.sql.params import bind_parameters

#: Candidate count up to which the quadratic oracle is affordable.
NESTED_LOOP_LIMIT = 3_000

_PREFERENCE = re.compile(r"\bPREFERRING\b", re.IGNORECASE)


def digest(rows: Iterable[Iterable[object]]) -> list[int]:
    """Order-insensitive fingerprint of a result: [row count, crc32]."""
    rendered = sorted(repr(tuple(row)) for row in rows)
    return [len(rendered), zlib.crc32("\n".join(rendered).encode())]


def check(op: Op, rows: Iterable[Iterable[object]]) -> dict:
    """The answer the program gave to ``op``, for :func:`wrong_answers`."""
    return {"sql": op.sql, "params": list(op.params), "digest": digest(rows)}


def expected_digest(database: str, sql: str, params: Sequence[object]) -> list[int]:
    """The oracle's [row count, crc32] for one statement."""
    if not _PREFERENCE.search(sql):
        raw = sqlite3.connect(database)
        try:
            return digest(raw.execute(sql, tuple(params)).fetchall())
        finally:
            raw.close()

    connection = repro.connect(database)
    try:
        statement = parse_statement(sql)
        if params:
            statement = bind_parameters(statement, params)
        assert isinstance(statement, ast.Select)
        if len(statement.sources) == 1 and isinstance(
            statement.sources[0], ast.TableRef
        ):
            scan_sql, residual, _width = in_memory_parts(
                statement, connection.catalog.resolve
            )
            cursor = connection.raw.execute(scan_sql)
            candidates = cursor.fetchall()
            if len(candidates) <= NESTED_LOOP_LIMIT:
                columns = [entry[0] for entry in cursor.description]
                engine = PreferenceEngine(
                    {residual.sources[0].name: Relation(columns, candidates)},
                    algorithm="nested_loop",
                )
                return digest(engine.execute_select(residual).rows)
        chosen = connection.plan(sql, params).strategy
        other = "rewrite" if chosen in IN_MEMORY + ("prejoin",) else "bnl"
        return digest(connection.execute(sql, params, algorithm=other).fetchall())
    finally:
        connection.close()


def wrong_answers(database: str, checks: Sequence[dict]) -> list[str]:
    """Statements among ``checks`` whose digest differs from the oracle's."""
    return [
        answer["sql"]
        for answer in checks
        if expected_digest(database, answer["sql"], answer["params"])
        != answer["digest"]
    ]
