"""A cached plan outlives a write, and never outlives a schema change.

* property: a plan cached before random INSERT/UPDATE/DELETE — written
  through the reading connection or through a pooled sibling — returns
  the nested-loop oracle's rows after each of them, under the cost
  model's choice, a pinned ``rewrite`` (with and without the rank-CTE
  pivot) and a pinned ``bnl``;
* DDL regressions: every kind of table DDL the driver sees moves the
  plan-cache key, so the next execution re-plans against the new schema;
* work count: the first 400 ``serve_dml`` ops plan three statements and
  gather statistics a handful of times, while writes still retire the
  session cache.
"""

from __future__ import annotations

import contextlib
import itertools
import sqlite3
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
import repro.driver.dbapi as dbapi
import repro.plan.planner as planner
from repro.engine import PreferenceEngine, Relation
from repro.plan.pivot import PIVOT_MIN_ROWS
from repro.plan.statistics import StatisticsCache, TableStatistics
from repro.server.shared import SharedState

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

COLUMNS = ("id", "k", "a", "b", "c")
#: Rows the WHERE clause never keeps; they set the table's size (and
#: with it the drift bound and the pivot) without slowing the oracle.
FILLER_K = 1000

_value = st.one_of(st.none(), st.integers(0, 9))
_candidates = st.lists(
    st.tuples(st.integers(0, 40), _value, _value, st.sampled_from("xyz")),
    min_size=0,
    max_size=14,
)
_writes = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 40), _value, _value),
        st.tuples(st.just("update"), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=8,
)
_PREFERENCES = (
    "LOWEST(a) AND HIGHEST(b)",
    "a AROUND 4 AND LOWEST(b)",
    "LOWEST(a) CASCADE HIGHEST(b)",
    "(LOWEST(a) AND LOWEST(b)) CASCADE c IN ('x')",
    "b BETWEEN 2, 5 AND c = 'y'",
)

#: mode → (pinned strategy or None for the cost model's choice, filler rows)
MODES = {
    "auto": (None, 400),
    "rewrite": ("rewrite", 400),
    "rewrite-pivot": ("rewrite", PIVOT_MIN_ROWS),
    "bnl": ("bnl", 400),
}


def _write_sql(write) -> tuple[str, tuple]:
    kind, *values = write
    if kind == "insert":
        return "INSERT INTO t (k, a, b, c) VALUES (?, ?, ?, 'x')", tuple(values)
    if kind == "update":
        return f"UPDATE t SET a = ? WHERE b = ? AND k < {FILLER_K}", tuple(values)
    return f"DELETE FROM t WHERE a = ? AND k < {FILLER_K}", tuple(values)


def _oracle(connection, query: str) -> list:
    rows = connection.raw.execute("SELECT * FROM t").fetchall()
    engine = PreferenceEngine(
        {"t": Relation(columns=COLUMNS, rows=rows)}, algorithm="nested_loop"
    )
    return sorted(engine.execute(query).rows, key=repr)


@pytest.mark.parametrize("mode", list(MODES))
@given(
    candidates=_candidates,
    writes=_writes,
    preference=st.sampled_from(_PREFERENCES),
    sibling=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_cached_plan_matches_oracle_after_random_writes(
    mode, candidates, writes, preference, sibling
):
    strategy, filler = MODES[mode]
    query = f"SELECT * FROM t WHERE k < {FILLER_K} PREFERRING {preference}"
    with tempfile.TemporaryDirectory() as directory:
        database = str(Path(directory) / "t.db")
        setup = sqlite3.connect(database)
        setup.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, "
            "a INTEGER, b INTEGER, c TEXT)"
        )
        setup.executemany(
            "INSERT INTO t (k, a, b, c) VALUES (?, ?, ?, ?)",
            [(FILLER_K, i % 10, i % 7, "z") for i in range(filler)] + candidates,
        )
        setup.commit()
        setup.close()
        shared = SharedState()
        reader = repro.connect(database, shared=shared)
        writer = repro.connect(database, shared=shared) if sibling else reader
        pinned = (
            mock.patch.object(planner, "choose_strategy", lambda _: strategy)
            if strategy is not None
            else contextlib.nullcontext()
        )
        try:
            with pinned:
                first = reader.execute(query)
                assert sorted(first.fetchall(), key=repr) == _oracle(reader, query)
                if strategy is not None and first.plan.semantic_rule is None:
                    assert first.plan.strategy == strategy
                    assert first.plan.pivot == (mode == "rewrite-pivot")
                for write in writes:
                    writer.execute(*_write_sql(write))
                    writer.commit()
                    cursor = reader.execute(query)
                    rows = sorted(cursor.fetchall(), key=repr)
                    assert rows == _oracle(reader, query), (write, cursor.plan.strategy)
        finally:
            if sibling:
                writer.close()
            reader.close()


# ----------------------------------------------------------------------
# DDL regressions: each one moves the plan-cache key


@pytest.fixture(params=["rewrite", "bnl"])
def pinned(request):
    with mock.patch.object(planner, "choose_strategy", lambda _: request.param):
        yield request.param


def _table(connection, name: str = "t") -> None:
    connection.execute(f"CREATE TABLE {name} (id INTEGER, a INTEGER, b INTEGER)")
    connection.cursor().executemany(
        f"INSERT INTO {name} VALUES (?, ?, ?)",
        [(i, (i * 7) % 11, (i * 5) % 13) for i in range(30)],
    )
    connection.commit()


def _replans(connection, sql: str) -> tuple[int, list, tuple]:
    """Run ``sql`` through the plan cache: (plan_statement calls, rows,
    column names)."""
    with mock.patch.object(
        dbapi, "plan_statement", wraps=dbapi.plan_statement
    ) as planned:
        cursor = connection.execute(sql)
        rows = sorted(cursor.fetchall(), key=repr)
    return planned.call_count, rows, tuple(cursor.column_names)


def _fresh(connection, sql: str) -> tuple[list, tuple]:
    """The same statement planned from scratch (the cache bypassed)."""
    connection.clear_plan_cache()
    cursor = connection.execute(sql)
    return sorted(cursor.fetchall(), key=repr), tuple(cursor.column_names)


SINGLE = "SELECT * FROM t PREFERRING LOWEST(a) AND HIGHEST(b)"
JOIN = "SELECT * FROM t, u WHERE t.id = u.id PREFERRING LOWEST(t.a) AND HIGHEST(u.b)"


@pytest.mark.parametrize("sql", [SINGLE, JOIN], ids=["single", "join"])
def test_add_column_replans_a_cached_select_star(connection, pinned, sql):
    _table(connection, "t")
    _table(connection, "u")
    connection.execute(sql).fetchall()
    assert _replans(connection, sql)[0] == 0  # cached
    table = "u" if sql is JOIN else "t"
    connection.execute(f"ALTER TABLE {table} ADD COLUMN extra TEXT DEFAULT 'e'")
    calls, rows, columns = _replans(connection, sql)
    assert calls == 1
    assert "extra" in columns
    assert (rows, columns) == _fresh(connection, sql)


def test_drop_table_then_create_view_replans(connection, pinned):
    _table(connection, "t")
    _table(connection, "base")
    connection.execute(SINGLE).fetchall()
    connection.execute("DROP TABLE t")
    connection.execute("CREATE VIEW t AS SELECT id, b AS a, a AS b FROM base")
    calls, rows, columns = _replans(connection, SINGLE)
    assert calls == 1
    assert (rows, columns) == _fresh(connection, SINGLE)


@pytest.mark.parametrize("open_transaction", [False, True], ids=["closed", "open"])
def test_executescript_replans(connection, pinned, open_transaction):
    _table(connection, "t")
    connection.execute(SINGLE).fetchall()
    script = "ALTER TABLE t ADD COLUMN extra TEXT; UPDATE t SET extra = 'e';"
    if open_transaction:
        # The ALTER committed, the transaction after it did not: the
        # rollback must not restore the pre-script plan-cache key.
        script += " BEGIN; INSERT INTO t (id, a, b) VALUES (99, 0, 99);"
    connection.cursor().executescript(script)
    assert connection.raw.in_transaction == open_transaction
    if open_transaction:
        connection.rollback()
    calls, rows, columns = _replans(connection, SINGLE)
    assert calls == 1
    assert columns[-1] == "extra"
    assert (rows, columns) == _fresh(connection, SINGLE)


def test_rolled_back_create_table_is_not_served(connection, pinned):
    _table(connection, "t")
    sql = "SELECT * FROM u PREFERRING LOWEST(a)"
    connection.execute(SINGLE).fetchall()  # the catalog tables, committed
    connection.execute("INSERT INTO t VALUES (99, 0, 0)")  # opens a transaction
    connection.execute("CREATE TABLE u (id INTEGER, a INTEGER)")
    connection.execute("INSERT INTO u VALUES (1, 5), (2, 3)")
    assert connection.execute(sql).fetchall() == [(2, 3)]
    connection.rollback()
    # u comes back with another schema: the plan cached inside the
    # aborted transaction must not be served.
    connection.execute("CREATE TABLE u (a INTEGER, id INTEGER, z TEXT)")
    connection.execute("INSERT INTO u VALUES (4, 1, 'q'), (7, 2, 'r')")
    calls, rows, columns = _replans(connection, sql)
    assert calls == 1
    assert columns == ("a", "id", "z")
    assert rows == [(4, 1, "q")]


@pytest.mark.parametrize("mode", ["plain", "view", "savepoint"])
def test_autocommitted_ddl_survives_rollback(connection, pinned, mode):
    # Legacy transaction control: the ALTER commits at once — or with
    # the RELEASE of the savepoint that opened the transaction around
    # it — so the rollback after it must not restore the pre-ALTER
    # plan-cache key, not even when the view maintenance it triggers
    # opens a transaction.
    assert connection.raw.isolation_level is not None
    _table(connection, "t")
    if mode == "view":
        connection.execute(
            "CREATE PREFERENCE VIEW best AS SELECT * FROM t PREFERRING LOWEST(b)"
        )
        connection.commit()
    connection.execute(SINGLE).fetchall()
    if mode == "savepoint":
        connection.execute("SAVEPOINT a")
        assert connection.raw.in_transaction
    connection.execute("ALTER TABLE t ADD COLUMN extra TEXT DEFAULT 'e'")
    if mode == "savepoint":
        connection.execute("RELEASE a")
    assert connection.raw.in_transaction == (mode == "view")
    connection.rollback()
    calls, rows, columns = _replans(connection, SINGLE)
    assert calls == 1
    assert columns[-1] == "extra"
    assert (rows, columns) == _fresh(connection, SINGLE)


def test_raw_commit_makes_the_catalog_durable(connection, pinned):
    # A pass-through COMMIT makes the redefined preference the committed
    # catalog: a later rollback() restores its version, not the one the
    # plan over the dropped definition was cached under.  Pareto, so no
    # semantic rule fires (an observed one would re-plan after rollback).
    _table(connection, "t")
    sql = "SELECT * FROM t PREFERRING PREFERENCE p"
    connection.execute("CREATE PREFERENCE p ON t AS LOWEST(a) AND HIGHEST(b)")
    connection.commit()
    connection.execute(sql).fetchall()
    connection.execute("DROP PREFERENCE p")
    connection.execute("CREATE PREFERENCE p ON t AS HIGHEST(a) AND LOWEST(b)")
    connection.execute("COMMIT")
    connection.execute(sql).fetchall()
    connection.rollback()
    calls, rows, columns = _replans(connection, sql)
    assert calls == 0
    assert (rows, columns) == _fresh(connection, sql)


def test_sibling_ddl_orphans_the_shared_plan(tmp_path, pinned):
    database = str(tmp_path / "t.db")
    shared = SharedState()
    first = repro.connect(database, shared=shared)
    second = repro.connect(database, shared=shared)
    try:
        _table(first, "t")
        first.execute(SINGLE).fetchall()
        second.execute("ALTER TABLE t ADD COLUMN extra TEXT DEFAULT 'e'")
        second.commit()
        calls, rows, columns = _replans(first, SINGLE)
        assert calls == 1
        assert columns[-1] == "extra"
    finally:
        second.close()
        first.close()


# ----------------------------------------------------------------------
# Drift across a pool, and what DML leaves alone


def test_sibling_writes_count_towards_drift(tmp_path):
    database = str(tmp_path / "t.db")
    shared = SharedState()
    first = repro.connect(database, shared=shared)
    second = repro.connect(database, shared=shared)
    try:
        _table(first, "t")  # 30 rows: the drift bound is 3
        first.execute(SINGLE).fetchall()
        insert = "INSERT INTO t VALUES (?, ?, ?)"
        second.cursor().executemany(insert, [(100 + i, 0, 20) for i in range(3)])
        second.commit()
        assert _replans(first, SINGLE)[0] == 0
        second.execute(insert, (200, 0, 21))
        second.commit()
        calls, rows, _columns = _replans(first, SINGLE)
        assert calls == 1
        assert rows == [(200, 0, 21)]
        assert _replans(first, SINGLE)[0] == 0
    finally:
        second.close()
        first.close()


def test_pooled_written_rows_lose_no_update():
    """Four threads (more than the cores) feed one pool's counter through
    their own StatisticsCache instances, as pooled connections do."""
    shared = SharedState()
    handles = [sqlite3.connect(":memory:") for _ in range(4)]
    caches = [
        StatisticsCache(
            handle,
            version=lambda: 0,
            entries=shared.statistics_entries,
            lock=shared.statistics_lock,
            written=shared.written_rows,
        )
        for handle in handles
    ]

    start = threading.Barrier(len(caches))

    def write(cache):
        start.wait(timeout=30)
        for _ in range(20_000):
            cache.note_written("T", 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(c,)) for c in caches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        for handle in handles:
            handle.close()
    assert not any(thread.is_alive() for thread in threads)
    assert shared.written_rows == {"t": 80_000}
    assert not caches[0].drifted(TableStatistics("t", 800_000, {}, written=0))
    assert caches[1].drifted(TableStatistics("t", 799_999, {}, written=0))


@pytest.mark.parametrize("constraint", ["schema", "observed"])
def test_semantic_plan_replans_only_when_its_constraints_may_move(
    connection, constraint
):
    # LOWEST over an INTEGER PRIMARY KEY is proved a single-pass query
    # from the schema alone; over a plain column, from observed data.
    column = "a" if constraint == "schema" else "b"
    connection.execute("CREATE TABLE s (a INTEGER PRIMARY KEY, b INTEGER)")
    connection.cursor().executemany(
        "INSERT INTO s VALUES (?, ?)", [(i, i % 7) for i in range(30)]
    )
    sql = f"SELECT * FROM s PREFERRING LOWEST({column})"
    plan = connection.execute(sql).plan
    assert plan.semantic_rule is not None
    observed = [label for label in plan.semantic_constraints if "[observed]" in label]
    assert bool(observed) == (constraint == "observed")
    for _round in range(3):  # no write in between: served as cached
        assert _replans(connection, sql)[0] == 0
    before = connection.plan_cache_stats()
    # One row, below the drift bound, that moves the answer.
    connection.execute("INSERT INTO s VALUES (-1, -1)")
    calls, rows, columns = _replans(connection, sql)
    assert calls == (1 if observed else 0)
    assert connection.plan_cache_stats().misses == before.misses + calls
    assert rows == [(-1, -1)]
    assert (rows, columns) == _fresh(connection, sql)


def test_view_maintenance_counts_towards_drift(connection):
    _table(connection, "t")
    connection.execute(
        "CREATE PREFERENCE VIEW best AS SELECT * FROM t "
        "PREFERRING LOWEST(a) AND HIGHEST(b)"
    )
    sql = "SELECT * FROM best PREFERRING LOWEST(a) AND LOWEST(b)"
    plan = connection.execute(sql).plan
    assert plan.semantic_rule is None and [s.table for s in plan.sources] == ["best"]
    assert _replans(connection, sql)[0] == 0
    # Written to the base table only: the maintained view's rows change
    # (and with them its counter), so its plan is priced again.
    connection.execute("INSERT INTO t VALUES (100, -1, 99)")
    calls, rows, columns = _replans(connection, sql)
    assert calls == 1
    assert (rows, columns) == _fresh(connection, sql)


def test_dml_keeps_the_schema_cache(connection):
    _table(connection, "t")
    schema = connection.schema()
    connection.execute("INSERT INTO t VALUES (1, 2, 3)")
    connection.execute("UPDATE t SET a = 0 WHERE id = 1")
    connection.execute("DELETE FROM t WHERE id = 2")
    assert connection.schema() is schema
    connection.execute("CREATE TABLE x (y INTEGER)")
    assert connection.schema()["x"] == ["y"]


def test_one_data_version_read_per_session_capturing_execution(connection, pinned):
    _table(connection, "t")
    sent: list[str] = []
    connection.raw.set_trace_callback(sent.append)
    for _round in range(5):
        connection.execute(SINGLE).fetchall()
    connection.raw.set_trace_callback(None)
    reads = [sql for sql in sent if "data_version" in sql.lower()]
    # Only an in-memory plan's winners are stored; a rewrite with an
    # empty session cache needs no versions at all.
    assert len(reads) == (5 if pinned == "bnl" else 0)


def test_named_preference_resolved_once_per_plan(connection):
    _table(connection, "t")
    connection.execute("CREATE PREFERENCE low_a ON t AS LOWEST(a)")
    catalog = connection.catalog
    sql = "SELECT * FROM t PREFERRING PREFERENCE low_a AND HIGHEST(b)"
    with mock.patch.object(catalog, "get", wraps=catalog.get) as looked_up:
        rows = connection.execute(sql).fetchall()
    assert looked_up.call_count == 1
    assert rows == connection.execute(
        "SELECT * FROM t PREFERRING LOWEST(a) AND HIGHEST(b)"
    ).fetchall()


# ----------------------------------------------------------------------
# Work count: writes below the drift bound re-plan nothing


def test_serve_dml_work_count(tmp_path):
    from benchmark.workloads import WORKLOADS, flatten

    workload = WORKLOADS["serve_dml"]
    database = str(tmp_path / "serve_dml.db")
    setup = repro.connect(database)
    workload.load(setup)
    setup.close()
    connection = repro.connect(database)
    try:
        ops = itertools.islice(flatten(workload.stream(1, 0)), 400)
        with mock.patch.object(
            dbapi, "plan_statement", wraps=dbapi.plan_statement
        ) as planned:
            for op in ops:
                connection.execute(op.sql, op.params).fetchall()
        assert planned.call_count == 3
        assert connection.statistics.scan_count <= 5
        assert connection.session_stats()["invalidations"] > 0
        assert connection.plan_cache_stats().misses == 3
    finally:
        connection.close()
