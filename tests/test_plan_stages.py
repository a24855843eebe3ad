"""A plan is its stage list: rebinding re-runs the strategy's build, and
nothing a cached plan is read by changes it.

A plan rebound to a new binding must equal the plan made afresh for that
binding under the same strategy (a fresh *auto* plan may price the new
literals differently, so the strategy is forced), and the plans the plan
cache shares between pooled threads are never changed by pricing the
session on top, rebinding or running them.
"""

import copy
import dataclasses
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.plan.planner as plan_planner
from repro.engine.bmo import Host, Reuse, Scan, Winnow, run, run_plan
from repro.plan.planner import STRATEGY_TABLE, rebind_plan
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.workloads.traffic import load_traffic_database, query_chains

ROWS = [(i, (i * 7919) % 97, (i * 104729) % 89, i % 4) for i in range(600)]

#: (strategy, pivot, parameterized query) — bnl on one table and over a
#: join, and the rewrite without and with the rank-CTE pivot.
CASES = [
    ("bnl", False, "SELECT * FROM t WHERE a > ? PREFERRING b AROUND ? AND LOWEST(c)"),
    (
        "bnl",
        False,
        "SELECT t.id, u.y FROM t JOIN u ON t.g = u.g WHERE t.a > ? "
        "PREFERRING t.b AROUND ? AND HIGHEST(u.y) GROUPING t.g",
    ),
    ("rewrite", False, "SELECT id, b FROM t WHERE a > ? PREFERRING b AROUND ? AND LOWEST(c)"),
    ("rewrite", True, "SELECT id, b FROM t WHERE a > ? PREFERRING b AROUND ? AND LOWEST(c)"),
]


@pytest.fixture(scope="module")
def con():
    connection = repro.connect(":memory:")
    connection.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, g INTEGER)")
    connection.execute("CREATE TABLE u (g INTEGER, y INTEGER)")
    connection.cursor().executemany("INSERT INTO t VALUES (?, ?, ?, ?)", ROWS)
    connection.cursor().executemany(
        "INSERT INTO u VALUES (?, ?)", [(i % 4, i) for i in range(40)]
    )
    connection.execute("ALTER TABLE t ADD COLUMN c INTEGER")
    connection.execute("UPDATE t SET c = (id * 31) % 53")
    yield connection
    connection.close()


def _bound(sql, params):
    return bind_parameters(parse_statement(sql), params)


@pytest.mark.parametrize("strategy, pivot, sql", CASES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    first=st.tuples(st.integers(-5, 100), st.integers(-10, 100)),
    second=st.tuples(st.integers(-5, 100), st.integers(-10, 100)),
)
def test_a_rebound_plan_equals_the_plan_built_afresh(con, strategy, pivot, sql, first, second):
    with mock.patch.object(plan_planner, "PIVOT_MIN_ROWS", 0 if pivot else 10**9):
        cached = con.plan(sql, first, force=strategy)
        rebound = rebind_plan(
            cached,
            _bound(sql, second),
            schema=con.schema(),
            resolver=con.catalog.resolve,
        )
        fresh = con.plan(sql, second, force=strategy)
    assert (rebound.strategy, rebound.pivot) == (strategy, pivot)
    assert rebound.stages == fresh.stages
    assert rebound.host_sql == fresh.host_sql
    execute = con.raw.execute
    assert run_plan(execute, rebound).rows == run_plan(execute, fresh).rows


def test_stages_per_strategy(con):
    sql = "SELECT * FROM t PREFERRING LOWEST(a) AND LOWEST(c)"
    bnl = con.plan(sql, force="bnl")
    assert [type(stage) for stage in bnl.stages] == [Scan, Winnow]
    assert bnl.host_sql == bnl.pushdown_sql == bnl.stages[0].sql
    rewrite = con.plan(sql, force="rewrite")
    assert [type(stage) for stage in rewrite.stages] == [Host]
    assert rewrite.host_sql == rewrite.rewritten_sql
    passthrough = con.plan("SELECT * FROM t")
    assert passthrough.stages == () and passthrough.host_sql is None


def test_a_plan_miss_builds_the_rewrite_once(con):
    """The statistics decide the pivot before the one rewrite build, so
    every strategy's EXPLAIN exhibit is the text the rewrite would run."""
    sql = "SELECT * FROM t WHERE a > 3 PREFERRING LOWEST(a) AND LOWEST(c)"
    spy = mock.patch.object(
        plan_planner, "rewrite_statement", wraps=plan_planner.rewrite_statement
    )
    with mock.patch.object(plan_planner, "PIVOT_MIN_ROWS", 0), spy as built:
        plans = {}
        for strategy in ("rewrite", "bnl"):
            built.reset_mock()
            plans[strategy] = con.plan(sql, force=strategy)
            assert built.call_count == 1, strategy
        built.reset_mock()
        con.execute(sql + " AND HIGHEST(b)").fetchall()
        assert built.call_count == 1
    assert plans["rewrite"].pivot
    assert plans["bnl"].rewritten_sql == plans["rewrite"].host_sql


def test_a_view_definition_plan_rebinds_to_the_same_stages():
    """A preference view does not change how its definition's text is
    planned: the plan reads the base table and rebinds to itself."""
    con = repro.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER)")
        con.cursor().executemany(
            "INSERT INTO t VALUES (?, ?, ?)", [(i, i % 13, i % 7) for i in range(300)]
        )
        query = "SELECT * FROM t WHERE a > 2 PREFERRING LOWEST(a) AND HIGHEST(b)"
        con.execute(f"CREATE PREFERENCE VIEW best AS {query}")
        plan = con.plan(query)
        assert plan.strategy in ("rewrite", "bnl")
        rebound = rebind_plan(
            plan,
            parse_statement(query),
            schema=con.schema(),
            resolver=con.catalog.resolve,
        )
        assert rebound.stages == plan.stages
        assert rebound.host_sql == plan.host_sql
        assert '"best"' not in plan.host_sql
        expected = con.execute(query, algorithm="rewrite").fetchall()
        assert sorted(run_plan(con.raw.execute, rebound).rows) == sorted(expected)
        assert sorted(expected) == sorted(con.raw.execute("SELECT * FROM best"))
    finally:
        con.close()


def test_the_traffic_chains_reach_every_strategy():
    """The reach census: one pass of the traffic mix's chains, in order
    on one connection, chooses every strategy in the table (a cursor
    without a plan counts as pass-through)."""
    con = repro.connect(":memory:")
    try:
        load_traffic_database(con)
        reached = set()
        for chain in query_chains():
            for sql in chain.statements:
                cursor = con.execute(sql)
                cursor.fetchall()
                reached.add(cursor.plan.strategy if cursor.plan else "passthrough")
    finally:
        con.close()
    assert reached == set(STRATEGY_TABLE)


def test_cached_plans_are_never_changed_by_their_readers():
    """The plan cache shares plans between pooled threads: pricing the
    session on top, rebinding and running return new plans or rows and
    leave the cached one as it was."""
    con = repro.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, c INTEGER)")
        con.cursor().executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [(i, (i * 7919) % 1000, (i * 104729) % 997, i % 5) for i in range(3000)],
        )
        base = "SELECT * FROM t WHERE c < ? PREFERRING LOWEST(a) AND HIGHEST(b)"
        refined = base + " CASCADE LOWEST(c)"
        for sql in (base, refined):
            con.execute(sql, (4,)).fetchall()
        entries = con._plan_cache._entries
        cached = {key: entry.plan for key, entry in entries.items()}
        assert len(cached) == 2
        snapshots = copy.deepcopy(cached)

        # with_session on a cache hit: the refinement is served.
        served = con.execute(refined, (4,)).plan
        assert served.strategy == "session" and isinstance(served.stages[0], Reuse)
        # rebind_plan on a cache hit with new parameters.
        con.execute(base, (3,)).fetchall()
        # run on the cached plans themselves.
        for plan in cached.values():
            run(con.raw.execute, plan, capture=True)

        assert {key: entry.plan for key, entry in entries.items()} == cached
        assert all(entries[key].plan is plan for key, plan in cached.items())
        assert cached == snapshots
        with pytest.raises(dataclasses.FrozenInstanceError):
            next(iter(cached.values())).strategy = "rewrite"
    finally:
        con.close()
