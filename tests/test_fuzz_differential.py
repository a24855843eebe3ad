"""Differential fuzzing: every execution path shares one semantics.

The seed's differential suite samples from a fixed list of PREFERRING
clauses; this harness *generates* preference trees — random Pareto /
CASCADE / ELSE compositions over numeric, categorical and EXPLICIT bases,
optionally wrapped in GROUPING, BUT ONLY and named preferences — over
randomized relations, and asserts that the NOT EXISTS rewrite on sqlite
and every in-memory algorithm return identical row multisets.  The in-memory engine remains the
executable specification; any divergence is a bug in one of the paths,
not in the fuzzer.
"""

import random

import hypothesis.strategies as st
from hypothesis import event, given, settings

import repro
from repro.engine import PreferenceEngine, Relation
from repro.plan import STRATEGIES
from repro.workloads.fixtures import relation_to_sqlite

COLUMNS = ("a", "b", "c", "g", "s", "t")

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 12),  # a
        st.integers(0, 12),  # b
        st.sampled_from(["x", "y", "z", None]),  # c
        st.sampled_from(["p", "q", "r", None]),  # g (GROUPING key)
        st.one_of(st.none(), st.integers(0, 6)),  # s (NULL-bearing numeric)
        st.integers(0, 6),  # t (reserved for the BUT ONLY anchor)
    ),
    min_size=0,
    max_size=22,
)

#: ELSE is restricted to favourite/dislike bases (=, <>, IN, NOT IN) by
#: the dialect, so ELSE chains are generated from categorical bases only
#: and then enter the general tree grammar as opaque leaves.
_CATEGORICAL = st.sampled_from(
    ["c = 'x'", "c <> 'y'", "c IN ('x', 'y')", "c NOT IN ('z')"]
)

_ELSE_CHAINS = st.recursive(
    _CATEGORICAL,
    lambda children: st.builds(
        lambda left, right: f"({left}) ELSE ({right})", children, children
    ),
    max_leaves=3,
)

_BASES = st.one_of(
    st.sampled_from(
        [
            "LOWEST(a)",
            "HIGHEST(b)",
            "a AROUND 6",
            "b BETWEEN 3, 9",
            "s AROUND 2",
            "HIGHEST(s)",
            "EXPLICIT(c, 'x' > 'y', 'y' > 'z')",
        ]
    ),
    _CATEGORICAL,
    _ELSE_CHAINS,
)


def _compose(children):
    return st.builds(
        lambda left, right, op: f"({left}) {op} ({right})",
        children,
        children,
        st.sampled_from(["AND", "CASCADE"]),
    )


trees_strategy = st.recursive(_BASES, _compose, max_leaves=4)


def all_paths(rows, query, setup=()):
    """Run one query through every execution path; return the row sets.

    ``setup`` statements (CREATE PREFERENCE ...) run on both the engine
    and the driver connection before the query.
    """
    relation = Relation(columns=COLUMNS, rows=rows)
    engine = PreferenceEngine({"items": relation})
    for statement in setup:
        engine.execute(statement)
    results = {"engine": sorted(engine.execute(query).rows, key=repr)}

    connection = repro.connect(":memory:")
    try:
        relation_to_sqlite(connection, "items", relation)
        for statement in setup:
            connection.execute(statement)
        results["auto"] = sorted(connection.execute(query).fetchall(), key=repr)
        for strategy in STRATEGIES:
            results[strategy] = sorted(
                connection.execute(query, algorithm=strategy).fetchall(),
                key=repr,
            )
    finally:
        connection.close()
    return results


def assert_identical(results, query):
    baseline = results["engine"]
    for path, rows in results.items():
        assert rows == baseline, f"{path} diverges on: {query}"


@given(rows=rows_strategy, tree=trees_strategy)
@settings(max_examples=60, deadline=None)
def test_random_trees_agree_on_all_paths(rows, tree):
    query = f"SELECT * FROM items PREFERRING {tree}"
    assert_identical(all_paths(rows, query), query)


@given(rows=rows_strategy, tree=trees_strategy, data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_trees_with_where_and_grouping(rows, tree, data):
    where = data.draw(
        st.sampled_from([None, "a <= 8", "c IS NOT NULL", "b > 2 AND a < 11"])
    )
    grouping = data.draw(st.sampled_from(["", " GROUPING g", " GROUPING g, c"]))
    query = "SELECT * FROM items"
    if where:
        query += f" WHERE {where}"
    query += f" PREFERRING {tree}{grouping}"
    assert_identical(all_paths(rows, query), query)


@given(rows=rows_strategy, tree=trees_strategy, data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_trees_with_but_only(rows, tree, data):
    # Anchor an AROUND base on column t — which the tree grammar never
    # references — so the quality-function threshold resolves unambiguously
    # regardless of what the random tree contains.
    threshold = data.draw(
        st.sampled_from(["DISTANCE(t) <= 2", "DISTANCE(t) <= 0", "TOP(t) = 1"])
    )
    grouping = data.draw(st.sampled_from(["", " GROUPING g"]))
    query = (
        f"SELECT * FROM items PREFERRING t AROUND 3 AND ({tree})"
        f"{grouping} BUT ONLY {threshold}"
    )
    assert_identical(all_paths(rows, query), query)


# ----------------------------------------------------------------------
# DML-interleaving view maintenance fuzzing
#
# A materialized preference view must equal a fresh recompute after
# *every* DML statement, across every planner strategy.  The ops below
# deliberately mix plain INSERT/DELETE/UPDATE with comment-prefixed and
# CTE-prefixed spellings, so the driver's interception scanner is fuzzed
# alongside the maintenance engine.


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


_INSERT_PREFIXES = st.sampled_from(["", "-- load\n", "/* batch */ "])

_insert_ops = st.builds(
    lambda row, prefix: prefix
    + "INSERT INTO items VALUES ("
    + ", ".join(_literal(value) for value in row)
    + ")",
    rows_strategy.map(lambda rows: rows[0] if rows else (1, 1, "x", "p", 0, 1)),
    _INSERT_PREFIXES,
)

_DELETE_PREDICATES = st.sampled_from(
    ["a > 8", "b <= 3", "c = 'x'", "g = 'p'", "s IS NULL", "a = 5", "t >= 2"]
)

_delete_ops = st.builds(
    lambda predicate, cte: (
        f"WITH doomed AS (SELECT 1 AS one) DELETE FROM items WHERE {predicate}"
        if cte
        else f"DELETE FROM items WHERE {predicate}"
    ),
    _DELETE_PREDICATES,
    st.booleans(),
)

_update_ops = st.builds(
    lambda assignment, predicate: f"UPDATE items SET {assignment} WHERE {predicate}",
    st.sampled_from(
        ["a = 0", "b = 12", "c = 'z'", "s = NULL", "a = a + 3", "g = 'q'"]
    ),
    st.sampled_from(["a < 4", "g = 'q'", "c = 'y'", "b > 6", "t = 3"]),
)

dml_ops_strategy = st.lists(
    st.one_of(_insert_ops, _delete_ops, _update_ops), min_size=1, max_size=5
)


def _view_connection(rows, view_query):
    # Explicit column types: an empty initial relation must not leave
    # the table with TEXT affinity everywhere, or later DML would store
    # numbers as strings and leave the comparison semantics undefined.
    connection = repro.connect(":memory:")
    connection.execute(
        "CREATE TABLE items (a INTEGER, b INTEGER, c TEXT, g TEXT, "
        "s INTEGER, t INTEGER)"
    )
    if rows:
        connection.cursor().executemany(
            "INSERT INTO items VALUES (?, ?, ?, ?, ?, ?)", rows
        )
    connection.execute(f"CREATE PREFERENCE VIEW fuzzview AS {view_query}")
    return connection


def _assert_view_fresh(connection, view_query, context):
    materialized = sorted(
        connection.raw.execute("SELECT * FROM fuzzview").fetchall(), key=repr
    )
    for strategy in STRATEGIES:
        fresh = sorted(
            connection.execute(view_query, algorithm=strategy).fetchall(),
            key=repr,
        )
        assert materialized == fresh, (
            f"view diverges from {strategy} recompute after: {context}"
        )
    # The planner must answer the matching query from the (fresh) view.
    cursor = connection.execute(view_query)
    assert cursor.plan is not None and cursor.plan.strategy == "view", context
    assert sorted(cursor.fetchall(), key=repr) == materialized, context


@given(rows=rows_strategy, tree=trees_strategy, ops=dml_ops_strategy, data=st.data())
@settings(max_examples=120, deadline=None)
def test_view_maintenance_tracks_random_dml(rows, tree, ops, data):
    where = data.draw(st.sampled_from(["", " WHERE a <= 10", " WHERE c IS NOT NULL"]))
    grouping = data.draw(st.sampled_from(["", " GROUPING g", " GROUPING g, c"]))
    view_query = f"SELECT * FROM items{where} PREFERRING {tree}{grouping}"
    connection = _view_connection(rows, view_query)
    try:
        _assert_view_fresh(connection, view_query, "CREATE PREFERENCE VIEW")
        for op in ops:
            connection.execute(op)
            _assert_view_fresh(connection, view_query, op)
    finally:
        connection.close()


@given(rows=rows_strategy, tree=trees_strategy, ops=dml_ops_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_recompute_fallback_views_track_random_dml(rows, tree, ops, data):
    # BUT ONLY thresholds make the view unmaintainable: every DML must
    # trigger the flagged full recompute and still match the oracle.
    threshold = data.draw(st.sampled_from(["DISTANCE(t) <= 2", "TOP(t) = 1"]))
    view_query = (
        f"SELECT * FROM items PREFERRING t AROUND 3 AND ({tree}) "
        f"BUT ONLY {threshold}"
    )
    connection = _view_connection(rows, view_query)
    try:
        entry = connection.views()[0]
        assert not entry.maintainable
        for op in ops:
            connection.execute(op)
            _assert_view_fresh(connection, view_query, op)
        stats = connection.view_maintenance_stats()["fuzzview"]
        assert "incremental" not in stats and "re-derive" not in stats
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Multi-table join fuzzing
#
# Joins are first-class in-memory citizens: the pushdown executes the
# join on the host database and the engine winnows the joined rows.
# Every FROM spelling (comma list and explicit JOIN … ON), every strategy
# and auto selection must return the winner set of the NOT EXISTS
# rewrite (the oracle).

FACT_COLUMNS = ("fa", "fb", "fk", "fc")
DIM_COLUMNS = ("dk", "dw", "dname")

fact_rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 10),  # fa
        st.integers(0, 10),  # fb
        st.integers(0, 5),  # fk (join key)
        st.sampled_from(["x", "y", "z", None]),  # fc
    ),
    min_size=0,
    max_size=14,
)

#: Unique dk per row gives many-to-one joins; repeated dk values (drawn
#: independently) give many-to-many shapes.  Keys outside the fact range
#: leave dangling rows on both sides.
dim_rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 6),  # dk (join key)
        st.integers(0, 8),  # dw
        st.sampled_from(["p", "q", "r"]),  # dname
    ),
    min_size=0,
    max_size=8,
)

_JOIN_BASES = st.sampled_from(
    [
        "LOWEST(f.fa)",
        "HIGHEST(f.fb)",
        "f.fa AROUND 5",
        "f.fb BETWEEN 2, 7",
        "f.fc = 'x'",
        "HIGHEST(d.dw)",
        "d.dname IN ('p', 'q')",
    ]
)

join_trees_strategy = st.recursive(_JOIN_BASES, _compose, max_leaves=3)

_JOIN_WHERE = st.sampled_from(
    [None, "f.fa <= 8", "d.dw > 1", "f.fb > 2 AND d.dw < 7"]
)

_JOIN_GROUPING = st.sampled_from(["", " GROUPING f.fc", " GROUPING d.dname"])


def _join_connection(fact_rows, dim_rows):
    connection = repro.connect(":memory:")
    connection.execute(
        "CREATE TABLE fact (fa INTEGER, fb INTEGER, fk INTEGER, fc TEXT)"
    )
    connection.execute(
        "CREATE TABLE dim (dk INTEGER, dw INTEGER, dname TEXT)"
    )
    if fact_rows:
        connection.cursor().executemany(
            "INSERT INTO fact VALUES (?, ?, ?, ?)", fact_rows
        )
    if dim_rows:
        connection.cursor().executemany(
            "INSERT INTO dim VALUES (?, ?, ?)", dim_rows
        )
    return connection


def _assert_join_paths_agree(connection, queries):
    """All FROM spellings x all strategies return the oracle's rows."""
    oracle = None
    for query in queries:
        for strategy in STRATEGIES:
            rows = sorted(
                connection.execute(query, algorithm=strategy).fetchall(),
                key=repr,
            )
            if oracle is None:
                oracle = rows
            assert rows == oracle, f"{strategy} diverges on: {query}"
        rows = sorted(connection.execute(query).fetchall(), key=repr)
        assert rows == oracle, f"auto diverges on: {query}"


@given(
    fact_rows=fact_rows_strategy,
    dim_rows=dim_rows_strategy,
    tree=join_trees_strategy,
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_join_queries_agree_on_all_paths(fact_rows, dim_rows, tree, data):
    where = data.draw(_JOIN_WHERE)
    grouping = data.draw(_JOIN_GROUPING)
    tail = f" PREFERRING {tree}{grouping}"
    comma_where = "f.fk = d.dk" + (f" AND ({where})" if where else "")
    comma = f"SELECT * FROM fact f, dim d WHERE {comma_where}{tail}"
    joined = "SELECT * FROM fact f JOIN dim d ON f.fk = d.dk"
    if where:
        joined += f" WHERE {where}"
    joined += tail
    connection = _join_connection(fact_rows, dim_rows)
    try:
        _assert_join_paths_agree(connection, (comma, joined))
    finally:
        connection.close()


@given(
    fact_rows=fact_rows_strategy,
    dim_rows=dim_rows_strategy,
    tree=join_trees_strategy,
)
@settings(max_examples=20, deadline=None)
def test_three_table_joins_agree_on_all_paths(fact_rows, dim_rows, tree):
    query = (
        "SELECT * FROM fact f, dim d, grp g "
        "WHERE f.fk = d.dk AND d.dname = g.gname "
        f"PREFERRING {tree}"
    )
    connection = _join_connection(fact_rows, dim_rows)
    try:
        connection.execute("CREATE TABLE grp (gname TEXT, gv INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO grp VALUES (?, ?)", [("p", 1), ("q", 2), ("q", 3)]
        )
        _assert_join_paths_agree(connection, (query,))
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Constraint-aware semantic-rewrite fuzzing
#
# PR 6 adds the constraint catalog and the semantic winnow rewrites;
# the default planner may now replace a winnow with a plain selection
# or a single ordered scan when constraints prove it sound.  These
# cases generate tables *with* constraints — declared ones are derived
# from the generated data, so they never lie — let the planner apply
# whatever rule it can prove, and assert the winner multiset is
# identical to the nested-loop oracle and to every forced strategy.
# Negative cases assert a rule must NOT fire when a precondition
# (NOT NULL proof, provable weak order) is missing.

sem_rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),  # u
        st.integers(0, 9),  # v
        st.one_of(st.none(), st.integers(0, 6)),  # w (NULL-bearing)
        st.sampled_from(["x", "y", "z", None]),  # c
    ),
    min_size=0,
    max_size=16,
).map(lambda rows: [(index,) + row for index, row in enumerate(rows)])

_SEM_BASES = st.sampled_from(
    [
        "LOWEST(u)",
        "HIGHEST(v)",
        "u AROUND 2",
        "v BETWEEN 3, 7",
        "LOWEST(w)",
        "HIGHEST(k)",
        "c = 'x'",
        "c IN ('x', 'y')",
        "(c = 'x') ELSE (c = 'z')",
        "EXPLICIT(c, 'x' > 'y', 'y' > 'z')",
    ]
)

sem_trees_strategy = st.recursive(_SEM_BASES, _compose, max_leaves=4)

_SEM_WHERE = st.sampled_from(
    [None, "k = 2", "u = 1", "u = 1 AND v = 5", "w IS NOT NULL", "v > 3"]
)


def _sem_connection(rows, data):
    """A driver connection over a constrained table.

    ``k`` is the enumeration index, so KEY (k) and FD (k) DETERMINES …
    are true by construction; NOT NULL (w) is only declared when the
    generated rows actually satisfy it.
    """
    schema_pk = data.draw(st.booleans(), label="schema_pk")
    connection = repro.connect(":memory:")
    key_type = "INTEGER PRIMARY KEY" if schema_pk else "INTEGER"
    connection.execute(
        f"CREATE TABLE items (k {key_type}, u INTEGER NOT NULL, "
        "v INTEGER NOT NULL, w INTEGER, "
        "c TEXT CHECK (c IN ('x', 'y', 'z')))"
    )
    if rows:
        connection.cursor().executemany(
            "INSERT INTO items VALUES (?, ?, ?, ?, ?)", rows
        )
    if data.draw(st.booleans(), label="declare_key"):
        connection.execute(
            "CREATE PREFERENCE CONSTRAINT sem_key ON items KEY (k)"
        )
    if data.draw(st.booleans(), label="declare_not_null"):
        connection.execute(
            "CREATE PREFERENCE CONSTRAINT sem_nn ON items NOT NULL (u, v)"
        )
    if all(row[3] is not None for row in rows) and data.draw(
        st.booleans(), label="declare_w_not_null"
    ):
        connection.execute(
            "CREATE PREFERENCE CONSTRAINT sem_wnn ON items NOT NULL (w)"
        )
    if data.draw(st.booleans(), label="declare_fd"):
        connection.execute(
            "CREATE PREFERENCE CONSTRAINT sem_fd ON items "
            "FD (k) DETERMINES (u, v, c)"
        )
    return connection


def _assert_semantic_paths_agree(connection, query):
    """Default planning (semantic may fire) vs oracle vs every strategy."""
    oracle = sorted(
        connection.execute(query, algorithm="bnl").fetchall(), key=repr
    )
    for strategy in STRATEGIES:
        rows = sorted(
            connection.execute(query, algorithm=strategy).fetchall(), key=repr
        )
        assert rows == oracle, f"{strategy} diverges on: {query}"
    cursor = connection.execute(query)
    rows = sorted(cursor.fetchall(), key=repr)
    assert rows == oracle, f"semantic/auto diverges on: {query}"
    return cursor.plan


@given(rows=sem_rows_strategy, tree=sem_trees_strategy, data=st.data())
@settings(max_examples=120, deadline=None)
def test_constrained_tables_agree_with_oracle(rows, tree, data):
    where = data.draw(_SEM_WHERE)
    grouping = data.draw(st.sampled_from(["", " GROUPING c"]))
    query = "SELECT * FROM items"
    if where:
        query += f" WHERE {where}"
    query += f" PREFERRING {tree}{grouping}"
    connection = _sem_connection(rows, data)
    try:
        plan = _assert_semantic_paths_agree(connection, query)
        rule = plan.semantic_rule if plan is not None else None
        event(f"semantic: {rule or 'none'}")
    finally:
        connection.close()


@given(rows=sem_rows_strategy, data=st.data())
@settings(max_examples=40, deadline=None)
def test_single_pass_must_not_fire_when_nulls_present(rows, data):
    # at least one NULL in w, and no WHERE to pin anything: the only
    # applicable rule would be the weak-order single pass, whose NOT
    # NULL precondition is unprovable — it must stay off.
    rows = rows + [(len(rows), 0, 0, None, "x")]
    query = "SELECT * FROM items PREFERRING LOWEST(w)"
    connection = _sem_connection(rows, data)
    try:
        plan = _assert_semantic_paths_agree(connection, query)
        assert plan is not None
        assert plan.semantic_rule is None, plan.semantic_rule
    finally:
        connection.close()


@given(rows=sem_rows_strategy, tree=sem_trees_strategy, data=st.data())
@settings(max_examples=40, deadline=None)
def test_semantic_must_not_fire_on_unprovable_pareto(rows, tree, data):
    # a top-level Pareto of two live dimensions with no WHERE pins:
    # nothing is constant and the tree is not a weak order, so no rule's
    # preconditions hold.
    query = f"SELECT * FROM items PREFERRING (LOWEST(u) AND HIGHEST(v)) AND ({tree})"
    connection = _sem_connection(rows, data)
    try:
        plan = _assert_semantic_paths_agree(connection, query)
        assert plan is not None
        assert plan.semantic_rule is None, plan.semantic_rule
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Query-sequence session fuzzing
#
# PR 7 adds session-level reuse: a refined query may be answered by
# re-winnowing cached BMO winners instead of rescanning.  These sequences
# model one user session — provable refinements (cascade tie-breakers,
# WHERE weakening, grouping-column strengthening), deliberate
# non-refinements (relaxations, dimension swaps) and interleaved DML —
# and assert EVERY step returns exactly the rows of (a) a fresh
# connection with session reuse disabled and (b) the nested-loop oracle.
# The oracle is O(n^2), so it runs on every step of the small sessions
# and is skipped on the large ones (whose scans exist to make the cost
# model actually choose the session strategy); the fresh-connection
# comparison still covers every step.  A floor on the aggregate ``served``
# counter proves the machinery fired rather than silently falling back.

CARS_COLUMNS = ("id", "price", "mileage", "fuel", "make")
_MAKES = ("vw", "opel", "bmw", "audi")
_FUELS = ("diesel", "petrol", "hybrid")

_SESSION_COUNT = 200
_LARGE_EVERY = 10  # every 10th session is big enough for session reuse


def _cars_rows(rng, count):
    return [
        (
            i,
            rng.randrange(5000, 90000),
            rng.choice([None, rng.randrange(0, 300000)])
            if rng.random() < 0.05
            else rng.randrange(0, 300000),
            rng.choice(_FUELS),
            rng.choice(_MAKES),
        )
        for i in range(count)
    ]


def _cars_connection(rows):
    connection = repro.connect(":memory:")
    connection.execute(
        "CREATE TABLE cars (id INTEGER, price INTEGER, mileage INTEGER, "
        "fuel TEXT, make TEXT)"
    )
    if rows:
        connection.cursor().executemany(
            "INSERT INTO cars VALUES (?, ?, ?, ?, ?)", rows
        )
    connection.execute("ANALYZE")
    return connection


def _session_query(state):
    sql = "SELECT * FROM cars"
    if state["where"]:
        sql += " WHERE " + " AND ".join(state["where"])
    sql += " PREFERRING " + state["pref"]
    for tie in state["cascade"]:
        sql += f" CASCADE {tie}"
    if state["grouping"]:
        sql += " GROUPING fuel"
    return sql


def _oracle_rows(connection, query):
    data = [
        tuple(row)
        for row in connection.raw.execute(
            "SELECT id, price, mileage, fuel, make FROM cars"
        ).fetchall()
    ]
    engine = PreferenceEngine(
        {"cars": Relation(columns=CARS_COLUMNS, rows=data)},
        algorithm="nested_loop",
    )
    return sorted(engine.execute(query).rows, key=repr)


def _session_steps(rng, state, large):
    """Plan one session: a list of ('query', sql) / ('dml', sql) steps."""
    ties = [
        f"make IN ('{make}')" for make in rng.sample(_MAKES, 2)
    ] + [f"fuel IN ('{rng.choice(_FUELS)}')"]
    steps = []
    count = rng.randint(3, 8)
    for position in range(count):
        choices = ["cascade", "swap", "dml", "relax", "weaken", "strengthen"]
        if large and position == 0:
            op = "cascade"  # guarantee one provable refinement per big scan
        else:
            op = rng.choice(choices)
        if op == "cascade" and ties:
            state["cascade"].append(ties.pop(0))
            steps.append(("query", _session_query(state)))
        elif op == "relax" and state["cascade"]:
            state["cascade"].pop()
            steps.append(("query", _session_query(state)))
        elif op == "weaken" and state["where"]:
            state["where"].pop(rng.randrange(len(state["where"])))
            steps.append(("query", _session_query(state)))
        elif op == "strengthen" and state["grouping"] and not any(
            "fuel" in conjunct for conjunct in state["where"]
        ):
            state["where"].append(f"fuel IN ('{rng.choice(_FUELS)}')")
            steps.append(("query", _session_query(state)))
        elif op == "swap":
            swapped = dict(state, pref="HIGHEST(price) AND HIGHEST(mileage)")
            steps.append(("swap", _session_query(swapped)))
        elif op == "dml":
            steps.append(
                (
                    "dml",
                    rng.choice(
                        [
                            "INSERT INTO cars VALUES ({}, {}, {}, '{}', '{}')".format(
                                9000 + position,
                                rng.randrange(1, 90000),
                                rng.randrange(0, 300000),
                                rng.choice(_FUELS),
                                rng.choice(_MAKES),
                            ),
                            "UPDATE cars SET price = price + 100 "
                            f"WHERE make = '{rng.choice(_MAKES)}'",
                            f"DELETE FROM cars WHERE id % 11 = {rng.randrange(11)}",
                        ]
                    ),
                )
            )
        else:
            steps.append(("query", _session_query(state)))
    return steps


def _run_session(seed):
    """One fuzzed session; returns this session's ``served`` count."""
    rng = random.Random(77000 + seed)
    large = seed % _LARGE_EVERY == 0
    rows = _cars_rows(rng, rng.randint(1100, 1400) if large else rng.randint(20, 80))
    state = {
        "pref": "LOWEST(price) AND LOWEST(mileage)",
        "cascade": [],
        "where": [],
        "grouping": False,
    }
    if not large:
        if rng.random() < 0.4:
            state["grouping"] = True
        if rng.random() < 0.4:
            state["where"].append("price < 60000")
    base = _session_query(state)
    steps = [("query", base)] + _session_steps(rng, state, large)

    live = _cars_connection(rows)
    fresh = _cars_connection(rows)
    fresh.session_reuse = False
    seen_since_write = set()
    try:
        for kind, sql in steps:
            if kind == "dml":
                live.execute(sql)
                fresh.execute(sql)
                seen_since_write.clear()
                continue
            cursor = live.execute(sql)
            got = sorted(cursor.fetchall(), key=repr)
            expected = sorted(fresh.execute(sql).fetchall(), key=repr)
            assert got == expected, f"session diverges from fresh eval on: {sql}"
            if not large:
                assert got == _oracle_rows(fresh, sql), (
                    f"session diverges from nested-loop oracle on: {sql}"
                )
            if kind == "swap" and sql not in seen_since_write:
                # A dimension swap refines nothing in the cache; it must
                # never be answered from stored winners.
                assert (
                    cursor.plan is None or cursor.plan.strategy != "session"
                ), f"non-refinement served from session cache: {sql}"
            seen_since_write.add(sql)
        return live.session_stats()["served"]
    finally:
        live.close()
        fresh.close()


def test_query_sequences_match_oracle_and_fresh_evaluation():
    served = sum(_run_session(seed) for seed in range(_SESSION_COUNT))
    # Every large session opens with scan + provable cascade refinement;
    # if the session strategy never won, reuse has silently regressed.
    assert served >= _SESSION_COUNT // _LARGE_EVERY, served


@given(rows=rows_strategy, tree=trees_strategy, data=st.data())
@settings(max_examples=30, deadline=None)
def test_named_preferences_agree_on_all_paths(rows, tree, data):
    setup = (f"CREATE PREFERENCE fuzzed ON items AS {tree}",)
    use = data.draw(
        st.sampled_from(
            [
                "PREFERENCE fuzzed",
                "PREFERENCE fuzzed AND LOWEST(a)",
                "(PREFERENCE fuzzed) CASCADE HIGHEST(b)",
            ]
        )
    )
    grouping = data.draw(st.sampled_from(["", " GROUPING g"]))
    query = f"SELECT * FROM items PREFERRING {use}{grouping}"
    assert_identical(all_paths(rows, query, setup=setup), query)


# ----------------------------------------------------------------------
# Concurrent pool stress (PR 8)
#
# The serving layer hands pooled connections to many threads while DML
# arrives between bursts.  Rounds alternate a write phase (one thread,
# random DML through the pool) with a read phase (N threads hammering the
# pool with the full query mix); every response in a read phase must be
# row-identical to a fresh standalone connection evaluating the same
# query against the same database state.

_STRESS_QUERIES = (
    "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)",
    "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage) "
    "CASCADE fuel IN ('diesel')",
    "SELECT * FROM cars WHERE price < 60000 "
    "PREFERRING HIGHEST(price) AND HIGHEST(mileage) GROUPING fuel",
    "SELECT * FROM cars PREFERRING LOWEST(mileage) CASCADE LOWEST(price)",
    "SELECT COUNT(*) FROM cars",
)


def _stress_dml(rng, position):
    return rng.choice(
        [
            "INSERT INTO cars VALUES ({}, {}, {}, '{}', '{}')".format(
                7000 + position,
                rng.randrange(1, 90000),
                rng.randrange(0, 300000),
                rng.choice(_FUELS),
                rng.choice(_MAKES),
            ),
            f"UPDATE cars SET price = price + 250 "
            f"WHERE make = '{rng.choice(_MAKES)}'",
            f"DELETE FROM cars WHERE id % 13 = {rng.randrange(13)}",
        ]
    )


def test_concurrent_pool_with_interleaved_dml_matches_fresh(tmp_path):
    import threading

    from repro.server import ConnectionPool

    rng = random.Random(88)
    database = str(tmp_path / "stress.db")
    setup = repro.connect(database)
    setup.execute(
        "CREATE TABLE cars (id INTEGER, price INTEGER, mileage INTEGER, "
        "fuel TEXT, make TEXT)"
    )
    setup.cursor().executemany(
        "INSERT INTO cars VALUES (?, ?, ?, ?, ?)", _cars_rows(rng, 300)
    )
    setup.commit()
    setup.execute("ANALYZE")
    setup.close()

    pool = ConnectionPool(database, size=3)
    workers = 6
    failures: list[str] = []
    try:
        for round_number in range(5):
            # Write phase: DML through the pool, one statement per round.
            with pool.connection() as writer:
                writer.execute(_stress_dml(rng, round_number))

            # The expected answer set for this round's database state.
            fresh = repro.connect(database)
            fresh.session_reuse = False
            expected = {
                sql: sorted(fresh.execute(sql).fetchall(), key=repr)
                for sql in _STRESS_QUERIES
            }
            fresh.close()

            barrier = threading.Barrier(workers)

            def read_burst():
                try:
                    barrier.wait(timeout=10)
                    for sql in _STRESS_QUERIES:
                        with pool.connection() as connection:
                            got = sorted(
                                connection.execute(sql).fetchall(), key=repr
                            )
                        if got != expected[sql]:
                            failures.append(
                                f"round {round_number} diverges on: {sql}"
                            )
                except Exception as error:  # pragma: no cover - failure path
                    failures.append(f"round {round_number}: {error!r}")

            threads = [
                threading.Thread(target=read_burst) for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
    finally:
        pool.close()
