"""Semantic optimization: constraint catalog + winnow-elimination rules.

Three layers of evidence that the semantic pass is sound:

* hypothesis property tests that the weak-order detector never claims a
  weak order the model preference contradicts (negative transitivity of
  the strict order on sampled vectors);
* per-rule precondition units — each rule fires exactly when its
  soundness preconditions hold, with the justifying constraints (and
  their provenance) reported in ``EXPLAIN PREFERENCE``;
* lifecycle regressions: observed constraints are data_version-scoped
  (DML that breaks one retires the rewrite), constraint DDL invalidates
  the plan cache, and materialized views over semantically-rewritable
  queries keep maintaining.
"""

import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.errors import CatalogError
from repro.model.builder import build_preference
from repro.pdl.catalog import PreferenceCatalog
from repro.plan.constraints import ConstraintCache
from repro.plan.semantic import _is_weak_order, semantic_rewrite
from repro.sql import ast
from repro.sql.parser import parse_preferring, parse_statement


# ----------------------------------------------------------------------
# Weak-order detection soundness (hypothesis)
#
# Whenever the detector claims a tree is a weak order, the model
# preference built from the same tree must behave like one on sampled
# operand vectors: the strict order is negatively transitive (hence
# incomparability is transitive — it is rank equality).

_WEAK_BASES = st.sampled_from(
    [
        "LOWEST(a)",
        "HIGHEST(b)",
        "a AROUND 3",
        "b BETWEEN 2, 5",
        "SCORE(a + b)",
        "c = 'x'",
        "c IN ('x', 'y')",
        "(c = 'x') ELSE (c = 'y')",
    ]
)

_NON_WEAK_BASES = st.sampled_from(
    ["EXPLICIT(c, 'x' > 'y', 'y' > 'z')"]
)


def _cascade(children):
    return st.builds(
        lambda left, right: f"({left}) CASCADE ({right})", children, children
    )


def _any_compose(children):
    return st.builds(
        lambda left, right, op: f"({left}) {op} ({right})",
        children,
        children,
        st.sampled_from(["AND", "CASCADE"]),
    )


weak_trees = st.recursive(_WEAK_BASES, _cascade, max_leaves=4)
mixed_trees = st.recursive(
    st.one_of(_WEAK_BASES, _NON_WEAK_BASES), _any_compose, max_leaves=4
)


def _vector(preference, data):
    values = []
    for index, operand in enumerate(preference.operands):
        text_operand = any(
            isinstance(node, ast.Column) and node.name.lower() == "c"
            for node in ast.walk_expr(operand)
        )
        if text_operand:
            values.append(
                data.draw(st.sampled_from(["x", "y", "z", "w"]), label=f"v{index}")
            )
        else:
            values.append(data.draw(st.integers(0, 5), label=f"v{index}"))
    return tuple(values)


@given(tree=mixed_trees, data=st.data())
@settings(max_examples=120, deadline=None)
def test_weak_order_claim_implies_negative_transitivity(tree, data):
    preference = build_preference(parse_preferring(tree))
    if not _is_weak_order(preference):
        return  # the detector may be conservative; only claims are checked
    x = _vector(preference, data)
    y = _vector(preference, data)
    z = _vector(preference, data)
    # strictness sanity on every claimed weak order
    assert not (preference.is_better(x, y) and preference.is_better(y, x))
    # negative transitivity: not(x<y) and not(y<z) => not(x<z)
    if not preference.is_better(x, y) and not preference.is_better(y, z):
        assert not preference.is_better(x, z), (tree, x, y, z)
    # incomparability is transitive in a weak order
    def incomparable(v, w):
        return not preference.is_better(v, w) and not preference.is_better(w, v)

    if incomparable(x, y) and incomparable(y, z):
        assert incomparable(x, z), (tree, x, y, z)


@given(tree=weak_trees)
@settings(max_examples=60, deadline=None)
def test_pure_cascades_of_weak_bases_are_detected(tree):
    assert _is_weak_order(build_preference(parse_preferring(tree)))


def test_pareto_and_explicit_are_not_weak_orders():
    for tree in (
        "LOWEST(a) AND HIGHEST(b)",
        "EXPLICIT(c, 'x' > 'y')",
        "(LOWEST(a) AND HIGHEST(b)) CASCADE LOWEST(a)",
    ):
        assert not _is_weak_order(build_preference(parse_preferring(tree)))


# ----------------------------------------------------------------------
# Per-rule precondition units (semantic_rewrite called directly)


def _analyzer(ddl, rows=(), declarations=()):
    """A ConstraintCache over a throwaway sqlite database."""
    raw = sqlite3.connect(":memory:")
    raw.execute(ddl)
    table = ddl.split()[2]
    for row in rows:
        placeholders = ", ".join("?" for _ in row)
        raw.execute(f"INSERT INTO {table} VALUES ({placeholders})", row)
    catalog = PreferenceCatalog(raw)
    for declaration in declarations:
        statement = parse_statement(declaration)
        assert isinstance(statement, ast.CreatePreferenceConstraint)
        catalog.create_constraint(statement)
    return ConstraintCache(
        raw, version=lambda: 0, declared=catalog.constraints
    )


def _rewrite(sql, constraints):
    select = parse_statement(sql)
    assert isinstance(select, ast.Select)
    return semantic_rewrite(select, select.preferring, constraints)


def test_keyed_selection_fires_on_declared_key():
    constraints = _analyzer(
        "CREATE TABLE t (k INTEGER, v INTEGER)",
        declarations=("CREATE PREFERENCE CONSTRAINT t_k ON t KEY (k)",),
    )
    outcome = _rewrite(
        "SELECT * FROM t WHERE k = 3 PREFERRING LOWEST(v)", constraints
    )
    assert outcome is not None
    assert outcome.rule == "winnow-eliminated (keyed selection)"
    assert outcome.select.preferring is None
    assert "key(k) [declared]" in outcome.constraints_used


def test_keyed_selection_fires_on_schema_primary_key():
    constraints = _analyzer(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"
    )
    outcome = _rewrite(
        "SELECT * FROM t WHERE k = 3 PREFERRING LOWEST(v)", constraints
    )
    assert outcome is not None
    assert outcome.rule == "winnow-eliminated (keyed selection)"
    assert "key(k) [schema]" in outcome.constraints_used


def test_keyed_selection_needs_the_whole_key_pinned():
    constraints = _analyzer(
        "CREATE TABLE t (k1 INTEGER, k2 INTEGER, v INTEGER)",
        rows=[(1, 1, 10), (1, 2, 20)],
        declarations=("CREATE PREFERENCE CONSTRAINT t_k ON t KEY (k1, k2)",),
    )
    outcome = _rewrite(
        "SELECT * FROM t WHERE k1 = 1 PREFERRING LOWEST(v)", constraints
    )
    assert outcome is None or "keyed selection" not in outcome.rule


def test_constant_preference_via_check_domain_needs_not_null():
    ddl = "CREATE TABLE t (v INTEGER CHECK (v = 7), w INTEGER)"
    nullable = _analyzer(ddl)
    fired = _analyzer(
        ddl,
        declarations=("CREATE PREFERENCE CONSTRAINT t_v ON t NOT NULL (v)",),
    )
    query = "SELECT * FROM t PREFERRING HIGHEST(v) GROUPING w"
    # a sqlite CHECK passes on NULL, so the singleton domain alone is no
    # proof of constancy (GROUPING blocks the single-pass fallback, and
    # the probe-free analyzer has no rows to observe NOT NULL from)
    assert _rewrite(query, nullable) is None
    outcome = _rewrite(query, fired)
    assert outcome is not None
    assert outcome.rule == "winnow-eliminated (constant preference)"
    assert "domain(v) [schema]" in outcome.constraints_used
    assert "not null(v) [declared]" in outcome.constraints_used


def test_dimension_reduction_drops_pinned_dimension():
    # two v values under u = 1, so the observed FD u -> v cannot fire
    # and constancy stays limited to the pinned dimension
    constraints = _analyzer(
        "CREATE TABLE t (u INTEGER, v TEXT, w INTEGER)",
        rows=[(1, "x", 5), (1, "y", 6)],
    )
    outcome = _rewrite(
        "SELECT * FROM t WHERE u = 1 "
        "PREFERRING LOWEST(u) AND EXPLICIT(v, 'x' > 'y') GROUPING w",
        constraints,
    )
    assert outcome is not None
    assert outcome.rule == "dimension reduction (1 of 2 dimensions constant)"
    assert outcome.single_pass_sql is None
    reduced = outcome.select.preferring
    assert isinstance(reduced, ast.ExplicitPref)


def test_single_pass_requires_not_null_proof():
    constraints = _analyzer(
        "CREATE TABLE t (v INTEGER)", rows=[(1,), (None,)]
    )
    assert _rewrite("SELECT * FROM t PREFERRING LOWEST(v)", constraints) is None


def test_single_pass_requires_numeric_proof():
    constraints = _analyzer(
        "CREATE TABLE t (v INTEGER NOT NULL)", rows=[(1,), ("abc",)]
    )
    assert _rewrite("SELECT * FROM t PREFERRING LOWEST(v)", constraints) is None


def test_single_pass_blocked_by_but_only_and_quality_calls():
    constraints = _analyzer(
        "CREATE TABLE t (v INTEGER NOT NULL)", rows=[(1,), (2,)]
    )
    assert (
        _rewrite(
            "SELECT * FROM t PREFERRING v AROUND 1 BUT ONLY DISTANCE(v) <= 1",
            constraints,
        )
        is None
    )
    assert (
        _rewrite(
            "SELECT *, DISTANCE(v) FROM t PREFERRING v AROUND 1", constraints
        )
        is None
    )


def test_single_pass_blocked_by_parameters():
    constraints = _analyzer(
        "CREATE TABLE t (v INTEGER NOT NULL)", rows=[(1,), (2,)]
    )
    assert (
        _rewrite(
            "SELECT * FROM t WHERE v > ? PREFERRING LOWEST(v)", constraints
        )
        is None
    )


def test_single_pass_fires_with_observed_proofs():
    constraints = _analyzer("CREATE TABLE t (v INTEGER)", rows=[(3,), (1,)])
    outcome = _rewrite("SELECT * FROM t PREFERRING LOWEST(v)", constraints)
    assert outcome is not None
    assert outcome.rule.startswith("weak-order single pass")
    assert "not null(v) [observed]" in outcome.constraints_used
    assert "numeric(v) [observed]" in outcome.constraints_used


def test_contains_preference_never_takes_the_single_pass():
    constraints = _analyzer(
        "CREATE TABLE t (v TEXT NOT NULL)", rows=[("sauna pool",)]
    )
    assert (
        _rewrite(
            "SELECT * FROM t PREFERRING v CONTAINS 'sauna'", constraints
        )
        is None
    )


# ----------------------------------------------------------------------
# Driver integration: EXPLAIN rows, provenance, lifecycle


@pytest.fixture
def keyed_connection():
    connection = repro.connect(":memory:")
    connection.execute(
        "CREATE TABLE car (id INTEGER PRIMARY KEY, "
        "price INTEGER NOT NULL, age INTEGER NOT NULL, color TEXT)"
    )
    for i in range(30):
        connection.execute(
            "INSERT INTO car VALUES (?, ?, ?, ?)",
            (i, 900 + (i * 37) % 400, i % 9, ("red", "white", "blue")[i % 3]),
        )
    yield connection
    connection.close()


def _explain(connection, query):
    return dict(
        connection.execute("EXPLAIN PREFERENCE " + query).fetchall()
    )


def test_explain_reports_semantic_rows(keyed_connection):
    query = "SELECT id, price FROM car PREFERRING LOWEST(price) CASCADE LOWEST(age)"
    report = _explain(keyed_connection, query)
    assert report["semantic rewrite"].startswith("weak-order single pass")
    assert "not null(price) [schema]" in report["constraints used"]
    winners = sorted(keyed_connection.execute(query).fetchall())
    oracle = sorted(
        keyed_connection.execute(query, algorithm="bnl").fetchall()
    )
    assert winners == oracle
    # HIGHEST of the key: the single pass degenerates to ORDER BY … LIMIT 1.
    query = "SELECT id, price FROM car PREFERRING HIGHEST(id)"
    report = _explain(keyed_connection, query)
    assert report["semantic rewrite"] == (
        "weak-order single pass (keyed single winner)"
    )
    assert "key(id) [schema]" in report["constraints used"]
    assert keyed_connection.execute(query).fetchall() == (
        keyed_connection.execute(query, algorithm="bnl").fetchall()
    )


def test_explain_reports_keyed_elimination(keyed_connection):
    query = (
        "SELECT id, price FROM car WHERE id = 4 "
        "PREFERRING LOWEST(price) AND HIGHEST(age)"
    )
    report = _explain(keyed_connection, query)
    assert report["semantic rewrite"] == "winnow-eliminated (keyed selection)"
    assert report["constraints used"] == "key(id) [schema]"
    winners = keyed_connection.execute(query).fetchall()
    oracle = keyed_connection.execute(query, algorithm="bnl").fetchall()
    assert sorted(winners) == sorted(oracle)


def test_forced_strategies_bypass_semantic_rewrite(keyed_connection):
    query = "SELECT id FROM car PREFERRING LOWEST(price)"
    for strategy in ("rewrite", "bnl"):
        cursor = keyed_connection.execute(query, algorithm=strategy)
        assert cursor.plan is not None
        assert cursor.plan.semantic_rule is None, strategy


def test_constraint_ddl_invalidates_plan_cache():
    connection = repro.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        for i in range(6):
            connection.execute("INSERT INTO t VALUES (?, ?)", (i, i * 10))
        query = "SELECT * FROM t WHERE k = 1 PREFERRING LOWEST(v)"
        before = connection.execute(query).plan
        assert before is not None
        # without a declared key, constancy is only provable through the
        # observed FD probe (k happens to be unique in the data)
        assert before.semantic_rule == "winnow-eliminated (constant preference)"
        connection.execute("CREATE PREFERENCE CONSTRAINT t_k ON t KEY (k)")
        after = connection.execute(query).plan
        assert after is not None
        assert after.semantic_rule == "winnow-eliminated (keyed selection)"
        assert "key(k) [declared]" in after.semantic_constraints
        connection.execute("DROP PREFERENCE CONSTRAINT t_k")
        reverted = connection.execute(query).plan
        assert reverted is not None
        assert (
            reverted.semantic_rule == "winnow-eliminated (constant preference)"
        )
    finally:
        connection.close()


def test_duplicate_and_unknown_constraints_raise():
    connection = repro.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (k INTEGER)")
        connection.execute("CREATE PREFERENCE CONSTRAINT t_k ON t KEY (k)")
        with pytest.raises(CatalogError):
            connection.execute("CREATE PREFERENCE CONSTRAINT t_k ON t KEY (k)")
        with pytest.raises(CatalogError):
            connection.execute("DROP PREFERENCE CONSTRAINT missing")
    finally:
        connection.close()


def test_dml_retires_observed_fd_rewrite():
    """INSERT that breaks an observed FD must retire the rewrite.

    Satellite regression for data_version scoping: the first plan leans
    on the observed ``k -> v`` dependency; after an INSERT that breaks
    it, the very next query must re-probe and stop using it.
    """
    connection = repro.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        connection.execute("INSERT INTO t VALUES (1, 10)")
        connection.execute("INSERT INTO t VALUES (2, 20)")
        query = "SELECT * FROM t WHERE k = 1 PREFERRING LOWEST(v) AND HIGHEST(k)"
        first = connection.execute(query).plan
        assert first is not None
        assert first.semantic_rule == "winnow-eliminated (constant preference)"
        assert any(
            label.startswith("fd(k -> v)")
            for label in first.semantic_constraints
        )
        probes_before = connection.constraints.probe_count

        connection.execute("INSERT INTO t VALUES (1, 99)")  # breaks k -> v
        second = connection.execute(query).plan
        assert second is not None
        assert second.semantic_rule != "winnow-eliminated (constant preference)"
        assert not any(
            label.startswith("fd(") for label in second.semantic_constraints
        )
        assert connection.constraints.probe_count > probes_before
        winners = sorted(connection.execute(query).fetchall())
        oracle = sorted(connection.execute(query, algorithm="bnl").fetchall())
        assert winners == oracle == [(1, 10)]
    finally:
        connection.close()


def test_semantic_plans_replan_instead_of_rebinding():
    connection = repro.connect(":memory:")
    try:
        connection.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER NOT NULL)"
        )
        for i in range(5):
            connection.execute("INSERT INTO t VALUES (?, ?)", (i, 50 - i))
        query = "SELECT * FROM t WHERE k = ? PREFERRING LOWEST(v)"
        for key in (1, 3, 1):
            rows = connection.execute(query, (key,)).fetchall()
            oracle = connection.execute(query, (key,), algorithm="bnl").fetchall()
            assert sorted(rows) == sorted(oracle), key
    finally:
        connection.close()


def test_view_over_semantic_query_keeps_maintaining():
    connection = repro.connect(":memory:")
    try:
        connection.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER NOT NULL)"
        )
        for i in range(8):
            connection.execute("INSERT INTO t VALUES (?, ?)", (i, (i * 5) % 13))
        view_query = "SELECT * FROM t PREFERRING LOWEST(v) CASCADE HIGHEST(k)"
        assert _explain(connection, view_query)["semantic rewrite"].startswith(
            "weak-order single pass"
        )
        connection.execute(f"CREATE PREFERENCE VIEW best AS {view_query}")
        for statement in (
            "INSERT INTO t VALUES (100, 0)",
            "DELETE FROM t WHERE k = 100",
            "UPDATE t SET v = 1 WHERE k = 3",
        ):
            connection.execute(statement)
            materialized = sorted(
                connection.raw.execute("SELECT * FROM best").fetchall()
            )
            fresh = sorted(
                connection.execute(view_query, algorithm="bnl").fetchall()
            )
            assert materialized == fresh, statement
    finally:
        connection.close()
