"""E13 — semantic optimization on a keyed weak-order workload.

Benchmarks the constraint-driven rewrites against the evaluating
strategies on a keyed shop catalog (``INTEGER PRIMARY KEY`` plus
``NOT NULL`` value columns — the schema shape the constraint catalog
sniffs without declarations): the weak-order cascade single pass, the
keyed single winner, and the winnow-eliminated key-pinned selection,
each asserting winner parity against a forced in-memory strategy
(forced strategies bypass the semantic pass and evaluate the original
preference).  The E13 experiment in miniature.
"""

import repro
from repro.workloads.shop import washing_machines_relation

ROWS = 10_000

CASCADE = (
    "SELECT * FROM products PREFERRING LOWEST(price) "
    "CASCADE LOWEST(powerconsumption) CASCADE LOWEST(waterconsumption)"
)
KEYED_WINNER = "SELECT * FROM products PREFERRING HIGHEST(product_id)"
PINNED = (
    "SELECT * FROM products WHERE product_id = 37 "
    "PREFERRING LOWEST(price) AND LOWEST(powerconsumption)"
)


def _connection():
    connection = repro.connect(":memory:")
    relation = washing_machines_relation(rows=ROWS)
    connection.execute(
        "CREATE TABLE products ("
        "product_id INTEGER PRIMARY KEY, manufacturer TEXT NOT NULL, "
        "width INTEGER NOT NULL, spinspeed INTEGER NOT NULL, "
        "powerconsumption REAL NOT NULL, waterconsumption INTEGER NOT NULL, "
        "price INTEGER NOT NULL)"
    )
    connection.cursor().executemany(
        "INSERT INTO products VALUES (?, ?, ?, ?, ?, ?, ?)", relation.rows
    )
    connection.commit()
    return connection


def _oracle(connection, query):
    return sorted(
        connection.execute(query, algorithm="bnl").fetchall(), key=repr
    )


def test_cascade_semantic_single_pass(benchmark):
    connection = _connection()
    oracle = _oracle(connection, CASCADE)
    cursor = connection.execute(CASCADE)
    assert cursor.plan is not None
    assert cursor.plan.semantic_rule == "weak-order single pass"
    rows = benchmark(lambda: connection.execute(CASCADE).fetchall())
    assert sorted(rows, key=repr) == oracle
    connection.close()


def test_cascade_columnar_in_memory(benchmark):
    connection = _connection()
    oracle = _oracle(connection, CASCADE)
    rows = benchmark(
        lambda: connection.execute(CASCADE, algorithm="bnl").fetchall()
    )
    assert sorted(rows, key=repr) == oracle
    connection.close()


def test_keyed_single_winner(benchmark):
    connection = _connection()
    oracle = _oracle(connection, KEYED_WINNER)
    cursor = connection.execute(KEYED_WINNER)
    assert cursor.plan is not None
    assert cursor.plan.semantic_rule == (
        "weak-order single pass (keyed single winner)"
    )
    rows = benchmark(lambda: connection.execute(KEYED_WINNER).fetchall())
    assert len(rows) == 1
    assert sorted(rows, key=repr) == oracle
    connection.close()


def test_winnow_eliminated_selection(benchmark):
    connection = _connection()
    oracle = _oracle(connection, PINNED)
    cursor = connection.execute(PINNED)
    assert cursor.plan is not None
    assert cursor.plan.semantic_rule == "winnow-eliminated (keyed selection)"
    rows = benchmark(lambda: connection.execute(PINNED).fetchall())
    assert sorted(rows, key=repr) == oracle
    connection.close()
