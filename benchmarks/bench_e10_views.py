"""E10 — incremental view maintenance vs full recompute, in miniature.

Benchmarks the maintenance cost of one INSERT against a materialized
preference view in both maintenance modes, asserting the materialized
rows stay identical to a fresh recompute — the timing claim of the E10
experiment reduced to its hot path.
"""

import repro
from repro.workloads.fixtures import relation_to_sqlite
from repro.workloads.shop import washing_machines_relation

N = 4_000

VIEW_SQL = (
    "SELECT * FROM products PREFERRING LOWEST(price) AND "
    "LOWEST(powerconsumption) AND LOWEST(waterconsumption) "
    "GROUPING manufacturer"
)


def _connection(mode: str) -> repro.Connection:
    connection = repro.connect(":memory:")
    relation_to_sqlite(connection, "products", washing_machines_relation(rows=N))
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_SQL}")
    connection.view_maintenance_mode = mode
    return connection

def _insert(connection, box):
    box["id"] += 1
    connection.execute(
        "INSERT INTO products VALUES "
        f"({N + box['id']}, 'Miola', 60, 1400, 0.9, 40, 900)"
    )


def _assert_fresh(connection):
    materialized = sorted(connection.execute("SELECT * FROM best").fetchall())
    oracle = sorted(connection.execute(VIEW_SQL, algorithm="bnl").fetchall())
    assert materialized == oracle


def test_insert_maintenance_incremental(benchmark):
    connection = _connection("auto")
    box = {"id": 0}
    benchmark(lambda: _insert(connection, box))
    _assert_fresh(connection)
    connection.close()


def test_insert_maintenance_recompute(benchmark):
    connection = _connection("recompute")
    box = {"id": 0}
    benchmark(lambda: _insert(connection, box))
    _assert_fresh(connection)
    connection.close()
