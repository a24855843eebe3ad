"""E12 — join-aware preference planning on the car/dealer workload.

Benchmarks one multi-table preference query through the three join
execution paths — the NOT EXISTS rewrite, the generic join scan + an
in-memory skyline, and the winnow-over-join pushdown — asserting winner
parity against the rewrite, the E12 experiment in miniature.
"""

import repro
from repro.workloads.cardealer import load_car_dealer

CARS = 8_000
DEALERS = 200

QUERY = (
    "SELECT * FROM cars c, listings l WHERE c.car_id = l.car_id "
    "AND l.active = 1 PREFERRING LOWEST(c.price) AND HIGHEST(c.power)"
)


def _connection():
    connection = repro.connect(":memory:")
    load_car_dealer(connection, cars=CARS, dealers=DEALERS)
    return connection


def test_join_rewrite(benchmark):
    connection = _connection()
    rows = benchmark(
        lambda: connection.execute(QUERY, algorithm="rewrite").fetchall()
    )
    assert rows
    connection.close()


def test_join_in_memory(benchmark):
    connection = _connection()
    oracle = sorted(
        connection.execute(QUERY, algorithm="rewrite").fetchall(), key=repr
    )
    rows = benchmark(
        lambda: connection.execute(QUERY, algorithm="bnl").fetchall()
    )
    assert sorted(rows, key=repr) == oracle
    connection.close()


def test_join_winnow_pushdown(benchmark):
    connection = _connection()
    oracle = sorted(
        connection.execute(QUERY, algorithm="rewrite").fetchall(), key=repr
    )
    plan = connection.plan(QUERY, force="prejoin")
    assert plan.strategy == "prejoin" and plan.prejoin_scan_sql
    rows = benchmark(
        lambda: connection.execute(QUERY, algorithm="prejoin").fetchall()
    )
    assert sorted(rows, key=repr) == oracle
    connection.close()
