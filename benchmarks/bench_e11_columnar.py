"""E11 — columnar rank-vector kernels vs the row-at-a-time seed core.

Benchmarks the skyline stage of a grouped rank-based query through the
columnar core (shared rank columns + the rank shape's kernel) and through the SQL
rank pushdown end to end, asserting winner parity with the closure-based
evaluation the seed shipped — the timing claim of the E11 experiment in
miniature.
"""

import repro
from repro.engine.bmo import bmo_filter, run_plan
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring
from repro.workloads.fixtures import relation_to_sqlite
from repro.workloads.jobs import CONDITION_SETS, jobs_relation

N = 10_000


def _grouped_inputs():
    relation = jobs_relation(n=N)
    preferring = " AND ".join(soft for _hard, soft in CONDITION_SETS["A"])
    preference = build_preference(parse_preferring(preferring))
    positions = {name.lower(): i for i, name in enumerate(relation.columns)}
    slots = [positions[op.name.lower()] for op in preference.operands]
    vectors = [tuple(row[i] for i in slots) for row in relation.rows]
    region, profession = positions["region"], positions["profession"]
    keys = [(row[region], row[profession]) for row in relation.rows]
    return relation, preference, vectors, keys


def test_columnar_grouped_skyline(benchmark):
    _relation, preference, vectors, keys = _grouped_inputs()
    winners = benchmark(
        lambda: bmo_filter(preference, vectors, group_keys=keys)
    )
    assert winners


def test_sql_rank_pushdown_end_to_end(benchmark):
    relation, _preference, _vectors, _keys = _grouped_inputs()
    connection = repro.connect(":memory:")
    relation_to_sqlite(connection, "jobs", relation)
    preferring = " AND ".join(soft for _hard, soft in CONDITION_SETS["A"])
    query = (
        f"SELECT * FROM jobs PREFERRING {preferring} "
        "GROUPING region, profession"
    )
    plan = connection.plan(query, force="bnl")
    assert plan.rank_source == "sql" and plan.rank_width
    oracle = sorted(
        connection.execute(query, algorithm="rewrite").fetchall(), key=repr
    )
    result = benchmark(
        lambda: run_plan(connection.raw.execute, plan)
    )
    assert sorted(result.rows, key=repr) == oracle
    connection.close()
