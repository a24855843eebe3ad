"""E5 — winnow evaluation ablation (cmp. the paper's section 3.3 outlook).

The paper computes Pareto sets through the NOT EXISTS rewrite and notes
that dedicated skyline algorithms "hold much promise for additional
speed-ups".  This bench compares the paper's abstract nested-loop method
and the engine's winnow kernel on BKS01-style data, plus the production
sqlite-rewrite path.
"""

import pytest

import repro
from repro.engine.algorithms import nested_loop_maximal
from repro.engine.bmo import bmo_filter
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring
from repro.workloads.distributions import (
    DISTRIBUTIONS,
    lowest_preference_sql,
    vectors_to_relation,
)
from repro.workloads.fixtures import relation_to_sqlite

N = 4000
D = 4


def make_vectors(distribution: str):
    matrix = DISTRIBUTIONS[distribution](N, D, seed=42)
    return [tuple(float(x) for x in row) for row in matrix]


PREFERENCE = None


def get_preference():
    global PREFERENCE
    if PREFERENCE is None:
        PREFERENCE = build_preference(parse_preferring(lowest_preference_sql(D)))
    return PREFERENCE


@pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
def test_winnow_kernel(benchmark, distribution):
    vectors = make_vectors(distribution)
    preference = get_preference()
    indices = benchmark(lambda: bmo_filter(preference, vectors))
    benchmark.extra_info["skyline_size"] = len(indices)


@pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
def test_nested_loop_reference(benchmark, distribution):
    # The paper's quadratic selection method, on a smaller slice.
    vectors = make_vectors(distribution)[:800]
    preference = get_preference()
    indices = benchmark(lambda: nested_loop_maximal(preference, vectors))
    assert indices == bmo_filter(preference, vectors)


@pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
def test_sqlite_rewrite_path(benchmark, distribution):
    matrix = DISTRIBUTIONS[distribution](N, D, seed=42)
    relation = vectors_to_relation(matrix)
    con = repro.connect(":memory:")
    relation_to_sqlite(con, "points", relation)
    sql = "SELECT * FROM points PREFERRING " + lowest_preference_sql(D)
    rows = benchmark(lambda: con.execute(sql).fetchall())
    preference = get_preference()
    vectors = [row[1:] for row in relation.rows]
    assert len(rows) == len(bmo_filter(preference, vectors))
    con.close()
