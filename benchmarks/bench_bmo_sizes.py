"""E6 — BMO result-size study (backs the paper's section 4.3 claim).

The paper reports Pareto-optimal sets of size 1-20 in the COSIMA
e-commerce setting.  This bench measures how the BMO set grows with
dimensionality per data distribution — correlated data (realistic product
catalogs: good things cluster) keeps the set tiny, anti-correlated data is
the worst case.
"""

import pytest

from repro.engine.bmo import bmo_filter
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring
from repro.workloads.distributions import DISTRIBUTIONS, lowest_preference_sql

N = 3000


@pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("dimensions", [2, 4, 6])
def test_bmo_size(benchmark, distribution, dimensions):
    matrix = DISTRIBUTIONS[distribution](N, dimensions, seed=7)
    vectors = [tuple(float(x) for x in row) for row in matrix]
    preference = build_preference(
        parse_preferring(lowest_preference_sql(dimensions))
    )
    indices = benchmark(lambda: bmo_filter(preference, vectors))
    size = len(indices)
    benchmark.extra_info["bmo_size"] = size
    benchmark.extra_info["share"] = round(size / N, 4)
    if distribution == "correlated":
        # The e-commerce regime: an easy-to-survey handful of results.
        assert size <= 60
    if distribution == "anticorrelated" and dimensions >= 4:
        # The worst case visibly explodes.
        assert size >= 100


def test_correlated_2d_is_paper_regime():
    matrix = DISTRIBUTIONS["correlated"](N, 2, seed=11)
    vectors = [tuple(float(x) for x in row) for row in matrix]
    preference = build_preference(parse_preferring(lowest_preference_sql(2)))
    size = len(bmo_filter(preference, vectors))
    assert 1 <= size <= 60
