"""Ablation for DESIGN.md decision 1: level-based dominance.

The model's weak-order design lets both evaluation paths materialise
ranks once instead of re-deriving dominance per comparison — the rewrite
does it with level columns (paper section 3.2), the engine with compiled
comparators.  This bench quantifies that choice by running the same BNL
skyline with and without compilation.
"""

import pytest

from repro.engine.bmo import bmo_filter
from repro.engine.compiled import compile_better, generic_better
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring
from repro.workloads.distributions import independent, lowest_preference_sql

N = 3000
D = 4


def setup():
    matrix = independent(N, D, seed=5)
    vectors = [tuple(float(x) for x in row) for row in matrix]
    preference = build_preference(parse_preferring(lowest_preference_sql(D)))
    return preference, vectors


def bnl_with(better, n):
    window = []
    for i in range(n):
        dominated = False
        survivors = []
        for j in window:
            if better(j, i):
                dominated = True
                break
            if not better(i, j):
                survivors.append(j)
        if not dominated:
            survivors.append(i)
            window = survivors
    return sorted(window)


def test_bnl_compiled(benchmark):
    preference, vectors = setup()
    better = compile_better(preference, vectors)
    assert better is not None
    indices = benchmark(lambda: bnl_with(better, len(vectors)))
    assert indices == bmo_filter(preference, vectors)


def test_bnl_generic(benchmark):
    preference, vectors = setup()
    better = generic_better(preference, vectors)
    indices = benchmark(lambda: bnl_with(better, len(vectors)))
    assert indices == bmo_filter(preference, vectors)
