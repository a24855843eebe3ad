"""Winnow kernels: correctness against the paper's selection method.

The paper's abstract nested-loop selection method (section 3.2) is the
executable definition of "maximal tuples".  The engine answers every
query with the one kernel :func:`repro.engine.algorithms.winnow_kernel`
picks for its rank shape, and the serial evaluator, the thread executor
and the process workers only *schedule* index subsets through it — so one
shape × scheduler matrix, checked against the oracle, pins every path.
"""

import functools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.algorithms import nested_loop_maximal, winnow_kernel
from repro.engine.bmo import bmo_filter
from repro.engine.columns import compute_rank_columns
from repro.engine.parallel import ParallelExecutor
from repro.model.builder import build_preference
from repro.model.composite import ParetoPreference, PrioritizationPreference
from repro.model.numeric import LowestPreference
from repro.model.preference import WeakOrderBase
from repro.sql import ast
from repro.sql.parser import parse_preferring

A = ast.Column(name="a")
B = ast.Column(name="b")


def two_d_pareto():
    return ParetoPreference([LowestPreference(A), LowestPreference(B)])


class TestNestedLoop:
    def test_single_tuple(self):
        assert nested_loop_maximal(two_d_pareto(), [(1, 1)]) == [0]

    def test_empty_input(self):
        assert nested_loop_maximal(two_d_pareto(), []) == []

    def test_dominated_tuple_removed(self):
        vectors = [(1, 1), (2, 2)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0]

    def test_incomparable_tuples_kept(self):
        vectors = [(1, 3), (3, 1), (2, 2)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0, 1, 2]

    def test_duplicates_all_kept(self):
        # Equal vectors do not dominate each other (strict order).
        vectors = [(1, 1), (1, 1), (2, 2)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0, 1]

    def test_chain_keeps_only_top(self):
        vectors = [(i, i) for i in range(10)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0]


# ----------------------------------------------------------------------
# The shape × scheduler matrix


class NanLowest(WeakOrderBase):
    """Only a custom ``rank()`` can produce NaN ranks."""

    kind = "NAN-LOWEST"

    def rank(self, value):
        return float("nan") if value is None else float(value)


def _nan_bases():
    return [NanLowest(ast.Column(name=name)) for name in ("a", "b")]


def _clause(text):
    return lambda: build_preference(parse_preferring(text))


#: shape → (preference factory, row count, NULL-bearing operands?).  The
#: two flat-Pareto sizes sit on either side of the numpy floor; 700 rows
#: keep the four hash partitions of the executors above it as well.
SHAPES = {
    "flat-pareto-small": (_clause("LOWEST(a) AND HIGHEST(b)"), 120, False),
    "flat-pareto-large": (_clause("LOWEST(a) AND HIGHEST(b)"), 700, False),
    "flat-cascade": (_clause("LOWEST(a) CASCADE LOWEST(b)"), 700, False),
    "nan-cascade": (lambda: PrioritizationPreference(_nan_bases()), 300, True),
    "nan-pareto": (lambda: ParetoPreference(_nan_bases()), 700, True),
    "mixed-nesting": (
        _clause("(LOWEST(a) AND LOWEST(b)) CASCADE HIGHEST(c)"), 300, False
    ),
    "explicit": (
        _clause("EXPLICIT(c, 'x' > 'y', 'y' > 'z') AND LOWEST(a)"), 300, False
    ),
}


@functools.lru_cache(maxsize=None)
def _shape(name):
    """(preference, operand vectors, group keys) of one shape."""
    factory, count, nulls = SHAPES[name]
    preference = factory()
    rng = random.Random(name)
    columns = {
        "a": lambda: rng.randrange(40),
        "b": lambda: rng.randrange(40),
        "c": lambda: rng.choice("xyzw"),
    }
    vectors = [
        tuple(
            None if nulls and rng.random() < 0.1 else columns[operand.name]()
            for operand in preference.operands
        )
        for _ in range(count)
    ]
    keys = [rng.randrange(4) for _ in range(count)]
    return preference, vectors, keys


def _oracle(preference, vectors, members):
    """Nested-loop winners among ``members``, as global indices."""
    local = nested_loop_maximal(preference, [vectors[i] for i in members])
    return [members[position] for position in local]


def _serial(preference, vectors, keys):
    expected = _oracle(preference, vectors, list(range(len(vectors))))
    return bmo_filter(preference, vectors), expected


def _grouping(preference, vectors, keys):
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    expected = sorted(
        i for members in groups.values() for i in _oracle(preference, vectors, members)
    )
    return bmo_filter(preference, vectors, group_keys=keys), expected


def _but_only_survivors(preference, vectors, keys):
    # Survivors are ranked on their own, so winners come back through
    # the global index → column row remap.
    survivors = [i for i in range(len(vectors)) if i % 3]
    expected = _oracle(preference, vectors, survivors)
    return bmo_filter(preference, vectors, threshold=lambda i: i % 3), expected


def _partitions(backend):
    def schedule(preference, vectors, keys):
        expected = _oracle(preference, vectors, list(range(len(vectors))))
        with ParallelExecutor(
            max_workers=2, min_partition_rows=32, backend=backend
        ) as executor:
            winners = executor.maximal_indices(preference, vectors)
            ranks = compute_rank_columns(preference, vectors)
            flat = ranks is not None and ranks.mode is not None
            if vectors:  # closure-compared trees never leave the threads
                assert executor.last_backend == (
                    "process" if backend == "process" and flat else "thread"
                )
        return winners, expected

    return schedule


SCHEDULERS = {
    "serial": _serial,
    "grouping": _grouping,
    "but-only-survivors": _but_only_survivors,
    "thread-partitions": _partitions("thread"),
    "process-partitions": _partitions("process"),
}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_and_scheduler_matches_the_oracle(shape, scheduler):
    preference, vectors, keys = _shape(shape)
    winners, expected = SCHEDULERS[scheduler](preference, vectors, keys)
    assert winners == sorted(expected)
    assert 0 < len(winners) < len(vectors)  # the cell is not vacuous
    assert SCHEDULERS[scheduler](preference, [], []) == ([], [])


@pytest.mark.parametrize("shape", SHAPES)
def test_kernel_is_reusable_across_index_subsets(shape):
    # One kernel per query: the same evaluator answers any partition.
    preference, vectors, _keys = _shape(shape)
    indices = list(range(len(vectors)))
    evaluate, _ranks, position = winnow_kernel(preference, vectors, indices)
    assert position is None  # every row is a candidate: no remap
    for members in (indices[::2], indices[1::2], indices[:7]):
        assert sorted(evaluate(members)) == sorted(
            _oracle(preference, vectors, members)
        )


class TestKnownCases:
    def test_ties_and_duplicates_survive(self):
        vectors = [(1, 3), (3, 1), (2, 2), (4, 4), (1, 3)]
        assert bmo_filter(two_d_pareto(), vectors) == [0, 1, 2, 4]

    def test_large_antichain(self):
        # n incomparable tuples: everything survives.
        vectors = [(i, 100 - i) for i in range(100)]
        assert bmo_filter(two_d_pareto(), vectors) == list(range(100))

    @given(
        data=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(0, 6)),
                st.one_of(st.none(), st.integers(0, 6)),
                st.sampled_from(["x", "y", "z", None]),
            ),
            max_size=40,
        ),
        shape=st.sampled_from(sorted(SHAPES)),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_rows_match_the_oracle(self, data, shape):
        preference = SHAPES[shape][0]()
        slots = {"a": 0, "b": 1, "c": 2}
        vectors = [
            tuple(row[slots[operand.name]] for operand in preference.operands)
            for row in data
        ]
        assert bmo_filter(preference, vectors) == sorted(
            nested_loop_maximal(preference, vectors)
        )
