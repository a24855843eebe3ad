"""Winnow kernels: correctness against the paper's selection method.

The paper's abstract nested-loop selection method (section 3.2) is the
executable definition of "maximal tuples".  The engine answers every
query with the one kernel :func:`repro.engine.algorithms.winnow_kernel`
picks for its rank shape, and :func:`repro.engine.bmo.bmo_filter` only
*schedules* index subsets through it (the whole input, GROUPING
partitions, BUT ONLY survivors) — so one shape × scheduler matrix,
checked against the oracle, pins every path.  The partition lemma and
the rank edge values are checked as laws of the same winnow.
"""

import functools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.algorithms import nested_loop_maximal, winnow_kernel
from repro.engine.bmo import PreferenceEngine, bmo_filter
from repro.engine.relation import Relation
from repro.errors import EvaluationError
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
#: two flat-Pareto sizes sit on either side of the numpy floor.
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


SCHEDULERS = {
    "serial": _serial,
    "grouping": _grouping,
    "but-only-survivors": _but_only_survivors,
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
    evaluate = winnow_kernel(preference, vectors, indices)
    for members in (indices[::2], indices[1::2], indices[:7]):
        assert sorted(evaluate(members)) == sorted(
            _oracle(preference, vectors, members)
        )


@pytest.mark.parametrize("retired", ["quantum", "sfs", "dnc", "auto", "parallel"])
def test_unknown_algorithm_rejected(retired):
    # Only "bnl" and the "nested_loop" oracle remain; retired scheduler
    # and kernel names fail loudly at the engine, like the planner's
    # "unknown strategy" PlanError.
    preference = build_preference(parse_preferring("LOWEST(a)"))
    with pytest.raises(EvaluationError, match="unknown skyline algorithm"):
        bmo_filter(preference, [(1,)], algorithm=retired)
    engine = PreferenceEngine(
        {"t": Relation(["a"], [(1,), (2,)])}, algorithm=retired
    )
    with pytest.raises(EvaluationError, match="unknown skyline algorithm"):
        engine.execute("SELECT * FROM t PREFERRING LOWEST(a)")


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


# ----------------------------------------------------------------------
# Laws of the winnow operator


PREFERENCES = [
    "LOWEST(d0) AND HIGHEST(d1)",
    "LOWEST(d0) CASCADE LOWEST(d1)",
    "d0 AROUND 5 AND LOWEST(d1)",
    "(LOWEST(d0) AND LOWEST(d1)) CASCADE HIGHEST(d0)",
    "EXPLICIT(d0, 'a' > 'b', 'b' > 'c') AND LOWEST(d1)",
]

vectors_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=60
)


def _prepare(clause, vectors):
    """Expand drawn value pairs to the preference's flat operand arity."""
    preference = build_preference(parse_preferring(clause))
    if "EXPLICIT" in clause:
        letters = "abcd"
        vectors = [(letters[v[0] % 4], v[1]) for v in vectors]
    arity = preference.arity
    vectors = [tuple(v[k % len(v)] for k in range(arity)) for v in vectors]
    return preference, vectors


class TestPartitionMergeLemma:
    """w(∪ w(P_i)) == w(R) for arbitrary partitionings P_i of R."""

    @given(vectors=vectors_strategy, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_merge_of_local_skylines_is_global_skyline(self, vectors, data):
        clause = data.draw(st.sampled_from(PREFERENCES))
        preference, vectors = _prepare(clause, vectors)
        # An arbitrary partitioning: every row draws its partition id.
        assignment = [
            data.draw(st.integers(0, 4), label=f"partition[{i}]")
            for i in range(len(vectors))
        ]
        partitions: dict[int, list[int]] = {}
        for index, part in enumerate(assignment):
            partitions.setdefault(part, []).append(index)

        evaluate = winnow_kernel(preference, vectors, range(len(vectors)))
        union = sorted(
            i for members in partitions.values() for i in evaluate(members)
        )
        merged = sorted(evaluate(union))
        oracle = sorted(nested_loop_maximal(preference, vectors))
        assert merged == oracle, clause


class TestRankEdgeValues:
    def test_unparseable_text_ranks_as_null_rank_on_both_paths(self):
        # Built-ins never rank to NaN: unparseable text maps to NULL_RANK,
        # which is totally ordered (worst) — kernel and oracle agree.
        preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
        vectors = [(1, 1), ("junk", 0), (2, 2)]
        oracle = sorted(nested_loop_maximal(preference, vectors))
        assert bmo_filter(preference, vectors) == oracle
        assert oracle == [0, 1]  # NULL_RANK loses on a, wins on b

    def test_custom_nan_ranks_match_serial_closures(self):
        # Only a custom rank() can produce NaN; the flat kernels must then
        # reproduce the closure semantics of the oracle in both modes.
        vectors = [(1, None), (2, 3), (0, 5), (None, None), (2, 3)]
        for composite in (
            ParetoPreference(_nan_bases()),
            PrioritizationPreference(_nan_bases()),
        ):
            oracle = sorted(nested_loop_maximal(composite, vectors))
            assert bmo_filter(composite, vectors) == oracle, composite.kind
        # Cascade specifically: (1, NaN) lexicographically beats (2, 3) on
        # the NaN-free prefix, so the NaN row must not be a blanket winner.
        cascade = PrioritizationPreference(_nan_bases())
        assert 1 not in bmo_filter(cascade, vectors)
