"""The partitioned parallel skyline executor.

Covers the executor against the paper's abstract selection method (the
semantics oracle), the partition-merge lemma on arbitrary partitionings,
the worker-pool lifecycle, and the engine/driver integration of
``algorithm="parallel"``.
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.engine.algorithms import nested_loop_maximal, window_bnl
from repro.engine.bmo import bmo_filter
from repro.engine.compiled import best_better
from repro.engine.parallel import (
    ParallelExecutor,
    default_worker_count,
    hash_partitions,
    parallel_maximal_indices,
    partition_count,
)
from repro.errors import EvaluationError
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring

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
    """max(∪ max(P_i)) == max(∪ P_i) for arbitrary partitionings."""

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

        better = best_better(preference, vectors)
        union = sorted(
            i
            for members in partitions.values()
            for i in window_bnl(better, members)
        )
        merged = sorted(window_bnl(better, union))
        oracle = sorted(nested_loop_maximal(preference, vectors))
        assert merged == oracle, clause

    @given(vectors=vectors_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_executor_matches_oracle(self, vectors, data):
        clause = data.draw(st.sampled_from(PREFERENCES))
        workers = data.draw(st.sampled_from([1, 2, 4]))
        preference, vectors = _prepare(clause, vectors)
        oracle = sorted(nested_loop_maximal(preference, vectors))
        with ParallelExecutor(max_workers=workers, min_partition_rows=8) as ex:
            assert ex.maximal_indices(preference, vectors) == oracle

    @given(vectors=vectors_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_grouped_executor_matches_serial_grouping(self, vectors, data):
        clause = data.draw(st.sampled_from(PREFERENCES))
        preference, vectors = _prepare(clause, vectors)
        keys = [data.draw(st.integers(0, 3), label=f"g[{i}]") for i in range(len(vectors))]
        serial = bmo_filter(preference, vectors, group_keys=keys, algorithm="bnl")
        with ParallelExecutor(max_workers=2, min_partition_rows=8) as ex:
            parallel = ex.grouped_maximal_indices(preference, vectors, keys)
        assert parallel == serial, clause


class TestRankEdgeValues:
    def test_unparseable_text_ranks_as_null_rank_on_both_paths(self):
        # Built-ins never rank to NaN: unparseable text maps to NULL_RANK,
        # which is totally ordered (worst) — both paths agree.
        preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
        vectors = [(1, 1), ("junk", 0), (2, 2)]
        serial = sorted(nested_loop_maximal(preference, vectors))
        assert parallel_maximal_indices(preference, vectors) == serial
        assert serial == [0, 1]  # NULL_RANK loses on a, wins on b

    def test_custom_nan_ranks_match_serial_closures(self):
        # Only a custom rank() can produce NaN; the flat core must then
        # reproduce the serial closure semantics in both modes.
        from repro.model.composite import (
            ParetoPreference,
            PrioritizationPreference,
        )
        from repro.model.preference import WeakOrderBase
        from repro.sql import ast

        class NanLowest(WeakOrderBase):
            kind = "NAN-LOWEST"

            def rank(self, value):
                return float("nan") if value is None else float(value)

        def bases():
            return [NanLowest(ast.Column(name=c)) for c in ("a", "b")]

        vectors = [(1, None), (2, 3), (0, 5), (None, None), (2, 3)]
        for composite in (ParetoPreference(bases()), PrioritizationPreference(bases())):
            serial = sorted(nested_loop_maximal(composite, vectors))
            assert parallel_maximal_indices(composite, vectors) == serial, (
                composite.kind
            )
        # Cascade specifically: (1, NaN) lexicographically beats (2, 3) on
        # the NaN-free prefix, so the NaN row must not be a blanket winner.
        cascade = PrioritizationPreference(bases())
        assert parallel_maximal_indices(cascade, vectors) == sorted(
            nested_loop_maximal(cascade, vectors)
        )
        assert 1 not in parallel_maximal_indices(cascade, vectors)


class TestPartitioning:
    def test_partition_count_scales_with_workers(self):
        assert partition_count(10_000, 1) <= partition_count(10_000, 4)
        assert partition_count(0, 4) == 1
        assert partition_count(100, 4, min_partition_rows=64) == 1
        assert partition_count(10_000, 4, min_partition_rows=64) == 8

    def test_hash_partitions_cover_and_balance(self):
        parts = hash_partitions(list(range(10)), 3)
        assert sorted(i for part in parts for i in part) == list(range(10))
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_hash_partitions_single(self):
        assert hash_partitions([1, 2], 1) == [[1, 2]]


class TestExecutorLifecycle:
    def test_worker_degree_validation(self):
        with pytest.raises(EvaluationError):
            ParallelExecutor(max_workers=0)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_closed_executor_rejects_work(self):
        preference = build_preference(parse_preferring("LOWEST(a)"))
        executor = ParallelExecutor(max_workers=2, min_partition_rows=1)
        vectors = [(i,) for i in range(16)]
        assert executor.maximal_indices(preference, vectors) == [0]
        executor.close()
        with pytest.raises(EvaluationError):
            executor.maximal_indices(preference, vectors)

    def test_pool_only_spawns_when_useful(self):
        executor = ParallelExecutor(max_workers=1)
        preference = build_preference(parse_preferring("LOWEST(a)"))
        executor.maximal_indices(preference, [(i,) for i in range(500)])
        assert executor._pool is None  # inline execution, no threads
        executor.close()

    def test_threaded_pool_produces_same_result(self):
        preference = build_preference(
            parse_preferring("LOWEST(d0) AND HIGHEST(d1)")
        )
        vectors = [((i * 13) % 97, (i * 29) % 89) for i in range(800)]
        oracle = sorted(nested_loop_maximal(preference, vectors))
        with ParallelExecutor(max_workers=4, min_partition_rows=32) as ex:
            assert ex.maximal_indices(preference, vectors) == oracle
            assert ex._pool is not None  # the pool really ran


class TestEngineIntegration:
    def test_bmo_filter_accepts_parallel(self):
        preference = build_preference(parse_preferring("LOWEST(a)"))
        vectors = [(3,), (1,), (1,), (2,)]
        assert bmo_filter(preference, vectors, algorithm="parallel") == [1, 2]

    @pytest.mark.parametrize("retired", ["quantum", "sfs", "dnc", "auto"])
    def test_unknown_algorithm_mentions_parallel(self, retired):
        preference = build_preference(parse_preferring("LOWEST(a)"))
        with pytest.raises(EvaluationError, match="parallel"):
            bmo_filter(preference, [(1,)], algorithm=retired)

    def test_engine_parallel_algorithm(self, fixture_engine):
        sql = (
            "SELECT * FROM car PREFERRING LOWEST(price) AND HIGHEST(power) "
            "GROUPING category"
        )
        serial = fixture_engine.execute(sql).rows
        parallel_engine = repro.PreferenceEngine(algorithm="parallel")
        for name in fixture_engine._relations:
            parallel_engine.register(name, fixture_engine.relation(name))
        try:
            assert parallel_engine.execute(sql).rows == serial
        finally:
            parallel_engine.close()

    def test_driver_parallel_with_but_only_and_grouping(self, fixture_connection):
        sql = (
            "SELECT * FROM oldtimer "
            "PREFERRING color = 'white' ELSE color = 'yellow' "
            "GROUPING age BUT ONLY LEVEL(color) <= 2"
        )
        rewrite = fixture_connection.execute(sql, algorithm="rewrite").fetchall()
        parallel = fixture_connection.execute(sql, algorithm="parallel").fetchall()
        assert parallel == rewrite

    def test_connection_shares_one_executor(self, fixture_connection):
        first = fixture_connection.parallel_executor
        fixture_connection.execute(
            "SELECT * FROM car PREFERRING LOWEST(price)", algorithm="parallel"
        ).fetchall()
        assert fixture_connection.parallel_executor is first
        fixture_connection.max_workers = 2
        assert fixture_connection.parallel_executor is not first


class TestProcessBackend:
    """The process-pool path: shared-memory transport, parity, fallback."""

    PARETO = "LOWEST(d0) AND HIGHEST(d1)"

    @staticmethod
    def _vectors(n=700):
        return [((i * 13) % 97, (i * 29) % 89) for i in range(n)]

    def test_backend_validation(self):
        with pytest.raises(EvaluationError, match="backend"):
            ParallelExecutor(backend="quantum")

    def test_transport_roundtrip_in_process(self):
        from repro.engine import columnar_skyline, compute_rank_columns
        from repro.engine.shm import RankTransport, skyline_worker

        preference = build_preference(parse_preferring(self.PARETO))
        vectors = self._vectors(400)
        ranks = compute_rank_columns(preference, vectors)
        candidates = list(range(len(vectors)))
        with RankTransport(ranks, candidates) as transport:
            local = [
                winners
                for k in range(3)
                if (winners := skyline_worker(transport.task(k, 3)))
            ]
        union = sorted(i for part in local for i in part)
        survivors = sorted(columnar_skyline(ranks, union))
        assert survivors == sorted(columnar_skyline(ranks, candidates))

    def test_process_backend_on_candidate_subset(self):
        preference = build_preference(parse_preferring(self.PARETO))
        vectors = self._vectors()
        subset = [i for i in range(len(vectors)) if i % 3 != 0]
        restricted = [vectors[i] for i in subset]
        oracle = sorted(
            subset[j] for j in nested_loop_maximal(preference, restricted)
        )
        with ParallelExecutor(
            max_workers=2, min_partition_rows=32, backend="process"
        ) as executor:
            assert (
                executor.maximal_indices(preference, vectors, candidates=subset)
                == oracle
            )
            assert executor.last_backend == "process"

    def test_process_backend_with_caller_ranks(self):
        from repro.engine.columns import compute_rank_columns

        preference = build_preference(parse_preferring(self.PARETO))
        vectors = self._vectors()
        ranks = compute_rank_columns(preference, vectors)
        oracle = sorted(nested_loop_maximal(preference, vectors))
        with ParallelExecutor(
            max_workers=2, min_partition_rows=32, backend="process"
        ) as executor:
            assert (
                executor.maximal_indices(preference, None, ranks=ranks)
                == oracle
            )
            assert executor.last_backend == "process"

    def test_auto_backend_needs_scale_and_mode(self):
        from repro.engine.parallel import (
            PROCESS_MIN_ROWS,
            process_backend_eligible,
        )

        assert process_backend_eligible("pareto", PROCESS_MIN_ROWS, 4)
        assert not process_backend_eligible("pareto", PROCESS_MIN_ROWS - 1, 4)
        assert not process_backend_eligible(None, PROCESS_MIN_ROWS, 4)
        assert not process_backend_eligible("pareto", PROCESS_MIN_ROWS, 1)
        assert not process_backend_eligible(
            "pareto", PROCESS_MIN_ROWS, 4, backend="thread"
        )
        assert process_backend_eligible("pareto", 10, 4, backend="process")

    def test_auto_backend_stays_serial_on_small_inputs(self):
        preference = build_preference(parse_preferring(self.PARETO))
        with ParallelExecutor(max_workers=2) as executor:
            executor.maximal_indices(preference, self._vectors(50))
            assert executor.last_backend == "serial"

    def test_broken_transport_falls_back_to_threads(self, monkeypatch):
        import repro.engine.parallel as parallel_module

        class ExplodingTransport:
            def __init__(self, *args, **kwargs):
                raise OSError("no shared memory left")

        monkeypatch.setattr(parallel_module, "RankTransport", ExplodingTransport)
        preference = build_preference(parse_preferring(self.PARETO))
        vectors = self._vectors()
        oracle = sorted(nested_loop_maximal(preference, vectors))
        with ParallelExecutor(
            max_workers=2, min_partition_rows=32, backend="process"
        ) as executor:
            assert executor.maximal_indices(preference, vectors) == oracle
            assert executor.last_backend != "process"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_after_parallel_query_resets_shared_executor(self):
        """The satellite bugfix: a forked child inherits the parent's
        thread-pool state but none of its worker threads; without the
        after-fork reset, the child's first parallel query deadlocks on
        a pool whose threads do not exist."""
        import repro.engine.parallel as parallel_module
        from repro.engine.parallel import parallel_maximal_indices, shared_executor

        preference = build_preference(parse_preferring(self.PARETO))
        vectors = self._vectors(900)
        expected = parallel_maximal_indices(preference, vectors)
        parent_executor = shared_executor()
        # Force pool creation so the child inherits a "warm" executor.
        parent_executor.maximal_indices(preference, vectors)

        pid = os.fork()
        if pid == 0:  # pragma: no cover - exercised in the child process
            status = 1
            try:
                assert parallel_module._shared_executor is None
                child_result = parallel_maximal_indices(preference, vectors)
                if child_result == expected:
                    status = 0
            finally:
                os._exit(status)
        _pid, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status) and os.WEXITSTATUS(wait_status) == 0
        # The parent's executor is untouched by the child's reset.
        assert shared_executor() is parent_executor
        assert parent_executor.maximal_indices(preference, vectors) == expected
