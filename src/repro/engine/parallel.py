"""Partitioned parallel skyline execution.

Preference evaluation decomposes cleanly over partitions (Chomicki's
winnow-operator work makes the same observation for relational algebra),
so this module turns that structure into an execution strategy:

* **grouped queries** — the GROUPING partitions are evaluated as
  independent tasks on a shared worker pool, one task per batch of groups,
* **ungrouped queries** — the candidate set is hash-partitioned, a local
  skyline is computed per partition, and a final *merge filter* over the
  union of the local skylines yields the global result.

The merge step is justified by the **partition lemma**: for any
partitioning ``P_1 ∪ ... ∪ P_k`` of a finite candidate set under a strict
partial order, ``max(∪ max(P_i)) = max(∪ P_i)``.  A globally maximal tuple
is maximal in its own partition (it faces fewer competitors there) and
survives the merge (nothing dominates it anywhere); conversely a tuple
dominated by some ``z`` is, by transitivity and finiteness, dominated by a
*maximal* tuple of ``z``'s partition, which the merge filter sees.  The
property test in ``tests/test_parallel.py`` exercises the lemma on random
vectors and arbitrary partitionings.

Every partition task, and the merge filter, runs the query's one
kernel — :func:`repro.engine.algorithms.winnow_kernel` picks it by rank
shape once per query, over rank columns materialised *once, globally*
(or adopted from the SQL rank pushdown) — so this module only schedules
index subsets: hash partitions on threads, strided slices of a
shared-memory rank matrix on worker processes (:mod:`repro.engine.shm`,
flat rank shapes only), GROUPING batches on threads.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.deadline import active_deadline, run_with_deadline
from repro.engine.algorithms import winnow_kernel
from repro.engine.columns import RankColumns
from repro.engine.shm import RankTransport, skyline_worker, transport_available
from repro.errors import EvaluationError
from repro.model.preference import Preference
from repro.testing import faults

#: Below this many candidates a partitioned run costs more than it saves.
DEFAULT_MIN_PARTITION_ROWS = 64

#: Upper bound on the automatic worker degree; beyond this the per-task
#: scheduling overhead outgrows what one query can amortise.
MAX_DEFAULT_WORKERS = 8

#: Below this many candidates the process backend's fixed costs (segment
#: creation, rank-matrix copy, task dispatch, result pickling) outweigh
#: what genuine core overlap can save, even with a warm pool.
PROCESS_MIN_ROWS = 4096

#: The execution backends a :class:`ParallelExecutor` can be pinned to.
BACKENDS = ("auto", "thread", "process")


def default_worker_count() -> int:
    """The automatic worker degree: CPU count, bounded to a sane range."""
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


def process_backend_eligible(
    mode: str | None,
    candidates: float,
    workers: int,
    backend: str = "auto",
) -> bool:
    """Whether the process-pool backend may run a partitioned skyline.

    Shared by the executor (to pick a backend at run time) and the cost
    model (to price the same choice at plan time), so EXPLAIN's predicted
    backend matches what execution actually does.  The process path
    requires a flat rank-comparison ``mode`` (workers rebuild the kernel
    from the shared rank matrix alone — closure-compared trees would need
    the preference and vectors pickled over) and numpy for the
    shared-memory views; ``backend="process"`` skips only the row floor,
    never the structural requirements.
    """
    if backend == "thread" or workers <= 1 or mode is None:
        return False
    if not transport_available():
        return False
    if backend == "process":
        return True
    return candidates >= PROCESS_MIN_ROWS


def partition_count(
    candidates: float,
    workers: int,
    min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
) -> int:
    """Hash-partition fan-out for ``candidates`` rows at a worker degree.

    Two partitions per worker keeps the pool busy when local skylines
    finish unevenly, but never so many that partitions drop below
    ``min_partition_rows`` rows each.
    """
    if candidates <= 0:
        return 1
    by_size = max(1, int(candidates // min_partition_rows))
    return max(1, min(max(1, workers) * 2, by_size))


# prefcheck: disable=deadline-poll -- pure round-robin append, one cheap pass; every kernel that consumes the partitions polls
def hash_partitions(indices: Sequence[int], count: int) -> list[list[int]]:
    """Deterministically spread indices over ``count`` balanced partitions."""
    if count <= 1:
        return [list(indices)]
    parts: list[list[int]] = [[] for _ in range(count)]
    for position, index in enumerate(indices):
        parts[position % count].append(index)
    return [part for part in parts if part]


#: Process-wide shared executor for callers that pass none — repeated
#: :func:`repro.engine.bmo.bmo_filter` calls on the same connection used
#: to spin up (and tear down) a transient pool each.  Created lazily,
#: never closed; per-connection executors still control their own degree.
_shared_executor: "ParallelExecutor | None" = None
_shared_lock = threading.Lock()


def _reset_shared_executor_after_fork() -> None:
    """Forget the shared executor in a freshly forked child.

    A fork can happen while another thread holds ``_shared_lock`` (the
    child would deadlock on first use) and the child inherits pool
    *objects* whose worker threads and processes only ever existed in
    the parent.  Dropping both and minting a fresh lock makes
    :func:`shared_executor` lazily rebuild a working pool in the child;
    the parent's executor is untouched.
    """
    global _shared_executor, _shared_lock
    _shared_lock = threading.Lock()
    _shared_executor = None


os.register_at_fork(after_in_child=_reset_shared_executor_after_fork)


def shared_executor() -> "ParallelExecutor":
    """The lazily-created process-wide default executor."""
    global _shared_executor
    with _shared_lock:
        if _shared_executor is None or _shared_executor._closed:
            _shared_executor = ParallelExecutor()
        return _shared_executor


class ParallelExecutor:
    """A partitioned skyline executor over a shared worker pool.

    One executor per connection (or engine) amortises the pool across
    queries; the pool itself is created lazily, and with ``max_workers=1``
    every task runs inline so single-core machines never pay for threads.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
        backend: str = "auto",
    ):
        if max_workers is not None and max_workers < 1:
            raise EvaluationError("max_workers must be at least 1")
        if backend not in BACKENDS:
            raise EvaluationError(
                f"backend must be one of {', '.join(BACKENDS)}"
            )
        self.max_workers = max_workers or default_worker_count()
        self.min_partition_rows = min_partition_rows
        self.backend = backend
        #: The backend the most recent ``*maximal_indices`` call actually
        #: used: ``"serial"``, ``"thread"`` or ``"process"``.
        self.last_backend: str | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._processes: ProcessPoolExecutor | None = None
        self._closed = False
        #: Process-pool failures survived (broken pool, shm exhaustion);
        #: each one fell back to threads and the pool was rebuilt lazily.
        self.process_failures = 0

    # ------------------------------------------------------------------
    # Pool lifecycle

    def close(self) -> None:
        """Shut the worker pools down; the executor is unusable afterwards."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._processes is not None:
            self._processes.shutdown(wait=True)
            self._processes = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _run(self, tasks: list[Callable[[], list[int]]]) -> list[list[int]]:
        """Run partition tasks, on the pool when it can actually help."""
        if self._closed:
            raise EvaluationError("parallel executor is closed")
        if self.max_workers == 1 or len(tasks) == 1:
            return [task() for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="skyline"
            )
        # Pool threads never saw the caller's deadline scope; capture it
        # here and re-enter it inside each task so the kernels' polls see
        # the same deadline the query was admitted under.
        deadline = active_deadline()
        return list(
            self._pool.map(
                lambda task: run_with_deadline(task, deadline), tasks
            )
        )

    def _process_pool(self) -> ProcessPoolExecutor:
        """The lazily-created (and then cached) worker-process pool."""
        if self._processes is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                context = multiprocessing.get_context()
            self._processes = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
        return self._processes

    def _run_process(
        self, ranks: RankColumns, indices: Sequence[int], count: int
    ) -> list[list[int]] | None:
        """Local skylines on the process pool; None means fall back.

        Publishes the rank matrix and candidate indices once through a
        shared-memory segment; each worker takes the strided slice
        ``indices[k::count]`` — the same round-robin partitioning
        :func:`hash_partitions` produces.  A broken pool (a killed
        worker, fork failure, exhausted /dev/shm) must not fail the
        query: the pool is dropped and the caller re-runs the partitions
        on the thread path.
        """
        if self._closed:
            raise EvaluationError("parallel executor is closed")
        deadline = active_deadline()
        expires_at = deadline.expires_at if deadline is not None else None
        try:
            pool = self._process_pool()
            faults.fire("process.task", pool=pool)
            with RankTransport(ranks, indices) as transport:
                tasks = [
                    transport.task(k, count, deadline_ts=expires_at)
                    for k in range(count)
                ]
                return [
                    winners
                    for winners in pool.map(skyline_worker, tasks)
                    if winners
                ]
        except (OSError, BrokenProcessPool):
            # QueryTimeout deliberately propagates past this clause: a
            # worker hitting the deadline is a cancelled *query*, not a
            # broken *pool* — rerunning it on threads would double the
            # time a timed-out request holds its worker.
            self.process_failures += 1
            if self._processes is not None:
                self._processes.shutdown(wait=False, cancel_futures=True)
                self._processes = None
            return None

    # ------------------------------------------------------------------
    # Execution

    def maximal_indices(
        self,
        preference: Preference,
        vectors: Sequence[tuple] | None,
        candidates: Sequence[int] | None = None,
        ranks: RankColumns | None = None,
    ) -> list[int]:
        """The global BMO set: hash-partition, local skylines, merge filter.

        ``ranks`` supplies globally-indexed precomputed rank columns (the
        SQL rank pushdown path); without them the executor ranks the
        candidate rows itself, once.
        """
        indices = (
            list(range(len(vectors) if vectors is not None else len(ranks)))
            if candidates is None
            else list(candidates)
        )
        evaluate, shared, remap = winnow_kernel(
            preference, vectors, indices, ranks
        )
        if len(indices) <= self.min_partition_rows and self.backend != "process":
            self.last_backend = "serial"
            return sorted(evaluate(indices))
        count = partition_count(
            len(indices), self.max_workers, self.min_partition_rows
        )
        local: list[list[int]] | None = None
        if count > 1 and self._process_eligible(shared, len(indices)):
            if remap is None:
                local = self._run_process(shared, indices, count)
            else:
                # Locally computed ranks are compact (row k of the matrix
                # is candidate k): ship matrix positions, translate the
                # winners back to global indices.
                positions = self._run_process(
                    shared, list(range(len(indices))), count
                )
                local = (
                    [[indices[p] for p in winners] for winners in positions]
                    if positions is not None
                    else None
                )
        if local is not None:
            self.last_backend = "process"
        else:
            parts = hash_partitions(indices, count)
            self.last_backend = (
                "thread" if len(parts) > 1 and self.max_workers > 1 else "serial"
            )
            local = self._run([lambda p=p: evaluate(p) for p in parts])
        if len(local) == 1:
            # A single partition's skyline is already global: no merge.
            return sorted(local[0])
        union: list[int] = sorted(i for winners in local for i in winners)
        return sorted(evaluate(union))

    # prefcheck: disable=deadline-poll -- explicit loops are one linear grouping pass and per-batch bookkeeping; the per-group evaluators dispatched through _run poll at kernel cadence
    def grouped_maximal_indices(
        self,
        preference: Preference,
        vectors: Sequence[tuple] | None,
        group_keys: Sequence[object],
        candidates: Sequence[int] | None = None,
        ranks: RankColumns | None = None,
    ) -> list[int]:
        """Per-group BMO sets, one pool task per batch of groups.

        Groups are natural partitions: no merge filter is needed because
        the result is, by definition, the union of the per-group skylines.
        """
        indices = (
            list(range(len(vectors) if vectors is not None else len(ranks)))
            if candidates is None
            else list(candidates)
        )
        self.last_backend = "thread" if self.max_workers > 1 else "serial"
        groups: dict[object, list[int]] = {}
        for i in indices:
            groups.setdefault(group_keys[i], []).append(i)
        evaluate = winnow_kernel(preference, vectors, indices, ranks)[0]
        batches = hash_partitions(
            list(range(len(groups))), min(self.max_workers * 2, len(groups) or 1)
        )
        members = list(groups.values())
        tasks = [
            lambda batch=batch: [
                i for g in batch for i in evaluate(members[g])
            ]
            for batch in batches
        ]
        return sorted(i for winners in self._run(tasks) for i in winners)

    def _process_eligible(
        self, ranks: RankColumns | None, candidates: int
    ) -> bool:
        """Whether this query may run on the process backend.

        ``ranks`` is the query's resolved shared rank columns (adopted
        from the SQL pushdown or computed here); a flat comparison mode
        is required because workers rebuild the kernel from the shared
        rank matrix alone — closure-compared trees stay on threads.
        """
        if ranks is None:
            return False
        return process_backend_eligible(
            ranks.mode, candidates, self.max_workers, self.backend
        )


def parallel_maximal_indices(
    preference: Preference,
    vectors: Sequence[tuple] | None,
    max_workers: int | None = None,
    ranks: RankColumns | None = None,
) -> list[int]:
    """One-shot convenience around the process-wide shared executor.

    An explicit ``max_workers`` still gets a private (transient) pool;
    without one the shared executor is reused, so repeated calls stop
    paying pool spin-up and tear-down.
    """
    if max_workers is not None:
        with ParallelExecutor(max_workers=max_workers) as executor:
            return executor.maximal_indices(preference, vectors, ranks=ranks)
    return shared_executor().maximal_indices(preference, vectors, ranks=ranks)
