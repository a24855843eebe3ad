"""Winnow evaluation: the oracle, and one kernel per rank shape.

The paper computes Pareto-optimal sets by rewriting to a correlated
``NOT EXISTS`` anti-join executed by the host database (section 3.2) and
notes that dedicated skyline algorithms "clearly hold much promise for
additional speed-ups" (section 3.3, citing [BKS01] and [TEO01]).  Winnow
is *one* operator (Chomicki); how its maximal set is found is an
implementation detail decided here, in one place:

* :func:`nested_loop_maximal` — the paper's own *abstract selection method*
  (section 3.2): keep a tuple iff no other tuple is better.  Quadratic;
  it stays on the per-pair comparator as the independent oracle every
  other path is tested against.
* :func:`winnow_kernel` — maps a query's rank shape to its kernel, once
  per query:

  ================================  =====================================
  rank shape                        kernel
  ================================  =====================================
  flat Pareto, ≥ 150 candidates     blocked sort-filter over the rank
                                    matrix (numpy)
  flat Pareto, fewer (or no numpy)  sort-filter over distinct rank tuples
  flat cascade (incl. single base)  minimum-bucket scan
  mixed nesting, EXPLICIT, custom   window BNL [BKS01] over
  partial orders                    :func:`~repro.engine.compiled.best_better`
  ================================  =====================================

Everything above it — :func:`repro.engine.bmo.bmo_filter`'s serial path,
the thread partitions of :mod:`repro.engine.parallel` and the process
workers of :mod:`repro.engine.shm` — only *schedules* index subsets
(GROUPING partitions, hash partitions, strided slices) through the
evaluator it returns.  Evaluators return the *indices* of maximal rows,
so ties and duplicates are preserved exactly the way the NOT EXISTS
rewrite preserves them.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.deadline import CHECK_EVERY, active_deadline
from repro.engine.columns import (
    RankColumns,
    compute_rank_columns,
    minimum_bucket,
    sort_filter_blocked,
    sort_filter_rows,
)
from repro.engine.compiled import BetterFn, best_better
from repro.errors import EvaluationError
from repro.model.preference import Preference

Vector = tuple

#: A chosen kernel: BMO winners among one index subset, unsorted.
Kernel = Callable[[Sequence[int]], list[int]]

#: Below this many candidates the tuple sort-filter beats numpy's
#: per-call overhead (tuned on the E11 workloads).  The selector is the
#: observable input size: the benchmark's ``skyline_scan`` windows sit
#: above the line, the ``serve_*`` session re-winnows below it.
_NUMPY_MIN_ROWS = 150


def nested_loop_maximal(
    preference: Preference,
    vectors: Sequence[Vector],
    ranks: RankColumns | None = None,
) -> list[int]:
    """The paper's abstract selection method (section 3.2), verbatim:

    (1) start with an empty Max set; (2) select a tuple t1; (3) insert t1
    into Max if there is no tuple t2 better than t1; (4) repeat for all
    tuples.  Quadratic, but the exact semantics every other algorithm must
    match — it deliberately stays on the per-pair comparator (``ranks``
    only saves recomputing them) so it remains an independent oracle for
    the columnar kernels.
    """
    better = best_better(preference, vectors, ranks=ranks)
    deadline = active_deadline()
    result = []
    count = len(vectors)
    for i in range(count):
        if deadline is not None:
            deadline.check()
        dominated = any(better(j, i) for j in range(count) if j != i)
        if not dominated:
            result.append(i)
    return result


def window_bnl(better: BetterFn, indices: Sequence[int]) -> list[int]:
    """Block-Nested-Loops [BKS01] with an unbounded in-memory window.

    Each incoming row is compared against the window: dominated rows are
    dropped, and window members dominated by the newcomer are evicted.
    With the window fully in memory there is a single pass.  ``better``
    is indexed by the same row positions ``indices`` holds, so partitions
    share one compiled comparator instead of each recompiling a slice.
    """
    deadline = active_deadline()
    window: list[int] = []
    for position, i in enumerate(indices):
        if deadline is not None and not position % CHECK_EVERY:
            deadline.check()
        dominated = False
        survivors: list[int] = []
        for j in window:
            if better(j, i):
                dominated = True
                break
            if not better(i, j):
                survivors.append(j)
            # else: window member j is dominated by the newcomer — evicted.
        if not dominated:
            survivors.append(i)
            window = survivors
        # when dominated, the window is unchanged
    return window


def winnow_kernel(
    preference: Preference | None,
    vectors: Sequence[Vector] | None,
    candidates: Sequence[int],
    ranks: RankColumns | None = None,
) -> tuple[Kernel, RankColumns | None, dict[int, int] | None]:
    """The one place a rank shape picks its kernel, once per query.

    Returns ``(evaluate, shared, position)``.  ``evaluate(indices)``
    yields the BMO winners among any subset of ``candidates`` and always
    addresses rows by their *global* index, so callers pass partitions
    around untranslated.  ``shared`` is the query's rank columns (None
    for trees without ranks) and ``position`` the global index → column
    row map when they differ — the process backend ships both.

    Caller-supplied ``ranks`` (the SQL rank pushdown, a process worker's
    slice of the shared matrix) are globally indexed and adopted as-is;
    ``preference`` and ``vectors`` are then only consulted for trees
    without a flat shape.  Otherwise only the ``candidates`` rows are
    ranked — a row a BUT ONLY threshold discarded must never reach a
    ``rank()`` implementation.
    """
    shared, position, ranked = ranks, None, vectors
    if shared is None:
        if vectors is None:
            raise EvaluationError(
                "winnow needs operand vectors or precomputed rank columns"
            )
        if len(candidates) != len(vectors):
            ranked = [vectors[i] for i in candidates]
            position = {index: row for row, index in enumerate(candidates)}
        shared = compute_rank_columns(preference, ranked)

    mode = shared.mode if shared is not None else None
    if mode is None:
        compact = best_better(preference, ranked, ranks=shared)
        better = (
            compact
            if position is None
            else lambda i, j: compact(position[i], position[j])
        )
        return (lambda indices: window_bnl(better, indices)), shared, position

    def rank_rows(indices: Sequence[int]):
        rows = shared.rows
        if position is None:
            return rows
        return {i: rows[position[i]] for i in indices}

    if mode == "cascade":

        def evaluate(indices: Sequence[int]) -> list[int]:
            return minimum_bucket(
                rank_rows(indices), indices, nan_free=not shared.has_nan
            )

    else:

        def evaluate(indices: Sequence[int]) -> list[int]:
            if len(indices) >= _NUMPY_MIN_ROWS:
                matrix = shared.matrix()  # None without numpy
                if matrix is not None:
                    return sort_filter_blocked(matrix, indices, position)
            return sort_filter_rows(
                rank_rows(indices), indices, nan_free=not shared.has_nan
            )

    return evaluate, shared, position


def columnar_skyline(
    ranks: RankColumns, indices: Sequence[int], flavor: object = None
) -> list[int]:
    """BMO winners among ``indices`` over precomputed rank columns, unsorted."""
    # ``flavor`` is ignored: it named the retired bnl/sfs/dnc loop variants,
    # and benchmark/tracing.py (frozen) still passes one positionally.
    return winnow_kernel(None, None, indices, ranks)[0](indices)
