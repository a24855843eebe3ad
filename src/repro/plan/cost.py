"""The calibrated cost model behind plan selection.

Three candidate strategies compete for every preference SELECT:

* ``rewrite`` — the paper's selection method (section 3.2): a correlated
  ``NOT EXISTS`` anti-join executed entirely by the host database,
* ``bnl`` — a hard-condition pushdown fetches the WHERE-surviving
  candidates, then the serial in-memory winnow computes the BMO set with
  the kernel :func:`repro.engine.algorithms.winnow_kernel` picks for the
  rank shape (the name is historical: it is the strategy, not the loop),
* ``parallel`` — the same pushdown and kernels, scheduled by the
  partitioned executor of :mod:`repro.engine.parallel` (per-group tasks
  for GROUPING queries, hash-partition → local skylines → merge filter
  otherwise).

The model prices each strategy in seconds from three inputs: the estimated
candidate count ``n`` (row count × System-R-style WHERE selectivity), the
estimated maximal-set size ``s`` (the classical ``(ln n)^(d-1)/(d-1)!``
skyline estimate for ``d`` preference dimensions, corrected for duplicate
operand values via distinct counts), and per-operation constants calibrated
against this repo's E5/E7 benchmarks on sqlite.  The constants are grouped
in :class:`CostModel` so experiments can re-calibrate without touching the
formulas.  Absolute numbers are deliberately rough — only the *crossover
points* between strategies need to be right, and those are dominated by the
quadratic anti-join versus the linear fetch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.engine.parallel import (
    partition_count,
    process_backend_eligible,
)
from repro.errors import PlanError
from repro.sql import ast

#: Strategies that evaluate the BMO set in Python after a pushdown.
IN_MEMORY_STRATEGIES: tuple[str, ...] = ("bnl", "parallel")

#: All selectable execution strategies, in tie-breaking order.
STRATEGIES: tuple[str, ...] = ("rewrite",) + IN_MEMORY_STRATEGIES

#: The winnow-over-join pushdown: BMO on the preference-bearing table's
#: semijoin-reduced rows, then join only the winners.  Kept out of
#: :data:`STRATEGIES` on purpose — it only exists for multi-table FROM
#: clauses that satisfy Chomicki's commute conditions, so generic
#: "every strategy" loops (fuzzers, benchmarks) must not force it on
#: single-table queries.
PREJOIN_STRATEGY: str = "prejoin"

#: Session reuse: re-winnow the connection's cached winner base ∪ a
#: bounded delta instead of rescanning.  Like :data:`PREJOIN_STRATEGY`
#: it stays out of :data:`STRATEGIES` — it is only priceable when the
#: session cache holds a provably refined entry, so generic "every
#: strategy" loops must not force it.
SESSION_STRATEGY: str = "session"

#: Deterministic tie-breaking order across every priceable strategy.
_TIE_ORDER: tuple[str, ...] = (
    ("rewrite", PREJOIN_STRATEGY) + IN_MEMORY_STRATEGIES + (SESSION_STRATEGY,)
)

#: Assumed distinct count for preference dimensions whose operand is a
#: computed expression (no column statistics available).
_DEFAULT_DISTINCT = 64


@dataclass(frozen=True)
class CostModel:
    """Per-operation cost constants, in seconds.

    Calibrated against measured runs of the jobs/shop/cosima workloads and
    the E5/E7 point distributions on sqlite: one anti-join probe in
    sqlite's VM is ~50 ns, a dominance test through the compiled
    comparator ~0.25 µs, moving one (8-column) row across the
    sqlite→Python boundary and into an engine bundle ~3 µs, and one
    closure-path presort key ~0.9 µs amortised per ``n·log n``.  Setup
    constants capture the fixed overhead of, respectively, preparing a
    host statement and standing up the in-memory engine for one query.
    """

    sql_probe: float = 0.05e-6
    py_dominance: float = 0.25e-6
    row_fetch: float = 3.0e-6
    sort_key: float = 0.9e-6
    sql_setup: float = 0.4e-3
    py_setup: float = 1.3e-3
    #: Standing up (or waking) the shared worker pool for one query.
    pool_setup: float = 0.6e-3
    #: Per partition/group task: scheduling plus the local window state.
    partition_overhead: float = 25e-6
    #: Fraction of the ideal per-worker speedup the *thread* pool
    #: delivers.  Zero on CPython: the comparison work is pure Python, so
    #: the GIL lets thread workers overlap none of it (measured: 4
    #: workers are *slower* than 1 on the E9 workloads) — the thread
    #: backend's real advantage is the partitioned flat-rank core, priced
    #: below.  Raise this only for a runtime whose threads genuinely
    #: overlap (free-threaded builds).
    parallel_efficiency: float = 0.0
    #: Fraction of the ideal per-worker speedup the *process* pool
    #: delivers.  Worker processes run local skylines on separate cores
    #: with no GIL between them; the discount below 1.0 covers partition
    #: skew, the serial merge filter and winner-list pickling (measured
    #: on the e15 partition benchmark at 2-4 workers).
    process_efficiency: float = 0.7
    #: Per-query fixed cost of the process backend: creating (and
    #: unlinking) the shared-memory segment plus cross-process task
    #: dispatch.  The worker pool itself is cached on the executor, so
    #: its fork cost amortises across queries and is not priced here.
    process_setup: float = 2.5e-3
    #: Copying one float64 cell (rank matrix plus candidate vector) into
    #: the shared-memory segment — memcpy rate, far below a rank() call.
    shm_cell: float = 2.0e-9
    #: Rank-tuple comparison in the columnar skyline kernels (serial and
    #: partitioned) — C-level tuple arithmetic, cheaper than a
    #: compiled-closure dominance test (calibrated against E9/E11: ~3x
    #: under py_dominance).
    flat_dominance: float = 0.08e-6
    #: Filling one rank-column cell in Python (one ``rank()``/``level()``
    #: call inside a tight loop), per row and base preference.
    py_rank: float = 0.9e-6
    #: Evaluating one rank CASE/arithmetic expression in the host VM, per
    #: row and base preference (SQL rank pushdown).
    sql_rank: float = 0.12e-6
    #: Shipping one extra (rank) column across the sqlite→Python boundary.
    rank_fetch: float = 0.35e-6
    #: One correlated EXISTS evaluation during the winnow pushdown's
    #: semijoin-reduced scan, per preference-table row (calibrated on
    #: the E12 car/dealer workload with an indexed join key — the
    #: subquery machinery costs ~10x a plain anti-join probe).
    semijoin_probe: float = 0.6e-6


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class PrejoinShape:
    """Input shape of the winnow-over-join pushdown.

    ``pref_rows`` — estimated semijoin-surviving rows of the
    preference-bearing table (the winnow input), ``pref_table_rows`` —
    its total row count (every row pays one correlated EXISTS probe in
    the semijoin scan), ``pref_width`` — its column count (scales the
    fetch), ``other_rows`` — product of the remaining tables' row
    counts (scales the join-back probes).
    """

    pref_rows: float
    pref_table_rows: float
    pref_width: int | None
    other_rows: float


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one strategy, with a per-step breakdown."""

    strategy: str
    seconds: float
    steps: tuple[tuple[str, float], ...]

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


def estimate_skyline_size(
    candidates: float,
    dimensions: int,
    distinct_counts: Sequence[int | None] = (),
) -> float:
    """Expected BMO (maximal set) size for ``candidates`` input rows.

    For ``d`` independent dimensions over ``m`` distinct value
    combinations, the expected number of distinct skyline points is the
    classical ``(ln m)^(d-1) / (d-1)!``; duplicate rows multiply it by
    ``n / m``.  One-dimensional preferences degenerate to "all rows sharing
    the best value", i.e. ``n / m``.
    """
    n = float(max(0, candidates))
    if n == 0:
        return 0.0
    d = max(1, dimensions)
    value_space = 1.0
    for count in distinct_counts or [None] * d:
        value_space *= float(count) if count else _DEFAULT_DISTINCT
        if value_space > 1e15:  # avoid overflow on wide Pareto terms
            value_space = 1e15
            break
    n_eff = max(1.0, min(n, value_space))
    if d == 1:
        distinct_points = 1.0
    else:
        log_term = math.log(n_eff) if n_eff > 1.0 else 0.0
        distinct_points = (log_term ** (d - 1)) / math.factorial(d - 1)
    multiplicity = n / n_eff
    return float(min(n, max(1.0, distinct_points * max(1.0, multiplicity))))


def estimate_selectivity(
    expr: ast.Expr | None,
    distinct_count: Callable[[str], int | None] = lambda _name: None,
) -> float:
    """System-R-style selectivity guess for a WHERE expression in [0, 1].

    Equality against a column uses ``1/distinct`` when statistics are
    available; column-to-column equality (the join-predicate shape) uses
    ``1/max`` of both distinct counts; everything else falls back to the
    textbook magic constants.  ``distinct_count`` receives the column's
    *qualified* display form (``binding.column`` when the reference is
    qualified, the bare name otherwise) so join-aware providers can
    attribute each side to its table.
    """
    if expr is None:
        return 1.0
    selectivity = _selectivity(expr, distinct_count)
    return min(1.0, max(1e-4, selectivity))


def _selectivity(expr: ast.Expr, distinct_count) -> float:
    if isinstance(expr, ast.Binary):
        if expr.op == "AND":
            return _selectivity(expr.left, distinct_count) * _selectivity(
                expr.right, distinct_count
            )
        if expr.op == "OR":
            left = _selectivity(expr.left, distinct_count)
            right = _selectivity(expr.right, distinct_count)
            return left + right - left * right
        if expr.op in ("=", "<>"):
            if isinstance(expr.left, ast.Column) and isinstance(
                expr.right, ast.Column
            ):
                # Join predicate (or same-table column equality): the
                # System-R estimate 1/max(d_left, d_right).  The lookup
                # receives the *qualified* display form so a join-aware
                # provider can attribute each side to its table.
                counts = [
                    count
                    for count in (
                        distinct_count(expr.left.qualified),
                        distinct_count(expr.right.qualified),
                    )
                    if count
                ]
                equal = 1.0 / max(counts) if counts else 0.1
                return equal if expr.op == "=" else 1.0 - equal
            column = _column_operand(expr.left, expr.right)
            count = distinct_count(column) if column else None
            equal = 1.0 / count if count else 0.1
            return equal if expr.op == "=" else 1.0 - equal
        if expr.op in ("<", "<=", ">", ">="):
            return 0.3
        if expr.op == "LIKE":
            return 0.25
        return 0.5
    if isinstance(expr, ast.Unary) and expr.op == "NOT":
        return 1.0 - _selectivity(expr.operand, distinct_count)
    if isinstance(expr, ast.InList):
        column = (
            expr.operand.qualified if isinstance(expr.operand, ast.Column) else None
        )
        count = distinct_count(column) if column else None
        inside = (
            min(1.0, len(expr.items) / count)
            if count
            else min(0.5, 0.1 * len(expr.items))
        )
        return 1.0 - inside if expr.negated else inside
    if isinstance(expr, ast.BetweenExpr):
        return 0.75 if expr.negated else 0.25
    if isinstance(expr, ast.IsNull):
        return 0.95 if expr.negated else 0.05
    if isinstance(expr, (ast.Exists, ast.InSubquery)):
        return 0.5
    if isinstance(expr, ast.Literal):
        return 1.0 if expr.value else 0.0
    return 0.5


def _column_operand(*operands: ast.Expr) -> str | None:
    for operand in operands:
        if isinstance(operand, ast.Column):
            return operand.qualified
    return None


def planned_partitions(
    candidates: float, workers: int, groups: float | None
) -> int:
    """Partition count the parallel strategy would run with.

    GROUPING partitions when the query is grouped (capped by the candidate
    count — there cannot be more non-empty groups than rows), otherwise
    the hash-partition fan-out.  Single source of truth for both the cost
    model and the EXPLAIN PREFERENCE report.
    """
    if groups is not None and groups >= 1.0:
        return int(min(max(1.0, candidates), max(1.0, groups)))
    return partition_count(candidates, workers)


def parallel_backend_choice(
    candidates: float,
    dimensions: int,
    distinct_counts: Sequence[int | None] = (),
    workers: int = 1,
    groups: float | None = None,
    rank_mode: str | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[str, float, float]:
    """The parallel strategy's ``(backend, degree, dispatch seconds)``.

    Prices the degreed partition work (sort plus local skylines) under
    the thread pool — whose degree only earns ``parallel_efficiency``,
    zero on CPython — and under the process pool — real core overlap at
    ``process_efficiency``, but paying the shared-memory export and the
    per-query dispatch — and picks the cheaper.  Grouped queries and
    non-flat trees are thread-only: the same
    :func:`repro.engine.parallel.process_backend_eligible` predicate the
    executor applies at run time, so EXPLAIN's prediction matches what
    execution does.
    """
    n = max(1.0, float(candidates))
    partitions = float(planned_partitions(n, workers, groups))
    thread_degree = max(1.0, min(workers, partitions) * model.parallel_efficiency)
    thread_dispatch = model.pool_setup + model.partition_overhead * partitions
    if groups is not None or not process_backend_eligible(rank_mode, n, workers):
        return "thread", thread_degree, thread_dispatch
    log_n = math.log2(n) if n > 1.0 else 1.0
    local_s = max(
        1.0, estimate_skyline_size(n / partitions, dimensions, distinct_counts)
    )
    work = model.flat_dominance * n * (log_n + local_s)
    process_degree = max(1.0, min(workers, partitions) * model.process_efficiency)
    process_dispatch = (
        thread_dispatch
        + model.process_setup
        + model.shm_cell * n * (max(1, dimensions) + 1)
    )
    if process_dispatch + work / process_degree < thread_dispatch + work / thread_degree:
        return "process", process_degree, process_dispatch
    return "thread", thread_degree, thread_dispatch


def rank_source_costs(
    candidates: float,
    dimensions: int,
    model: CostModel = DEFAULT_COST_MODEL,
) -> dict[str, float]:
    """Seconds to materialise the rank columns, per source.

    ``sql`` prices the pushdown: the host VM evaluates one rank
    expression per base per row, and the extra columns ride the existing
    row transfer; ``python`` prices the engine filling the same columns
    with ``rank()`` calls.
    """
    n = max(1.0, float(candidates))
    d = max(1, dimensions)
    return {
        "sql": (model.sql_rank + model.rank_fetch) * n * d,
        "python": model.py_rank * n * d,
    }


def choose_rank_source(
    candidates: float,
    dimensions: int,
    columnar: bool,
    sql_available: bool,
    model: CostModel = DEFAULT_COST_MODEL,
) -> str:
    """Pick how an in-memory strategy obtains its rank columns.

    ``"sql"`` — rank expressions pushed into the scan SELECT,
    ``"python"`` — shared rank columns filled by the engine,
    ``"closure"`` — no rank columns (EXPLICIT or custom preference):
    per-pair compiled/generic closures.
    """
    if not columnar:
        return "closure"
    if not sql_available:
        return "python"
    costs = rank_source_costs(candidates, dimensions, model)
    return "sql" if costs["sql"] <= costs["python"] else "python"


def estimate_costs(
    candidates: float,
    dimensions: int,
    distinct_counts: Sequence[int | None] = (),
    model: CostModel = DEFAULT_COST_MODEL,
    include: Sequence[str] = STRATEGIES,
    row_width: int | None = None,
    workers: int = 1,
    groups: float | None = None,
    columnar: bool = False,
    rank_source: str | None = None,
    rank_mode: str | None = None,
    prejoin: PrejoinShape | None = None,
) -> dict[str, CostEstimate]:
    """Price every strategy in ``include`` for the given input shape.

    ``row_width`` (column count of the candidate table) scales the
    sqlite→Python transfer cost of the in-memory strategies: the pushdown
    materialises whole rows, so a 74-attribute profile costs an order of
    magnitude more per row than a 7-attribute catalog entry, while the
    host-side anti-join only ever ships the winners.

    ``workers`` is the parallel strategy's worker degree and ``groups`` the
    estimated GROUPING partition count (None for ungrouped queries).  The
    parallel strategy prices pool spin-up plus per-partition overhead
    against the partitioned executor's comparison structure: local
    skylines over rank rows shared across partitions, plus — for
    hash-partitioned ungrouped queries — the merge filter over the union
    of local skylines.  The strategy prices both execution backends and
    takes the cheaper (see :func:`parallel_backend_choice`): on threads
    the worker degree only earns ``model.parallel_efficiency`` (zero on
    CPython — the GIL serialises the pure-Python comparison work, so the
    modelled advantage is the cheaper flat-rank comparisons), while the
    process pool genuinely overlaps local skylines on separate cores for
    large flat-mode partitions (``rank_mode``, see
    :func:`repro.engine.parallel.process_backend_eligible`).

    ``columnar`` marks a rank-based preference tree: the in-memory
    strategies then price their comparisons at the columnar kernels'
    C-level tuple rate (``flat_dominance``) instead of per-pair closure
    calls, plus one explicit "rank columns" step whose cost depends on
    ``rank_source`` (``"sql"`` pushdown vs ``"python"``, see
    :func:`choose_rank_source`).
    """
    n = max(1.0, float(candidates))
    s = max(1.0, estimate_skyline_size(n, dimensions, distinct_counts))
    log_n = math.log2(n) if n > 1.0 else 1.0
    width_factor = max(1.0, (row_width or 8) / 8.0)
    row_fetch = model.row_fetch * width_factor
    dominance = model.flat_dominance if columnar else model.py_dominance
    rank_step: tuple[str, float] | None = None
    if columnar:
        source_costs = rank_source_costs(n, dimensions, model)
        if rank_source == "sql":
            rank_step = ("rank columns (sql pushdown)", source_costs["sql"])
        else:
            rank_step = ("rank columns (python)", source_costs["python"])
    estimates: dict[str, CostEstimate] = {}

    for strategy in include:
        if strategy == "rewrite":
            # Every candidate probes the dominator copy: winners scan all n
            # rows, losers stop at their first dominator (expected position
            # n/(s+1) with s winners spread uniformly).
            probes = s * n + (n - s) * (n / (s + 1.0))
            steps = (
                ("prepare host statement", model.sql_setup),
                ("host anti-join probes", model.sql_probe * probes),
                ("fetch winners", model.row_fetch * s),
            )
        elif strategy == "bnl":
            # One price for the serial winnow: a window scan (grows with
            # the skyline) or presort + filter pass (the presort
            # guarantees no later tuple dominates an earlier one, so it
            # overtakes once the skyline outgrows the sort cost),
            # whichever is cheaper.  Recalibrating against the kernels
            # that actually run belongs to the cost audit; until then
            # this holds every rewrite / in-memory / parallel crossover
            # where the three-formula model put it.
            sort_cost = (
                model.flat_dominance if columnar else model.sort_key
            ) * n * log_n
            steps = (
                ("engine setup", model.py_setup),
                ("fetch candidates", row_fetch * n),
                *((rank_step,) if rank_step else ()),
                (
                    "winnow",
                    min(
                        dominance * n * s * 0.35,
                        sort_cost + dominance * n * s * 0.2,
                    ),
                ),
            )
        elif strategy == "parallel":
            partitions = float(planned_partitions(n, workers, groups))
            backend, degree, dispatch = parallel_backend_choice(
                n,
                dimensions,
                distinct_counts,
                workers=workers,
                groups=groups,
                rank_mode=rank_mode,
                model=model,
            )
            local_n = n / partitions
            local_s = max(
                1.0, estimate_skyline_size(local_n, dimensions, distinct_counts)
            )
            union = min(n, partitions * local_s)
            steps = (
                ("engine setup", model.py_setup),
                ("fetch candidates", row_fetch * n),
                (
                    "process-pool dispatch + shared-memory export"
                    if backend == "process"
                    else "pool spin-up + task dispatch",
                    dispatch,
                ),
                # Rank rows materialise once globally — via the chosen
                # rank source for columnar trees, Python-level rank()
                # calls otherwise; the per-partition sort is C-level
                # tuple comparison, priced like a flat dominance test per
                # n·log n step.
                rank_step if rank_step else ("rank rows", model.sort_key * n),
                (
                    "partition sort",
                    model.flat_dominance * n * log_n / degree,
                ),
                (
                    "local skylines",
                    model.flat_dominance * n * local_s / degree,
                ),
                (
                    "merge filter",
                    0.0
                    if groups is not None and groups >= 1.0
                    else model.flat_dominance * union * s,
                ),
            )
        elif strategy == PREJOIN_STRATEGY:
            if prejoin is None:
                raise PlanError(
                    "the prejoin strategy needs a PrejoinShape to price"
                )
            # Winnow the semijoin-reduced preference table (SFS-shaped),
            # then one host query joins the few winners back: rowid
            # lookups on the preference table, a scan of the other
            # tables per winner, and the surviving joined rows shipped.
            pn = max(1.0, float(prejoin.pref_rows))
            ps = max(1.0, estimate_skyline_size(pn, dimensions, distinct_counts))
            p_log = math.log2(pn) if pn > 1.0 else 1.0
            p_fetch = model.row_fetch * max(1.0, (prejoin.pref_width or 8) / 8.0)
            out_rows = min(n, max(1.0, n * ps / pn))
            if columnar:
                source_costs = rank_source_costs(pn, dimensions, model)
                if rank_source == "sql":
                    p_rank = ("rank columns (sql pushdown)", source_costs["sql"])
                else:
                    p_rank = ("rank columns (python)", source_costs["python"])
                sort_cost = model.flat_dominance * pn * p_log
            else:
                p_rank = None
                sort_cost = model.sort_key * pn * p_log
            steps = (
                ("engine setup", model.py_setup),
                (
                    "semijoin scan",
                    model.sql_setup
                    + model.semijoin_probe
                    * max(pn, float(prejoin.pref_table_rows)),
                ),
                ("fetch preference-table candidates", p_fetch * pn),
                *((p_rank,) if p_rank else ()),
                (
                    "presort by rank rows" if columnar else "presort by dominance key",
                    sort_cost,
                ),
                ("filter pass", dominance * pn * ps * 0.2),
                (
                    "join winners back",
                    model.sql_setup
                    + model.sql_probe * ps * max(1.0, prejoin.other_rows)
                    + model.row_fetch * out_rows,
                ),
            )
        else:
            raise PlanError(f"unknown strategy {strategy!r}")
        estimates[strategy] = CostEstimate(
            strategy=strategy,
            seconds=sum(seconds for _label, seconds in steps),
            steps=steps,
        )
    return estimates


def choose_strategy(estimates: Mapping[str, CostEstimate]) -> str:
    """The cheapest strategy; ties break in :data:`_TIE_ORDER` order."""
    if not estimates:
        raise PlanError("no cost estimates to choose from")
    return min(
        estimates,
        key=lambda name: (estimates[name].seconds, _TIE_ORDER.index(name)),
    )


def semantic_pass_estimate(
    candidates: float,
    winners: float,
    sort_keys: int,
    scans: int,
    model: CostModel = DEFAULT_COST_MODEL,
) -> CostEstimate:
    """Price a semantically rewritten ``rewrite`` plan.

    Replaces the NOT EXISTS anti-join estimate when a semantic rule
    fires (see :mod:`repro.plan.semantic`): the host evaluates
    ``sort_keys`` rank expressions per row over ``scans`` passes, sorts
    once, and ships only the winners — no quadratic term, and none of
    the fetch-every-candidate cost the in-memory strategies pay.  A
    winnow elimination (``sort_keys == 0``) is a plain scan.
    """
    n = max(candidates, 1.0) if candidates else 0.0
    s = min(max(winners, 1.0), n) if candidates else 0.0
    steps: list[tuple[str, float]] = [
        ("prepare host statement", model.sql_setup)
    ]
    if sort_keys:
        steps.append(
            (
                "host rank expressions",
                model.sql_rank * n * sort_keys * max(scans, 1),
            )
        )
        log_n = math.log2(n) if n > 1.0 else 1.0
        steps.append(("host single-pass sort", model.sql_probe * n * log_n))
    else:
        steps.append(("host scan", model.sql_probe * n))
    steps.append(("fetch winners", model.row_fetch * s))
    return CostEstimate(
        strategy="rewrite",
        seconds=sum(seconds for _label, seconds in steps),
        steps=tuple(steps),
    )


def session_reuse_estimate(
    winners: float,
    delta: float,
    table_rows: float,
    dimensions: int,
    distinct_counts: Sequence[int | None] = (),
    model: CostModel = DEFAULT_COST_MODEL,
    delta_scan: bool = False,
    row_width: int | None = None,
) -> CostEstimate:
    """Price answering from the session cache's winner base.

    ``winners`` cached winner-base rows are already in memory; a WHERE
    weakening additionally scans the table once for the delta rows
    (``delta`` estimated survivors of the delta condition).  The
    re-winnow then runs over ``winners + delta`` rows — for refinement
    chains that is orders of magnitude below any full-scan strategy,
    which is exactly why the strategy wins whenever it is priceable.
    """
    m = max(0.0, float(winners))
    d_rows = max(0.0, float(delta)) if delta_scan else 0.0
    pool = max(1.0, m + d_rows)
    s = max(1.0, estimate_skyline_size(pool, dimensions, distinct_counts))
    width_factor = max(1.0, (row_width or 8) / 8.0)
    steps: list[tuple[str, float]] = [
        ("reuse cached winners", 0.0),
    ]
    if delta_scan:
        steps.append(
            (
                "delta scan",
                model.sql_setup
                + model.sql_probe * max(1.0, float(table_rows))
                + model.row_fetch * width_factor * d_rows,
            )
        )
    steps.append(
        (
            "re-winnow winners ∪ delta",
            model.py_setup + model.py_dominance * pool * s * 0.35,
        )
    )
    return CostEstimate(
        strategy=SESSION_STRATEGY,
        seconds=sum(seconds for _label, seconds in steps),
        steps=tuple(steps),
    )
