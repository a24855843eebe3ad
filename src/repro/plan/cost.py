"""The calibrated cost model behind plan selection.

Two candidate strategies compete for every preference SELECT:

* ``rewrite`` — the paper's selection method (section 3.2): a correlated
  ``NOT EXISTS`` anti-join executed entirely by the host database,
* ``bnl`` — a hard-condition pushdown fetches the WHERE-surviving
  candidates, then the serial in-memory winnow computes the BMO set with
  the kernel :func:`repro.engine.algorithms.winnow_kernel` picks for the
  rank shape (the name is historical: it is the strategy, not the loop).

The model prices each strategy in seconds from three inputs: the estimated
candidate count ``n`` (row count × System-R-style WHERE selectivity), the
estimated maximal-set size ``s`` (the classical ``(ln n)^(d-1)/(d-1)!``
skyline estimate for ``d`` preference dimensions, corrected for duplicate
operand values via distinct counts), and per-operation constants calibrated
against this repo's E5/E7 benchmarks on sqlite, kept as module constants.
Absolute numbers are deliberately rough — only the *crossover
points* between strategies need to be right, and those are dominated by the
quadratic anti-join versus the linear fetch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sql import ast

#: Session reuse: re-winnow the connection's cached winner base ∪ a
#: bounded delta instead of rescanning.  It is not among the strategies
#: :func:`repro.plan.planner.plan_statement` prices — it is only
#: priceable when the session cache holds a provably refined entry, so
#: generic "every strategy" loops must not force it.
SESSION_STRATEGY: str = "session"

#: Assumed distinct count for preference dimensions whose operand is a
#: computed expression (no column statistics available).
_DEFAULT_DISTINCT = 64


# Per-operation cost constants, in seconds, calibrated against measured
# runs of the jobs/shop/cosima workloads and the E5/E7 point
# distributions on sqlite: one anti-join probe in sqlite's VM is ~50 ns, a
# dominance test through the compiled comparator ~0.25 µs, moving one
# (8-column) row across the sqlite→Python boundary and into an engine
# bundle ~3 µs, and one closure-path presort key ~0.9 µs amortised per
# ``n·log n``.  The setup constants are the fixed overhead of preparing a
# host statement and of standing up the in-memory engine for one query.
SQL_PROBE = 0.05e-6
PY_DOMINANCE = 0.25e-6
ROW_FETCH = 3.0e-6
SORT_KEY = 0.9e-6
SQL_SETUP = 0.4e-3
PY_SETUP = 1.3e-3
#: Rank-tuple comparison in the columnar skyline kernels — C-level tuple
#: arithmetic (calibrated against E9/E11: ~3x under PY_DOMINANCE).
FLAT_DOMINANCE = 0.08e-6
#: Filling one rank-column cell in Python, per row and base preference.
PY_RANK = 0.9e-6
#: Evaluating one rank expression in the host VM, per row and base
#: preference (SQL rank pushdown).
SQL_RANK = 0.12e-6
#: Shipping one extra (rank) column across the sqlite→Python boundary.
RANK_FETCH = 0.35e-6


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


def choose_rank_source(columnar: bool, sql_available: bool) -> str:
    """How an in-memory strategy obtains its rank columns.

    ``"closure"`` — no rank columns (EXPLICIT or custom preference):
    per-pair compiled/generic closures; ``"python"`` — some base has no
    SQL rank form, so the engine fills shared rank columns; ``"sql"`` —
    rank expressions pushed into the scan SELECT.  The pushdown costs
    ``(SQL_RANK + RANK_FETCH)`` per cell against ``PY_RANK`` in Python,
    so it wins whenever every base has one.
    """
    if not columnar:
        return "closure"
    return "sql" if sql_available else "python"


@dataclass(frozen=True)
class Shape:
    """What pricing reads of one statement.

    ``candidates`` estimates the rows that survive the WHERE,
    ``distinct_counts`` the operand values of each of the ``dimensions``
    base preferences, ``row_width`` is the candidate table's column count
    (it scales the sqlite→Python transfer of the in-memory strategies: a
    74-attribute profile costs an order of magnitude more per row than a
    7-attribute catalog entry, while the host-side anti-join only ever
    ships the winners).  A ``rank_source`` of ``"sql"`` or ``"python"``
    marks a rank-based tree, whose comparisons run at the columnar
    kernels' C-level tuple rate after one "rank columns" step from that
    source (:func:`choose_rank_source`).
    """

    candidates: float
    dimensions: int
    distinct_counts: Sequence[int | None] = ()
    row_width: int | None = None
    rank_source: str | None = None


def _estimate(strategy: str, steps) -> CostEstimate:
    steps = tuple(steps)
    return CostEstimate(strategy, sum(seconds for _label, seconds in steps), steps)


def rewrite_estimate(shape: Shape) -> CostEstimate:
    """Price the ``NOT EXISTS`` anti-join: every candidate probes the
    dominator copy; winners scan all n rows, losers stop at their first
    dominator (expected position n/(s+1) with s winners spread
    uniformly)."""
    n = max(1.0, float(shape.candidates))
    s = max(1.0, estimate_skyline_size(n, shape.dimensions, shape.distinct_counts))
    probes = s * n + (n - s) * (n / (s + 1.0))
    return _estimate(
        "rewrite",
        (
            ("prepare host statement", SQL_SETUP),
            ("host anti-join probes", SQL_PROBE * probes),
            ("fetch winners", ROW_FETCH * s),
        ),
    )


def bnl_estimate(shape: Shape) -> CostEstimate:
    """Price the serial winnow: a window scan (grows with the skyline) or
    presort + filter pass (the presort guarantees no later tuple
    dominates an earlier one, so it overtakes once the skyline outgrows
    the sort cost), whichever is cheaper.  Recalibrating against the
    kernels that actually run belongs to the cost audit; until then this
    holds every rewrite / in-memory crossover where the three-formula
    model put it."""
    n = max(1.0, float(shape.candidates))
    s = max(1.0, estimate_skyline_size(n, shape.dimensions, shape.distinct_counts))
    log_n = math.log2(n) if n > 1.0 else 1.0
    width_factor = max(1.0, (shape.row_width or 8) / 8.0)
    columnar = shape.rank_source in ("sql", "python")
    dominance = FLAT_DOMINANCE if columnar else PY_DOMINANCE
    rank_step: tuple[tuple[str, float], ...] = ()
    if columnar:
        d = max(1, shape.dimensions)
        rank_step = (
            (("rank columns (sql pushdown)", (SQL_RANK + RANK_FETCH) * n * d),)
            if shape.rank_source == "sql"
            else (("rank columns (python)", PY_RANK * n * d),)
        )
    sort_cost = (FLAT_DOMINANCE if columnar else SORT_KEY) * n * log_n
    return _estimate(
        "bnl",
        (
            ("engine setup", PY_SETUP),
            ("fetch candidates", ROW_FETCH * width_factor * n),
            *rank_step,
            (
                "winnow",
                min(
                    dominance * n * s * 0.35,
                    sort_cost + dominance * n * s * 0.2,
                ),
            ),
        ),
    )


def semantic_pass_estimate(
    candidates: float,
    winners: float,
    sort_keys: int,
    scans: int,
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
    steps = [("prepare host statement", SQL_SETUP)]
    if sort_keys:
        rank_cost = SQL_RANK * n * sort_keys * max(scans, 1)
        steps.append(("host rank expressions", rank_cost))
        log_n = math.log2(n) if n > 1.0 else 1.0
        steps.append(("host single-pass sort", SQL_PROBE * n * log_n))
    else:
        steps.append(("host scan", SQL_PROBE * n))
    steps.append(("fetch winners", ROW_FETCH * s))
    return _estimate("rewrite", steps)


def session_reuse_estimate(
    winners: float,
    delta: float,
    table_rows: float,
    dimensions: int,
    distinct_counts: Sequence[int | None] = (),
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
    steps = [("reuse cached winners", 0.0)]
    if delta_scan:
        steps.append(
            (
                "delta scan",
                SQL_SETUP
                + SQL_PROBE * max(1.0, float(table_rows))
                + ROW_FETCH * width_factor * d_rows,
            )
        )
    rewinnow = PY_SETUP + PY_DOMINANCE * pool * s * 0.35
    steps.append(("re-winnow winners ∪ delta", rewinnow))
    return _estimate(SESSION_STRATEGY, steps)
