"""Columnar rank-vector execution core.

Every rank-based preference tree (all built-ins except EXPLICIT) induces
one numeric *rank column* per base preference: smaller is better, equal
ranks are substitutable.  The paper's own speed lever (section 3.2) is to
materialise exactly these columns — ``Makelevel``, ``Diesellevel`` — and
let the database compare them; Chomicki's winnow-evaluation work makes the
same observation for the relational algebra.  This module is the
in-memory half of that idea:

* :class:`RankColumns` holds one contiguous ``array('d')`` per base
  preference, computed **once per query** and shared by every consumer —
  the compiled dominance comparator and every GROUPING partition of the
  winnow.
* :func:`compute_rank_columns` fills the columns from operand vectors
  (one tight Python loop per leaf);
  :func:`rank_columns_from_values` adopts rank values the **host
  database** already computed — the SQL rank pushdown path, where the
  driver appends the rewrite's rank expressions to the scan SELECT and
  Python never evaluates an operand per row.
* One kernel per flat rank shape — :func:`sort_filter_blocked` (numpy)
  and :func:`sort_filter_rows` (tuples) for flat Pareto,
  :func:`minimum_bucket` for flat cascades — all with duplicate-bucket
  collapsing.  :func:`repro.engine.algorithms.winnow_kernel` is the one
  place that maps a query's rank shape and input size to its kernel.

Tree shapes: Pareto and prioritisation are associative, and over weak
orders a Pareto of Paretos equals the flat Pareto of all constituents
(likewise for cascades), so :func:`rank_shape` flattens same-constructor
nesting while building the shape.  Only *mixed* nesting (a Pareto inside
a cascade or vice versa) keeps structure; those trees still get shared
rank columns but compare through compiled closures
(:func:`repro.engine.compiled.compile_better`).

NaN ranks cannot occur with built-in preference types (unparseable
operand text ranks as :data:`~repro.model.preference.NULL_RANK`), but
custom ``rank()`` implementations may produce them; NaN-bearing rank rows
make the tuple order partial, so the kernels route them through slower
paths that replicate the compiled-closure semantics exactly (see
:func:`minimum_bucket` and :func:`sort_filter_rows`).
"""

from __future__ import annotations

from array import array
from typing import Sequence

try:  # numpy accelerates the Pareto kernel; the pure-Python loops remain
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.deadline import CHECK_EVERY, active_deadline
from repro.model.categorical import OTHERS, LayeredPreference
from repro.model.composite import ParetoPreference, PrioritizationPreference
from repro.model.numeric import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.model.preference import Preference, WeakOrderBase


class RankShape:
    """The data-independent skeleton of a rank-based preference tree.

    ``tree`` is a nested tuple of ``("leaf", column_index)`` and
    ``("pareto" | "cascade", (children, ...))`` nodes; ``leaves`` holds
    the base preferences in tree order and ``slices`` their
    ``(offset, arity)`` windows into the flat operand vector.

    ``mode`` classifies the comparison structure after flattening:
    ``"pareto"`` / ``"cascade"`` for flat trees (dominance reduces to
    componentwise ``<=`` respectively lexicographic ``<`` on rank
    tuples — a single leaf counts as a one-column cascade), ``None`` for
    genuinely mixed nesting (compiled closures over the shared columns).
    """

    __slots__ = ("leaves", "slices", "tree", "mode")

    def __init__(
        self,
        leaves: Sequence[Preference],
        slices: Sequence[tuple[int, int]],
        tree: tuple,
    ):
        self.leaves = tuple(leaves)
        self.slices = tuple(slices)
        self.tree = tree
        if tree[0] == "leaf":
            self.mode: str | None = "cascade"
        elif all(child[0] == "leaf" for child in tree[1]):
            self.mode = tree[0]
        else:
            self.mode = None


def rank_shape(preference: Preference) -> RankShape | None:
    """The rank-column shape of a preference tree, or None.

    None means the tree contains an EXPLICIT base (a genuine partial
    order without a rank) or an unknown composite — callers fall back to
    the generic per-pair path.  Same-constructor nesting flattens
    (associativity; for weak orders a Pareto of Paretos is the flat
    Pareto of the union, and cascades compose lexicographically), which
    turns trees like ``(P1 AND P2) AND P3`` into flat kernels the seed
    core evaluated through nested closures.
    """
    leaves: list[Preference] = []
    slices: list[tuple[int, int]] = []

    # prefcheck: disable=deadline-poll -- walks the preference tree (query width), never the data
    def build(node: Preference, offset: int) -> tuple[tuple, int] | None:
        kids = node.children()
        if not kids:
            if isinstance(node, (LayeredPreference, WeakOrderBase)):
                index = len(leaves)
                leaves.append(node)
                slices.append((offset, node.arity))
                return ("leaf", index), offset + node.arity
            return None  # EXPLICIT or a custom partial order
        if isinstance(node, ParetoPreference):
            kind = "pareto"
        elif isinstance(node, PrioritizationPreference):
            kind = "cascade"
        else:
            return None  # unknown composite
        children: list[tuple] = []
        for child in kids:
            built = build(child, offset)
            if built is None:
                return None
            child_node, offset = built
            if child_node[0] == kind:
                children.extend(child_node[1])
            else:
                children.append(child_node)
        return (kind, tuple(children)), offset

    built = build(preference, 0)
    if built is None:
        return None
    tree, _offset = built
    return RankShape(leaves, slices, tree)


class RankColumns:
    """One contiguous rank column per base preference, computed once.

    ``columns[k][i]`` is the rank of row ``i`` under leaf ``k`` (smaller
    is better); :attr:`rows` materialises the per-row rank tuples lazily
    (C-level ``zip``), which is what the tuple kernels consume.
    """

    __slots__ = ("shape", "columns", "_rows", "_matrix", "_has_nan")

    def __init__(self, shape: RankShape, columns: Sequence[array]):
        self.shape = shape
        self.columns = list(columns)
        self._rows: list[tuple[float, ...]] | None = None
        self._matrix = None
        self._has_nan: bool | None = None

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def width(self) -> int:
        """Number of rank columns (= base preferences in the tree)."""
        return len(self.columns)

    @property
    def mode(self) -> str | None:
        """The flat comparison mode (see :class:`RankShape`)."""
        return self.shape.mode

    @property
    def rows(self) -> list[tuple[float, ...]]:
        """Per-row rank tuples in leaf order (built lazily, then cached)."""
        if self._rows is None:
            if len(self.columns) == 1:
                self._rows = [(value,) for value in self.columns[0]]
            else:
                self._rows = list(zip(*self.columns))
        return self._rows

    def matrix(self):
        """The columns as one C-contiguous ``(n, width)`` float64 matrix.

        Built zero-copy from the ``array('d')`` buffers (one stacking
        copy), cached; None when numpy is unavailable.
        """
        if _np is None:
            return None
        if self._matrix is None:
            self._matrix = _np.column_stack(
                [_np.frombuffer(column, dtype=_np.float64) for column in self.columns]
            ) if self.columns and len(self) else _np.empty((0, self.width))
        return self._matrix

    @property
    def has_nan(self) -> bool:
        """Whether any rank cell is NaN (custom rank implementations
        only); checked once per query so the kernels can skip their
        per-row NaN tests on the common all-finite inputs."""
        if self._has_nan is None:
            if _np is not None:
                matrix = self.matrix()
                self._has_nan = bool(_np.isnan(matrix).any())
            else:
                self._has_nan = any(
                    value != value
                    for column in self.columns
                    for value in column
                )
        return self._has_nan


#: Built-in numeric leaves whose rank is plain arithmetic — these
#: vectorize when every operand value converts cleanly to float.
#: Exact-type matches only: a subclass may override ``rank()``.
_VECTOR_LEAVES = (
    LowestPreference,
    HighestPreference,
    ScorePreference,
    AroundPreference,
    BetweenPreference,
)


def _vectorized_leaf_ranks(leaf: Preference, values: list) -> array | None:
    """One rank column computed by numpy arithmetic, or None.

    Only sound when every value converts to a non-NaN float — exactly
    the inputs for which ``coerce_number`` is ``float()`` — so NULLs,
    unparseable text and NaN operands (which rank to
    :data:`~repro.model.preference.NULL_RANK`) fall back to the scalar
    ``rank()`` loop and semantics stay byte-identical.
    """
    if _np is None or type(leaf) not in _VECTOR_LEAVES:
        return None
    try:
        raw = _np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        return None
    # Only genuinely numeric dtypes may vectorize: an object/bytes/str
    # dtype means some value needs ``coerce_number``'s non-numeric
    # handling (NULL_RANK), which numpy's own coercion would not apply —
    # e.g. a BLOB cell parses as a number under ``asarray`` but ranks as
    # NULL_RANK under the scalar model.
    if raw.ndim != 1 or raw.dtype.kind not in "fiub":
        return None
    numbers = (
        raw
        if raw.dtype == _np.float64
        else raw.astype(_np.float64)
    )
    if _np.isnan(numbers).any():
        return None
    kind = type(leaf)
    if kind is LowestPreference:
        ranks = numbers
    elif kind is AroundPreference:
        ranks = _np.abs(numbers - leaf.target)
    elif kind is BetweenPreference:
        ranks = _np.where(
            numbers < leaf.low,
            leaf.low - numbers,
            _np.where(numbers > leaf.high, numbers - leaf.high, 0.0),
        )
    else:  # HIGHEST / SCORE
        ranks = -numbers
    column = array("d")
    column.frombytes(
        _np.ascontiguousarray(ranks, dtype=_np.float64).tobytes()
    )
    return column


# prefcheck: disable=deadline-poll -- the loop is per leaf (query width); the row-scale work is one linear array build per leaf with no comparisons, and the kernels that consume the columns poll
def compute_rank_columns(
    preference: Preference, vectors: Sequence[tuple]
) -> RankColumns | None:
    """Rank columns from operand vectors, or None for non-rank trees."""
    shape = rank_shape(preference)
    if shape is None:
        return None
    # One C-level transpose serves every single-operand leaf, instead of
    # one per-row extraction pass per leaf.
    operand_columns = list(zip(*vectors)) if vectors else []
    columns: list[array] = []
    for leaf, (offset, arity) in zip(shape.leaves, shape.slices):
        if isinstance(leaf, LayeredPreference):
            if arity == 1 and operand_columns:
                # Single-operand layered leaf (POS/NEG/`=`/ELSE chains on
                # one attribute): replace the per-row bucket scan with
                # one value -> level dictionary.  First matching bucket
                # wins, NULL never matches — same as ``level()``.
                mapping: dict = {}
                for index, bucket in enumerate(leaf.buckets):
                    if bucket is OTHERS:
                        continue
                    _operand_index, members = bucket
                    for value in members:
                        if value is not None and value not in mapping:
                            mapping[value] = float(index)
                others = float(leaf.others_index)
                lookup = mapping.get
                columns.append(
                    array(
                        "d",
                        (
                            others if value is None else lookup(value, others)
                            for value in operand_columns[offset]
                        ),
                    )
                )
                continue
            level = leaf.level
            end = offset + arity
            columns.append(array("d", (level(v[offset:end]) for v in vectors)))
            continue
        values = operand_columns[offset] if operand_columns else ()
        column = _vectorized_leaf_ranks(leaf, values)
        if column is None:
            rank = leaf.rank  # type: ignore[union-attr]
            column = array("d", map(rank, values))
        columns.append(column)
    return RankColumns(shape, columns)


# prefcheck: disable=deadline-poll -- per-leaf loop (query width) adopting host-computed columns; one linear array copy each
def rank_columns_from_values(
    preference: Preference, values: Sequence
) -> RankColumns | None:
    """Adopt rank values the host database computed (SQL rank pushdown).

    ``values`` is one iterable of rank cells per base preference, in tree
    order — the columns the driver's scan SELECT appended.  Returns None
    when the tree is not rank-based, the column count does not match, or
    any cell is not numeric (e.g. sqlite applied text affinity to an
    operand the Python model would have coerced differently) — callers
    then recompute the ranks in Python, so winner sets never depend on
    host-database coercion quirks.
    """
    shape = rank_shape(preference)
    if shape is None or len(values) != len(shape.leaves):
        return None
    columns: list[array] = []
    for cells in values:
        try:
            columns.append(array("d", cells))
        except TypeError:
            return None
    return RankColumns(shape, columns)


# ----------------------------------------------------------------------
# The flat-tree kernels over rank rows.  Each answers one rank shape;
# :func:`repro.engine.algorithms.winnow_kernel` picks among them.
#
# ``rows`` maps row index → rank tuple (a list when every row is a
# candidate, a dict when a BUT ONLY threshold discarded some).  Duplicate
# rank rows are substitutable — they win or lose together — so every
# kernel collapses them into one bucket first.  The linear bucketing
# passes stay poll-free on purpose: they are the hottest per-row loops in
# serving queries and bounded by one dict pass; the deadline work lives
# in the comparison loops behind them.  ``nan_free=True`` (the caller
# checked the whole columns once) skips the per-row NaN tests.  Winners
# come back unsorted — callers order them.


def _has_nan(row: tuple) -> bool:
    return any(value != value for value in row)


def minimum_bucket(
    rows, indices: Sequence[int], nan_free: bool = False
) -> list[int]:
    """Flat cascade: the rows sharing the minimal rank tuple win.

    Lexicographic ``<`` on rank tuples is a total order, so one O(n) scan
    finds the winners.  NaN ranks (custom ``rank()`` only) make ``<``
    partial while staying meaningful on the NaN-free prefix, so NaN-bearing
    inputs fall back to a BNL pass over the distinct keys with the same
    comparator the compiled closures use.
    """
    deadline = active_deadline()
    buckets: dict[tuple, list[int]] = {}
    for i in indices:
        buckets.setdefault(rows[i], []).append(i)
    if not buckets:
        return []
    if nan_free or not any(map(_has_nan, buckets)):
        return buckets[min(buckets)]
    # Quadratic in distinct keys, so it polls like the other kernels.
    keys = list(buckets)
    winners: list[int] = []
    for position, key in enumerate(keys):
        if deadline is not None and not position % CHECK_EVERY:
            deadline.check()
        if not any(other < key for other in keys if other is not key):
            winners.extend(buckets[key])
    return winners


def sort_filter_rows(
    rows, indices: Sequence[int], nan_free: bool = False
) -> list[int]:
    """Flat Pareto below the numpy floor: sort-filter over rank tuples.

    A dominator sorts lexicographically before everything it dominates
    (componentwise ``<=`` plus distinctness), so after sorting the
    distinct keys a single forward pass against the skyline-so-far
    suffices.  A NaN-bearing row can neither dominate nor be dominated
    (any comparison against NaN is false) and is a winner outright —
    exactly the compiled-closure semantics.
    """
    deadline = active_deadline()
    buckets: dict[tuple, list[int]] = {}
    winners: list[int] = []
    if nan_free:
        for i in indices:
            buckets.setdefault(rows[i], []).append(i)
    else:
        for i in indices:
            row = rows[i]
            if _has_nan(row):
                winners.append(i)
            else:
                buckets.setdefault(row, []).append(i)
    skyline: list[tuple] = []
    for position, row in enumerate(sorted(buckets)):
        if deadline is not None and not position % CHECK_EVERY:
            deadline.check()
        # The dominance test is inlined (no function call) — this is the
        # hottest loop of the pure-Python kernel.
        for kept in skyline:
            for x, y in zip(kept, row):
                if x > y:
                    break
            else:  # kept <= row componentwise: row is dominated
                break
        else:
            skyline.append(row)
            winners.extend(buckets[row])
    return winners


# ----------------------------------------------------------------------
# Vectorized Pareto kernel (numpy): dedup + blocked sort-filter


#: Block schedule for the vectorized sort-filter: small blocks while the
#: skyline forms (sequential work dominates), growing once most incoming
#: rows die in the vectorized skyline test — the tiling discipline of
#: accelerator kernels, applied to boolean broadcasts.
_NUMPY_FIRST_BLOCK = 128
_NUMPY_MAX_BLOCK = 4096


def sort_filter_blocked(
    matrix, indices: Sequence[int], position=None
) -> list[int]:
    """Flat Pareto at or above the numpy floor: blocked sort-filter.

    ``matrix`` is :meth:`RankColumns.matrix`; ``position`` maps a global
    row index to its matrix row when they differ (BUT ONLY survivors),
    None means indices address the matrix directly.

    Collapses duplicate rows (``np.unique``, which also sorts
    lexicographically — a dominator always sorts before everything it
    dominates), then walks the distinct rows in blocks: each block is
    tested against the skyline so far one dimension at a time — an
    ``(m, s)`` boolean per dimension, ANDed in place, then reduced over
    the skyline, so the hot O(m·s·d) comparisons run in C without an
    ``(m, s, d)`` temporary — and only the handful of survivors —
    candidate *new* skyline rows — go through a sequential pass.  A
    survivor's within-block dominator is necessarily itself maximal
    (else transitivity hands the survivor to the skyline filter), so
    comparing survivors against this block's new skyline rows suffices.

    NaN cells need no special casing: every comparison against NaN is
    false, so NaN-bearing rows neither dominate nor get dominated —
    exactly the closure semantics.
    """
    if not isinstance(indices, list):
        indices = list(indices)
    if not indices:
        return []
    rows = matrix[
        _np.fromiter(
            indices if position is None else map(position.__getitem__, indices),
            dtype=_np.intp,
            count=len(indices),
        )
    ]
    order = _np.lexsort(rows.T[::-1])
    ordered = rows[order]
    total = len(ordered)
    # Collapse duplicate rows from the already-sorted matrix (adjacent
    # after lexsort; NaN != NaN keeps NaN rows distinct, which is safe —
    # they can neither dominate nor be dominated).  Duplicates are
    # substitutable, so one representative decides for the whole bucket.
    first = _np.empty(total, dtype=bool)
    first[0] = True
    _np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    unique = ordered[first]
    bucket_of = _np.cumsum(first) - 1
    count = len(unique)

    deadline = active_deadline()
    maximal = _np.zeros(count, dtype=bool)
    skyline = unique[:0]
    start = 0
    block_size = _NUMPY_FIRST_BLOCK
    while start < count:
        if deadline is not None:
            deadline.check()
        block = unique[start : start + block_size]
        if len(skyline):
            alive = _np.ones(len(block), dtype=bool)
            # Bounded chunks keep the broadcast temporaries small even
            # for anti-correlated data with huge skylines.  Rows are
            # distinct, so componentwise <= is already strict dominance.
            # One deadline poll per chunk bounds cancellation latency to
            # a single (block × chunk) broadcast.
            for chunk_start in range(0, len(skyline), _NUMPY_MAX_BLOCK):
                if deadline is not None:
                    deadline.check()
                chunk = skyline[chunk_start : chunk_start + _NUMPY_MAX_BLOCK]
                candidates = block[alive]
                dominated = chunk[None, :, 0] <= candidates[:, None, 0]
                for k in range(1, chunk.shape[1]):
                    dominated &= chunk[None, :, k] <= candidates[:, None, k]
                dominated = dominated.any(axis=1)
                alive[_np.flatnonzero(alive)[dominated]] = False
                if not alive.any():
                    break
            alive_offsets = _np.flatnonzero(alive)
        else:
            alive_offsets = _np.arange(len(block))
        if len(alive_offsets):
            # Sequential pass over the survivors (sorted order): compare
            # only against the new skyline rows of this block — a
            # survivor's within-block dominator is necessarily itself
            # maximal (else transitivity hands the survivor to the
            # skyline filter above).
            new_rows: list[tuple] = []
            new_offsets: list[int] = []
            for survivor, offset in enumerate(alive_offsets.tolist()):
                if deadline is not None and not survivor % 256:
                    deadline.check()
                row = tuple(block[offset])
                for kept in new_rows:
                    # ``not (x <= y)`` rather than ``x > y``: NaN rows
                    # pass through this pass undeduplicated, and a NaN
                    # pair must read as "does not dominate".
                    for x, y in zip(kept, row):
                        if not x <= y:
                            break
                    else:  # kept <= row componentwise: dominated
                        break
                else:
                    new_rows.append(row)
                    new_offsets.append(offset)
            maximal[start + _np.asarray(new_offsets, dtype=_np.intp)] = True
            skyline = _np.concatenate([skyline, block[new_offsets]])
        start += len(block)
        block_size = min(block_size * 2, _NUMPY_MAX_BLOCK)
    return [
        indices[offset]
        for offset in order[_np.flatnonzero(maximal[bucket_of])].tolist()
    ]
