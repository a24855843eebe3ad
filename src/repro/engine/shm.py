"""Shared-memory rank transport for the process-pool skyline backend.

CPython threads cannot overlap the dominance comparisons of a skyline
computation (the interpreter serialises them), so the only way to make
the partition lemma buy real wall-clock on a multi-core host is to run
the local skylines in *worker processes*.  Shipping the rank data to
those workers through the usual :mod:`pickle` pipe would cost more than
the comparisons save; instead the parent publishes a single read-only
:class:`multiprocessing.shared_memory.SharedMemory` segment per query:

* **region A** — the ``(rows, width)`` float64 rank matrix, exactly the
  C-contiguous stacking that :meth:`repro.engine.columns.RankColumns.matrix`
  builds from the per-leaf ``array('d')`` buffers, and
* **region B** — the candidate row indices as int64.

Each worker task is then a tiny picklable tuple — segment name, matrix
geometry, rank-shape tree, and a ``(partition, stride)`` pair.  Workers
map the segment, take their partition as the strided slice
``candidates[partition::stride]`` (the same round-robin assignment
:func:`repro.engine.parallel.hash_partitions` produces), run the kernel
:func:`repro.engine.algorithms.winnow_kernel` picks for that shape over
it, and return winner indices.  The parent closes
and unlinks the segment once every local skyline has come back.

Python 3.11's :class:`SharedMemory` registers the segment with the
``multiprocessing`` resource tracker on *attach* as well as on create
(there is no ``track=`` parameter before 3.13).  That is harmless here
— and must **not** be "fixed" with a worker-side ``unregister``: pool
workers inherit the parent's resource-tracker process, whose per-name
registry is a set, so the attach-side re-registration is a no-op, while
an eager unregister would race the parent's own :meth:`unlink`
bookkeeping and leave the tracker complaining about names it no longer
knows.  The attach-registration bug only bites *unrelated* processes
with trackers of their own, which never happens on this executor.
"""

from __future__ import annotations

import threading
from array import array
from multiprocessing import shared_memory
from typing import Sequence

try:  # numpy is required for the shared-memory views; the thread and
    import numpy as _np  # serial paths remain available without it.
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

from repro.deadline import Deadline, deadline_scope
from repro.engine.algorithms import winnow_kernel
from repro.engine.columns import RankColumns, RankShape
from repro.testing import faults

_FLOAT_BYTES = 8  # float64 rank cells
_INDEX_BYTES = 8  # int64 candidate indices

# Parent-side segment bookkeeping: every RankTransport counts its create
# and its unlink, so the chaos suite can assert no segment outlives its
# query on *any* failure path (broken pool, worker crash, timeout).
_segment_lock = threading.Lock()
#: guarded by _segment_lock
_segments_created = 0
#: guarded by _segment_lock
_segments_unlinked = 0


def segment_counters() -> dict[str, int]:
    """Parent-process shared-memory segment totals (created/unlinked)."""
    with _segment_lock:
        return {
            "created": _segments_created,
            "unlinked": _segments_unlinked,
            "leaked": _segments_created - _segments_unlinked,
        }


def transport_available() -> bool:
    """Whether the shared-memory transport can run at all (numpy)."""
    return _np is not None


class RankTransport:
    """Parent-side exporter: one segment, many strided partition tasks.

    Create it with the query's globally-indexed rank columns and the
    candidate index list, hand :meth:`task` tuples to worker processes,
    and :meth:`close` once the local skylines are in.  The segment is
    written once and only ever read by workers, so no synchronisation is
    needed beyond the executor's own future joins.
    """

    def __init__(self, ranks: RankColumns, candidates: Sequence[int]):
        if _np is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("shared-memory rank transport requires numpy")
        faults.fire("shm.create")
        matrix = _np.ascontiguousarray(ranks.matrix(), dtype=_np.float64)
        indices = _np.fromiter(
            candidates, dtype=_np.int64, count=len(candidates)
        )
        self.rows, self.width = matrix.shape
        self.count = len(indices)
        self.tree = ranks.shape.tree
        self._matrix_bytes = self.rows * self.width * _FLOAT_BYTES
        total = self._matrix_bytes + self.count * _INDEX_BYTES
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, total))
        self.name = self._shm.name
        global _segments_created
        with _segment_lock:
            _segments_created += 1
        _np.ndarray(
            (self.rows, self.width), dtype=_np.float64, buffer=self._shm.buf
        )[...] = matrix
        _np.ndarray(
            (self.count,),
            dtype=_np.int64,
            buffer=self._shm.buf,
            offset=self._matrix_bytes,
        )[...] = indices

    def task(
        self, partition: int, stride: int, deadline_ts: float | None = None
    ) -> tuple:
        """The picklable descriptor for one worker-side local skyline.

        ``deadline_ts`` carries the query deadline as an absolute
        ``time.monotonic()`` timestamp — ``CLOCK_MONOTONIC`` is
        system-wide on Linux, so forked workers read the same clock the
        parent armed the deadline on.
        """
        return (
            self.name,
            self.rows,
            self.width,
            self.count,
            self.tree,
            partition,
            stride,
            deadline_ts,
        )

    def close(self) -> None:
        """Release the parent mapping and remove the segment."""
        self._shm.close()
        global _segments_unlinked
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass
        with _segment_lock:
            _segments_unlinked += 1

    def __enter__(self) -> "RankTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _partition_winners(buf, task: tuple) -> list[int]:
    """The worker-side local skyline over a mapped segment.

    Kept separate from :func:`skyline_worker` so every numpy view over
    the shared buffer dies with this frame — :meth:`SharedMemory.close`
    raises ``BufferError`` while exported views are still alive.
    """
    (_, rows, width, count, tree, partition, stride, _ts) = task
    matrix = _np.ndarray((rows, width), dtype=_np.float64, buffer=buf)
    candidates = _np.ndarray(
        (count,),
        dtype=_np.int64,
        buffer=buf,
        offset=rows * width * _FLOAT_BYTES,
    )
    part = candidates[partition::stride]
    # The partition's rows become private rank columns (row k is
    # ``part[k]``), so the same kernel choice runs here as in the parent.
    ranks = RankColumns(
        RankShape((), (), tree),
        [array("d", column.tobytes()) for column in matrix[part].T],
    )
    local = range(len(part))
    evaluate = winnow_kernel(None, None, local, ranks)[0]
    return part[evaluate(local)].tolist()


def skyline_worker(task: tuple) -> list[int]:
    """One partition's local skyline, run inside a pool worker process.

    Top-level (hence picklable) so :class:`ProcessPoolExecutor` can ship
    it; attaches the parent's segment by name and always unmaps before
    returning (the parent owns the unlink — see the module docstring for
    why no resource-tracker bookkeeping happens here).  The task's
    deadline timestamp is re-entered as a worker-local deadline scope, so
    the kernels poll it exactly as they would in the parent; a worker
    past the deadline raises :class:`~repro.errors.QueryTimeout`, which
    pickles back and cancels the whole map.
    """
    deadline_ts = task[-1]
    deadline = Deadline(deadline_ts) if deadline_ts is not None else None
    if deadline is not None:
        deadline.check()
    shm = shared_memory.SharedMemory(name=task[0])
    try:
        with deadline_scope(deadline):
            return _partition_winners(shm.buf, task)
    finally:
        shm.close()
