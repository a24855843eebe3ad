"""Cheap per-table statistics for the cost-based planner.

The paper's commercial optimizer "read the host catalog" for schema
knowledge; Chomicki's semantic-optimization work frames winnow evaluation
as a planning problem whose algorithm choice should depend on input
statistics.  This module gathers the two statistics the cost model needs —
table row counts and per-column distinct counts — with plain ``COUNT``
queries, and caches them per connection.

Two clocks keep the statistics honest.  The *data version*, bumped by
every statement that may change table contents (DML, DDL,
``executescript``, rollback), retires cache entries: an entry gathered
at an older version is re-gathered on next use, so read-only traffic —
the "millions of users" hot path — never re-scans.  The *written-rows
counter* (:meth:`StatisticsCache.note_written`, fed by the driver with
each write's target table and ``rowcount``) measures drift: each entry
remembers the counter's value when it was gathered, and a plan priced
on it is re-planned only once more than :data:`DRIFT_FRACTION` of the
table's rows have been written since (:meth:`StatisticsCache.drifted`).
A plan's stages return the current data's answer whatever the data;
only the choice among them reads statistics, and a few writes do not
move that choice.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, MutableMapping, Sequence

from repro.errors import PlanError
from repro.sql.printer import quote_identifier as _quote

#: Rows written to a table since its statistics were gathered, as a share
#: of the gathered row count, past which a plan priced on them is
#: re-planned.  PostgreSQL's ``autovacuum_analyze_scale_factor`` (0.1) is
#: the reference: a write volume below it rarely moves a cost-based
#: choice, and re-planning on every write costs more than it saves.
DRIFT_FRACTION = 0.1


@dataclass(frozen=True)
class TableStatistics:
    """Row count and distinct counts (lowercase column → count) of a
    table; ``written`` is the table's written-rows counter when they
    were gathered."""

    table: str
    row_count: int
    distinct: Mapping[str, int]
    written: int = 0

    def distinct_count(self, column: str) -> int | None:
        """Distinct non-NULL count for a column, None when not gathered."""
        return self.distinct.get(column.lower())


class StatisticsCache:
    """Gathers and caches :class:`TableStatistics` for one connection.

    ``version`` supplies the connection's current data version; entries
    remembered under an older version are considered stale.  ``scan_count``
    counts the ``COUNT`` queries actually issued, so tests (and curious
    operators) can observe cache effectiveness.

    ``entries`` and ``lock`` let a server share one entry store across a
    whole connection pool (see :class:`repro.server.shared.SharedState`):
    each pooled connection keeps its own instance — scans run on its own
    sqlite handle — but a table scanned for one session is known to all
    of them.  The shared version callable (the pool's write epoch) keeps
    the entries honest under cross-session DML.  ``written`` is the
    written-rows counter (lowercase table → rows), shared the same way
    so a sibling's writes count towards every pooled plan's drift.
    """

    def __init__(
        self,
        connection: sqlite3.Connection,
        version: Callable[[], int],
        entries: MutableMapping[str, tuple[int, TableStatistics]] | None = None,
        lock: threading.Lock | None = None,
        written: MutableMapping[str, int] | None = None,
    ):
        self._connection = connection
        self._version = version
        self._lock = lock if lock is not None else threading.Lock()
        #: guarded by _lock
        self._entries: MutableMapping[str, tuple[int, TableStatistics]] = (
            entries if entries is not None else {}
        )
        #: guarded by _lock
        self._written: MutableMapping[str, int] = (
            written if written is not None else {}
        )
        #: Number of statistics scans issued against the host database.
        #: guarded by _lock
        self.scan_count = 0

    def for_table(self, table: str, columns: Sequence[str] = ()) -> TableStatistics:
        """Statistics for ``table`` covering at least ``columns``.

        Distinct counts are gathered lazily and merged into the cached
        entry, so successive queries over different preference attributes
        only pay for the columns they add.
        """
        key = table.lower()
        wanted = {column.lower() for column in columns}
        with self._lock:
            version = self._version()
            cached = self._entries.get(key)

            distinct: dict[str, int] = {}
            if cached is not None and cached[0] == version:
                stats = cached[1]
                missing = sorted(wanted - set(stats.distinct))
                if not missing:
                    return stats
                distinct = dict(stats.distinct)
                row_count, written = stats.row_count, stats.written
            else:
                missing = sorted(wanted)
                written = self._written.get(key, 0)
                row_count = self._scalar(f"SELECT COUNT(*) FROM {_quote(table)}")

            for column in missing:
                distinct[column] = self._scalar(
                    f"SELECT COUNT(DISTINCT {_quote(column)}) FROM {_quote(table)}"
                )
            stats = TableStatistics(table, row_count, distinct, written)
            self._entries[key] = (version, stats)
            return stats

    def note_written(self, table: str, rows: int) -> None:
        """Count ``rows`` written (inserted, updated or deleted) to ``table``."""
        if rows > 0:
            key = table.lower()
            with self._lock:
                self._written[key] = self._written.get(key, 0) + rows

    def drifted(self, stats: TableStatistics) -> bool:
        """True once more than :data:`DRIFT_FRACTION` of ``stats``' rows
        have been written to its table since they were gathered."""
        with self._lock:
            written = self._written.get(stats.table.lower(), 0) - stats.written
        return written > DRIFT_FRACTION * stats.row_count

    def invalidate(self, table: str | None = None) -> None:
        """Drop cached entries (all of them when ``table`` is None)."""
        with self._lock:
            if table is None:
                self._entries.clear()
            else:
                self._entries.pop(table.lower(), None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _scalar(self, sql: str) -> int:
        # prefcheck: disable=lock-discipline -- only called from for_table, which already holds _lock around the whole gather
        self.scan_count += 1
        try:
            row = self._connection.execute(sql).fetchone()
        except sqlite3.Error as error:
            raise PlanError(f"cannot gather statistics: {error}") from error
        return int(row[0])
