"""Cross-session serving state shared by a pool of driver connections.

The paper's Preference SQL middleware served "millions of users" from
one resident server process; this module holds the state that makes a
pool of driver connections behave like that one server instead of N
independent clients:

* **plan cache** — parsing and planning are pure functions of statement
  text and planning environment, so one
  :class:`~repro.plan.cache.PlanCache` (internally locked) serves every
  pooled connection: a statement planned for one session is a cache hit
  for all of them.
* **statistics store** — one table-statistics entry map shared by the
  per-connection :class:`~repro.plan.statistics.StatisticsCache`
  instances, and beside it the written-rows counter per table; a table
  scanned for one session is known to all, and a sibling's writes count
  towards every cached plan's statistics drift.
* **write epochs** — explicit counters bumped by any attached connection
  that may have changed table contents (``data``) or the preference
  catalog or table schema (``catalog``).  Attached connections report
  these epochs as their ``data_version``/``catalog_version``.  The data
  epoch retires statistics entries, observed constraints and session
  winner bases the moment *any* pooled sibling writes; the catalog epoch
  is the plan-cache key and stamps the schema cache, so DDL on one
  sibling orphans every cached plan, while a cached plan outlives DML
  until its statistics drift.  sqlite's ``PRAGMA data_version`` cannot
  provide these signals: it never moves for a connection's own writes,
  and in-process sibling writes are exactly what a pooled server
  produces.
"""

from __future__ import annotations

import threading

from repro.plan.cache import PlanCache
from repro.plan.statistics import TableStatistics


class SharedState:
    """The serving state one connection pool shares.

    Attach connections via ``connect(..., shared=state)`` (see
    :func:`repro.driver.dbapi.connect`); standalone connections keep
    their private caches and counters.
    """

    def __init__(self, plan_cache_size: int = 256):
        self._lock = threading.Lock()
        #: guarded by _lock
        self._data_epoch = 0
        #: guarded by _lock
        self._catalog_epoch = 0
        #: The cross-session parse+plan cache (internally locked).
        self.plan_cache: PlanCache = PlanCache(maxsize=plan_cache_size)
        #: The cross-session statistics entry store, written-rows
        #: counter and their lock, shared by every attached connection's
        #: StatisticsCache.
        self.statistics_entries: dict[str, tuple[int, TableStatistics]] = {}
        self.written_rows: dict[str, int] = {}
        self.statistics_lock = threading.Lock()
        #: Recovery observability: named event counters bumped by the
        #: serving layer when a component self-heals (e.g. a pooled
        #: connection replaced).  The chaos
        #: suite reads these to assert faults were *detected*, not just
        #: survived.
        #: guarded by _lock
        self.events: dict[str, int] = {}

    def record_event(self, name: str, count: int = 1) -> None:
        """Bump a named recovery/observability counter (thread-safe)."""
        with self._lock:
            self.events[name] = self.events.get(name, 0) + count

    def event_counts(self) -> dict[str, int]:
        """A snapshot of the recovery event counters."""
        with self._lock:
            return dict(self.events)

    @property
    def data_epoch(self) -> int:
        """Moves on every statement that may change table contents."""
        # Deliberately lock-free: this read sits on every query's cache
        # validation path, and taking the write lock here makes readers
        # across the whole pool contend with each other.  A CPython int
        # read cannot tear, and the visibility order version-stamped
        # caches need is already sequenced by the pool's checkout-queue
        # handoff: a writer bumps the epoch before returning its
        # connection, and the reader checks one out afterwards.
        # prefcheck: disable=lock-discipline -- hot-path racy read; atomic in CPython, ordered by the pool's checkout handoff, and a stale value only costs one extra cache validation
        return self._data_epoch

    @property
    def catalog_epoch(self) -> int:
        """Moves on every CREATE/DROP PREFERENCE, table DDL and aborted
        transaction (cross-session rollback orphans conservatively)."""
        # prefcheck: disable=lock-discipline -- same hot-path racy read as data_epoch, same checkout-handoff ordering
        return self._catalog_epoch

    def bump_data(self) -> int:
        """Advance the data write epoch; returns the new value."""
        with self._lock:
            self._data_epoch += 1
            return self._data_epoch

    def bump_catalog(self) -> int:
        """Advance the catalog epoch; returns the new value."""
        with self._lock:
            self._catalog_epoch += 1
            return self._catalog_epoch
