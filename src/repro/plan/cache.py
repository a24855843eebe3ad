"""An LRU parse+plan cache for the driver's hot path.

Under production traffic the same statement texts arrive over and over
with different parameters.  Parsing and planning (which includes a
statistics lookup and a full rewrite) are pure functions of the statement
text and the planning environment, so the driver caches their outcome
keyed on ``(statement text, version)`` where the version is any hashable
snapshot of that environment — the driver uses its catalog version: a
``CREATE/DROP PREFERENCE`` bumps it and naturally orphans every plan that
might have resolved a named preference differently.  A rolled-back
catalog change *restores* the previously committed version, so plans
cached against it become servable again.

The cache is deliberately tiny and dependency-free — an ``OrderedDict``
in LRU discipline with hit/miss/eviction counters surfaced through
:class:`CacheStats` (``Connection.plan_cache_stats()``).  A lock guards
every operation: the server shares one cache across its whole connection
pool (see :mod:`repro.server.shared`), so gets and puts arrive from many
threads at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

Entry = TypeVar("Entry")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of plan-cache effectiveness."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache(Generic[Entry]):
    """LRU mapping of ``(statement text, version)`` → cached plan."""

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("plan cache needs room for at least one entry")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        #: guarded by _lock
        self._entries: OrderedDict[Hashable, Entry] = OrderedDict()
        #: guarded by _lock
        self._hits = 0
        #: guarded by _lock
        self._misses = 0
        #: guarded by _lock
        self._evictions = 0

    def get(self, text: str, version: Hashable) -> Entry | None:
        key = (text, version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, text: str, version: Hashable, entry: Entry) -> None:
        key = (text, version)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries; counters keep accumulating."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
