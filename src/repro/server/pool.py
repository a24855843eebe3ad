"""A fixed pool of driver connections over one shared database.

The server's worker threads never open connections of their own: they
check one out of this pool, run a query, and put it back.  Three
properties make the handoff safe:

* every pooled connection is opened with ``check_same_thread=False`` —
  the default (ownership pinned to the opening thread) would raise
  ``ProgrammingError`` the first time the asyncio front end handed a
  connection to a different executor thread.  Exclusive use is enforced
  by the checkout queue instead: a connection is owned by exactly one
  thread between :meth:`ConnectionPool.connection` enter and exit.
* every pooled connection runs in autocommit (``isolation_level=None``),
  so a write applied through one connection is immediately visible to
  queries on its siblings — there is no open transaction to hide it.
* all pooled connections attach to one
  :class:`~repro.server.shared.SharedState`, so plans and statistics are
  cached once for the whole pool and any write bumps the epochs every
  sibling validates its caches against.

The pool is **self-healing**: every checkout pings the connection with a
trivial statement on the raw sqlite handle, and a connection that fails
the ping (closed handle, corrupted state, a fault injected by the chaos
harness) is discarded and replaced with a freshly opened one before the
caller ever sees it.  Checkout starvation surfaces as the retryable
:class:`~repro.errors.PoolTimeout` so the server can turn it into a fast
``overloaded`` reply instead of a wedged worker.

A plain ``":memory:"`` database is rejected: sqlite gives every
connection its own private in-memory database, so a pool over it would
serve N disjoint (empty) databases.  Use a file path, or a shared-cache
URI (``file:name?mode=memory&cache=shared``) for an in-memory pool.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.driver.dbapi import Connection, connect
from repro.errors import DriverError, PoolTimeout
from repro.server.shared import SharedState
from repro.testing import faults


class ConnectionPool:
    """``size`` driver connections over one database, checkout-queued."""

    def __init__(
        self,
        database: str,
        size: int = 4,
        shared: SharedState | None = None,
    ):
        if size < 1:
            raise DriverError("connection pool needs at least one connection")
        if database in ("", ":memory:"):
            raise DriverError(
                "a connection pool needs a shared database: use a file "
                "path or a shared-cache URI "
                "(file:name?mode=memory&cache=shared), not ':memory:'"
            )
        self.database = database
        self.shared = shared if shared is not None else SharedState()
        self.size = size
        self._lock = threading.Lock()
        #: guarded by _lock
        self._connections: list[Connection] = [
            self._open() for _ in range(size)
        ]
        # LIFO: the most recently used connection is handed out next, so
        # a lightly loaded pool keeps reusing warm session caches instead
        # of round-robining through cold ones.
        self._free: queue.LifoQueue[Connection] = queue.LifoQueue()
        for connection in self._connections:
            self._free.put(connection)
        #: guarded by _lock
        self._closed = False
        #: Connections discarded at checkout because the health ping
        #: failed (each one was replaced by a fresh connection).
        #: guarded by _lock
        self.recycled = 0

    def _open(self) -> Connection:
        return connect(
            self.database,
            shared=self.shared,
            check_same_thread=False,
            isolation_level=None,
            uri=self.database.startswith("file:"),
        )

    def _healthy(self, connection: Connection) -> bool:
        """One trivial statement on the raw handle — cheap and decisive."""
        try:
            connection.raw.execute("SELECT 1").fetchone()
        except Exception:
            return False
        return True

    def _checkout(self, timeout: float | None) -> Connection:
        try:
            checked_out = self._free.get(timeout=timeout)
        except queue.Empty:
            raise PoolTimeout(
                f"no pooled connection became free within {timeout}s"
            ) from None
        # Fault hook first, health check second: an injected break on
        # this connection must be caught by the very checkout that
        # fired it, proving the replacement path to the chaos suite.
        faults.fire("pool.checkout", connection=checked_out)
        if self._healthy(checked_out):
            return checked_out
        try:
            checked_out.close()
        # prefcheck: disable=error-taxonomy -- closing an already-broken connection may fail; it is being discarded and replaced, there is nothing to report
        except Exception:
            pass
        replacement = self._open()
        with self._lock:
            self.recycled += 1
            self._connections = [
                replacement if c is checked_out else c
                for c in self._connections
            ]
        self.shared.record_event("connection_recycled")
        return replacement

    @contextmanager
    def connection(self, timeout: float | None = None) -> Iterator[Connection]:
        """Check a connection out for exclusive use by this thread."""
        # prefcheck: disable=lock-discipline -- deliberately racy fast-fail read; the authoritative check re-reads _closed under the lock in this method's finally
        if self._closed:
            raise DriverError("connection pool is closed")
        checked_out = self._checkout(timeout)
        try:
            yield checked_out
        finally:
            # The return and close() serialise on the lock: either the
            # connection re-enters the free queue before close() drains
            # it, or close() has already marked the pool closed and the
            # returning worker retires the connection itself.
            with self._lock:
                closed = self._closed
                if not closed:
                    self._free.put(checked_out)
            if closed:
                try:
                    checked_out.close()
                # prefcheck: disable=error-taxonomy -- retiring a connection into a closed pool; a failed close leaves nothing to salvage or report
                except Exception:
                    pass

    def session_stats(self) -> dict[str, int]:
        """Session-cache counters summed across the whole pool."""
        totals: dict[str, int] = {}
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            for key, value in connection.session_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def stats(self) -> dict[str, int]:
        """Pool health counters (size, currently free, recycled)."""
        with self._lock:
            return {
                "size": self.size,
                "free": self._free.qsize(),
                "recycled": self.recycled,
            }

    def close(self) -> None:
        """Close the pool; safe while connections are checked out.

        The pool stops handing connections out immediately, closes every
        connection sitting in the free queue, and leaves checked-out
        connections to be closed by :meth:`connection`'s exit as each
        worker returns them.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                connection = self._free.get_nowait()
            except queue.Empty:
                break
            try:
                connection.close()
            # prefcheck: disable=error-taxonomy -- pool shutdown drains the free queue best-effort; a close failure must not stop the remaining closes
            except Exception:
                pass

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
