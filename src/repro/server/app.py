"""The asyncio front end: a preference query server over a line protocol.

The paper deployed Preference SQL as a resident middleware between web
applications and the host database (COSIMA's product advisors); this is
that serving layer for the reproduction.  One asyncio event loop accepts
clients and frames requests; actual query evaluation is synchronous
driver work (sqlite calls, rank kernels), so each admitted request is
handed to a worker thread that checks a connection out of the
:class:`~repro.server.pool.ConnectionPool`, executes, and replies.

**Protocol** — newline-delimited JSON, one object per line:

* ``{"sql": "...", "params": [...]}`` → ``{"columns": [...], "rows":
  [...]}`` (or ``{"rowcount": n}`` for statements with no result set);
  an optional ``"timeout_ms"`` bounds the query's wall clock,
* ``{"op": "stats"}`` → the server's counters: plan-cache and
  session-reuse effectiveness across the whole pool, admission totals,
* ``{"op": "ping"}`` → ``{"ok": true}``,
* any failure → ``{"error": "...", "code": "...", "retryable": bool}``;
  rejected and pool-starved requests additionally carry
  ``"overloaded": true``.  ``code`` is the taxonomy of
  :mod:`repro.errors`; ``retryable`` tells the client a verbatim retry
  may succeed (timeouts, overload, transient database errors).

**Admission control** — at most ``max_inflight`` requests evaluate at
once (a semaphore); up to ``max_queue`` more may wait for a slot, and
anything beyond that is rejected *immediately* — under overload a bounded
queue plus fast rejection keeps p99 latency finite, where an unbounded
queue would grow it without limit.

**Fault containment** — request lines are bounded (``max_line_bytes``),
replies that fail to serialise degrade to an error object, worker-thread
exceptions become structured error replies, pool checkout starvation
becomes a fast ``overloaded`` reply, and ``stop()`` is idempotent and
drains in-flight work before the pool closes.  Nothing a client sends —
malformed frames, oversized lines, a mid-query disconnect — may raise on
the event-loop thread.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.deadline import Deadline
from repro.errors import PreferenceSQLError
from repro.server.pool import ConnectionPool
from repro.server.shared import SharedState
from repro.testing import faults


class PreferenceServer:
    """A preference query server over one pooled database."""

    def __init__(
        self,
        database: str,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 4,
        max_inflight: int | None = None,
        max_queue: int = 32,
        shared: SharedState | None = None,
        default_timeout_ms: float | None = None,
        checkout_timeout: float = 10.0,
        max_line_bytes: int = 1 << 20,
    ):
        self.pool = ConnectionPool(database, size=pool_size, shared=shared)
        self.host = host
        self.port = port
        self.max_inflight = max_inflight if max_inflight is not None else pool_size
        self.max_queue = max_queue
        #: Server-wide deadline applied to queries that do not carry
        #: their own ``timeout_ms``; None leaves them unbounded.
        self.default_timeout_ms = default_timeout_ms
        #: How long a worker thread may wait for a pooled connection
        #: before the request fails fast as ``overloaded``.
        self.checkout_timeout = checkout_timeout
        #: Upper bound on one request line; longer lines get an error
        #: reply and the connection is dropped (a client that overruns
        #: the framing cannot be resynchronised mid-line).
        self.max_line_bytes = max_line_bytes
        self._semaphore: asyncio.Semaphore | None = None
        self._server: asyncio.AbstractServer | None = None
        # Query evaluation blocks a thread for its full duration, so the
        # executor is sized to the admission limit, not the default.
        self._threads = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="prefsql"
        )
        self._handlers: set[asyncio.Task] = set()
        self._stopped = False
        self._waiting = 0
        self._inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.served = 0
        self.errors = 0
        #: Requests cancelled after admission (client went away while
        #: the query ran).  Conservation invariant:
        #: ``admitted == served + errors + cancelled`` once idle.
        self.cancelled = 0

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the (host, port) actually bound."""
        self._semaphore = asyncio.Semaphore(self.max_inflight)
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port, limit=self.max_line_bytes
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, drop client handlers, drain, close the pool.

        Idempotent: a second (or concurrent) call is a no-op.  In-flight
        worker threads are drained *before* the pool closes, so no query
        ever sees its connection die under it during shutdown.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._threads.shutdown(wait=True)
        self.pool.close()

    async def __aenter__(self) -> "PreferenceServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client handling

    def _encode(self, response: dict) -> bytes:
        """Serialise a reply, degrading to an error object on failure.

        A handler returning a non-JSON value (sqlite can surface bytes,
        a fault can plant anything) must not kill the client connection
        with an exception on the loop thread.
        """
        try:
            return json.dumps(response).encode("utf-8") + b"\n"
        except (TypeError, ValueError):
            fallback = {
                "error": "reply was not serialisable",
                "code": "internal",
                "retryable": False,
                "overloaded": False,
            }
            return json.dumps(fallback).encode("utf-8") + b"\n"

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The frame exceeded max_line_bytes.  There is no way
                    # to find the next line boundary reliably, so reply
                    # and drop the connection.
                    writer.write(
                        self._encode(
                            {
                                "error": (
                                    "request line exceeds "
                                    f"{self.max_line_bytes} bytes"
                                ),
                                "code": "bad_request",
                                "retryable": False,
                                "overloaded": False,
                            }
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        # prefcheck: disable=error-taxonomy -- raised to merge with the json.loads failure path; caught on the next line and converted to the bad_request wire reply
                        raise ValueError("request must be a JSON object")
                except (ValueError, UnicodeDecodeError) as error:
                    response = {
                        "error": f"bad request: {error}",
                        "code": "bad_request",
                        "retryable": False,
                        "overloaded": False,
                    }
                else:
                    response = await self._dispatch(request)
                writer.write(self._encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Deliberate shutdown cancel from stop().  Returning (rather
            # than re-raising) matters on 3.11: asyncio.streams attaches a
            # done-callback that calls task.exception() unguarded, which
            # itself raises on a task that finished cancelled.
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op", "query")
        if op == "ping":
            return {"ok": True}
        if op == "stats":
            return self.stats()
        if op != "query":
            return self._bad_request(f"unknown op {op!r}")
        sql = request.get("sql")
        if not isinstance(sql, str):
            return self._bad_request("missing sql")
        params = request.get("params") or ()
        if not isinstance(params, (list, tuple)):
            return self._bad_request("params must be a list")
        timeout_ms = request.get("timeout_ms", self.default_timeout_ms)
        if timeout_ms is not None and (
            isinstance(timeout_ms, bool)
            or not isinstance(timeout_ms, (int, float))
            or timeout_ms <= 0
        ):
            return self._bad_request("timeout_ms must be a positive number")
        # Admission control: the counters live on the event loop thread,
        # so test-and-set needs no lock.
        if self._inflight >= self.max_inflight and self._waiting >= self.max_queue:
            self.rejected += 1
            return {
                "error": "server overloaded, retry later",
                "code": "overloaded",
                "retryable": True,
                "overloaded": True,
            }
        assert self._semaphore is not None  # started
        # The waiting counter must balance on *every* exit from the
        # acquire — including a cancel that lands while this request is
        # still queued (the client hung up before a slot freed).
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        self._inflight += 1
        self.admitted += 1
        try:
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                self._threads, self._execute, sql, tuple(params), timeout_ms
            )
        except asyncio.CancelledError:
            # Admitted but the awaiting handler died (client disconnect
            # mid-query).  The worker thread finishes on its own and the
            # pool gets its connection back; the admission ledger books
            # the request as cancelled so counters still conserve.
            self.cancelled += 1
            raise
        finally:
            self._inflight -= 1
            self._semaphore.release()
        if "error" in response:
            self.errors += 1
        else:
            self.served += 1
        return response

    @staticmethod
    def _bad_request(message: str) -> dict:
        return {
            "error": message,
            "code": "bad_request",
            "retryable": False,
            "overloaded": False,
        }

    def _execute(
        self,
        sql: str,
        params: Sequence[object],
        timeout_ms: float | None = None,
    ) -> dict:
        """One query on a pooled connection (runs in a worker thread).

        The deadline is armed *here*, before pool checkout, so the
        budget covers everything the client actually waits for — a slow
        checkout or an injected stall counts against ``timeout_ms`` just
        like evaluation time does.
        """
        try:
            deadline = (
                Deadline.after_ms(timeout_ms) if timeout_ms is not None else None
            )
            faults.fire("server.slow_query", sql=sql)
            if deadline is not None:
                deadline.check()
            checkout = self.checkout_timeout
            if deadline is not None:
                checkout = min(checkout, max(deadline.remaining(), 0.001))
            with self.pool.connection(timeout=checkout) as connection:
                cursor = connection.execute(sql, params, deadline=deadline)
                if cursor.description is None:
                    return {"columns": [], "rows": [], "rowcount": cursor.rowcount}
                columns = [entry[0] for entry in cursor.description]
                rows = [list(row) for row in cursor.fetchall()]
                return {"columns": columns, "rows": rows}
        except PreferenceSQLError as error:
            return {
                "error": f"{type(error).__name__}: {error}",
                "code": error.code,
                "retryable": error.retryable,
                "overloaded": error.code == "overloaded",
            }
        except sqlite3.Error as error:
            # A raw sqlite failure that escaped the driver's wrapping —
            # typically a broken or interrupted connection.  The pool
            # replaces broken connections at the next checkout, so a
            # retry is meaningful.
            return {
                "error": f"{type(error).__name__}: {error}",
                "code": "database",
                "retryable": True,
                "overloaded": False,
            }
        except Exception as error:  # surfaced to the client, not the loop
            return {
                "error": f"{type(error).__name__}: {error}",
                "code": "internal",
                "retryable": False,
                "overloaded": False,
            }

    # ------------------------------------------------------------------
    # Introspection

    def stats(self) -> dict:
        """Serving counters: caches, sessions, admission, load, health."""
        plan = self.pool.shared.plan_cache.stats()
        return {
            "plan_cache": {
                "hits": plan.hits,
                "misses": plan.misses,
                "evictions": plan.evictions,
                "size": plan.size,
                "hit_rate": plan.hit_rate,
            },
            "sessions": self.pool.session_stats(),
            "statistics_entries": len(self.pool.shared.statistics_entries),
            "admission": {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "served": self.served,
                "errors": self.errors,
                "cancelled": self.cancelled,
                "waiting": self._waiting,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
            },
            "pool": self.pool.stats(),
            "events": self.pool.shared.event_counts(),
            "data_epoch": self.pool.shared.data_epoch,
            "catalog_epoch": self.pool.shared.catalog_epoch,
        }
