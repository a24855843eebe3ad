"""Query deadlines: cooperative cancellation for every evaluation path.

Chomicki's *Preference Queries* frames winnow as a potentially expensive
operator — BNL is quadratic in the worst case — and the paper ran
Preference SQL as resident middleware in front of production web apps,
where a runaway skyline query holding a worker thread forever is worse
than a wrong answer.  A :class:`Deadline` is the one object that makes
every execution path interruptible:

* the driver arms it per statement (``execute(..., timeout_ms=...)``)
  and publishes it thread-locally via :func:`deadline_scope`, so the
  in-memory kernels — the window BNL and sort-filter loops, the blocked
  numpy Pareto kernel — can poll it *amortized* (every N comparisons /
  once per block) without threading a parameter through every
  signature,
* host-side scans (the NOT EXISTS rewrite, rank pushdown SQL) cannot
  poll Python code, so :func:`sqlite_interrupt` arms a watchdog timer
  that calls :meth:`sqlite3.Connection.interrupt` at expiry — sqlite
  aborts the in-flight statement with ``OperationalError: interrupted``,
  which the driver converts to :class:`~repro.errors.QueryTimeout`.

Deadline polling costs one thread-local read per kernel invocation and
one float comparison per amortized check; with no deadline armed the
scope read returns ``None`` and every check short-circuits.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Iterator, cast

from repro.errors import QueryTimeout

#: How many loop iterations the cooperative kernels run between deadline
#: polls.  Power of two so the check compiles to a cheap bitmask test.
CHECK_EVERY = 1024

_scope = threading.local()


class Deadline:
    """An absolute point on the monotonic clock a query must not outlive."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def after_ms(cls, timeout_ms: float) -> "Deadline":
        """A deadline ``timeout_ms`` milliseconds from now."""
        if timeout_ms <= 0:
            raise QueryTimeout(
                f"timeout_ms must be positive, got {timeout_ms}"
            )
        return cls(time.monotonic() + timeout_ms / 1000.0)

    def remaining(self) -> float:
        """Seconds until expiry; negative once past it."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`~repro.errors.QueryTimeout` once past expiry."""
        if time.monotonic() >= self.expires_at:
            raise QueryTimeout()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


def active_deadline() -> Deadline | None:
    """The deadline of the innermost enclosing :func:`deadline_scope`."""
    return cast("Deadline | None", getattr(_scope, "deadline", None))


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[None]:
    """Publish ``deadline`` thread-locally for the duration of the block.

    Scopes nest (the previous deadline is restored on exit) and a None
    deadline is a no-op scope, so callers never need to branch.
    """
    previous = getattr(_scope, "deadline", None)
    _scope.deadline = deadline
    try:
        yield
    finally:
        _scope.deadline = previous


@contextmanager
def sqlite_interrupt(raw: sqlite3.Connection, deadline: Deadline | None) -> Iterator[None]:
    """Arm ``raw.interrupt()`` to fire at the deadline's expiry.

    ``sqlite3.Connection.interrupt`` is documented safe to call from
    another thread and aborts any in-flight statement; statements that
    finish before expiry cancel the timer on exit, so a stale interrupt
    cannot leak into the connection's next query.
    """
    if deadline is None:
        yield
        return
    remaining = deadline.remaining()
    if remaining <= 0:
        raise QueryTimeout()
    timer = threading.Timer(remaining, raw.interrupt)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
