"""Deterministic fault injection for the serving stack.

The interesting serving failures are not wrong answers but wedged
servers: a broken pooled connection silently poisoning the pool, a slow
query holding a worker thread, a client vanishing mid-exchange.  None of
those occur naturally in a test run, so this module threads **named injection points** through the
production code and lets a test install a :class:`FaultPlan` that makes
them misbehave deterministically.

Injection points currently wired in (each ``fire`` call names its
point; the context keys are what rules' ``action`` callables receive):

=================== ===================================================
point               fired
=================== ===================================================
``driver.execute``  on entry to every driver ``Cursor.execute``
                    (context: ``sql``)
``pool.checkout``   after a pooled connection is checked out, *before*
                    the health check (context: ``connection``)
``server.slow_query`` in the server's worker thread, before pool
                    checkout (context: ``sql``)
``client.disconnect`` decision point consulted by chaos clients — the
                    server never fires it; a test client that does can
                    drop its connection mid-exchange
=================== ===================================================

**Disabled cost.**  Every injection point compiles to one module-global
``None`` check (``fire`` returns immediately when no plan is installed),
so the harness costs nothing measurable in production.  Points are
deliberately placed at request/task granularity, never inside
comparison loops.

**Determinism.**  A rule fires on a counted schedule (``skip`` misses,
then ``times`` hits, optionally only every ``every``-th call) or with a
``probability`` drawn from the plan's own seeded RNG; either way a plan
replays identically for a given seed and call sequence.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: The declared injection-point registry: point name → who fires it.
#: ``"production"`` points are fired by the serving stack itself and must
#: have at least one ``faults.fire`` call site in ``src/``; ``"client"``
#: points are decision hooks consulted by chaos *clients* in ``tests/``.
#: ``tools/prefcheck`` (the ``fault-registry`` rule) keeps this dict, the
#: call sites and the injection-point table in ``docs/ARCHITECTURE.md``
#: mutually consistent, and :func:`fire` rejects undeclared names the
#: moment a plan is installed — a typo'd point can no longer sit inert.
POINTS: dict[str, str] = {
    "driver.execute": "production",
    "pool.checkout": "production",
    "server.slow_query": "production",
    "client.disconnect": "client",
}


@dataclass
class FaultRule:
    """One way one injection point misbehaves.

    ``error`` is an exception instance **factory** (a zero-argument
    callable returning the exception to raise) so every firing raises a
    fresh object; ``action`` receives the fire context and mutates state
    instead of raising (e.g. breaking the checked-out connection);
    ``delay`` sleeps before returning.  A rule may combine ``delay``
    with ``error``/``action``.
    """

    point: str
    #: Fire at most this many times (None = unlimited).
    times: int | None = 1
    #: Skip this many matching calls before the first fire.
    skip: int = 0
    #: Fire only on every Nth matching call (after ``skip``).
    every: int = 1
    #: Independent fire probability per call (overrides the counted
    #: schedule when set; still bounded by ``times``).
    probability: float | None = None
    error: Callable[[], BaseException] | None = None
    action: Callable[[dict[str, Any]], None] | None = None
    delay: float | None = None
    # Mutable firing state (managed by the plan).
    seen: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def _should_fire(self, rng: random.Random) -> bool:
        self.seen += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability is not None:
            return rng.random() < self.probability
        if self.seen <= self.skip:
            return False
        return (self.seen - self.skip - 1) % max(1, self.every) == 0


class FaultPlan:
    """A deterministic set of :class:`FaultRule` for one chaos run.

    Thread-safe: injection points fire from the asyncio loop thread and
    the server's worker threads concurrently, so rule
    state and the RNG are guarded by one lock.  ``hits``/``fires`` count
    per point — the chaos suite asserts conservation against them.
    """

    def __init__(self, rules: list[FaultRule] | None = None, seed: int = 0):
        self._lock = threading.Lock()
        #: guarded by _lock
        self.rules = list(rules or ())
        #: guarded by _lock
        self._rng = random.Random(seed)
        #: guarded by _lock
        self.hits: dict[str, int] = {}
        #: guarded by _lock
        self.fires: dict[str, int] = {}

    def add(self, rule: FaultRule) -> "FaultPlan":
        # Under the lock: chaos tests add rules while server threads are
        # firing, and list append racing the fire loop's iteration is
        # exactly the kind of invariant drift prefcheck exists to stop.
        with self._lock:
            self.rules.append(rule)
        return self

    def fire(self, point: str, context: dict[str, Any]) -> bool:
        """Apply the first matching rule; True when a fault fired."""
        with self._lock:
            self.hits[point] = self.hits.get(point, 0) + 1
            chosen: FaultRule | None = None
            for rule in self.rules:
                if rule.point == point and rule._should_fire(self._rng):
                    chosen = rule
                    rule.fired += 1
                    self.fires[point] = self.fires.get(point, 0) + 1
                    break
        if chosen is None:
            return False
        if chosen.delay is not None:
            time.sleep(chosen.delay)
        if chosen.action is not None:
            chosen.action(context)
        if chosen.error is not None:
            raise chosen.error()
        return True


#: The installed plan; None means every injection point is inert.
_plan: FaultPlan | None = None


def fire(point: str, **context: Any) -> bool:
    """The injection point hook production code calls.

    Returns True when a fault fired (so decision points like
    ``client.disconnect`` can branch); raises whatever the matching
    rule's ``error`` factory builds.  With no plan installed this is a
    single global-None check; with one installed, an undeclared point
    name is a programming error and raises ``ValueError`` — the
    registry (:data:`POINTS`) is the single source of truth for what
    the chaos harness covers.
    """
    if _plan is None:
        return False
    if point not in POINTS:
        raise ValueError(
            f"undeclared fault injection point {point!r}; declare it in "
            "repro.testing.faults.POINTS"
        )
    return _plan.fire(point, context)


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (replacing any previous plan)."""
    global _plan
    _plan = plan


def uninstall() -> None:
    """Make every injection point inert again."""
    global _plan
    _plan = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


# ----------------------------------------------------------------------
# Canned fault behaviours for the common chaos scenarios


def break_pooled_connection(context: dict[str, Any]) -> None:
    """A ``pool.checkout`` action: wreck the connection under the user.

    Closing the underlying sqlite handle makes every later statement
    raise ``ProgrammingError: Cannot operate on a closed database`` —
    the shape a dropped server-side handle presents — which the pool's
    checkout health check must catch and heal.
    """
    context["connection"].raw.close()
