"""Deadlines and cancellation: every strategy honors its timeout.

The tentpole acceptance test: a PREFERRING query forced onto each
execution strategy over an adversarial (anti-correlated) table must
terminate within a small multiple of its ``timeout_ms``, surface the
structured retryable :class:`~repro.errors.QueryTimeout`, and leave the
connection reusable.
"""

import random
import time

import pytest

import repro
from repro.deadline import (
    CHECK_EVERY,
    Deadline,
    active_deadline,
    deadline_scope,
    sqlite_interrupt,
)
from repro.errors import QueryTimeout

#: Strategies the acceptance criteria require to honor deadlines.
STRATEGIES = ("rewrite", "bnl")

ROWS = 30_000
TIMEOUT_MS = 600
#: The acceptance bound: observed wall clock stays within 2x the budget.
BOUND = 2 * TIMEOUT_MS / 1000.0

ADVERSARIAL = (
    "SELECT * FROM hard PREFERRING "
    "LOWEST(a) AND LOWEST(b) AND LOWEST(c) AND LOWEST(d)"
)


@pytest.fixture(scope="module")
def adversarial(tmp_path_factory):
    """Anti-correlated rows: huge skylines, so every strategy runs long.

    Each row's four attributes sum to a constant, so improving one
    dimension worsens another — almost nothing dominates anything and
    the skyline approaches the whole table.
    """
    path = str(tmp_path_factory.mktemp("deadline") / "hard.db")
    rng = random.Random(7)
    connection = repro.connect(path)
    connection.execute(
        "CREATE TABLE hard (id INTEGER, a REAL, b REAL, c REAL, d REAL)"
    )
    rows = []
    for i in range(ROWS):
        parts = [rng.random() + 1e-9 for _ in range(4)]
        total = sum(parts)
        rows.append((i,) + tuple(1000.0 * p / total for p in parts))
    connection.cursor().executemany(
        "INSERT INTO hard VALUES (?, ?, ?, ?, ?)", rows
    )
    connection.commit()
    connection.close()
    return path


class TestDeadlinePrimitives:
    def test_after_ms_and_remaining(self):
        deadline = Deadline.after_ms(50)
        assert 0 < deadline.remaining() <= 0.05
        assert not deadline.expired()
        deadline.check()  # not yet expired: no raise

    def test_nonpositive_timeout_is_an_immediate_timeout(self):
        with pytest.raises(QueryTimeout):
            Deadline.after_ms(0)

    def test_expired_check_raises_retryable(self):
        deadline = Deadline(time.monotonic() - 0.001)
        assert deadline.expired()
        with pytest.raises(QueryTimeout) as excinfo:
            deadline.check()
        assert excinfo.value.retryable is True
        assert excinfo.value.code == "timeout"

    def test_scope_publishes_and_restores(self):
        assert active_deadline() is None
        outer = Deadline.after_ms(10_000)
        inner = Deadline.after_ms(5_000)
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_none_scope_is_a_no_op(self):
        with deadline_scope(None):
            assert active_deadline() is None

    def test_check_every_is_a_power_of_two(self):
        assert CHECK_EVERY & (CHECK_EVERY - 1) == 0

    def test_sqlite_interrupt_aborts_a_host_scan(self, adversarial):
        connection = repro.connect(adversarial)
        deadline = Deadline.after_ms(100)
        started = time.monotonic()
        with pytest.raises(Exception) as excinfo:
            with sqlite_interrupt(connection.raw, deadline):
                # A cross join the host cannot finish in 100ms.
                connection.raw.execute(
                    "SELECT COUNT(*) FROM hard x, hard y WHERE x.a < y.a"
                ).fetchone()
        assert "interrupt" in str(excinfo.value).lower()
        assert time.monotonic() - started < 2.0
        # The connection survives the interrupt.
        assert connection.raw.execute("SELECT 1").fetchone() == (1,)
        connection.close()

    def test_sqlite_interrupt_already_expired(self, adversarial):
        connection = repro.connect(adversarial)
        with pytest.raises(QueryTimeout):
            with sqlite_interrupt(
                connection.raw, Deadline(time.monotonic() - 1.0)
            ):
                pass  # pragma: no cover - never reached
        connection.close()

    def test_timer_cancelled_after_fast_statement(self, adversarial):
        connection = repro.connect(adversarial)
        deadline = Deadline.after_ms(200)
        with sqlite_interrupt(connection.raw, deadline):
            connection.raw.execute("SELECT 1").fetchone()
        time.sleep(0.25)  # past expiry: a leaked timer would interrupt now
        cursor = connection.raw.execute("SELECT COUNT(*) FROM hard")
        assert cursor.fetchone() == (ROWS,)
        connection.close()


class TestStrategyTimeouts:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_honors_timeout(self, adversarial, strategy):
        connection = repro.connect(adversarial)
        try:
            started = time.monotonic()
            with pytest.raises(QueryTimeout) as excinfo:
                connection.execute(
                    ADVERSARIAL, algorithm=strategy, timeout_ms=TIMEOUT_MS
                )
            elapsed = time.monotonic() - started
            assert excinfo.value.retryable is True
            assert excinfo.value.code == "timeout"
            assert elapsed < BOUND, (
                f"{strategy} took {elapsed:.2f}s against a "
                f"{TIMEOUT_MS}ms deadline"
            )
            # The connection stays usable.
            assert connection.execute(
                "SELECT COUNT(*) FROM hard"
            ).fetchall() == [(ROWS,)]
        finally:
            connection.close()

    def test_untimed_query_still_completes(self, adversarial):
        """No deadline: the exact pre-deadline code path, no timeout."""
        connection = repro.connect(adversarial)
        try:
            rows = connection.execute(
                "SELECT * FROM hard WHERE id < 200 PREFERRING "
                "LOWEST(a) AND LOWEST(b)"
            ).fetchall()
            assert rows
        finally:
            connection.close()

    def test_generous_timeout_returns_the_full_answer(self, adversarial):
        connection = repro.connect(adversarial)
        try:
            bounded = connection.execute(
                "SELECT * FROM hard WHERE id < 500 PREFERRING "
                "LOWEST(a) AND LOWEST(b)",
                timeout_ms=60_000,
            ).fetchall()
            plain = connection.execute(
                "SELECT * FROM hard WHERE id < 500 PREFERRING "
                "LOWEST(a) AND LOWEST(b)"
            ).fetchall()
            assert sorted(bounded) == sorted(plain)
        finally:
            connection.close()

    def test_deadline_scope_is_clean_after_timeout(self, adversarial):
        connection = repro.connect(adversarial)
        try:
            with pytest.raises(QueryTimeout):
                connection.execute(
                    ADVERSARIAL, algorithm="bnl", timeout_ms=150
                )
            assert active_deadline() is None
        finally:
            connection.close()
