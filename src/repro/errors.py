"""Exception hierarchy for the Preference SQL reproduction.

Every error raised by this library derives from :class:`PreferenceSQLError`
so applications can catch the whole family with one ``except`` clause, which
is what the commercial driver stack did: errors surfaced through the
ODBC/JDBC layer as a single SQLSTATE family.
"""

from __future__ import annotations


class PreferenceSQLError(Exception):
    """Base class for all Preference SQL errors.

    Every error carries a stable machine-readable ``code`` (what failed)
    and a ``retryable`` flag (whether an identical retry can plausibly
    succeed).  The serving layer ships both over the wire so clients can
    implement retry policy without parsing error text; transient faults
    (deadline expiry, pool exhaustion) are the retryable ones, while
    semantic failures (parse errors, unknown tables) are not — retrying
    those burns server capacity for the same answer.
    """

    #: Stable machine-readable error code, shipped over the wire.
    code: str = "error"
    #: Whether an identical retry can plausibly succeed.
    retryable: bool = False


class LexerError(PreferenceSQLError):
    """Raised when the input text cannot be tokenized.

    Carries the offending position so interactive callers (the paper's
    GUI-generated queries) can point at the bad character.
    """

    code = "parse"

    def __init__(self, message: str, position: int, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(PreferenceSQLError):
    """Raised when tokens do not form a valid Preference SQL statement."""

    code = "parse"

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            super().__init__(f"{message} (line {line}, column {column})")
        else:
            super().__init__(message)
        self.line = line
        self.column = column


class UnsupportedPreferenceSQL(PreferenceSQLError):
    """A construct the paper names as a current restriction of release 1.3.

    Example: sub-queries in the WHERE clause may not contain PREFERRING
    clauses (paper section 2.2.5).
    """

    code = "unsupported"


class PreferenceConstructionError(PreferenceSQLError):
    """Raised when a preference term cannot be built.

    Covers ill-typed base preferences (e.g. AROUND on a non-numeric
    expression) and illegal compositions (e.g. an EXPLICIT graph with a
    cycle, which would violate the strict-partial-order requirement).
    """

    code = "preference"


class NotAStrictPartialOrder(PreferenceConstructionError):
    """The better-than relation violates irreflexivity/asymmetry/transitivity."""


class RewriteError(PreferenceSQLError):
    """The Preference SQL Optimizer could not produce standard SQL."""

    code = "rewrite"


class PlanError(PreferenceSQLError):
    """The cost-based planner could not gather statistics or select a plan.

    Also raised when a caller forces an execution strategy the statement is
    not eligible for (e.g. an in-memory skyline on a multi-table query).
    """

    code = "plan"


class EvaluationError(PreferenceSQLError):
    """The in-memory engine failed to evaluate an expression over a row."""

    code = "evaluation"


class CatalogError(PreferenceSQLError):
    """Problems with persistent preference definitions (the PDL catalog)."""

    code = "catalog"


class DriverError(PreferenceSQLError):
    """PEP 249-level failures in the Preference driver layer."""

    code = "driver"


class QueryTimeout(DriverError):
    """A query ran past its deadline and was cancelled, not hung.

    Raised cooperatively by the in-memory kernels and by the sqlite
    interrupt watchdog for host-side scans; always retryable — a retry
    under lighter load (or with a larger ``timeout_ms``) can succeed.
    """

    code = "timeout"
    retryable = True

    def __init__(self, message: str = "query deadline exceeded") -> None:
        super().__init__(message)


class PoolTimeout(DriverError):
    """No pooled connection became free within the checkout timeout.

    The serving layer maps this to a fast ``overloaded`` reply: the pool
    being saturated is a load condition, not a query defect, so clients
    should back off and retry.
    """

    code = "overloaded"
    retryable = True

    def __init__(self, message: str = "no pooled connection became free") -> None:
        super().__init__(message)
