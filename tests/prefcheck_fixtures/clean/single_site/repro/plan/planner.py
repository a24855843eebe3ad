"""Known-clean: only the session-pricing function prices the session."""

from repro.plan.cost import session_reuse_estimate


def plan_statement(statement):
    return statement


def with_session(base, match):
    return session_reuse_estimate(match)
