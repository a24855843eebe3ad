"""Known-bad: the session priced inside the planner as well."""

from repro.plan.cost import session_reuse_estimate


def plan_statement(statement):
    return session_reuse_estimate(statement)


def with_session(base, match):
    return session_reuse_estimate(match)


def replan(statement):
    # Inside plan/: this call is not a driver planner site.
    return plan_statement(statement)
