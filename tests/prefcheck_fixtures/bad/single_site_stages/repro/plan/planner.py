"""Known-bad: a rebind that calls a strategy's build past the table."""

STRATEGY_TABLE = {}


def _build_bnl(statement, build):
    return (statement,)


def rebind_plan(plan, statement, build):
    # Names the strategy instead of asking the table for its build.
    return _build_bnl(statement, build)


def plan_statement(statement, strategy, build):
    return STRATEGY_TABLE[strategy].build(statement, build)
