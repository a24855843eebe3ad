"""Known-clean: every build is reached through the STRATEGY_TABLE."""


def _build_bnl(statement, build):
    return (statement,)


def _build_rewrite(statement, build):
    return (statement,)


STRATEGY_TABLE = {"bnl": _build_bnl, "rewrite": _build_rewrite}


def rebind_plan(plan, statement, build):
    return STRATEGY_TABLE[plan.strategy](statement, build)
