"""Known-bad: a second planner entry point beside the declared one."""

from repro.plan.planner import plan_statement


class Connection:
    def _plan_statement(self, statement):
        return plan_statement(statement)

    def plan(self, statement):
        # Bypasses _plan_statement (and so the session pricing on top).
        return plan_statement(statement)
