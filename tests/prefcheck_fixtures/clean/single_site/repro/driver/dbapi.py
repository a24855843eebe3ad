"""Known-clean: the driver plans through its one method."""

from repro.plan.planner import plan_statement, with_session


class Connection:
    def _plan_statement(self, statement):
        return plan_statement(statement)

    def plan(self, statement, match):
        return with_session(self._plan_statement(statement), match)
