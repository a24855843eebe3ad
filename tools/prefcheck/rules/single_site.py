"""Rule ``single-site``: a call the architecture allows in one place only.

Some properties of the design are "exactly one place" properties: every
preference statement is planned through one driver method, the session
strategy is priced by one function on top of a base plan, the winnow
kernel is chosen for one filter, and each strategy's build is reached
only through the planner's ``STRATEGY_TABLE``.  Each such property is
one entry of :data:`SITES`: the called name, the one function
(``Class.method`` or ``function``) allowed to call it — or, for a callee
only a table reaches, the table's call, which no function name matches —
and, optionally, a path fragment inside which calls are not checked (the
callee's own package or module).

A call is ``name(...)`` or ``anything.name(...)``; references that are
not calls (imports, re-exports) are not sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Sequence

from tools.prefcheck.engine import FileContext, Finding, Rule


@dataclass(frozen=True)
class Site:
    """One declared single call site."""

    callee: str
    caller: str
    #: Files whose path contains this fragment are not checked.
    inside: str | None = None


#: The registry of single call sites.
SITES = (
    Site(callee="plan_statement", caller="Connection._plan_statement", inside="repro/plan/"),
    Site(callee="session_reuse_estimate", caller="with_session"),
    Site(callee="winnow_kernel", caller="bmo_filter", inside="repro/engine/algorithms.py"),
) + tuple(
    Site(callee=f"_build_{strategy}", caller="STRATEGY_TABLE[...].build")
    for strategy in ("rewrite", "bnl", "session", "view")
)

_BY_CALLEE = {site.callee: site for site in SITES}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _qualified_caller(ctx: FileContext, node: ast.AST) -> str:
    """Dotted names of the classes and functions enclosing ``node``."""
    names = [
        ancestor.name
        for ancestor in ctx.ancestors(node)
        if isinstance(ancestor, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return ".".join(reversed(names))


class SingleSiteRule(Rule):
    rule_id = "single-site"
    invariant = (
        "each registered callee is called from its one declared function: "
        "every PREFERRING statement is planned through "
        "Connection._plan_statement, the session is priced only by "
        "with_session on top of a base plan, winnow_kernel is called only "
        "by bmo_filter, and a strategy's build only through the "
        "STRATEGY_TABLE (an 'exactly one place' property kept by the "
        "analyzer instead of a grep in review)"
    )

    def run(self, contexts: Sequence[FileContext]) -> list[Finding]:
        findings: list[Finding] = []
        for ctx in contexts:
            path = "/" + ctx.rel.replace("\\", "/")
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                site = _BY_CALLEE.get(_called_name(node))
                if site is None or (site.inside and site.inside in path):
                    continue
                caller = _qualified_caller(ctx, node)
                if caller != site.caller:
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            f"{site.callee}() is called from "
                            f"{caller or 'module level'}; its one call "
                            f"site is {site.caller}",
                        )
                    )
        return findings
