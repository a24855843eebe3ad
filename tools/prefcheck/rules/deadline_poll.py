"""Rule ``deadline-poll``: kernel loops stay cooperatively cancellable.

PR 9 threaded cooperative deadline polls (``active_deadline()`` +
amortised ``deadline.check()`` every ``CHECK_EVERY`` iterations) through
every row-scale loop in the evaluation kernels, and ``deadline_scope``
only works if that stays true: one new kernel loop without a poll and a
runaway query holds its worker thread past any timeout.

This rule keys on the kernel modules (``engine/{bmo,algorithms,columns,
compiled}.py``): every function or method there that contains a
``for``/``while`` loop must also contain a deadline poll — a call to
``active_deadline``, a ``.check()`` call, or a reference to
``CHECK_EVERY``.  Comprehensions and generator expressions are exempt
(they are bounded maps over already-polled iterations in this codebase).
Loops that do no dominance work (linear bucketing, bookkeeping) carry a
reasoned suppression on their ``def`` line — making "this loop cannot
run away" an explicit, reviewed claim instead of an accident.
"""

from __future__ import annotations

import ast
from typing import Sequence

from tools.prefcheck.engine import FileContext, Finding, Rule

#: Path suffixes of the modules whose loops must poll the deadline.
KERNEL_MODULES = (
    "engine/bmo.py",
    "engine/algorithms.py",
    "engine/columns.py",
    "engine/compiled.py",
)


def _has_loop(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            # Loops inside *nested* functions are attributed to the
            # nested function, not this one.
            if _owner_function(node, function) is function:
                return True
    return False


def _owner_function(node: ast.AST, root: ast.AST) -> ast.AST:
    """The innermost function of ``root``'s subtree containing ``node``.

    Computed structurally (no parent map needed): walk candidate
    functions and keep the smallest one whose span contains the node.
    """
    owner = root
    for candidate in ast.walk(root):
        if candidate is root or not isinstance(
            candidate, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if any(sub is node for sub in ast.walk(candidate)):
            owner = candidate
            break
    return owner


def _has_poll(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "active_deadline":
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "check",
                "active_deadline",
            ):
                return True
        if isinstance(node, ast.Name) and node.id == "CHECK_EVERY":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "CHECK_EVERY":
            return True
    return False


class DeadlinePollRule(Rule):
    rule_id = "deadline-poll"
    invariant = (
        "every loop-bearing function in the evaluation kernels polls the "
        "query deadline (active_deadline / .check() / CHECK_EVERY) or "
        "carries a reasoned suppression (PR 9: deadline_scope only bounds "
        "queries if no kernel loop escapes the polls)"
    )

    def run(self, contexts: Sequence[FileContext]) -> list[Finding]:
        findings: list[Finding] = []
        for ctx in contexts:
            normalized = ctx.rel.replace("\\", "/")
            if not normalized.endswith(KERNEL_MODULES):
                continue
            findings.extend(self._check_file(ctx))
        return findings

    def _check_file(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _has_loop(node):
                continue
            if _has_poll(node):
                continue
            findings.append(
                self.finding(
                    ctx,
                    node.lineno,
                    f"{node.name}() loops over rows in a kernel module "
                    "without a deadline poll (active_deadline/.check()/"
                    "CHECK_EVERY) — a runaway query here escapes "
                    "deadline_scope",
                )
            )
        return findings
