"""Rule ``paired-mutation``: paired mutations balance on every path.

PR 9's ``_waiting`` counter leak is the motivating bug: the admission
counter was incremented before ``semaphore.acquire()`` and decremented
after it, so a cancellation landing *inside* the acquire leaked the
increment forever and the conservation invariant
(``admitted == served + errors + cancelled``, gauges zero when idle)
broke only under a chaos schedule.  The fix — decrement in ``finally`` —
is a mechanically checkable shape, which is what this rule enforces for
two mutation families:

* **counter pairs** — an attribute that is both ``+= ``-ed and ``-= ``-ed
  somewhere in the same class is a gauge; every increment must be
  balanced by a decrement that is either a later statement in the same
  straight-line block or sits in the ``finally`` of a ``try`` that
  follows (or encloses) the increment,
* **pool checkout/return** — a class that checks connections out of its
  free queue (``.get(...)`` on an attribute named ``_free``) must return
  them through a ``finally``-guarded ``.put(...)`` somewhere in the
  class, so no exit path strands a checkout.
"""

from __future__ import annotations

import ast
from typing import Sequence

from tools.prefcheck.engine import FileContext, Finding, Rule

#: Queue attributes treated as connection checkout queues.
CHECKOUT_QUEUES = ("_free",)


def _aug_target_attr(node: ast.AugAssign) -> str | None:
    target = node.target
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _bodies(node: ast.AST):
    """Every statement list hanging off an AST node."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if isinstance(block, list):
            yield name, block
    for handler in getattr(node, "handlers", []) or []:
        yield "handler", handler.body


def _contains_decrement(block: list[ast.stmt], attr: str) -> bool:
    for stmt in block:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Sub)
                and _aug_target_attr(node) == attr
            ):
                return True
    return False


class PairedMutationRule(Rule):
    rule_id = "paired-mutation"
    invariant = (
        "paired mutations (gauge inc/dec, pool checkout/return) must "
        "balance on all paths — release in a finally or the same "
        "straight-line block (PR 9: the _waiting leak on "
        "cancel-while-queued)"
    )

    def run(self, contexts: Sequence[FileContext]) -> list[Finding]:
        findings: list[Finding] = []
        for ctx in contexts:
            findings.extend(self._check_counters(ctx))
            findings.extend(self._check_checkout_queues(ctx))
        return findings

    # ------------------------------------------------------------------
    # Counter pairs

    def _check_counters(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for owner in ast.walk(ctx.tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            increments: dict[str, list[ast.AugAssign]] = {}
            decremented: set[str] = set()
            for node in ast.walk(owner):
                if not isinstance(node, ast.AugAssign):
                    continue
                attr = _aug_target_attr(node)
                if attr is None:
                    continue
                if isinstance(node.op, ast.Add):
                    increments.setdefault(attr, []).append(node)
                elif isinstance(node.op, ast.Sub):
                    decremented.add(attr)
            for attr in sorted(set(increments) & decremented):
                for inc in increments[attr]:
                    if not self._balanced(ctx, inc, attr):
                        findings.append(
                            self.finding(
                                ctx,
                                inc.lineno,
                                f"increment of self.{attr} is not balanced "
                                "by a finally-guarded (or same-block) "
                                f"decrement — an exception or cancel leaks "
                                f"the {attr} gauge",
                            )
                        )
        return findings

    def _balanced(self, ctx: FileContext, inc: ast.AugAssign, attr: str) -> bool:
        # (1) the increment sits inside a try whose finally decrements.
        for ancestor in ctx.ancestors(inc):
            if isinstance(ancestor, ast.Try) and _contains_decrement(
                ancestor.finalbody, attr
            ):
                return True
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                break
        # (2) a later statement in the same block is the decrement, or a
        # later try in the same block decrements in its finally.
        parent = ctx.parents.get(inc)
        block: list[ast.stmt] | None = None
        for _, candidate in _bodies(parent) if parent is not None else ():
            if inc in candidate:
                block = candidate
                break
        if block is None:
            return False
        index = block.index(inc)
        for stmt in block[index + 1 :]:
            if (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.op, ast.Sub)
                and _aug_target_attr(stmt) == attr
            ):
                return True
            if isinstance(stmt, ast.Try) and _contains_decrement(
                stmt.finalbody, attr
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Checkout queues

    def _check_checkout_queues(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for owner in ast.walk(ctx.tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            checkouts: list[ast.Call] = []
            has_guarded_return = False
            for node in ast.walk(owner):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr in CHECKOUT_QUEUES
                ):
                    continue
                if func.attr in ("get", "get_nowait"):
                    checkouts.append(node)
                elif func.attr in ("put", "put_nowait"):
                    for ancestor in ctx.ancestors(node):
                        if isinstance(ancestor, ast.Try) and any(
                            node in ast.walk(stmt)
                            for stmt in ancestor.finalbody
                        ):
                            has_guarded_return = True
                            break
            if checkouts and not has_guarded_return:
                findings.append(
                    self.finding(
                        ctx,
                        checkouts[0].lineno,
                        f"class {owner.name} checks connections out of "
                        f"{'/'.join(CHECKOUT_QUEUES)} but has no "
                        "finally-guarded .put() return path — an exception "
                        "between checkout and return strands the "
                        "connection",
                    )
                )
        return findings
