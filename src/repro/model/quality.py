"""Answer explanation: the quality functions TOP, LEVEL and DISTANCE.

Paper section 2.2.3: the presence of a tuple in a preference result depends
on its competitors, so results must be justifiable.  Preference SQL reports
per-tuple match quality through three functions usable in the select list
and the BUT ONLY clause:

* ``TOP(A)``      — boolean: is the tuple a perfect match on A?
* ``LEVEL(A)``    — 1-based layer distance from the best layer (best = 1),
* ``DISTANCE(A)`` — numeric distance from the optimum (best = 0).

``A`` names an attribute (or matches an operand expression) of exactly one
base preference in the PREFERRING clause; ambiguous or unmatched references
are errors.  For LOWEST/HIGHEST/SCORE the optimum is data-dependent (the
candidate-set extreme), so evaluation needs the candidate optimum — the
engine computes it per result set, the rewriter via a scalar subquery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import EvaluationError, PreferenceConstructionError
from repro.model.categorical import ExplicitPreference, LayeredPreference
from repro.model.preference import Preference, WeakOrderBase
from repro.model.text import ContainsPreference
from repro.sql import ast
from repro.sql.printer import to_sql

QUALITY_FUNCTIONS = ("TOP", "LEVEL", "DISTANCE")


def result_name(expr: ast.Expr) -> str:
    """The name of a result column whose select item has no alias.

    Every strategy names its columns through here.  A column is named by
    its own name, unquoted and without its qualifier, the way the host
    names a column (``t."my col"`` is ``my col``); the column a quality
    function reads keeps its qualified spelling (``LEVEL(key)``), and any
    other expression is named by its SQL text, the way the host names one.
    """
    if isinstance(expr, ast.Column):
        return expr.name
    if (
        isinstance(expr, ast.FuncCall)
        and expr.name in QUALITY_FUNCTIONS
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.Column)
    ):
        return f"{expr.name}({expr.args[0].qualified})"
    return to_sql(expr)


@dataclass(frozen=True)
class ResolvedQuality:
    """A quality-function target: one base preference plus its position in
    the flat operand vector of the whole PREFERRING clause."""

    base: Preference
    vector_slice: slice

    @property
    def dynamic_optimum(self) -> bool:
        """True when the optimum depends on the candidate set."""
        return (
            isinstance(self.base, WeakOrderBase) and self.base.best_rank() is None
        )


def _columns_match(a: ast.Expr, b: ast.Expr) -> bool:
    if isinstance(a, ast.Column) and isinstance(b, ast.Column):
        return a.name.lower() == b.name.lower()
    return a == b


class QualityResolver:
    """Resolves and evaluates quality functions against a preference tree."""

    def __init__(self, preference: Preference):
        self._preference = preference
        self._bases: list[tuple[Preference, slice]] = []
        self._assign(preference, 0)

    def _assign(self, node: Preference, offset: int) -> int:
        kids = node.children()
        if not kids:
            self._bases.append((node, slice(offset, offset + node.arity)))
            return offset + node.arity
        for child in kids:
            offset = self._assign(child, offset)
        return offset

    @property
    def bases(self) -> list[tuple[Preference, slice]]:
        """All base preferences with their flat-vector slices."""
        return list(self._bases)

    def resolve(self, target: ast.Expr) -> ResolvedQuality:
        """Find the unique base preference a quality function refers to."""
        matches = [
            ResolvedQuality(base=base, vector_slice=vector_slice)
            for base, vector_slice in self._bases
            if any(_columns_match(target, operand) for operand in base.operands)
        ]
        if not matches:
            raise PreferenceConstructionError(
                f"quality function target {to_sql(target)!r} matches no "
                "preference in the PREFERRING clause"
            )
        if len(matches) > 1:
            raise PreferenceConstructionError(
                f"quality function target {to_sql(target)!r} is ambiguous: "
                f"{len(matches)} preferences use it"
            )
        return matches[0]

    # ------------------------------------------------------------------
    # Evaluation over flat operand vectors

    def level(self, resolved: ResolvedQuality, values: tuple) -> int:
        """1-based LEVEL; defined for layered, EXPLICIT and CONTAINS."""
        base = resolved.base
        sub = values[resolved.vector_slice]
        if isinstance(base, LayeredPreference):
            return base.level(sub) + 1
        if isinstance(base, ExplicitPreference):
            return base.level(sub[0]) + 1
        if isinstance(base, ContainsPreference):
            return int(base.rank(sub[0])) + 1
        raise EvaluationError(
            f"LEVEL is not defined for {base.kind} preferences; use DISTANCE"
        )

    def distance(
        self,
        resolved: ResolvedQuality,
        values: tuple,
        candidate_optimum: float | None = None,
    ) -> float:
        """DISTANCE; defined for numerical (rank-based) preferences."""
        base = resolved.base
        sub = values[resolved.vector_slice]
        if isinstance(base, LayeredPreference):
            raise EvaluationError(
                "DISTANCE is not defined for layered preferences; use LEVEL"
            )
        if not isinstance(base, WeakOrderBase):
            raise EvaluationError(
                f"DISTANCE is not defined for {base.kind} preferences"
            )
        rank = base.rank(sub[0])
        best = base.best_rank()
        if best is None:
            if candidate_optimum is None:
                raise EvaluationError(
                    f"DISTANCE on a {base.kind} preference needs the "
                    "candidate-set optimum"
                )
            best = candidate_optimum
        distance = rank - best
        return distance if not math.isnan(distance) else math.inf

    def top(
        self,
        resolved: ResolvedQuality,
        values: tuple,
        candidate_optimum: float | None = None,
    ) -> bool:
        """TOP: perfect match on this preference component."""
        base = resolved.base
        sub = values[resolved.vector_slice]
        if isinstance(base, LayeredPreference):
            return base.level(sub) == 0
        if isinstance(base, ExplicitPreference):
            return base.level(sub[0]) == 0
        if isinstance(base, WeakOrderBase):
            rank = base.rank(sub[0])
            best = base.best_rank()
            if best is None:
                if candidate_optimum is None:
                    raise EvaluationError(
                        f"TOP on a {base.kind} preference needs the "
                        "candidate-set optimum"
                    )
                best = candidate_optimum
            return rank == best
        raise EvaluationError(f"TOP is not defined for {base.kind} preferences")
