"""The CONTAINS base preference: simple full-text search as a soft goal.

Release 1.3 supports "a base preference type CONTAINS on text attributes
for simple full-text search" (paper section 2.2.1, cmp. [LeK99]).  The
query string is split into terms; a tuple whose text contains more of the
terms is better.  The rank is therefore the number of *missing* terms —
a perfect match (rank 0) contains them all.  Matching is literal
substring containment with ASCII-only case-folding, the semantics of the
``instr(lower(x), 'term')`` test the rewrite emits: sqlite's ``lower()``
folds ASCII letters only, and ``%``/``_`` in a term match themselves.
"""

from __future__ import annotations

from repro.errors import PreferenceConstructionError
from repro.model.preference import NULL_RANK, WeakOrderBase
from repro.sql import ast

#: ``str.translate`` table folding ASCII capitals only, as sqlite's lower().
_ASCII_LOWER = {code: code + 32 for code in range(ord("A"), ord("Z") + 1)}


class ContainsPreference(WeakOrderBase):
    """``expr CONTAINS 'w1 w2 ...'`` — favour text containing the terms."""

    kind = "CONTAINS"

    def __init__(self, operand: ast.Expr, terms: str):
        super().__init__(operand)
        if not isinstance(terms, str):
            raise PreferenceConstructionError(
                f"CONTAINS terms must be a string, got {terms!r}"
            )
        self.terms = tuple(term.translate(_ASCII_LOWER) for term in terms.split())
        if not self.terms:
            raise PreferenceConstructionError("CONTAINS needs at least one term")

    def rank(self, value: object) -> float:
        if value is None:
            return NULL_RANK
        text = str(value).translate(_ASCII_LOWER)
        return float(sum(1 for term in self.terms if term not in text))
