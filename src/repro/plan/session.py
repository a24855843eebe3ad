"""Session-level BMO reuse: answer refined queries from cached winners.

Preference SQL's premise is *interactive* search — users iterate ("now
cheaper", "actually diesel PRIOR TO petrol") — yet each query normally
rescans from scratch.  Chomicki ("Database Querying under Changing
Preferences") shows that when the new preference **refines** the old one
(every old dominance still holds), the new BMO set is contained in the
old winners plus a bounded delta.  This module is the driver-facing half
of that result:

* :class:`SessionEntry` — one cached winner base: the *full* BMO rows of
  a previous preference SELECT (before projection / ORDER BY / LIMIT /
  DISTINCT), keyed on the versions it was computed under,
* :func:`analyze_refinement` — the algebraic judgment between a cached
  entry and a new query: the preference-tree relationship comes from
  :func:`repro.model.algebra.refines`, the hard-condition relationship
  from a structural diff of the WHERE conjuncts,
* :class:`SessionCache` — a small per-connection LRU with version-based
  invalidation (driver data version, sqlite ``PRAGMA data_version`` for
  cross-connection writes, catalog version for DDL).

WHERE-clause rules (both proven in ``tests/test_sessions.py``):

* **weakening** (conjuncts dropped): the candidate set grew; the delta is
  exactly the rows satisfying the new WHERE but not the old one —
  ``new_where AND (OR over dropped d: NOT d OR d IS NULL)`` under SQL's
  three-valued logic.  By the winnow lemma ``BMO(R ∪ Δ) = BMO(BMO(R) ∪
  Δ)``, re-winnowing cached winners ∪ delta is exact.
* **strengthening** (conjuncts added): sound only when every added
  conjunct references *grouping columns exclusively* — then it is
  constant per partition, each partition's candidate set is either
  unchanged or dropped wholesale, and filtering the cached winners by the
  added conjuncts keeps exactly the surviving partitions' winners.
  Strengthening on non-grouping columns is reported but never served: a
  surviving tuple may have been dominated only by now-excluded rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.relation import Relation
from repro.model.algebra import Refinement, refines
from repro.sql import ast


@dataclass(frozen=True)
class SessionEntry:
    """One cached winner base and the versions it is valid under.

    ``winners`` holds the *winner base*: every BMO row with the scan's
    full column set, captured before the query's own projection, ORDER
    BY, LIMIT and DISTINCT — so a refined query with a different surface
    can still be answered from it.
    """

    select: ast.Select
    term: ast.PrefTerm  # inlined + normalized preference
    winners: Relation
    data_version: int
    pragma_version: int
    catalog_version: int
    text: str

    def versions(self) -> tuple[int, int, int]:
        return (self.data_version, self.pragma_version, self.catalog_version)


@dataclass(frozen=True)
class SessionMatch:
    """The judgment between a cached entry and one new query.

    ``servable`` — the refinement is order preserving *and* any WHERE
    strengthening stays on grouping columns, so re-winnowing cached
    winners ∪ delta provably reproduces fresh evaluation.  A non-servable
    match is kept for the EXPLAIN ``refinement relation`` row only.
    """

    entry: SessionEntry
    refinement: Refinement
    rules: tuple[str, ...]
    relation: str
    servable: bool
    #: Added WHERE conjuncts (strengthening) the cached winners must be
    #: filtered by before re-winnowing; empty when none were added.
    added: tuple[ast.Expr, ...] = ()
    #: The bounded delta scan (weakening), None when the old candidate
    #: set provably contains the new one.
    delta_where: ast.Expr | None = None
    delta_select: ast.Select | None = None


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a WHERE expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def diff_conjuncts(
    old: list[ast.Expr], new: list[ast.Expr]
) -> tuple[list[ast.Expr], list[ast.Expr], list[ast.Expr]]:
    """Structural multiset diff: (common, dropped from old, added in new)."""
    common: list[ast.Expr] = []
    dropped: list[ast.Expr] = []
    remaining = list(new)
    for conjunct in old:
        if conjunct in remaining:
            remaining.remove(conjunct)
            common.append(conjunct)
        else:
            dropped.append(conjunct)
    return common, dropped, remaining


def conjoin(conjuncts) -> ast.Expr | None:
    """AND the conjuncts back together (None for an empty list)."""
    result: ast.Expr | None = None
    for conjunct in conjuncts:
        result = (
            conjunct
            if result is None
            else ast.Binary(op="AND", left=result, right=conjunct)
        )
    return result


def delta_condition(
    new_where: ast.Expr | None, dropped: list[ast.Expr]
) -> ast.Expr:
    """Rows in the new candidate set but not the old one.

    A row was *excluded* from the old set iff some dropped conjunct was
    FALSE or NULL for it (three-valued logic: the old WHERE admitted only
    rows where every conjunct was TRUE), hence ``NOT d OR d IS NULL``.
    """
    excluded: ast.Expr | None = None
    for conjunct in dropped:
        rejected = ast.Binary(
            op="OR",
            left=ast.Unary(op="NOT", operand=conjunct),
            right=ast.IsNull(operand=conjunct),
        )
        excluded = (
            rejected
            if excluded is None
            else ast.Binary(op="OR", left=excluded, right=rejected)
        )
    if new_where is None:
        return excluded
    return ast.Binary(op="AND", left=new_where, right=excluded)


def _same_scan(old: ast.Select, new: ast.Select) -> bool:
    """Same single-table FROM (name and binding) and same GROUPING."""
    if len(old.sources) != 1 or len(new.sources) != 1:
        return False
    a, b = old.sources[0], new.sources[0]
    if not isinstance(a, ast.TableRef) or not isinstance(b, ast.TableRef):
        return False
    if a.name.lower() != b.name.lower() or a.binding.lower() != b.binding.lower():
        return False
    return old.grouping == new.grouping


def _grouping_only(conjunct: ast.Expr, select: ast.Select) -> bool:
    """Every column the conjunct reads is a GROUPING column (no
    subqueries or function calls, whose value could vary inside a
    partition or depend on excluded rows)."""
    names = {
        expr.name.lower()
        for expr in select.grouping
        if isinstance(expr, ast.Column)
    }
    if not names or len(names) != len(select.grouping):
        return False
    binding = select.sources[0].binding.lower()
    for node in ast.walk_expr(conjunct):
        if isinstance(
            node,
            (ast.Exists, ast.InSubquery, ast.ScalarSubquery, ast.FuncCall),
        ):
            return False
        if isinstance(node, ast.Column):
            if node.table is not None and node.table.lower() != binding:
                return False
            if node.name.lower() not in names:
                return False
    return True


def analyze_refinement(
    entry: SessionEntry, select: ast.Select, term: ast.PrefTerm
) -> SessionMatch | None:
    """Judge one cached entry against a new (bound) preference SELECT.

    ``term`` is the new preference with named references inlined and the
    algebra's normalisation applied — the same canonical form
    ``entry.term`` was stored in.  Returns None when the queries are
    unrelated (different scan, no recognised preference relationship).
    """
    if not _same_scan(entry.select, select):
        return None
    if select.but_only is not None or select.group_by or select.having is not None:
        return None
    refinement = refines(entry.term, term)
    if refinement is None:
        return None
    old_conjuncts = split_conjuncts(entry.select.where)
    new_conjuncts = split_conjuncts(select.where)
    _common, dropped, added = diff_conjuncts(old_conjuncts, new_conjuncts)

    rules = list(refinement.rules)
    reasons: list[str] = []
    servable = refinement.order_preserving
    if not refinement.order_preserving:
        reasons.append(
            "the new preference does not embed the old order "
            f"({refinement.description})"
        )
    if added:
        if all(_grouping_only(conjunct, select) for conjunct in added):
            rules.append("predicate strengthened on grouping columns")
        else:
            servable = False
            reasons.append("WHERE strengthened beyond the grouping columns")

    delta_where: ast.Expr | None = None
    delta_select: ast.Select | None = None
    if dropped:
        rules.append("predicate weakened (delta scan)")
        delta_where = delta_condition(select.where, dropped)
        delta_select = ast.Select(
            items=(ast.Star(),), sources=select.sources, where=delta_where
        )

    if servable:
        relation = "refines cached result: " + ", ".join(rules)
    else:
        relation = "related but not reusable: " + "; ".join(reasons)
    return SessionMatch(
        entry=entry,
        refinement=refinement,
        rules=tuple(rules),
        relation=relation,
        servable=servable,
        added=tuple(added),
        delta_where=delta_where,
        delta_select=delta_select,
    )


@dataclass
class SessionCache:
    """A small most-recent-first cache of winner bases, one per query text.

    Entries are dropped lazily at match time whenever any of their three
    versions moved: the driver's data version (same-connection DML),
    sqlite's ``PRAGMA data_version`` (another connection wrote the file)
    or the catalog version (CREATE/DROP PREFERENCE and preference views
    — a named preference may resolve differently now).
    """

    maxsize: int = 8
    stores: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    served: int = 0
    _entries: list[SessionEntry] = field(default_factory=list)

    @property
    def entries(self) -> tuple[SessionEntry, ...]:
        return tuple(self._entries)

    def store(self, entry: SessionEntry) -> None:
        self._entries = [e for e in self._entries if e.text != entry.text]
        self._entries.insert(0, entry)
        del self._entries[self.maxsize :]
        self.stores += 1

    def clear(self) -> None:
        self._entries.clear()

    def match(
        self,
        select: ast.Select,
        term: ast.PrefTerm,
        versions: tuple[int, int, int],
    ) -> SessionMatch | None:
        """The first servable match, else the first report-only one.

        Stale entries encountered on the way are evicted; a servable hit
        moves its entry to the front.
        """
        report: SessionMatch | None = None
        for entry in list(self._entries):
            if entry.versions() != versions:
                self._entries.remove(entry)
                self.invalidations += 1
                continue
            found = analyze_refinement(entry, select, term)
            if found is None:
                continue
            if found.servable:
                self.hits += 1
                self._entries.remove(entry)
                self._entries.insert(0, entry)
                return found
            if report is None:
                report = found
        self.misses += 1
        return report

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "stores": self.stores,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "served": self.served,
        }
