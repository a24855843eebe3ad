"""The Preference SQL Optimizer: rewriting preference queries to SQL92.

This package is the reproduction of the paper's pre-processor (section 3):
a preference query is translated into a standard SQL query implementing the
BMO model through a ``NOT EXISTS`` anti-join — the paper's "high-level
implementation of the skyline operator".  Over one rowid table the level
columns live in a ``WITH … AS MATERIALIZED`` CTE, the paper's auxiliary
view ``Aux`` inside one statement (sqlite ≥ 3.35); otherwise the emitted
SQL uses only SQL92 entry-level constructs plus derived correlation.

Modules:

* :mod:`repro.rewrite.levels` — base preference → rank expression (the
  paper's ``Makelevel``/``Diesellevel`` CASE scheme, generalised) and the
  level columns built from them,
* :mod:`repro.rewrite.conditions` — preference → dominance conditions
  between two tuple copies (the skyline anti-join body),
* :mod:`repro.rewrite.planner` — whole-query rewriting (the rank CTE or
  the inline form, GROUPING partitions, BUT ONLY thresholds, quality
  functions, INSERT, algebraic normalisation of the preference term),
* :mod:`repro.rewrite.paper_style` — the exhibition form of section 3.2
  (CREATE VIEW Aux / anti-join script).
"""

from repro.rewrite.planner import RewriteResult, rewrite_select, rewrite_statement
from repro.rewrite.paper_style import paper_style_script

__all__ = [
    "RewriteResult",
    "rewrite_select",
    "rewrite_statement",
    "paper_style_script",
]
