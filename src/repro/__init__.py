"""Preference SQL: soft constraints for SQL via strict partial orders.

A from-scratch reproduction of *Kießling & Köstler, "Preference SQL —
Design, Implementation, Experiences", VLDB 2002*: the preference model
(base types, Pareto accumulation, cascade), the query language
(``PREFERRING`` / ``GROUPING`` / ``BUT ONLY`` / quality functions), the
pre-processor rewriting to standard SQL, a DB-API driver over sqlite, a
reference in-memory BMO engine with skyline algorithm baselines, and the
benchmark/application workloads of the paper's evaluation.

Quickstart::

    import repro

    con = repro.connect(":memory:")
    con.execute("CREATE TABLE trips (id INTEGER, duration INTEGER)")
    con.execute("INSERT INTO trips VALUES (1, 7), (2, 13), (3, 15), (4, 28)")
    rows = con.execute(
        "SELECT * FROM trips PREFERRING duration AROUND 14"
    ).fetchall()
    # -> best matches only: the 13- and 15-day trips

See README.md for an overview and docs/ARCHITECTURE.md ("Package map")
for the map from paper sections to modules.
"""

from repro import errors
from repro.deadline import Deadline
from repro.driver import Connection, Cursor, connect
from repro.engine import PreferenceEngine, Relation
from repro.model import build_preference
from repro.plan import Plan, plan_statement
from repro.rewrite import paper_style_script, rewrite_select, rewrite_statement
from repro.sql import parse_expression, parse_preferring, parse_statement, to_sql

__version__ = "1.3.0"

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "Deadline",
    "PreferenceEngine",
    "Relation",
    "build_preference",
    "parse_statement",
    "parse_preferring",
    "parse_expression",
    "to_sql",
    "rewrite_statement",
    "rewrite_select",
    "paper_style_script",
    "Plan",
    "plan_statement",
    "errors",
    "__version__",
]
