"""Reproduction harness: regenerate the paper's own tables and figures.

Experiment registry:

========  ==========================================================
``e1``    section 3.3 timing table — jobs benchmark, 3 solutions ×
          3 pre-selection sizes × 2 condition sets
``e2``    section 2.2.3 oldtimer adorned result (exact-match check)
``e3``    section 3.2 Cars rewrite — paper-style script vs planner
``e4``    section 4.3 COSIMA observations — Pareto set sizes and
          latency breakdown
========  ==========================================================

Run ``python -m repro.bench`` for all, or name specific experiments.
The product's performance yardstick is ``python3 -m benchmark``
(``benchmark/README.md``), not this package.
"""

from repro.bench.harness import Report, Table, run_cli, time_call
from repro.bench.experiments import EXPERIMENTS, run_experiment

__all__ = [
    "Report",
    "Table",
    "run_cli",
    "time_call",
    "EXPERIMENTS",
    "run_experiment",
]
