"""Benchmark harness: regenerate every table and figure of the paper.

Experiment registry (see DESIGN.md section 4 for the full index):

========  ==========================================================
``e1``    section 3.3 timing table — jobs benchmark, 3 solutions ×
          3 pre-selection sizes × 2 condition sets
``e2``    section 2.2.3 oldtimer adorned result (exact-match check)
``e3``    section 3.2 Cars rewrite — paper-style script vs planner
``e4``    section 4.3 COSIMA observations — Pareto set sizes and
          latency breakdown
``e5``    ablation: nested-loop oracle vs the winnow kernel vs rewrite
``e6``    ablation: BMO result sizes vs dimensionality/distribution
``e7``    ablation: rewrite-on-sqlite vs in-memory engine crossover
========  ==========================================================

Run ``python -m repro.bench`` for all, or name specific experiments.
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
