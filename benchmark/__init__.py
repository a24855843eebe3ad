"""The repository benchmark: five workloads, measured from outside.

``BENCHMARK.json`` at the repository root names this package, its
workloads and its metrics; ``benchmark/README.md`` explains why each
workload and metric exists.  Everything here drives the program through
its public surface only (``repro.connect``, ``PreferenceServer``,
``PreferenceClient``, the per-layer public functions): the timed runs
carry no instrumentation, and the per-layer numbers come from a separate
traced pass made by :mod:`benchmark.tracing`.

Entry points (run from the repository root)::

    python3 -m benchmark --workload mask_cold --seed 1 --seconds 10 --trace 0
    python3 -m benchmark run --seed 1 --out results.json
    python3 -m benchmark compare A.json B.json
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout the benchmark runs in: the directory that holds
#: ``BENCHMARK.json``, this package and the program's ``src/``.
ROOT = Path(__file__).resolve().parent.parent

# The program is not installed; it is imported from the checkout's own
# sources, exactly like tests/conftest.py does.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
