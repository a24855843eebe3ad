"""prefcheck: an AST-based invariant analyzer for this repository.

The serving stack built in PRs 8-9 relies on a family of invariants —
lock discipline around pooled state, balanced counter and resource
mutations, cooperative deadline polls in every row-scale kernel loop, a
consistent fault-injection registry, and a closed error taxonomy at the
serving boundary.  Every violation of those invariants found so far was
found *at runtime* by fuzzers and chaos tests; prefcheck moves the whole
bug class to a CI-time static gate.

Usage::

    python -m tools.prefcheck src/            # human output, exit 1 on findings
    python -m tools.prefcheck src/ --json -   # machine-readable findings

Findings are suppressed inline with a reasoned comment::

    self._closed  # prefcheck: disable=lock-discipline -- racy fast-fail read; re-checked under the lock below

A suppression without a ``-- reason`` is itself a finding.
"""

from tools.prefcheck.engine import Finding, Report, analyze_paths

__all__ = ["Finding", "Report", "analyze_paths"]
