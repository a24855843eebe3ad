"""Shared-memory segment counters, kept for the benchmark's child process.

The engine no longer maps shared memory: winnow runs in-process, in one
thread.  ``benchmark/child.py`` still imports :func:`segment_counters` to
report ``engine.shm_leaked``, and ``benchmark/`` does not change together
with the engine, so this one function stays and always reports zero.
Delete the module once the benchmark stops importing it.
"""

from __future__ import annotations


def segment_counters() -> dict[str, int]:
    """Shared-memory segments created, unlinked and leaked: always zero."""
    return {"created": 0, "unlinked": 0, "leaked": 0}
