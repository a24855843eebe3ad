"""Test-support subsystems shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness the chaos suite (``tests/test_chaos.py``) drives; it is
part of the installed package (not the test tree) because the injection
points live inside production modules and the harness must be
importable wherever they are.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    fire,
    injected,
    install,
    uninstall,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "fire",
    "injected",
    "install",
    "uninstall",
]
