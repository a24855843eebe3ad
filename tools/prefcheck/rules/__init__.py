"""The prefcheck rule registry."""

from __future__ import annotations

from tools.prefcheck.engine import Rule
from tools.prefcheck.rules.deadline_poll import DeadlinePollRule
from tools.prefcheck.rules.error_taxonomy import ErrorTaxonomyRule
from tools.prefcheck.rules.fault_registry import FaultRegistryRule
from tools.prefcheck.rules.lock_discipline import LockDisciplineRule
from tools.prefcheck.rules.paired_mutation import PairedMutationRule
from tools.prefcheck.rules.single_site import SingleSiteRule


def all_rules() -> list[Rule]:
    return [
        LockDisciplineRule(),
        PairedMutationRule(),
        DeadlinePollRule(),
        FaultRegistryRule(),
        ErrorTaxonomyRule(),
        SingleSiteRule(),
    ]
