"""Workloads: the paper's fixtures, benchmarks and application scenarios.

* :mod:`repro.workloads.fixtures` — every example relation printed in the
  paper (oldtimer, Cars) plus the small catalogs its queries mention
  (trips, apartments, programmers, hotels, computers, car dealer stock),
* :mod:`repro.workloads.jobs` — the synthetic stand-in for the paper's
  1.4M-tuple, 74-attribute job-profile benchmark table (section 3.3),
  including the three-way query family (conjunctive / disjunctive /
  Pareto-preferring),
* :mod:`repro.workloads.shop` — the washing-machine e-shop of section 4.1
  with the search-mask → dynamic Preference SQL generator,
* :mod:`repro.workloads.cosima` — the COSIMA comparison-shopping
  meta-search simulation of section 4.3,
* :mod:`repro.workloads.distributions` — independent / correlated /
  anti-correlated data generators in the style of [BKS01] for the skyline
  algorithm ablations,
* :mod:`repro.workloads.traffic` — the Zipfian server-traffic mix of
  query-chain sessions over all three scenarios (the ``serve_zipf`` and
  ``serve_dml`` workloads of ``python3 -m benchmark``).

All generators are deterministic under an explicit seed.
"""

from repro.workloads.fixtures import (
    cars_relation,
    load_fixtures,
    oldtimer_relation,
    used_cars_relation,
)
from repro.workloads.distributions import (
    anticorrelated,
    correlated,
    independent,
    vectors_to_relation,
)
from repro.workloads.jobs import (
    CONDITION_SETS,
    POOLS,
    JobsBenchmarkQueries,
    benchmark_queries,
    jobs_relation,
    load_jobs,
)
from repro.workloads.shop import (
    SearchMask,
    mask_to_preference_sql,
    washing_machines_relation,
)
from repro.workloads.cosima import MetaSearch, SimulatedShop, make_catalog, make_shops
from repro.workloads.traffic import (
    QueryChain,
    load_traffic_database,
    query_chains,
    zipfian_schedule,
)

__all__ = [
    "oldtimer_relation",
    "cars_relation",
    "used_cars_relation",
    "load_fixtures",
    "independent",
    "correlated",
    "anticorrelated",
    "vectors_to_relation",
    "jobs_relation",
    "load_jobs",
    "benchmark_queries",
    "JobsBenchmarkQueries",
    "POOLS",
    "CONDITION_SETS",
    "SearchMask",
    "mask_to_preference_sql",
    "washing_machines_relation",
    "SimulatedShop",
    "MetaSearch",
    "make_shops",
    "make_catalog",
    "QueryChain",
    "load_traffic_database",
    "query_chains",
    "zipfian_schedule",
]
