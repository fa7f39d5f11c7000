"""Batch query execution: planned, deduplicated, I/O-shared search.

The paper's headline workload (Section 5) is hundreds of thousands of
generated sequences searched against one training corpus.  This package
turns that from "N independent cold searches" into one planned pass:

* :mod:`repro.query.planner` — sketch every query up front, deduplicate
  byte-identical sketches, and enumerate the distinct inverted lists the
  batch will touch;
* :mod:`repro.query.executor` — run the plan on the calling thread,
  with the batch's shared lists pinned in a
  :class:`~repro.index.cache.CachedIndexReader`;
* :mod:`repro.query.results` — per-batch aggregation of
  :class:`~repro.core.search.QueryStats` into a printable
  :class:`~repro.query.results.BatchStats`.

Batching is a pure execution strategy: matches are identical to calling
:meth:`~repro.core.search.NearDuplicateSearcher.search` per query.
"""

from repro.query.executor import BatchQueryExecutor
from repro.query.planner import BatchPlan, PlannedQuery, plan_batch
from repro.query.resultcache import CachingSearcher, ResultCache, ResultCacheStats
from repro.query.results import BatchResult, BatchStats

__all__ = [
    "BatchPlan",
    "BatchQueryExecutor",
    "BatchResult",
    "BatchStats",
    "CachingSearcher",
    "PlannedQuery",
    "ResultCache",
    "ResultCacheStats",
    "plan_batch",
]
