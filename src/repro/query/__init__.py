"""Batch query execution: planned, deduplicated, I/O-shared search.

The paper's headline workload (Section 5) is hundreds of thousands of
generated sequences searched against one training corpus.  This package
turns that from "N independent cold searches" into one planned pass:

* :meth:`~repro.core.search.NearDuplicateSearcher.plan` sketches every
  query up front, deduplicates queries by
  :func:`~repro.core.search.query_key` and splits their lists, into one
  :class:`~repro.core.search.BatchPlan` of ``(U, k)`` arrays;
* :mod:`repro.query.executor` — run the plan on the calling thread as
  one scan that reads each distinct inverted list once, through a
  :class:`~repro.index.cache.CachedIndexReader`;
* :mod:`repro.query.resultcache` — memoize whole results by query key
  for live searchers;
* :mod:`repro.query.results` — per-batch aggregation of
  :class:`~repro.core.search.QueryStats` into a printable
  :class:`~repro.query.results.BatchStats`.

Batching is a pure execution strategy: matches are identical to calling
:meth:`~repro.core.search.NearDuplicateSearcher.search` per query.
"""

from repro.query.executor import BatchQueryExecutor
from repro.query.resultcache import CachingSearcher, ResultCache, ResultCacheStats
from repro.query.results import BatchResult, BatchStats

__all__ = [
    "BatchQueryExecutor",
    "BatchResult",
    "BatchStats",
    "CachingSearcher",
    "ResultCache",
    "ResultCacheStats",
]
