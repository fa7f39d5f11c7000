"""I/O-shared execution of planned query batches.

One strategy, on the calling thread, with the batch as the unit:

1. :meth:`~repro.core.search.NearDuplicateSearcher.plan` sketches,
   deduplicates and plans the whole batch at once, into one
   :class:`~repro.core.search.BatchPlan` that carries its threshold and
   ``verify``;
2. the searcher scans every unique query of the plan at once
   (:meth:`~repro.core.search.NearDuplicateSearcher._search_batch`):
   one read of the distinct short lists the plan loads (each once per
   batch, the batch's misses in one inner call), one prune over
   ``(query, text)`` run counts, one gather of the surviving rows, one
   kernel pass at each query's reduced threshold and one refinement
   pass for the queries with long lists.  A plan a moved live index
   built against an older generation is planned again.

An uncached searcher gets one
:class:`~repro.index.cache.CachedIndexReader` per executor, kept warm
across :meth:`BatchQueryExecutor.execute` calls and chunks until
:meth:`BatchQueryExecutor.close`.

Matches are identical to calling
:meth:`~repro.core.search.NearDuplicateSearcher.search` per query;
batching is a pure execution strategy.  A per-query loop and a process
pool were measured against this path and deleted (``docs/TUNING.md``,
"Batch querying").
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.search import (
    BatchPlan,
    NearDuplicateSearcher,
    SearchResult,
    derive_theta_result,
)
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader
from repro.query.results import BatchResult, BatchStats

#: Capacity of the cache the executor owns for an uncached searcher.
CACHE_BYTES = 32 * 1024 * 1024


class BatchQueryExecutor:
    """Plan and run query batches against one searcher's index.

    Parameters
    ----------
    searcher:
        The configured :class:`~repro.core.search.NearDuplicateSearcher`,
        or a wrapper that delegates ``plan`` and ``_search_batch``
        to one (a live or result-caching searcher).
    batch_size:
        Optional chunking: queries are planned and executed
        ``batch_size`` at a time (bounds sketch and read memory for very
        large sweeps; dedup then only applies within a chunk).
    """

    def __init__(
        self,
        searcher: NearDuplicateSearcher,
        *,
        workers: int = 1,
        batch_size: int | None = None,
    ) -> None:
        # ``workers`` stays only because the benchmark harness
        # (``benchmarks/harness/workloads.py``) passes ``workers=1``.
        if workers != 1:
            raise InvalidParameterError(
                f"workers must be 1, got {workers}: the sequential and "
                "process-pool batch modes were deleted"
            )
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1 or None, got {batch_size}"
            )
        self.searcher = searcher
        self.batch_size = batch_size
        self._planned: NearDuplicateSearcher | None = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the cache the executor owns (if any)."""
        self._planned = None

    def __enter__(self) -> "BatchQueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        verify: bool = False,
    ) -> BatchResult:
        """Answer every query; results come back in input order."""
        if self.batch_size is not None and len(queries) > self.batch_size:
            combined = BatchResult()
            for start in range(0, len(queries), self.batch_size):
                chunk = self._execute_batch(
                    queries[start : start + self.batch_size], theta, verify=verify
                )
                combined.results.extend(chunk.results)
                combined.stats.merge(chunk.stats)
            return combined
        return self._execute_batch(queries, theta, verify=verify)

    def execute_thetas(
        self,
        queries: list[np.ndarray],
        thetas: list[float],
    ) -> tuple[list[dict[float, SearchResult]], BatchStats]:
        """Batch variant of :meth:`NearDuplicateSearcher.search_thetas`.

        One batched pass at the loosest threshold answers every stricter
        one (rectangles carry exact collision counts); returns one
        ``{theta: SearchResult}`` dict per query, in input order.
        """
        if not thetas:
            raise InvalidParameterError("at least one theta is required")
        batch = self.execute(queries, min(thetas))
        per_query = [
            {theta: derive_theta_result(base, theta) for theta in thetas}
            for base in batch.results
        ]
        return per_query, batch.stats

    def execute_plan(self, plan: BatchPlan) -> BatchResult:
        """Run an already-built :class:`~repro.core.search.BatchPlan` at
        the threshold and ``verify`` it was planned for.

        The reusable entry point for pre-sketched queries: callers that
        sketch queries as they arrive (the online service's
        micro-batcher) build the plan themselves via
        :meth:`~repro.core.search.NearDuplicateSearcher.plan` with
        ``sketches=...`` and hand it here, skipping the executor's own
        planning pass.

        One :meth:`~repro.core.search.NearDuplicateSearcher._search_batch`
        over the unique queries, plus the batch's stats: the per-query
        stats (the list reads included) and the cache's counter deltas.
        """
        begin = time.perf_counter()
        searcher = self._planned_searcher()
        cache_before = searcher.index.stats()
        unique_results = searcher._search_batch(plan)
        stats = BatchStats(
            queries=plan.num_queries,
            unique_queries=plan.num_unique,
            lists_referenced=int(
                np.count_nonzero(plan.lengths, axis=1)[plan.assignment].sum()
            ),
            distinct_lists=int(plan.short_lists[1].size),
            plan_seconds=plan.plan_seconds,
        )
        for result in unique_results:
            stats.add_query(result.stats)
        cache_after = searcher.index.stats()
        stats.cache_hits = cache_after.hits - cache_before.hits
        stats.cache_misses = cache_after.misses - cache_before.misses
        stats.cache_evictions = cache_after.evictions - cache_before.evictions
        stats.cache_admission_rejections = (
            cache_after.admission_rejections - cache_before.admission_rejections
        )
        stats.cache_singleflight_waits = (
            cache_after.singleflight_waits - cache_before.singleflight_waits
        )
        stats.execute_seconds = stats.total_seconds = time.perf_counter() - begin
        results = [unique_results[position] for position in plan.assignment]
        return BatchResult(results=results, stats=stats)

    # ------------------------------------------------------------------
    def _execute_batch(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        verify: bool,
    ) -> BatchResult:
        begin = time.perf_counter()
        batch = self.execute_plan(self.searcher.plan(queries, theta, verify=verify))
        batch.stats.total_seconds = time.perf_counter() - begin
        return batch

    def _planned_searcher(self) -> NearDuplicateSearcher:
        """A searcher that reads through a list cache, reusing the
        caller's when it already searches through one.

        Otherwise the executor owns one cache for its lifetime: uncached
        evaluator, sweep and dedup callers reuse lists across chunks and
        ``execute`` calls, which then find the lists earlier ones
        loaded.  It is rebuilt only when the searcher's reader changed
        (a live searcher moving to a new generation's snapshot).
        """
        index = self.searcher.index
        if isinstance(index, CachedIndexReader):
            return self.searcher
        if self._planned is None or self._planned.index.inner is not index:
            self._planned = NearDuplicateSearcher(
                CachedIndexReader(index, capacity_bytes=CACHE_BYTES),
                long_list_cutoff=self.searcher.long_list_cutoff,
                corpus=self.searcher.corpus,
            )
        return self._planned
