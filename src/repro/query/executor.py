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
   built against an older generation is planned again;
3. the scan's one :class:`~repro.core.search.BatchAnswer` cuts a result
   per unique query at each threshold asked for, and its counter
   columns sum into the batch's stats.

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
from collections.abc import Iterator

import numpy as np

from repro.core.search import (
    BatchAnswer,
    BatchPlan,
    NearDuplicateSearcher,
    SearchResult,
)
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader
from repro.query.results import BatchResult, BatchStats

#: Capacity of the cache the executor owns for an uncached searcher.
CACHE_BYTES = 32 * 1024 * 1024

#: The cache counters a batch reports, each as its ``cache_*`` delta.
CACHE_COUNTERS = ("hits", "misses", "evictions", "admission_rejections")
CACHE_COUNTERS += ("singleflight_waits",)


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
        batch = BatchResult()
        for plan, answer, stats in self._answers(queries, theta, verify):
            unique = answer.results()
            batch.results.extend(unique[row] for row in plan.assignment)
            batch.stats.merge(stats)
        return batch

    def execute_thetas(
        self,
        queries: list[np.ndarray],
        thetas: list[float],
    ) -> tuple[list[dict[float, SearchResult]], BatchStats]:
        """Batch variant of :meth:`NearDuplicateSearcher.search_thetas`.

        One batched pass at the loosest threshold answers every theta;
        returns one ``{theta: SearchResult}`` dict per query, in order.
        """
        if not thetas:
            raise InvalidParameterError("at least one theta is required")
        per_query, total = [], BatchStats()
        for plan, answer, stats in self._answers(queries, min(thetas), False):
            by_theta = {theta: answer.results(theta) for theta in thetas}
            per_query.extend(
                {theta: by_theta[theta][row] for theta in thetas}
                for row in plan.assignment
            )
            total.merge(stats)
        return per_query, total

    def execute_plan(self, plan: BatchPlan) -> BatchResult:
        """Run an already-built :class:`~repro.core.search.BatchPlan` at
        the threshold and ``verify`` it was planned for.

        The reusable entry point for pre-sketched queries: callers that
        sketch queries as they arrive (the online service's
        micro-batcher) build the plan themselves via
        :meth:`~repro.core.search.NearDuplicateSearcher.plan` with
        ``sketches=...`` and hand it here, skipping the executor's own
        planning pass.
        """
        answer, stats = self._scan(plan)
        unique = answer.results()
        return BatchResult([unique[row] for row in plan.assignment], stats)

    # ------------------------------------------------------------------
    def _answers(
        self, queries: list[np.ndarray], theta: float, verify: bool
    ) -> Iterator[tuple[BatchPlan, BatchAnswer, BatchStats]]:
        """Plan and scan ``queries``, ``batch_size`` at a time."""
        step = self.batch_size or len(queries) or 1
        for start in range(0, len(queries) or 1, step):
            begin = time.perf_counter()
            plan = self.searcher.plan(queries[start : start + step], theta, verify=verify)
            answer, stats = self._scan(plan)
            stats.total_seconds = time.perf_counter() - begin
            yield plan, answer, stats

    def _scan(self, plan: BatchPlan) -> tuple[BatchAnswer, BatchStats]:
        """One ``_search_batch`` over the unique queries, and the batch's
        stats with the cache's counter deltas."""
        begin = time.perf_counter()
        searcher = self._planned_searcher()
        cache_before = searcher.index.stats()
        answer = searcher._search_batch(plan)
        cache_after = searcher.index.stats()
        stats = BatchStats.from_answer(
            answer,
            queries=plan.num_queries,
            unique_queries=plan.num_unique,
            lists_referenced=int(
                np.count_nonzero(plan.lengths, axis=1)[plan.assignment].sum()
            ),
            distinct_lists=int(plan.short_lists[1].size),
            plan_seconds=plan.plan_seconds,
            **{
                f"cache_{name}": getattr(cache_after, name) - getattr(cache_before, name)
                for name in CACHE_COUNTERS
            },
        )
        stats.execute_seconds = stats.total_seconds = time.perf_counter() - begin
        return answer, stats

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
