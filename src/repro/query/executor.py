"""I/O-shared execution of planned query batches.

One strategy, on the calling thread: the batch is sketch-deduplicated
by :func:`~repro.query.planner.plan_batch`, its short lists are
batch-pinned in a :class:`~repro.index.cache.CachedIndexReader` (most
demanded first, within :data:`PIN_FRACTION` of its capacity), so each
distinct list is read once per batch and the batch's misses are read
in one call.  Each query runs from its planned entry: it is sketched
and looked up once, by the planner.  An uncached searcher gets one such
reader per executor, kept warm across :meth:`BatchQueryExecutor.execute`
calls and chunks until :meth:`BatchQueryExecutor.close`.

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
    NearDuplicateSearcher,
    SearchResult,
    derive_theta_result,
)
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader
from repro.query.planner import BatchPlan, plan_batch
from repro.query.results import BatchResult, BatchStats

#: Capacity of the cache the executor owns for an uncached searcher.
CACHE_BYTES = 32 * 1024 * 1024

#: Fraction of the pinned reader's capacity the batch pinner may
#: occupy; the rest stays available to the ordinary LRU so long-tail
#: lists still cache.
PIN_FRACTION = 0.5


class BatchQueryExecutor:
    """Plan and run query batches against one searcher's index.

    Parameters
    ----------
    searcher:
        The configured :class:`~repro.core.search.NearDuplicateSearcher`,
        or a wrapper that delegates ``plan_query`` and
        ``_search_planned`` to one (a live or result-caching searcher).
    batch_size:
        Optional chunking: queries are planned and executed
        ``batch_size`` at a time (bounds sketch/pin memory for very
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

    def execute_plan(
        self,
        plan: BatchPlan,
        theta: float,
        *,
        verify: bool = False,
    ) -> BatchResult:
        """Run an already-built :class:`~repro.query.planner.BatchPlan`.

        The reusable entry point for pre-sketched queries: callers that
        sketch queries as they arrive (the online service's
        micro-batcher) build the plan themselves via
        :func:`~repro.query.planner.plan_batch` with ``sketches=...``
        and hand it here, skipping the executor's own planning pass.

        Pins the batch's short lists (one read for all the misses),
        answers the unique queries from their planned entries, then
        releases the pins this call took (another batch on the same
        reader keeps its own).
        """
        begin = time.perf_counter()
        searcher = self._planned_searcher()
        reader = searcher.index
        stats = BatchStats(
            queries=plan.num_queries,
            unique_queries=plan.num_unique,
            lists_referenced=plan.lists_referenced,
            distinct_lists=len(plan.demand),
            plan_seconds=plan.plan_seconds,
        )
        io = reader.io_stats
        io_before = (io.bytes_read, io.read_calls, io.seconds)
        cache_before = reader.stats()
        funcs, minhashes = self._pin_keys(plan, reader.capacity_bytes)
        held = np.array(
            reader.pin(funcs, minhashes) if funcs.size else [], dtype=bool
        )
        stats.lists_pinned = int(held.sum())
        stats.io_bytes = io.bytes_read - io_before[0]
        stats.io_calls = io.read_calls - io_before[1]
        stats.io_seconds = io.seconds - io_before[2]
        try:
            unique_results = [
                searcher._search_planned(entry, theta, verify=verify)
                for entry in plan.entries
            ]
        finally:
            if held.any():
                reader.unpin(funcs[held], minhashes[held])
        for result in unique_results:
            stats.add_query(result.stats)
        cache_after = reader.stats()
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
        plan = plan_batch(self.searcher, queries, theta, verify=verify)
        batch = self.execute_plan(plan, theta, verify=verify)
        batch.stats.total_seconds = time.perf_counter() - begin
        return batch

    @staticmethod
    def _pin_keys(
        plan: BatchPlan, capacity_bytes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(funcs, minhashes)`` of the short lists to pin: most
        demanded first, within :data:`PIN_FRACTION` of the pinned
        reader's capacity."""
        budget = int(capacity_bytes * PIN_FRACTION)
        keys = []
        used = 0
        for key in sorted(plan.demand, key=lambda key: (-plan.demand[key], key)):
            nbytes = plan.list_bytes[key]
            if used + nbytes <= budget:
                keys.append(key)
                used += nbytes
        funcs, minhashes = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        return funcs, minhashes

    def _planned_searcher(self) -> NearDuplicateSearcher:
        """A searcher whose reader supports pinning, reusing an existing
        cache when the caller already searches through one.

        Otherwise the executor owns one cache for its lifetime, so
        later chunks and ``execute`` calls find the lists earlier ones
        loaded; it is rebuilt only when the searcher's reader changed
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
