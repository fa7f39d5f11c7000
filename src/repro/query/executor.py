"""I/O-shared execution of planned query batches.

One strategy, on the calling thread, with the batch as the unit:

1. :meth:`~repro.core.search.NearDuplicateSearcher.plan` sketches,
   deduplicates and plans the whole batch at once, into one
   :class:`~repro.core.search.BatchPlan` that carries its threshold and
   ``verify``;
2. :func:`shared_lists` enumerates the distinct ``(func, minhash)``
   short lists the plan loads, how many unique queries load each and
   their sizes (one ``np.unique`` over the plan's short-list keys), and
   they are batch-pinned in a :class:`~repro.index.cache.CachedIndexReader`
   (most demanded first, within :data:`PIN_FRACTION` of its capacity),
   so each distinct list is read once per batch and the batch's misses
   are read in one call;
3. the lists ``pin`` hands back are laid end to end in key order, and
   the searcher scans every unique query of the plan at once
   (:meth:`~repro.core.search.NearDuplicateSearcher._search_batch`):
   one prune over ``(query, text)`` run counts, one gather of the
   surviving rows, one kernel pass at each query's reduced threshold
   and one refinement pass for the queries with long lists.  Lists
   outside the pin budget are read with one ``load_list``; a plan a
   moved live index built against an older generation is planned again.

Every ``(query, list)`` read served by the pin counts as a cache hit,
as the per-query ``load_list`` it replaces would.  An uncached searcher
gets one such reader per executor, kept warm across
:meth:`BatchQueryExecutor.execute` calls and chunks until
:meth:`BatchQueryExecutor.close`.

Matches are identical to calling
:meth:`~repro.core.search.NearDuplicateSearcher.search` per query;
batching is a pure execution strategy.  A per-query loop and a process
pool were measured against this path and deleted (``docs/TUNING.md``,
"Batch querying").
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.core.search import (
    BatchPlan,
    NearDuplicateSearcher,
    SearchResult,
    derive_theta_result,
)
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader
from repro.index.inverted import POSTING_BYTES, concat_postings
from repro.query.results import BatchResult, BatchStats

#: Capacity of the cache the executor owns for an uncached searcher.
CACHE_BYTES = 32 * 1024 * 1024

#: Fraction of the pinned reader's capacity the batch pinner may
#: occupy; the rest stays available to the ordinary LRU so long-tail
#: lists still cache.
PIN_FRACTION = 0.5


class SharedLists(NamedTuple):
    """The distinct short lists a plan loads."""

    #: Sorted ``func << 32 | minhash`` keys.
    keys: np.ndarray
    #: Per list: the number of unique queries loading it.
    demand: np.ndarray
    #: Per list: its size in bytes (for pin budgeting).
    nbytes: np.ndarray
    #: Non-empty list references summed over *all* queries (dupes included).
    referenced: int


def shared_lists(plan: BatchPlan) -> SharedLists:
    """What ``plan``'s queries share: one ``np.unique`` over the keys of
    its ``(query, short list)`` pairs."""
    owner, funcs = plan.short.nonzero()
    keys = (funcs.astype(np.uint64) << np.uint64(32)) | plan.sketches[
        owner, funcs
    ].astype(np.uint64)
    keys, first, demand = np.unique(keys, return_index=True, return_counts=True)
    return SharedLists(
        keys,
        demand,
        plan.lengths[owner[first], funcs[first]] * POSTING_BYTES,
        int(np.count_nonzero(plan.lengths, axis=1)[plan.assignment].sum()),
    )


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

    def execute_plan(self, plan: BatchPlan) -> BatchResult:
        """Run an already-built :class:`~repro.core.search.BatchPlan` at
        the threshold and ``verify`` it was planned for.

        The reusable entry point for pre-sketched queries: callers that
        sketch queries as they arrive (the online service's
        micro-batcher) build the plan themselves via
        :meth:`~repro.core.search.NearDuplicateSearcher.plan` with
        ``sketches=...`` and hand it here, skipping the executor's own
        planning pass.

        Finds the plan's :func:`shared_lists` (timed as planning), pins
        them (one read for all the misses), scans the unique queries as
        one batch over what the pin handed back, then releases the pins
        this call took (another batch on the same reader keeps its own).
        """
        begin = time.perf_counter()
        lists = shared_lists(plan)
        analysed = time.perf_counter()
        searcher = self._planned_searcher()
        reader = searcher.index
        stats = BatchStats(
            queries=plan.num_queries,
            unique_queries=plan.num_unique,
            lists_referenced=lists.referenced,
            distinct_lists=int(lists.keys.size),
            plan_seconds=plan.plan_seconds + analysed - begin,
        )
        io = reader.io_stats
        io_before = (io.bytes_read, io.read_calls, io.seconds)
        cache_before = reader.stats()
        keys = self._pin_keys(lists, reader.capacity_bytes)
        funcs = (keys >> np.uint64(32)).astype(np.int64)
        minhashes = (keys & np.uint64(0xFFFFFFFF)).astype(np.int64)
        held_lists = reader.pin(funcs, minhashes) if keys.size else []
        held = np.array([postings is not None for postings in held_lists], dtype=bool)
        stats.lists_pinned = int(held.sum())
        stats.io_bytes = io.bytes_read - io_before[0]
        stats.io_calls = io.read_calls - io_before[1]
        stats.io_seconds = io.seconds - io_before[2]
        try:
            order = held.nonzero()[0][keys[held].argsort()]  # the held lists, by key
            held_lists = [held_lists[slot] for slot in order.tolist()]
            sizes = np.array([postings.size for postings in held_lists], dtype=np.int64)
            pinned = (keys[order], concat_postings(held_lists), sizes)
            unique_results = searcher._search_batch(plan, pinned=pinned)
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
        end = time.perf_counter()
        stats.execute_seconds, stats.total_seconds = end - analysed, end - begin
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

    @staticmethod
    def _pin_keys(lists: SharedLists, capacity_bytes: int) -> np.ndarray:
        """The ``func << 32 | minhash`` keys of the short lists to pin:
        most demanded first (ties by key), greedily within
        :data:`PIN_FRACTION` of the pinned reader's capacity."""
        budget = int(capacity_bytes * PIN_FRACTION)
        order = np.lexsort((lists.keys, -lists.demand))
        sizes = lists.nbytes[order]
        if sizes.sum() > budget:
            chosen = []
            used = 0
            for position, nbytes in enumerate(sizes.tolist()):
                if used + nbytes <= budget:
                    chosen.append(position)
                    used += nbytes
            order = order[chosen]
        return lists.keys[order]

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
