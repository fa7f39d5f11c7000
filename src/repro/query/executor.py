"""Parallel, I/O-shared execution of planned query batches.

Execution strategies (``BatchStats.mode``), chosen from the worker
count and the index type:

``sequential``
    ``workers=0``: exactly today's per-query loop — no planning, no
    dedup, no pinning.  The reference semantics every other mode must
    reproduce byte-for-byte.
``planned``
    ``workers>=1`` whenever ``process`` does not apply: one thread, but
    the batch is sketch-deduplicated and its short lists are
    batch-pinned in a :class:`~repro.index.cache.CachedIndexReader`
    (most demanded first, within :data:`PIN_FRACTION` of its capacity),
    so each distinct list is read once per batch and the batch's misses
    are read in one call.  Each query runs from its planned entry: it is
    sketched and looked up once, by the planner.  An uncached searcher
    gets one such reader per executor, kept warm across
    :meth:`BatchQueryExecutor.execute` calls and chunks.
``process``
    ``workers>=2`` over a :class:`~repro.index.storage.DiskInvertedIndex`
    without ``verify``: workers open the index from its directory once,
    in the pool initializer (mmap-friendly; postings are never
    pickled), own a private cache, and the parent ships each worker the
    planned entries whose dominant lists it should keep hot.  The pool itself is created
    lazily and **reused across** :meth:`BatchQueryExecutor.execute`
    **calls**: repeated batches pay the fork + index open once, and the
    per-worker caches stay warm between batches.  Call
    :meth:`BatchQueryExecutor.close` (or use the executor as a context
    manager) to release the pool.

All modes return matches identical to the sequential loop; batching is
a pure execution strategy.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.search import (
    ListKey,
    NearDuplicateSearcher,
    PlannedQuery,
    SearchResult,
    derive_theta_result,
)
from repro.exceptions import InvalidParameterError
from repro.index.cache import CachedIndexReader
from repro.index.storage import DiskInvertedIndex
from repro.query.planner import BatchPlan, plan_batch
from repro.query.results import BatchResult, BatchStats

#: Per-worker list-cache budget.
CACHE_BYTES = 32 * 1024 * 1024

#: Fraction of the pinned reader's capacity the batch pinner may
#: occupy; the rest stays available to the ordinary LRU so long-tail
#: lists still cache.
PIN_FRACTION = 0.5

# Per-process state of the process-pool path.
_WORKER_SEARCHER: NearDuplicateSearcher | None = None


def _init_query_worker(directory: str, long_list_cutoff: int | None) -> None:
    """Open the on-disk index once per worker process."""
    global _WORKER_SEARCHER
    index = DiskInvertedIndex(directory)
    reader = CachedIndexReader(index, capacity_bytes=CACHE_BYTES)
    _WORKER_SEARCHER = NearDuplicateSearcher(reader, long_list_cutoff=long_list_cutoff)


def _run_shard(
    searcher: NearDuplicateSearcher,
    shard: list[PlannedQuery],
    theta: float,
    first_match_only: bool,
    verify: bool,
    pin_keys: list[ListKey],
) -> dict:
    """Execute one shard of planned queries on one searcher.

    Shared by every non-sequential mode: pin the shard's lists (one
    read for all the misses), answer the queries from their planned
    entries, release the pins this shard took (another batch on the
    same reader keeps its own), and report the shard's I/O/cache
    accounting alongside the results.
    """
    reader = searcher.index
    begin = time.perf_counter()
    io = reader.io_stats
    io_before = (io.bytes_read, io.read_calls, io.seconds)
    cache_before = reader.stats() if isinstance(reader, CachedIndexReader) else None
    held = None
    if isinstance(reader, CachedIndexReader) and pin_keys:
        funcs, minhashes = (np.array(column) for column in zip(*pin_keys))
        held = np.array(reader.pin(funcs, minhashes))
    pinned = 0 if held is None else int(held.sum())
    pin_io = (
        io.bytes_read - io_before[0],
        io.read_calls - io_before[1],
        io.seconds - io_before[2],
    )
    results: list[tuple[int, SearchResult]] = []
    try:
        for entry in shard:
            results.append(
                (
                    entry.position,
                    searcher._search_planned(
                        entry,
                        theta,
                        first_match_only=first_match_only,
                        verify=verify,
                    ),
                )
            )
    finally:
        if held is not None:
            reader.unpin(funcs[held], minhashes[held])
    cache_delta = (0, 0, 0, 0, 0)
    if cache_before is not None:
        cache_after = reader.stats()
        cache_delta = (
            cache_after.hits - cache_before.hits,
            cache_after.misses - cache_before.misses,
            cache_after.evictions - cache_before.evictions,
            cache_after.admission_rejections - cache_before.admission_rejections,
            cache_after.singleflight_waits - cache_before.singleflight_waits,
        )
    return {
        "results": results,
        "busy_seconds": time.perf_counter() - begin,
        "pinned": pinned,
        "pin_io": pin_io,
        "cache": cache_delta,
    }


def _run_process_shard(payload: dict) -> dict:
    """Process-pool entry point: run one shard on the per-process searcher."""
    assert _WORKER_SEARCHER is not None
    return _run_shard(
        _WORKER_SEARCHER,
        payload["entries"],
        payload["theta"],
        payload["first_match_only"],
        False,
        payload["pin_keys"],
    )


class BatchQueryExecutor:
    """Plan and run query batches against one searcher's index.

    Parameters
    ----------
    searcher:
        The configured :class:`~repro.core.search.NearDuplicateSearcher`
        (its ``long_list_cutoff`` and ``corpus`` carry over to workers).
    workers:
        ``0`` = the sequential reference loop; ``>= 2`` = a process
        pool over an on-disk index, otherwise planned single-threaded
        execution.
    batch_size:
        Optional chunking: queries are planned and executed
        ``batch_size`` at a time (bounds sketch/pin memory for very
        large sweeps; dedup then only applies within a chunk).
    """

    def __init__(
        self,
        searcher: NearDuplicateSearcher,
        *,
        workers: int = 0,
        batch_size: int | None = None,
    ) -> None:
        if workers < 0:
            raise InvalidParameterError(f"workers must be >= 0, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1 or None, got {batch_size}"
            )
        self.searcher = searcher
        self.workers = int(workers)
        self.batch_size = batch_size
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple | None = None
        self._planned: NearDuplicateSearcher | None = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent process pool and the planned-mode cache."""
        self._planned = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None

    def __enter__(self) -> "BatchQueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)
            self._pool = None

    # ------------------------------------------------------------------
    def execute(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        first_match_only: bool = False,
        verify: bool = False,
    ) -> BatchResult:
        """Answer every query; results come back in input order."""
        if self.batch_size is not None and len(queries) > self.batch_size:
            combined = BatchResult()
            for start in range(0, len(queries), self.batch_size):
                chunk = self._execute_batch(
                    queries[start : start + self.batch_size],
                    theta,
                    first_match_only=first_match_only,
                    verify=verify,
                )
                combined.results.extend(chunk.results)
                combined.stats.merge(chunk.stats)
            return combined
        return self._execute_batch(
            queries, theta, first_match_only=first_match_only, verify=verify
        )

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
        first_match_only: bool = False,
        verify: bool = False,
    ) -> BatchResult:
        """Run an already-built :class:`~repro.query.planner.BatchPlan`.

        The reusable entry point for pre-sketched queries: callers that
        sketch queries as they arrive (the online service's
        micro-batcher) build the plan themselves via
        :func:`~repro.query.planner.plan_batch` with ``sketches=...``
        and hand it here, skipping the executor's own planning pass.
        Sequential mode is meaningless for a plan (the plan *is* the
        batched strategy), so ``workers=0`` executes as ``planned``.
        """
        begin = time.perf_counter()
        shard_count = 1
        if self._resolve_mode(verify) == "process":
            shard_count = max(min(self.workers, len(plan.entries)), 1)
        shards = plan.shards(shard_count)
        if len(shards) >= 2:
            mode = "process"
            # Each worker pins into its own cache of CACHE_BYTES.
            shard_jobs = [
                (shard, self._pin_keys_for(shard, plan, CACHE_BYTES))
                for shard in shards
            ]
            outcomes = self._run_processes(shard_jobs, theta, first_match_only)
        else:
            mode = "planned"
            searcher = self._planned_searcher()
            outcomes = [
                _run_shard(
                    searcher,
                    shard,
                    theta,
                    first_match_only,
                    verify,
                    self._pin_keys_for(
                        shard, plan, searcher.index.capacity_bytes
                    ),
                )
                for shard in shards
            ]
        batch = self._collect(plan, outcomes, mode)
        # The shards that ran, not the workers asked for: a batch that
        # falls back to ``planned`` ran on one thread.
        batch.stats.workers = max(len(shards), 1)
        batch.stats.total_seconds = time.perf_counter() - begin
        return batch

    # ------------------------------------------------------------------
    def _execute_batch(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        first_match_only: bool,
        verify: bool,
    ) -> BatchResult:
        begin = time.perf_counter()
        mode = self._resolve_mode(verify)
        if mode == "sequential":
            batch = self._execute_sequential(
                queries, theta, first_match_only, verify
            )
            batch.stats.workers = self.workers
        else:
            plan = plan_batch(self.searcher, queries, theta, verify=verify)
            batch = self.execute_plan(
                plan, theta, first_match_only=first_match_only, verify=verify
            )
        batch.stats.total_seconds = time.perf_counter() - begin
        return batch

    def _resolve_mode(self, verify: bool) -> str:
        if self.workers == 0:
            return "sequential"
        if (
            self.workers >= 2
            and isinstance(self._base_index(), DiskInvertedIndex)
            and not verify
        ):
            # Process workers re-open the index by path and have no
            # corpus for exact verification.
            return "process"
        return "planned"

    def _base_index(self):
        index = self.searcher.index
        if isinstance(index, CachedIndexReader):
            return index.inner
        return index

    @staticmethod
    def _pin_keys_for(
        shard: list[PlannedQuery], plan: BatchPlan, capacity_bytes: int
    ) -> list[ListKey]:
        """The short lists this shard should pin: most demanded first,
        within :data:`PIN_FRACTION` of the pinned reader's capacity."""
        budget = int(capacity_bytes * PIN_FRACTION)
        wanted = {key for entry in shard for key in entry.short_keys}
        keys: list[ListKey] = []
        used = 0
        for key in sorted(wanted, key=lambda key: (-plan.demand[key], key)):
            nbytes = plan.list_bytes[key]
            if used + nbytes <= budget:
                keys.append(key)
                used += nbytes
        return keys

    # -- strategy bodies ----------------------------------------------
    def _execute_sequential(
        self,
        queries: list[np.ndarray],
        theta: float,
        first_match_only: bool,
        verify: bool,
    ) -> BatchResult:
        stats = BatchStats(
            queries=len(queries),
            unique_queries=len(queries),
            mode="sequential",
        )
        results = []
        begin = time.perf_counter()
        for query in queries:
            result = self.searcher.search(
                query, theta, first_match_only=first_match_only, verify=verify
            )
            stats.add_query(result.stats)
            results.append(result)
        stats.execute_seconds = time.perf_counter() - begin
        stats.worker_busy_seconds = stats.execute_seconds
        return BatchResult(results=results, stats=stats)

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

    def _run_processes(
        self,
        shard_jobs: list[tuple[list[PlannedQuery], list[ListKey]]],
        theta: float,
        first_match_only: bool,
    ) -> list[dict]:
        base = self._base_index()
        payloads = [
            {
                # The worker's reader is its own: ship no reader along.
                "entries": [
                    dataclasses.replace(entry, source=None) for entry in shard
                ],
                "theta": theta,
                "first_match_only": first_match_only,
                "pin_keys": pin_keys,
            }
            for shard, pin_keys in shard_jobs
        ]
        pool = self._process_pool(base)
        return list(pool.map(_run_process_shard, payloads))

    def _process_pool(self, base: DiskInvertedIndex) -> ProcessPoolExecutor:
        """The persistent worker pool, (re)created only when the index
        directory or searcher configuration changes."""
        initargs = (str(base.directory), self.searcher.long_list_cutoff)
        key = (*initargs, self.workers)
        if self._pool is None or self._pool_key != key:
            self.close()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_query_worker,
                initargs=initargs,
            )
            self._pool_key = key
        return self._pool

    # -- assembly ------------------------------------------------------
    def _collect(
        self, plan: BatchPlan, outcomes: list[dict], mode: str
    ) -> BatchResult:
        stats = BatchStats(
            queries=plan.num_queries,
            unique_queries=plan.num_unique,
            mode=mode,
            lists_referenced=plan.lists_referenced,
            distinct_lists=len(plan.demand),
            plan_seconds=plan.plan_seconds,
        )
        unique_results: list[SearchResult | None] = [None] * plan.num_unique
        execute_wall = 0.0
        for outcome in outcomes:
            for position, result in outcome["results"]:
                unique_results[position] = result
                stats.add_query(result.stats)
            pin_bytes, pin_calls, pin_seconds = outcome["pin_io"]
            stats.io_bytes += pin_bytes
            stats.io_calls += pin_calls
            stats.io_seconds += pin_seconds
            stats.lists_pinned += outcome["pinned"]
            hits, misses, evictions, rejections, sf_waits = outcome["cache"]
            stats.cache_hits += hits
            stats.cache_misses += misses
            stats.cache_evictions += evictions
            stats.cache_admission_rejections += rejections
            stats.cache_singleflight_waits += sf_waits
            stats.worker_busy_seconds += outcome["busy_seconds"]
            execute_wall = max(execute_wall, outcome["busy_seconds"])
        stats.execute_seconds = execute_wall
        results = [unique_results[index] for index in plan.assignment]
        if any(result is None for result in results):  # pragma: no cover
            raise RuntimeError("batch execution lost a query result")
        return BatchResult(results=results, stats=stats)
