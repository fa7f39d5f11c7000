"""Batch I/O planning: sketch, deduplicate, enumerate shared lists.

Generated text is highly repetitive — many prompts yield byte-identical
continuations, and Zipf skew means different queries still touch the
same head inverted lists.  The planner exploits both *before* any I/O
happens, treating the batch as one unit:

1. sketch the whole batch with one
   :meth:`~repro.core.hashing.HashFamily.sketch_many` call (one
   ``np.unique`` over the batch's tokens, one hash of the distinct
   ones; a ragged batch is grouped by width);
2. deduplicate queries with equal :func:`query_key` (byte-identical
   sketches — the engine sees a query only through its sketch — plus
   the tokens under ``verify``), so each distinct query is searched
   once.  The key is the one definition of query identity: the result
   tier (:mod:`repro.query.resultcache`) memoizes by it too;
3. plan the unique queries with one
   :meth:`~repro.core.search.NearDuplicateSearcher.plan_many` call: one
   ``sketch_list_lengths`` lookup of the ``(U, k)`` sketch matrix and
   one vectorized long/short split, giving one
   :class:`~repro.core.search.PlannedQuery` per unique query, which the
   executor scans as one batch;
4. enumerate the distinct ``(func, minhash)`` short lists the batch
   loads, how many unique queries load each and their sizes (one
   ``np.unique`` over the batch's short-list keys), so the executor can
   pin them, most demanded first, read every miss of the batch at once
   and hand the scan those lists in key order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.search import NearDuplicateSearcher, PlannedQuery
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.inverted import POSTING_BYTES


def _empty_keys() -> np.ndarray:
    return np.empty(0, dtype=np.uint64)


def _empty_counts() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class BatchPlan:
    """The executor's input: unique queries plus shared-list analysis."""

    entries: list[PlannedQuery] = field(default_factory=list)
    #: Original query position -> index into :attr:`entries`.
    assignment: list[int] = field(default_factory=list)
    #: The distinct short lists the batch loads, as sorted
    #: ``func << 32 | minhash`` keys.
    list_keys: np.ndarray = field(default_factory=_empty_keys)
    #: Per distinct short list: the number of unique queries loading it.
    demand: np.ndarray = field(default_factory=_empty_counts)
    #: Per distinct short list: its size in bytes (for pin budgeting).
    list_bytes: np.ndarray = field(default_factory=_empty_counts)
    #: Non-empty list references summed over *all* queries (dupes included).
    lists_referenced: int = 0
    plan_seconds: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.assignment)

    @property
    def num_unique(self) -> int:
        return len(self.entries)


def query_key(sketch: np.ndarray, query: np.ndarray, verify: bool) -> bytes:
    """The identity of a query: its sketch bytes, plus the tokens under
    ``verify``.

    Two queries with one key get one result.  Exact-Jaccard
    verification reads the raw query, so with ``verify=True`` only
    byte-identical queries share a key.
    """
    key = np.ascontiguousarray(sketch).tobytes()
    if verify:
        key += b"|" + np.ascontiguousarray(query).tobytes()
    return key


def plan_batch(
    searcher: NearDuplicateSearcher,
    queries: list[np.ndarray],
    theta: float,
    *,
    verify: bool = False,
    sketches: list[np.ndarray] | None = None,
) -> BatchPlan:
    """Build the batch plan for ``queries`` at threshold ``theta``.

    Queries with equal :func:`query_key` share one planned entry.

    ``sketches`` optionally supplies one precomputed k-mins sketch per
    query (aligned with ``queries``).  The online service sketches each
    request on arrival — while it waits behind the running batch — so
    the coalesced plan skips the sketch pass entirely.
    """
    begin = time.perf_counter()
    if sketches is not None and len(sketches) != len(queries):
        raise InvalidParameterError(
            f"got {len(sketches)} precomputed sketches for {len(queries)} queries"
        )
    queries = [np.asarray(query) for query in queries]
    if any(query.size == 0 for query in queries):
        raise QueryError("query sequence is empty")
    plan = BatchPlan()
    if queries:
        if sketches is None:
            sketches = searcher.family.sketch_many(queries)
        sketches = np.asarray(sketches).reshape(len(queries), searcher.family.k)
        seen: dict[bytes, int] = {}
        unique: list[int] = []
        for position, query in enumerate(queries):
            key = query_key(sketches[position], query, verify)
            slot = seen.setdefault(key, len(seen))
            if slot == len(unique):
                unique.append(position)
            plan.assignment.append(slot)
        plan.entries = searcher.plan_many(
            [queries[position] for position in unique],
            theta,
            sketches=sketches[unique],
        )
        lengths = np.stack([entry.lengths for entry in plan.entries])
        plan.lists_referenced = int(
            np.count_nonzero(lengths, axis=1)[plan.assignment].sum()
        )
        funcs = np.concatenate([entry.short_funcs for entry in plan.entries])
        owners = np.repeat(
            np.arange(len(plan.entries)),
            [entry.short_funcs.size for entry in plan.entries],
        )
        keys = (funcs.astype(np.uint64) << np.uint64(32)) | sketches[
            np.asarray(unique)[owners], funcs
        ].astype(np.uint64)
        plan.list_keys, first, plan.demand = np.unique(
            keys, return_index=True, return_counts=True
        )
        plan.list_bytes = lengths[owners[first], funcs[first]] * POSTING_BYTES
    plan.plan_seconds = time.perf_counter() - begin
    return plan
