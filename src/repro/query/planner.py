"""Batch I/O planning: sketch, deduplicate, enumerate shared lists.

Generated text is highly repetitive — many prompts yield byte-identical
continuations, and Zipf skew means different queries still touch the
same head inverted lists.  The planner exploits both *before* any I/O
happens:

1. compute every query's k-mins sketch up front;
2. deduplicate queries with equal :func:`query_key` (byte-identical
   sketches — the engine sees a query only through its sketch — plus
   the tokens under ``verify``), so each distinct query is searched
   once.  The key is the one definition of query identity: the result
   tier (:mod:`repro.query.resultcache`) memoizes by it too;
3. split each unique query's lists into short and long ones (one
   :class:`~repro.core.search.PlannedQuery` per unique query, which the
   executor runs as is), and enumerate the distinct ``(func, minhash)``
   short lists the batch loads and how many unique queries load each,
   so the executor can pin them, most demanded first, and read every
   miss of the batch at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.search import ListKey, NearDuplicateSearcher, PlannedQuery
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.inverted import POSTING_BYTES


@dataclass
class BatchPlan:
    """The executor's input: unique queries plus shared-list analysis."""

    entries: list[PlannedQuery] = field(default_factory=list)
    #: Original query position -> index into :attr:`entries`.
    assignment: list[int] = field(default_factory=list)
    #: Distinct short-list key -> number of unique queries loading it.
    demand: dict[ListKey, int] = field(default_factory=dict)
    #: Distinct short-list key -> size in bytes (for pin budgeting).
    list_bytes: dict[ListKey, int] = field(default_factory=dict)
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
    family = searcher.family
    if sketches is not None and len(sketches) != len(queries):
        raise InvalidParameterError(
            f"got {len(sketches)} precomputed sketches for {len(queries)} queries"
        )
    plan = BatchPlan()
    seen: dict[bytes, int] = {}
    for position, query in enumerate(queries):
        query = np.asarray(query)
        if query.size == 0:
            raise QueryError("query sequence is empty")
        sketch = (
            sketches[position] if sketches is not None else family.sketch(query)
        )
        key = query_key(sketch, query, verify)
        if key in seen:
            unique_position = seen[key]
            plan.assignment.append(unique_position)
            plan.lists_referenced += int(
                np.count_nonzero(plan.entries[unique_position].lengths)
            )
            continue
        entry = searcher.plan_query(
            query, theta, sketch=sketch, position=len(plan.entries)
        )
        seen[key] = entry.position
        plan.assignment.append(entry.position)
        plan.entries.append(entry)
        plan.lists_referenced += int(np.count_nonzero(entry.lengths))
        lengths = entry.lengths[entry.short_funcs].tolist()
        for list_key, length in zip(entry.short_keys, lengths):
            plan.demand[list_key] = plan.demand.get(list_key, 0) + 1
            plan.list_bytes[list_key] = length * POSTING_BYTES
    plan.plan_seconds = time.perf_counter() - begin
    return plan
