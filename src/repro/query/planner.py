"""Batch I/O planning: sketch, deduplicate, enumerate shared lists.

Generated text is highly repetitive — many prompts yield byte-identical
continuations, and Zipf skew means different queries still touch the
same head inverted lists.  The planner exploits both *before* any I/O
happens:

1. compute every query's k-mins sketch up front;
2. deduplicate queries whose sketches are byte-identical (their search
   results are necessarily identical — the engine sees a query only
   through its sketch), so each distinct sketch is searched once;
3. enumerate the distinct ``(func, minhash)`` inverted lists the batch
   touches and how many unique queries reference each, so the executor
   can pin shared lists once instead of re-reading them per query;
4. tag each query with its *dominant* (longest) list so the executor
   can shard queries by hot-list locality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.search import NearDuplicateSearcher
from repro.core.theory import collision_threshold
from repro.exceptions import InvalidParameterError, QueryError
from repro.index.inverted import POSTING_BYTES

#: A list key: (hash function, min-hash value).
ListKey = tuple[int, int]


@dataclass(frozen=True)
class PlannedQuery:
    """One unique query of a batch, with its precomputed probe set."""

    position: int
    query: np.ndarray
    sketch: np.ndarray
    lengths: np.ndarray
    beta: int
    long_funcs: frozenset[int]

    @property
    def short_keys(self) -> list[ListKey]:
        """The lists the search will fully load (non-empty short lists)."""
        return [
            (func, int(self.sketch[func]))
            for func in range(self.sketch.size)
            if func not in self.long_funcs and self.lengths[func] > 0
        ]

    @property
    def referenced_keys(self) -> list[ListKey]:
        """Every non-empty list the query touches (short and long)."""
        return [
            (func, int(self.sketch[func]))
            for func in range(self.sketch.size)
            if self.lengths[func] > 0
        ]

    @property
    def dominant_key(self) -> ListKey | None:
        """The query's longest list — the shard-locality key."""
        if not self.lengths.size or int(self.lengths.max()) == 0:
            return None
        func = int(self.lengths.argmax())
        return (func, int(self.sketch[func]))


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

    def shared_keys(self) -> list[ListKey]:
        """Short-list keys wanted by more than one unique query, most
        demanded first (the pinning priority order)."""
        shared = [key for key, count in self.demand.items() if count > 1]
        shared.sort(key=lambda key: (-self.demand[key], key))
        return shared

    def shards(self, num_shards: int) -> list[list[PlannedQuery]]:
        """Partition unique queries into shards by dominant-list locality.

        Queries sharing their dominant (longest, usually Zipf-head) list
        are kept in one shard so that list is loaded by a single worker;
        groups are placed greedily on the least-loaded shard (LPT), which
        balances shard sizes when one hot list dominates the batch.
        """
        if num_shards <= 1:
            return [list(self.entries)] if self.entries else []
        groups: dict[object, list[PlannedQuery]] = {}
        for entry in self.entries:
            # Queries with no dominant list get their own singleton groups.
            key = entry.dominant_key
            group_key = key if key is not None else ("solo", entry.position)
            groups.setdefault(group_key, []).append(entry)
        loads = [0] * num_shards
        shards: list[list[PlannedQuery]] = [[] for _ in range(num_shards)]
        for group in sorted(groups.values(), key=len, reverse=True):
            target = loads.index(min(loads))
            shards[target].extend(group)
            loads[target] += len(group)
        return [shard for shard in shards if shard]


def plan_batch(
    searcher: NearDuplicateSearcher,
    queries: list[np.ndarray],
    theta: float,
    *,
    dedup: bool = True,
    verify: bool = False,
    sketches: list[np.ndarray] | None = None,
) -> BatchPlan:
    """Build the batch plan for ``queries`` at threshold ``theta``.

    With ``verify=True`` the dedup key includes the query tokens, not
    just the sketch: exact-Jaccard verification reads the raw query, so
    only byte-identical queries may share a result.

    ``sketches`` optionally supplies one precomputed k-mins sketch per
    query (aligned with ``queries``).  The online service sketches each
    request on arrival — while it waits behind the running batch — so
    the coalesced plan skips the sketch pass entirely.
    """
    begin = time.perf_counter()
    family = searcher.family
    beta = collision_threshold(family.k, theta)
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
        key = sketch.tobytes()
        if verify:
            key += b"|" + np.ascontiguousarray(query).tobytes()
        if dedup and key in seen:
            unique_position = seen[key]
            plan.assignment.append(unique_position)
            plan.lists_referenced += len(
                plan.entries[unique_position].referenced_keys
            )
            continue
        lengths = searcher.index.sketch_list_lengths(sketch)
        long_funcs = frozenset(searcher._select_long_lists(lengths, beta))
        entry = PlannedQuery(
            position=len(plan.entries),
            query=query,
            sketch=sketch,
            lengths=lengths,
            beta=beta,
            long_funcs=long_funcs,
        )
        if dedup:
            seen[key] = entry.position
        plan.assignment.append(entry.position)
        plan.entries.append(entry)
        plan.lists_referenced += len(entry.referenced_keys)
        for list_key in entry.short_keys:
            plan.demand[list_key] = plan.demand.get(list_key, 0) + 1
            if list_key not in plan.list_bytes:
                func, minhash = list_key
                plan.list_bytes[list_key] = (
                    int(lengths[func]) * POSTING_BYTES
                )
    plan.plan_seconds = time.perf_counter() - begin
    return plan
