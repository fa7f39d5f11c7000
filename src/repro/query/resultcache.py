"""Generation-aware memoization of whole search results.

The memorization evaluation replays heavily repeated queries (the same
training prefixes probed again and again); for those, even a warm list
cache still pays sketching, candidate sweeps, and refinement.  This
tier memoizes the *entire* :class:`~repro.core.search.SearchResult`
keyed by ``(query_key, theta, verify)``, where
:func:`~repro.query.planner.query_key` is the one definition of query
identity, the same key the batch planner dedups by.

Correctness on a mutable index comes from **generation gating**: every
lookup compares the backend's current generation (for the LSM live
backend, ``(MANIFEST generation << 32) + memtable texts``) against the
generation the cache was filled under, and a moved generation drops
every entry before answering.  A result computed against generation G
is likewise never stored once the index has moved past G.
:meth:`~repro.engine.NearDupEngine.cached_searcher` puts this tier on
live searchers only; a static searcher relies on the batch planner's
dedup plus list pinning for repeats.

A hit does no search work, and its result says so: its ``stats`` are
all zero except ``texts_matched``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.core.search import QueryStats
from repro.exceptions import InvalidParameterError
from repro.query.planner import query_key

#: Default number of memoized results.
DEFAULT_RESULT_ENTRIES = 1024


@dataclass(frozen=True)
class ResultCacheStats:
    """Snapshot of the result tier's counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    entries: int
    capacity_entries: int
    generation: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (the service's ``/stats`` result-cache block)."""
        return {**asdict(self), "hit_rate": self.hit_rate}


class ResultCache:
    """LRU of ``key -> SearchResult``, invalidated by generation.

    ``generation_fn`` names the backend's commit point (the LSM
    manifest generation plus memtable growth for the live backend, a
    constant for static indexes); whenever it moves, the whole cache is
    dropped — entry-level tracking would save nothing, since any
    ingest may extend any list.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_RESULT_ENTRIES,
        *,
        generation_fn=None,
    ) -> None:
        if max_entries <= 0:
            raise InvalidParameterError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._generation_fn = generation_fn or (lambda: 0)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._generation: int | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _sync_generation_locked(self) -> int:
        generation = int(self._generation_fn())
        if generation != self._generation:
            if self._generation is not None and self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._generation = generation
        return generation

    def lookup(self, key: Hashable) -> tuple[object | None, int]:
        """Return ``(result-or-None, generation token)`` for ``key``.

        The token pins the generation the caller computes under; pass
        it back to :meth:`store` so a result computed against a stale
        snapshot is never memoized as current.
        """
        with self._lock:
            generation = self._sync_generation_locked()
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return result, generation

    def store(self, key: Hashable, result, generation: int) -> None:
        with self._lock:
            if self._sync_generation_locked() != generation:
                return  # computed against a superseded snapshot
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> ResultCacheStats:
        with self._lock:
            return ResultCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                entries=len(self._entries),
                capacity_entries=self.max_entries,
                generation=int(self._generation or 0),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"ResultCache(entries={stats.entries}/{stats.capacity_entries}, "
            f"hit_rate={stats.hit_rate:.2f}, gen={stats.generation})"
        )


class CachingSearcher:
    """Drop-in searcher wrapper that memoizes :meth:`search`.

    Wraps any searcher (:class:`~repro.core.search.NearDuplicateSearcher`
    or a live searcher) and answers repeated ``search`` calls from a
    :class:`ResultCache`; every other attribute delegates to the inner
    searcher, so the batch planner, executor, and micro-batcher treat
    it exactly like the searcher it wraps.
    """

    def __init__(
        self,
        inner,
        *,
        max_entries: int = DEFAULT_RESULT_ENTRIES,
        generation_fn=None,
    ) -> None:
        self.inner = inner
        self.result_cache = ResultCache(max_entries, generation_fn=generation_fn)

    def search(
        self,
        query: np.ndarray,
        theta: float,
        *,
        verify: bool = False,
    ):
        """The inner searcher's ``search``, answered from the memo on a repeat."""
        query = np.asarray(query, dtype=np.uint32)
        if query.size == 0:
            # Error path (QueryError) belongs to the inner searcher.
            return self.inner.search(query, theta, verify=verify)
        return self._memoized(
            self._key(self.inner.family.sketch(query), query, theta, verify),
            lambda: self.inner.search(query, theta, verify=verify),
        )

    def _search_planned(
        self,
        entry,
        theta: float,
        *,
        verify: bool = False,
    ):
        """:meth:`search` for a planned entry, keyed by the plan's sketch."""
        return self._memoized(
            self._key(entry.sketch, entry.query, theta, verify),
            lambda: self.inner._search_planned(entry, theta, verify=verify),
        )

    def _memoized(self, key: tuple, compute):
        cached, generation = self.result_cache.lookup(key)
        if cached is not None:
            # No search ran: report no work, only the answer's size.
            return replace(
                cached, stats=QueryStats(texts_matched=cached.stats.texts_matched)
            )
        result = compute()
        self.result_cache.store(key, result, generation)
        return result

    @staticmethod
    def _key(
        sketch: np.ndarray,
        query: np.ndarray,
        theta: float,
        verify: bool,
    ) -> tuple:
        verify = bool(verify)
        return (
            query_key(sketch, np.asarray(query, dtype=np.uint32), verify),
            float(theta),
            verify,
        )

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachingSearcher({self.inner!r}, {self.result_cache!r})"
