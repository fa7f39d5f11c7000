"""Generation-aware memoization of whole search results.

The memorization evaluation replays heavily repeated queries (the same
training prefixes probed again and again); for those, even a warm list
cache still pays sketching, candidate sweeps, and refinement.  This
tier memoizes the *entire* :class:`~repro.core.search.SearchResult`
keyed by ``(sketch digest, theta, params)`` — the same identity the
batch planner uses for its dedup, including the query tokens when
``verify=True`` (exact-Jaccard verification reads the raw query, so
sketch-identical queries may verify differently).

Correctness on a mutable index comes from **generation gating**: every
lookup compares the backend's current generation (for the LSM live
backend, ``(MANIFEST generation << 32) + memtable texts``) against the
generation the cache was filled under, and a moved generation drops
every entry before answering.  A result computed against generation G
is likewise never stored once the index has moved past G.  Static
indexes have one constant generation, so the gate is free — but the
tier is *disabled by default* for them in
:meth:`~repro.engine.NearDupEngine.cached_searcher`, because the batch
planner's sketch dedup plus list pinning already covers intra-batch
repeats; enable it for serving workloads with heavy cross-request
repetition.

A cache hit returns the memoized :class:`SearchResult` object itself —
its ``stats`` describe the *original* computation (zero new I/O
happened), so aggregate ``BatchStats`` over a result-cache-heavy run
overstate I/O unless read together with the result-cache hit counters.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from repro.exceptions import InvalidParameterError

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
    """LRU of ``digest -> SearchResult``, invalidated by generation.

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
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        self._generation: int | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def digest(
        sketch: np.ndarray,
        theta: float,
        params: tuple,
        query: np.ndarray | None = None,
    ) -> bytes:
        """The cache key: sketch bytes + theta + params (+ query tokens).

        ``query`` must be supplied when the searched parameters make the
        result depend on the raw tokens (``verify=True``).
        """
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(np.ascontiguousarray(sketch).tobytes())
        hasher.update(repr((float(theta), params)).encode())
        if query is not None:
            hasher.update(np.ascontiguousarray(query).tobytes())
        return hasher.digest()

    def _sync_generation_locked(self) -> int:
        generation = int(self._generation_fn())
        if generation != self._generation:
            if self._generation is not None and self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._generation = generation
        return generation

    def lookup(self, key: bytes) -> tuple[object | None, int]:
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

    def store(self, key: bytes, result, generation: int) -> None:
        with self._lock:
            if self._sync_generation_locked() != generation:
                return  # computed against a superseded snapshot
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

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

    def search(self, query: np.ndarray, theta: float, **kwargs):
        query = np.asarray(query, dtype=np.uint32)
        if query.size == 0:
            # Error path (QueryError) belongs to the inner searcher.
            return self.inner.search(query, theta, **kwargs)
        return self._memoized(
            self._key(self.inner.family.sketch(query), query, theta, kwargs),
            lambda: self.inner.search(query, theta, **kwargs),
        )

    def _search_planned(self, entry, theta: float, **kwargs):
        """:meth:`search` for a planned entry, keyed by the plan's sketch."""
        return self._memoized(
            self._key(entry.sketch, entry.query, theta, kwargs),
            lambda: self.inner._search_planned(entry, theta, **kwargs),
        )

    def _memoized(self, key: bytes, compute):
        cached, generation = self.result_cache.lookup(key)
        if cached is not None:
            return cached
        result = compute()
        self.result_cache.store(key, result, generation)
        return result

    @staticmethod
    def _key(
        sketch: np.ndarray, query: np.ndarray, theta: float, kwargs: dict
    ) -> bytes:
        first_match_only = bool(kwargs.get("first_match_only", False))
        verify = bool(kwargs.get("verify", False))
        extra = tuple(
            sorted(
                (name, value)
                for name, value in kwargs.items()
                if name not in ("first_match_only", "verify")
            )
        )
        return ResultCache.digest(
            sketch,
            theta,
            (first_match_only, verify, extra),
            np.asarray(query, dtype=np.uint32) if verify else None,
        )

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachingSearcher({self.inner!r}, {self.result_cache!r})"
