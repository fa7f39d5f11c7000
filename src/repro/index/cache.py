"""LRU caching of inverted lists across queries.

The paper's evaluation measures cold-cache query latency, but a
deployed memorization evaluation (Section 5) issues *many* queries
against the same index — and Zipf skew means the same long lists are
touched over and over.  This wrapper adds a bounded list cache in front
of any :class:`~repro.index.inverted.InvertedIndexReader`, eliminating
repeat I/O for the hot lists while preserving the reader interface
(including I/O accounting: cache hits cost zero bytes).

Residency is plain least-recently-used over a byte budget: every
admission evicts from the cold end until the new list fits.

Cold misses are **single-flight**: the lock is *not* held across the
inner read, and concurrent misses for the same key coalesce onto one
loader through a per-key in-flight future — N threads asking for the
same cold list cost one inner read, and misses for *different* keys
overlap their I/O instead of serializing behind one lock.  A vector
``load_list`` call (arrays of keys) keeps that bookkeeping per key but
reads all of its own misses with one inner vector call; a list is
copied out of that read only when it is admitted.

A query batch reads each of its distinct lists once, with one vector
``load_list`` (:meth:`~repro.core.search.NearDuplicateSearcher._search_batch`):
one hit per resident list, one miss per cold one.  It asks for its
most-shared lists last, so they are the last admitted and the last
evicted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.index.inverted import (
    IOStats, POSTING_BYTES, as_pairs, concat_postings, extract_texts
)


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters (feeds ``BatchStats``)."""

    hits: int
    misses: int
    evictions: int
    cached_bytes: int
    capacity_bytes: int
    cached_lists: int = 0
    admission_rejections: int = 0
    singleflight_waits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (the service's ``/stats`` cache block)."""
        return {**asdict(self), "hit_rate": self.hit_rate}


#: The cumulative counters of a :class:`CachedIndexReader`.
_COUNTERS = ("hits", "misses", "evictions", "admission_rejections", "singleflight_waits")


class _Flight:
    """One in-flight cold load; waiters block on the event."""

    __slots__ = ("event", "postings", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.postings: np.ndarray | None = None
        self.error: BaseException | None = None


class CachedIndexReader:
    """Byte-budgeted LRU list cache over an inverted-index reader.

    Parameters
    ----------
    inner:
        The wrapped reader (memory or disk).
    capacity_bytes:
        Cache budget.  A cached list is charged 16 bytes per posting;
        single lists larger than the whole budget bypass the cache.

    Only full-list reads are cached here; point reads
    (:meth:`load_texts_windows`) are served from a cached full list when
    one is resident and otherwise fall through to the inner reader.

    The reader is thread-safe: one instance may be shared by the online
    service's worker pool.  A single lock guards the residency metadata;
    cache hits only pay a dict lookup under the lock, and cold misses
    release it around the inner read (single-flight per key, parallel
    across keys).
    """

    def __init__(self, inner, capacity_bytes: int = 32 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise InvalidParameterError("capacity_bytes must be positive")
        self.inner = inner
        self.family = inner.family
        self.t = inner.t
        self.io_stats: IOStats = inner.io_stats
        self._capacity = int(capacity_bytes)
        # Resident lists, coldest first.
        self._lists: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._used_bytes = 0
        self._inflight: dict[tuple[int, int], _Flight] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.admission_rejections = 0
        self.singleflight_waits = 0

    # -- reader protocol ------------------------------------------------
    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Whole lists through the cache; a call's misses share one inner read."""
        loaded = self._fetch(_keys(func, minhash))
        return _batch(loaded) if np.ndim(func) else loaded[0]

    def _fetch(self, keys: list[tuple[int, int]]) -> list[np.ndarray]:
        """Every key's postings: residents first, misses in one inner read.

        Keys are walked in argument order and bookkept one by one: a
        resident key is a hit, a key another thread is loading waits on
        that flight, and every other key becomes this call's flight (a
        miss).  All of this call's misses
        are read with one inner vector call *outside* the lock, then
        admitted in argument order; only then does the call wait on
        other threads' flights, so two callers waiting on each other's
        keys cannot deadlock.  A repeated key is read once and served
        to its later positions as a hit.  If the inner read raises,
        every flight it owned is released and its waiters retry.
        """
        out: list[np.ndarray | None] = [None] * len(keys)
        owned: dict[tuple[int, int], _Flight] = {}
        waits: list[tuple[int, _Flight]] = []
        repeats: list[int] = []
        with self._lock:
            for position, key in enumerate(keys):
                cached = self._lists.get(key)
                if cached is not None:
                    self._lists.move_to_end(key)
                    self.hits += 1
                    out[position] = cached
                elif key in owned:
                    repeats.append(position)
                elif (flight := self._inflight.get(key)) is not None:
                    waits.append((position, flight))
                else:
                    owned[key] = self._inflight[key] = _Flight()
                    self.misses += 1
        if owned:
            self._load_owned(owned)
            for position, key in enumerate(keys):
                if key in owned:
                    out[position] = owned[key].postings
            if repeats:
                with self._lock:
                    self.hits += len(repeats)
        retry: list[int] = []
        for position, flight in waits:
            # Another thread is loading this key: wait on its flight
            # instead of issuing a duplicate inner read.
            flight.event.wait()
            if flight.error is not None or flight.postings is None:
                retry.append(position)  # the loader failed
                continue
            with self._lock:
                self.singleflight_waits += 1
                self.hits += 1
            out[position] = flight.postings
        if retry:
            # Become the loader ourselves.
            for position, postings in zip(
                retry, self._fetch([keys[p] for p in retry])
            ):
                out[position] = postings
        return out

    def _load_owned(self, owned: dict[tuple[int, int], _Flight]) -> None:
        """Loader half of single-flight: one inner read *outside* the lock."""
        funcs = np.array([key[0] for key in owned], dtype=np.int64)
        minhashes = np.array([key[1] for key in owned], dtype=np.int64)
        try:
            postings, sizes = self.inner.load_list(funcs, minhashes)
        except BaseException as exc:
            with self._lock:
                for key, flight in owned.items():
                    flight.error = exc
                    self._inflight.pop(key, None)
            for flight in owned.values():
                flight.event.set()
            raise
        loaded = np.split(postings, np.cumsum(sizes)[:-1])
        with self._lock:
            for (key, flight), postings in zip(owned.items(), loaded):
                self._admit(key, postings)
                flight.postings = self._lists.get(key, postings)
                self._inflight.pop(key, None)
        for flight in owned.values():
            flight.event.set()

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        """The inner reader's lengths: caching a list does not change its
        length, and the inner directory answers all ``k`` in one pass."""
        return self.inner.sketch_list_lengths(sketch)

    def load_texts_windows(
        self, func: int | np.ndarray, minhash: int | np.ndarray, text_ids: np.ndarray
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Batched point read, served from cached full lists when hot.

        The vector form forwards every pair whose list is not resident
        to the inner reader in one call.
        """
        if not np.ndim(func):
            return self.load_texts_windows([func], [minhash], text_ids)[0]
        keys = _keys(func, minhash)
        text_ids = np.unique(np.asarray(text_ids))
        out: list[np.ndarray | None] = [None] * len(keys)
        missing: list[int] = []
        with self._lock:
            for position, key in enumerate(keys):
                cached = self._lists.get(key)
                if cached is None:
                    self.misses += 1
                    missing.append(position)
                    continue
                self._lists.move_to_end(key)
                self.hits += 1
                out[position] = cached
        for position, cached in enumerate(out):
            if cached is not None:
                out[position] = extract_texts(cached, text_ids)
        if missing:
            postings, sizes = self.inner.load_texts_windows(
                np.array([keys[p][0] for p in missing], dtype=np.int64),
                np.array([keys[p][1] for p in missing], dtype=np.int64),
                text_ids,
            )
            for position, part in zip(
                missing, np.split(postings, np.cumsum(sizes)[:-1])
            ):
                out[position] = part
        return _batch(out)

    # -- cache management ------------------------------------------------
    def _admit(self, key: tuple[int, int], postings: np.ndarray) -> None:
        """Make ``key`` resident, evicting the coldest lists to fit.

        A list larger than the whole budget is rejected (counted in
        ``admission_rejections``).  Callers hold ``self._lock``.
        """
        if key in self._lists:
            self._lists.move_to_end(key)
            return
        nbytes = int(postings.size) * POSTING_BYTES
        if nbytes > self._capacity:
            self.admission_rejections += 1
            return
        while self._used_bytes + nbytes > self._capacity:
            _, victim = self._lists.popitem(last=False)
            self._used_bytes -= int(victim.size) * POSTING_BYTES
            self.evictions += 1
        # Own bytes, not a view of the read; copied as uint32, not records.
        self._lists[key] = postings.view(np.uint32).copy().view(postings.dtype)
        self._used_bytes += nbytes

    @property
    def cached_bytes(self) -> int:
        return self._used_bytes

    @property
    def capacity_bytes(self) -> int:
        """The byte budget this cache was built with."""
        return self._capacity

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                cached_bytes=self._used_bytes,
                capacity_bytes=self._capacity,
                cached_lists=len(self._lists),
                admission_rejections=self.admission_rejections,
                singleflight_waits=self.singleflight_waits,
            )

    def carry_counters(self, previous: "CachedIndexReader") -> None:
        """Continue ``previous``'s hit/miss/eviction history in this cache."""
        with previous._lock:
            for name in _COUNTERS:
                setattr(self, name, getattr(previous, name))

    def clear(self) -> None:
        """Drop every cached list."""
        with self._lock:
            self._lists.clear()
            self._used_bytes = 0

    # -- passthrough introspection ----------------------------------------
    @property
    def num_postings(self) -> int:
        return self.inner.num_postings

    @property
    def nbytes(self) -> int:
        return self.inner.nbytes

    def list_lengths(self, func: int) -> np.ndarray:
        return self.inner.list_lengths(func)

    def list_keys(self, func: int) -> np.ndarray:
        return self.inner.list_keys(func)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachedIndexReader({self.inner!r}, "
            f"used={self.cached_bytes}, hit_rate={self.hit_rate:.2f})"
        )


def _batch(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair lists as one ragged batch ``(postings, sizes)``."""
    return concat_postings(lists), np.array([p.size for p in lists], dtype=np.int64)


def _keys(funcs, minhashes) -> list[tuple[int, int]]:
    """The vector form's pairs as the cache's ``(func, minhash)`` keys."""
    funcs, minhashes = as_pairs(funcs, minhashes)
    return list(zip(funcs.tolist(), minhashes.tolist()))
