"""Read-only union over index readers covering disjoint text ranges.

The live index answers queries over {sealed runs..., memtable view};
the sources hold *disjoint, ascending* text-id ranges (runs seal in
id order, the memtable holds the newest ids), so the union of their
inverted lists is exactly the list an offline build over the union
corpus would produce, and per-source results concatenate in source
order without a merge sort — the same invariant
:class:`~repro.index.sharded.ShardedIndex` exploits, generalised to N
sources (main + delta is the two-source case).

A :class:`UnionIndexReader` is an immutable snapshot: it holds direct
references to the readers of one manifest generation, so concurrent
seals and compactions never change what an in-flight query sees (POSIX
keeps the mmapped run files alive even after compaction unlinks them).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.hashing import HashFamily
from repro.index.inverted import (
    IOStats, POSTING_BYTES, concat_postings, range_indices
)


class UnionIndexReader:
    """One immutable snapshot over ordered, text-disjoint sub-readers.

    Implements the reader protocol, with its own
    :class:`~repro.index.inverted.IOStats` — a concrete object, not a
    computed property, because
    :class:`~repro.index.cache.CachedIndexReader` captures the
    reference once at construction.  Its ``bytes_read`` is what the
    sources read (compressed bytes, for packed runs) and its
    ``decoded_bytes`` the merged postings it returned.
    """

    def __init__(
        self, family: HashFamily, t: int, sources: list, *, generation: int = 0
    ) -> None:
        self.family = family
        self.t = int(t)
        self.sources = list(sources)
        #: Manifest generation this snapshot was pinned at.
        self.generation = int(generation)
        self.io_stats = IOStats()

    # -- reader protocol ------------------------------------------------
    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        if not np.ndim(func):
            return self.load_list([func], [minhash])[0]
        return self._union(
            lambda source: source.load_list(func, minhash), np.size(func)
        )

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        """The sources' lengths summed: one call per source, for one
        sketch or a ``(B, k)`` sketch matrix alike."""
        lengths = np.zeros(np.shape(sketch), dtype=np.int64)
        for source in self.sources:
            lengths = lengths + np.asarray(
                source.sketch_list_lengths(sketch), dtype=np.int64
            )
        return lengths

    def load_texts_windows(
        self, func: int | np.ndarray, minhash: int | np.ndarray, text_ids: np.ndarray
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        if not np.ndim(func):
            return self.load_texts_windows([func], [minhash], text_ids)[0]
        return self._union(
            lambda source: source.load_texts_windows(func, minhash, text_ids),
            np.size(func),
        )

    def _union(self, read, pairs: int) -> tuple[np.ndarray, np.ndarray]:
        """``read`` on every source (one vector call each), merged per pair.

        Every source returns a ragged batch over the same ``pairs``
        pairs; one join and one gather put each pair's parts together in
        source order.  Sources ascend in text id, so this preserves the
        text-id sort the query processor relies on.  The call accounts
        the bytes its sources read, and the merged postings as decoded.
        """
        begin = time.perf_counter()
        read0 = self._source_bytes()
        batches = [read(source) for source in self.sources]
        by_source = np.array(
            [sizes for _, sizes in batches], dtype=np.int64
        ).reshape(len(batches), pairs)
        # Each (source, pair) part's start in the join, read pair-major.
        starts = (np.cumsum(by_source) - by_source.ravel()).reshape(by_source.shape)
        joined = concat_postings([part for part, _ in batches])
        postings = joined[range_indices(starts.T.ravel(), by_source.T.ravel())]
        self.io_stats.add(
            self._source_bytes() - read0,
            time.perf_counter() - begin,
            decoded=postings.size * POSTING_BYTES,
        )
        return postings, by_source.sum(axis=0)

    def _source_bytes(self) -> int:
        return sum(int(source.io_stats.bytes_read) for source in self.sources)

    # -- introspection --------------------------------------------------
    @property
    def num_postings(self) -> int:
        return sum(int(source.num_postings) for source in self.sources)

    @property
    def nbytes(self) -> int:
        return sum(int(source.nbytes) for source in self.sources)

    def list_lengths(self, func: int) -> np.ndarray:
        parts = [
            np.asarray(source.list_lengths(func), dtype=np.int64)
            for source in self.sources
        ]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )

    def list_keys(self, func: int) -> np.ndarray:
        parts = [
            np.asarray(source.list_keys(func), dtype=np.uint32)
            for source in self.sources
        ]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.uint32)
        )

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnionIndexReader(sources={len(self.sources)}, "
            f"generation={self.generation}, postings={self.num_postings})"
        )

