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
from repro.index.inverted import IOStats, POSTING_BYTES, POSTING_DTYPE


class UnionIndexReader:
    """One immutable snapshot over ordered, text-disjoint sub-readers.

    Implements the reader protocol, with its own
    :class:`~repro.index.inverted.IOStats` — a concrete object, not a
    computed property, because
    :class:`~repro.index.cache.CachedIndexReader` captures the
    reference once at construction.
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
    def list_length(self, func: int, minhash: int) -> int:
        return sum(
            int(source.list_length(func, minhash)) for source in self.sources
        )

    def load_list(self, func: int, minhash: int) -> np.ndarray:
        begin = time.perf_counter()
        parts = [
            part
            for source in self.sources
            if (part := source.load_list(func, minhash)).size
        ]
        # Sources ascend in text id, so concatenation preserves the
        # text-id sort the query processor relies on.
        merged = _concat(parts)
        self.io_stats.add(
            merged.size * POSTING_BYTES, time.perf_counter() - begin
        )
        return merged

    def load_text_windows(
        self, func: int, minhash: int, text_id: int
    ) -> np.ndarray:
        begin = time.perf_counter()
        parts = [
            part
            for source in self.sources
            if (part := source.load_text_windows(func, minhash, text_id)).size
        ]
        merged = _concat(parts)
        self.io_stats.add(
            merged.size * POSTING_BYTES, time.perf_counter() - begin
        )
        return merged

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        lengths = np.zeros(self.family.k, dtype=np.int64)
        for source in self.sources:
            lengths = lengths + np.asarray(
                source.sketch_list_lengths(sketch), dtype=np.int64
            )
        return lengths

    def load_texts_windows(
        self, func: int, minhash: int, text_ids: np.ndarray
    ) -> np.ndarray:
        begin = time.perf_counter()
        parts = [
            part
            for source in self.sources
            if (part := source.load_texts_windows(func, minhash, text_ids)).size
        ]
        merged = _concat(parts)
        self.io_stats.add(
            merged.size * POSTING_BYTES, time.perf_counter() - begin
        )
        return merged

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


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=POSTING_DTYPE)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
