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
from repro.index.inverted import IOStats, POSTING_BYTES, concat_postings


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
    def list_length(self, func: int, minhash: int) -> int:
        return sum(
            int(source.list_length(func, minhash)) for source in self.sources
        )

    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        return self._union(
            lambda source: source.load_list(func, minhash), _pairs(func)
        )

    def load_text_windows(
        self, func: int, minhash: int, text_id: int
    ) -> np.ndarray:
        return self._union(
            lambda source: source.load_text_windows(func, minhash, text_id), None
        )

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        lengths = np.zeros(self.family.k, dtype=np.int64)
        for source in self.sources:
            lengths = lengths + np.asarray(
                source.sketch_list_lengths(sketch), dtype=np.int64
            )
        return lengths

    def load_texts_windows(
        self, func: int | np.ndarray, minhash: int | np.ndarray, text_ids: np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        return self._union(
            lambda source: source.load_texts_windows(func, minhash, text_ids),
            _pairs(func),
        )

    def _union(self, read, pairs: int | None):
        """``read`` on every source (one call each), concatenated per pair.

        ``pairs`` is the vector form's pair count, ``None`` for a scalar
        read.  Sources ascend in text id, so concatenation preserves the
        text-id sort the query processor relies on.  The call accounts
        the bytes its sources read, and the merged postings as decoded.
        """
        begin = time.perf_counter()
        read0 = self._source_bytes()
        per_source = [read(source) for source in self.sources]
        if pairs is None:
            merged = [concat_postings([part for part in per_source if part.size])]
        else:
            merged = [
                concat_postings([parts[i] for parts in per_source if parts[i].size])
                for i in range(pairs)
            ]
        self.io_stats.add(
            self._source_bytes() - read0,
            time.perf_counter() - begin,
            decoded=sum(part.size for part in merged) * POSTING_BYTES,
        )
        return merged[0] if pairs is None else merged

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


def _pairs(func) -> int | None:
    """Pair count of a vector-form call, ``None`` for a scalar one."""
    return int(np.size(func)) if np.ndim(func) else None
