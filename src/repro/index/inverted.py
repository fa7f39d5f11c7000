"""Inverted-index vocabulary shared by every reader (paper Section 3.4).

The index consists of ``k`` logical inverted indexes, one per hash
function.  In index ``i``, all compact windows whose min-hash under
``f_i`` equals ``h`` form the inverted list ``I_i[h]``, ordered by text
identifier.  A posting is the 16-byte record ``(text, left, center,
right)`` — the hash function is implicit in which index the list
belongs to, exactly as the paper notes.

Readers hand out postings as :data:`POSTING_DTYPE` records.  Code that
concatenates, sorts or masks them does so on the ``(n, 4)`` ``uint32``
row view (:func:`posting_rows`; :func:`row_postings` turns rows back
into records): the same bytes, without the per-call cost of numpy's
structured-dtype machinery.

This module holds what every reader shares: the posting dtype, the
range helpers, :class:`IOStats`, the :class:`InvertedIndexReader`
protocol.  The one index implementation — held in RAM or
memory-mapped from disk, over the same flat directory — lives in
:mod:`repro.index.storage`.  List-length cutoffs for the prefix filter
are :func:`repro.index.stats.cutoff_for_top_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.hashing import HashFamily
from repro.exceptions import InvalidParameterError

#: One posting: the compact window ``(l, c, r)`` of text ``text``.
POSTING_DTYPE = np.dtype(
    [
        ("text", np.uint32),
        ("left", np.uint32),
        ("center", np.uint32),
        ("right", np.uint32),
    ]
)

#: Bytes per posting record.
POSTING_BYTES = POSTING_DTYPE.itemsize


def range_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + counts[i] - 1``, concatenated.

    The flat-index form of a per-range loop: one ``arange`` over the
    total size, shifted per range.
    """
    counts = np.asarray(counts).astype(np.int64, copy=False)
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        np.asarray(starts).astype(np.int64, copy=False) - offsets, counts
    )


def posting_rows(postings: np.ndarray) -> np.ndarray:
    """The ``(n, 4)`` ``uint32`` row view of a :data:`POSTING_DTYPE` array.

    Row ``i`` is posting ``i``'s ``(text, left, center, right)``; the
    view shares the records' bytes (a strided input is compacted first).
    """
    return np.ascontiguousarray(postings).view(np.uint32).reshape(-1, 4)


def row_postings(rows: np.ndarray) -> np.ndarray:
    """The :data:`POSTING_DTYPE` record view of ``(n, 4)`` ``uint32`` rows.

    The inverse of :func:`posting_rows`, zero-copy for contiguous rows.
    """
    return np.ascontiguousarray(rows, dtype=np.uint32).view(POSTING_DTYPE).reshape(-1)


def concat_postings(parts: list[np.ndarray]) -> np.ndarray:
    """``parts`` joined into one posting array (a lone part is returned as is).

    Joined as row views: numpy's structured-dtype concatenate costs
    several times more than the same bytes as ``uint32`` rows.
    """
    if not parts:
        return np.empty(0, dtype=POSTING_DTYPE)
    if len(parts) == 1:
        return parts[0]
    return row_postings(np.concatenate([posting_rows(part) for part in parts]))


def as_pairs(funcs, minhashes) -> tuple[np.ndarray, np.ndarray]:
    """The vector form's ``(func, minhash)`` pairs as two int64 arrays."""
    funcs = np.asarray(funcs, dtype=np.int64).reshape(-1)
    minhashes = np.asarray(minhashes, dtype=np.int64).reshape(-1)
    if funcs.size != minhashes.size:
        raise InvalidParameterError(
            f"{funcs.size} funcs but {minhashes.size} minhashes: pairs must align"
        )
    return funcs, minhashes


def extract_texts(chunk: np.ndarray, text_ids: np.ndarray) -> np.ndarray:
    """Postings of every requested text within one text-sorted chunk."""
    lo = np.searchsorted(chunk["text"], text_ids, side="left")
    hi = np.searchsorted(chunk["text"], text_ids, side="right")
    flat = range_indices(lo, hi - lo)
    return chunk[flat] if flat.size else chunk[:0]


@dataclass
class IOStats:
    """Byte/call accounting for inverted-list reads.

    The paper's Figure 3 splits query latency into an I/O part and a
    CPU part; searchers read these counters to reproduce that split.
    """

    bytes_read: int = 0
    read_calls: int = 0
    seconds: float = 0.0
    #: Posting bytes the reader materialised.  Raw (v1) reads count
    #: the records they read, so this equals ``bytes_read``.  Packed
    #: (v2) reads count 16 bytes per posting returned: a whole-list read
    #: decodes more than it reads (the gap is the codec's I/O saving),
    #: while a point read unpacks only its hit rows and can decode less
    #: than the blocks it read.
    decoded_bytes: int = 0

    def reset(self) -> None:
        self.bytes_read = 0
        self.read_calls = 0
        self.seconds = 0.0
        self.decoded_bytes = 0

    def add(self, nbytes: int, seconds: float = 0.0, decoded: int | None = None) -> None:
        self.bytes_read += int(nbytes)
        self.read_calls += 1
        self.seconds += seconds
        self.decoded_bytes += int(nbytes if decoded is None else decoded)


@runtime_checkable
class InvertedIndexReader(Protocol):
    """Read interface every index reader implements.

    The searcher, planner, list cache, merge and warmup read lengths
    with :meth:`sketch_list_lengths` and postings with the two methods
    below.  ``load_list`` and ``load_texts_windows`` each have two
    forms.  With an ``int`` ``func`` and ``minhash`` they read one list.
    With two equal-length int arrays they read every
    ``(funcs[i], minhashes[i])`` pair in one call and return a list with
    one array per pair, in argument order; entry ``i`` equals the int
    call on pair ``i`` (an absent or repeated pair included).  The
    vector form is what lets a reader batch a whole sketch's lists into
    one decode.  A pair no list has — a function outside ``[0, k)`` or
    a min-hash outside ``uint32`` included — reads as empty.
    """

    family: HashFamily
    t: int
    io_stats: IOStats

    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        """The full inverted list, a :data:`POSTING_DTYPE` array sorted by
        text; with arrays, one such list per pair."""
        ...

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        """The k list lengths of one query sketch (an ``int64`` array),
        in one directory pass."""
        ...

    def load_texts_windows(
        self, func: int | np.ndarray, minhash: int | np.ndarray, text_ids: np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        """The postings of many texts within one list, sorted by text —
        one grouped ranged read instead of one point read per text.
        With arrays, the same ``text_ids`` are read from every pair's
        list."""
        ...
