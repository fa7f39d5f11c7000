"""Inverted-index structures over compact windows (paper Section 3.4).

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

Both the in-memory and the on-disk index expose the same directory
layout (sorted key array + offset array + concatenated postings), so
query processing is a single code path; the disk variant merely adds
I/O accounting and zone-map assisted point lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, runtime_checkable

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


def gather_ranges(array: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``array[starts[i] : starts[i] + counts[i]]`` slices.

    Used by the batched point-read paths to pull many texts' postings
    out of one list without a Python-level loop.
    """
    flat = range_indices(starts, counts)
    return array[flat] if flat.size else array[:0]


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
    return gather_ranges(chunk, lo, hi - lo)


@dataclass
class IOStats:
    """Byte/call accounting for inverted-list reads.

    The paper's Figure 3 splits query latency into an I/O part and a
    CPU part; searchers read these counters to reproduce that split.
    """

    bytes_read: int = 0
    read_calls: int = 0
    seconds: float = 0.0
    #: Posting bytes handed to the searcher after decoding.  Equal to
    #: ``bytes_read`` for raw (v1) payloads; larger for compressed (v2)
    #: payloads, where the gap is the codec's I/O saving.
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
    """Read interface every index reader implements, scalar and batched.

    The searcher, planner, cost model and list cache call the batched
    forms unconditionally; the scalar ones remain for point lookups
    and as the reference the batched ones are tested against.

    ``load_list`` and ``load_texts_windows`` each have two forms.  With
    an ``int`` ``func`` and ``minhash`` they read one list.  With two
    equal-length int arrays they read every ``(funcs[i], minhashes[i])``
    pair in one call and return a list with one array per pair, in
    argument order; entry ``i`` equals the scalar call on pair ``i``
    (an absent or repeated pair included).  The vector form is what
    lets a reader batch a whole sketch's lists into one decode.
    """

    family: HashFamily
    t: int
    io_stats: IOStats

    def list_length(self, func: int, minhash: int) -> int:
        """Number of postings in list ``I_func[minhash]`` (0 if absent)."""
        ...

    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        """The full inverted list, a :data:`POSTING_DTYPE` array sorted by
        text; with arrays, one such list per pair."""
        ...

    def load_text_windows(self, func: int, minhash: int, text_id: int) -> np.ndarray:
        """Only the postings of ``text_id`` within one list (zone-map path)."""
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


class _Directory:
    """Sorted (key -> payload slice) directory for one hash function."""

    __slots__ = ("keys", "offsets", "counts")

    def __init__(self, keys: np.ndarray, offsets: np.ndarray, counts: np.ndarray) -> None:
        self.keys = keys
        self.offsets = offsets
        self.counts = counts

    def find(self, minhash: int) -> int:
        """Directory slot of ``minhash`` or ``-1`` when absent."""
        pos = int(np.searchsorted(self.keys, minhash))
        if pos < self.keys.size and int(self.keys[pos]) == int(minhash):
            return pos
        return -1


class MemoryInvertedIndex:
    """All ``k`` inverted indexes held in memory (paper's medium-scale path).

    Construct via :func:`repro.index.builder.build_memory_index`; the
    raw constructor takes pre-grouped arrays.
    """

    def __init__(
        self,
        family: HashFamily,
        t: int,
        directories: list[_Directory],
        payload: np.ndarray,
    ) -> None:
        if t < 1:
            raise InvalidParameterError(f"t must be >= 1, got {t}")
        if len(directories) != family.k:
            raise InvalidParameterError("one directory per hash function is required")
        if payload.dtype != POSTING_DTYPE:
            raise InvalidParameterError("payload must use POSTING_DTYPE")
        self.family = family
        self.t = int(t)
        self._directories = directories
        self._payload = payload
        self.io_stats = IOStats()

    # -- construction helper ------------------------------------------------
    @classmethod
    def from_postings(
        cls,
        family: HashFamily,
        t: int,
        per_func_postings: list[tuple[np.ndarray, np.ndarray]],
    ) -> "MemoryInvertedIndex":
        """Build from per-function ``(minhash_array, posting_array)`` pairs.

        Postings are sorted by ``(minhash, text)`` and grouped into
        inverted lists here; builders only need to emit flat arrays.
        """
        directories: list[_Directory] = []
        chunks: list[np.ndarray] = []
        base = 0
        for minhashes, postings in per_func_postings:
            if minhashes.size != postings.size:
                raise InvalidParameterError("minhash and posting arrays must align")
            order = np.lexsort((postings["text"], minhashes))
            minhashes = minhashes[order]
            postings = postings[order]
            keys, starts, counts = np.unique(minhashes, return_index=True, return_counts=True)
            directories.append(
                _Directory(
                    keys.astype(np.uint32),
                    (starts + base).astype(np.uint64),
                    counts.astype(np.uint32),
                )
            )
            chunks.append(postings)
            base += postings.size
        payload = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=POSTING_DTYPE)
        )
        return cls(family, t, directories, payload)

    # -- reader protocol ------------------------------------------------
    def list_length(self, func: int, minhash: int) -> int:
        slot = self._directories[func].find(minhash)
        if slot < 0:
            return 0
        return int(self._directories[func].counts[slot])

    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        if np.ndim(func):
            return [self.load_list(f, m) for f, m in zip(*as_pairs(func, minhash))]
        directory = self._directories[func]
        slot = directory.find(minhash)
        if slot < 0:
            return np.empty(0, dtype=POSTING_DTYPE)
        start = int(directory.offsets[slot])
        count = int(directory.counts[slot])
        self.io_stats.add(count * POSTING_BYTES)
        return self._payload[start : start + count]

    def load_text_windows(self, func: int, minhash: int, text_id: int) -> np.ndarray:
        directory = self._directories[func]
        slot = directory.find(minhash)
        if slot < 0:
            return np.empty(0, dtype=POSTING_DTYPE)
        start = int(directory.offsets[slot])
        count = int(directory.counts[slot])
        chunk = self._payload[start : start + count]
        lo = int(np.searchsorted(chunk["text"], text_id, side="left"))
        hi = int(np.searchsorted(chunk["text"], text_id, side="right"))
        self.io_stats.add(max(hi - lo, 0) * POSTING_BYTES)
        return chunk[lo:hi]

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        """Lengths of the k lists named by one query sketch, one pass."""
        lengths = np.zeros(self.family.k, dtype=np.int64)
        for func in range(self.family.k):
            directory = self._directories[func]
            slot = directory.find(int(sketch[func]))
            if slot >= 0:
                lengths[func] = int(directory.counts[slot])
        return lengths

    def load_texts_windows(
        self, func: int | np.ndarray, minhash: int | np.ndarray, text_ids: np.ndarray
    ) -> np.ndarray | list[np.ndarray]:
        """Postings of every text in ``text_ids`` within one list.

        The batched form of :meth:`load_text_windows`: one logical read
        covering all requested texts (sorted, deduplicated), returned
        sorted by text id.  I/O is accounted as a single call per list.
        """
        if np.ndim(func):
            return [
                self.load_texts_windows(f, m, text_ids)
                for f, m in zip(*as_pairs(func, minhash))
            ]
        directory = self._directories[func]
        slot = directory.find(minhash)
        if slot < 0:
            return np.empty(0, dtype=POSTING_DTYPE)
        start = int(directory.offsets[slot])
        count = int(directory.counts[slot])
        chunk = self._payload[start : start + count]
        fetched = extract_texts(chunk, np.unique(np.asarray(text_ids)))
        self.io_stats.add(fetched.size * POSTING_BYTES)
        return fetched

    # -- introspection ------------------------------------------------
    @property
    def num_postings(self) -> int:
        """Total number of compact windows stored across all ``k`` indexes."""
        return int(self._payload.size)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (the paper's index-size metric)."""
        return self.num_postings * POSTING_BYTES

    def list_lengths(self, func: int) -> np.ndarray:
        """Lengths of every inverted list of one hash function."""
        return np.asarray(self._directories[func].counts)

    def list_keys(self, func: int) -> np.ndarray:
        """Min-hash keys of one function's lists, aligned with
        :meth:`list_lengths` (cache warmup enumerates hot lists here)."""
        return np.asarray(self._directories[func].keys)

    def iter_lists(self, func: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(minhash, postings)`` for every list of one function."""
        directory = self._directories[func]
        for slot in range(directory.keys.size):
            start = int(directory.offsets[slot])
            count = int(directory.counts[slot])
            yield int(directory.keys[slot]), self._payload[start : start + count]

    def all_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every list as ``(funcs, keys, postings, bounds)``.

        List ``i`` belongs to function ``funcs[i]``, has key ``keys[i]``
        and postings ``postings[bounds[i] : bounds[i + 1]]``, in
        ``(func, key)`` order.  :meth:`from_postings` lays the payload
        out in exactly that order, so ``postings`` is the payload itself.
        """
        keys = [directory.keys for directory in self._directories]
        counts = np.concatenate(
            [directory.counts for directory in self._directories]
        ).astype(np.int64)
        return (
            np.repeat(np.arange(self.family.k), [part.size for part in keys]),
            np.concatenate(keys),
            self._payload,
            np.concatenate(([0], np.cumsum(counts))),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryInvertedIndex(k={self.family.k}, t={self.t}, "
            f"postings={self.num_postings})"
        )


@dataclass
class ListLengthProfile:
    """Distribution of inverted-list lengths, for prefix-filter cutoffs."""

    lengths: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def from_index(cls, index: MemoryInvertedIndex) -> "ListLengthProfile":
        parts = [index.list_lengths(func) for func in range(index.family.k)]
        lengths = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return cls(np.sort(lengths.astype(np.int64)))

    def cutoff_for_fraction(self, fraction: float) -> int:
        """List-length cutoff such that ~``fraction`` of postings lie in longer lists.

        Mirrors the paper's "5% .. 20% most frequent tokens" prefix
        lengths: returns the smallest length ``L`` such that lists with
        length > ``L`` together hold at most ``fraction`` of all
        postings.
        """
        if not 0.0 <= fraction < 1.0:
            raise InvalidParameterError(f"fraction must be in [0, 1), got {fraction}")
        if self.lengths.size == 0:
            return 0
        total = int(self.lengths.sum())
        if total == 0:
            return 0
        suffix = np.cumsum(self.lengths[::-1])[::-1]  # postings in lists >= each rank
        allowed = fraction * total
        # Walk from the longest list down until the mass of longer lists
        # would exceed the allowed fraction.
        for rank in range(self.lengths.size - 1, -1, -1):
            if suffix[rank] > allowed:
                return int(self.lengths[rank])
        return 0
