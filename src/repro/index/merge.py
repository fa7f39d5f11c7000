"""Merging independently-built on-disk indexes.

The distributed version of the paper's build: each worker machine
indexes its own corpus partition (texts re-numbered locally), ships the
index directory, and a coordinator merges them into one searchable
index.  Because compact windows of different texts never interact, the
merge is a per-key concatenation — the inverted list of min-hash ``h``
in the merged index is the concatenation of the partitions' lists with
text ids shifted by each partition's base offset.

The merged output is byte-compatible with
:func:`repro.index.storage.write_index` output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import IndexFormatError, InvalidParameterError
from repro.index.inverted import POSTING_DTYPE, concat_postings, range_indices
from repro.index.storage import DiskInvertedIndex, _IndexWriter

#: Keys a partition reads per vector ``load_list`` call while merging.
_KEYS_PER_READ = 1024


def merge_disk_indexes(
    sources: list[str | Path],
    destination: str | Path,
    *,
    text_offsets: list[int] | None = None,
    codec: str = "raw",
) -> Path:
    """Merge on-disk indexes built over disjoint corpus partitions.

    Parameters
    ----------
    sources:
        Index directories, in partition order.
    destination:
        Output index directory.
    text_offsets:
        Global text id of each partition's text 0.  Defaults to the
        cumulative text counts inferred from the partitions themselves
        (max text id + 1 per partition), which is correct when each
        partition indexed a contiguous corpus slice starting at local
        id 0 and every text produced at least one window.
    codec:
        Payload codec of the *merged* index (``raw`` or ``packed``).
        Sources may use either codec — lists are decoded while
        merging — so a merge can also serve as a v1 → v2 recompression.

    All sources must share the same hash family and length threshold
    ``t`` (otherwise their lists are incomparable).
    """
    if not sources:
        raise InvalidParameterError("at least one source index is required")
    readers = [DiskInvertedIndex(path) for path in sources]
    family = readers[0].family
    t = readers[0].t
    for reader in readers[1:]:
        if reader.family != family:
            raise IndexFormatError("source indexes use different hash families")
        if reader.t != t:
            raise IndexFormatError("source indexes use different length thresholds")

    if text_offsets is None:
        text_offsets = []
        base = 0
        for reader in readers:
            text_offsets.append(base)
            base += _num_texts(reader)
    if len(text_offsets) != len(readers):
        raise InvalidParameterError("one text offset per source index is required")

    # The merged id space ends where the last partition's ends; when
    # every source carries num_texts metadata this is exact even for
    # texts that produced no windows.
    merged_num_texts: int | None = max(
        (offset + _num_texts(reader) for reader, offset in zip(readers, text_offsets)),
        default=None,
    )

    writer = _IndexWriter(
        destination, family, t, codec=codec, num_texts=merged_num_texts
    )
    for func in range(family.k):
        # Union of this function's keys across all partitions.
        all_keys = np.unique(
            np.concatenate([reader.list_keys(func) for reader in readers])
        )
        # Each partition reads a batch of keys with one vector read (one
        # decode for a packed partition), and the batch's merged lists
        # go to the writer as one run; the batch bounds memory.
        for lo in range(0, all_keys.size, _KEYS_PER_READ):
            keys = all_keys[lo : lo + _KEYS_PER_READ]
            funcs = np.full(keys.size, func, dtype=np.int64)
            per_reader = [reader.load_list(funcs, keys) for reader in readers]
            sizes = np.array(
                [[postings.size for postings in lists] for lists in per_reader],
                dtype=np.int64,
            ).reshape(len(readers), keys.size)
            totals = sizes.sum(axis=0)
            # Partitions are in ascending text order and internally
            # sorted, so a merged list is its partitions' lists in
            # partition order: partition r's part of list i starts after
            # the parts of partitions < r.
            firsts = np.cumsum(totals) - totals + np.cumsum(sizes, axis=0) - sizes
            merged = np.empty(int(totals.sum()), dtype=POSTING_DTYPE)
            for lists, offset, first, size in zip(
                per_reader, text_offsets, firsts, sizes
            ):
                slots = range_indices(first, size)
                merged[slots] = concat_postings(lists)
                if offset:
                    merged["text"][slots] += np.uint32(offset)
            nonempty = totals > 0
            writer.write_lists(
                func,
                keys[nonempty],
                merged,
                np.concatenate(([0], np.cumsum(totals[nonempty]))),
            )
    writer.close()
    return Path(destination)


def _num_texts(reader: DiskInvertedIndex) -> int:
    """Size of a partition's text-id space.

    The metadata key (written since ``num_texts`` landed in the
    format) answers in O(1); legacy indexes fall back to scanning
    function 0's lists for the max text id.
    """
    recorded = reader.num_texts
    if recorded is not None:
        return recorded
    top = -1
    for minhash in reader.list_keys(0):
        postings = reader.load_list(0, int(minhash))
        if postings.size:
            top = max(top, int(postings["text"].max()))
    return top + 1
