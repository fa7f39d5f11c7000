"""The inverted index: its one reader, its on-disk format and its writer.

:class:`InvertedIndex` is the only reader implementation.  It reads a
flat directory — every list of all ``k`` hash functions keyed
``func << 32 | minhash`` with its start and length — over one payload
of raw posting records or bit-packed blocks, with optional zone maps.
:class:`MemoryInvertedIndex` builds those arrays in RAM (the paper's
medium-scale path); :class:`DiskInvertedIndex` maps them from an index
directory (the large-scale path).  Both serve the same lists through
the same code.

Layout of an index directory:

* ``index.meta.json`` — format version, codec, ``k``, ``t``, the
  hash-family parameters, zone-map configuration, payload record count
  and the size of the text-id space.  The meta file is the **commit
  point**: it is written last, via a temp file + ``os.replace``, so a
  directory holding payload/directory files without it is a
  recognisably partial build;
* ``index.dir.bin`` — the directory in the flat layout (meta
  ``"directory": "flat"``; ``docs/FORMATS.md``): the arrays
  :class:`InvertedIndex` holds, one sidecar section
  (:mod:`repro.index.sidecar`) each across all ``k`` hash functions.
  ``list_edges`` bound each function's lists, ``keys`` (``uint32``)
  and ``counts``; ``starts`` (``raw``) or the block arrays
  ``blk_first`` / ``blk_widths`` / ``blk_offsets`` (``packed``); the
  zone maps ``zm_edges`` / ``zm_keys`` / ``zm_starts`` / ``zm_lengths``
  over ``zm_samples``;
* ``index.postings.bin`` — the payload.  ``raw`` (format v1) stores
  concatenated 16-byte postings; ``packed`` (format v2) stores the
  bit-packed blocks of :mod:`repro.index.codec`.  Lists are contiguous
  and sorted by text id internally, but the order of lists within the
  file is arbitrary (the out-of-core builder appends them in partition
  order; the directory carries explicit starts).

Indexes committed before the flat layout hold every directory array
once per hash function (``keys_0``, ``keys_1``, ...), in the sidecar
(meta ``"sidecar"``) or, older still, in the zipped ``index.dir.npz``
(meta ``"npz"``, or no ``"directory"`` key).  They are read, never
written: :func:`_legacy_directory` concatenates their sections into the
flat arrays.  Before the meta rename, :meth:`_IndexWriter.close`
fsyncs the payload, the sidecar and the meta temp file, and after it
the directory, so a committed index survives power loss.

Opening maps the sidecar, widens the keys to ``func << 32 | minhash``
in one vectorized pass and memory-maps the payload; reads touch only
the slices — for v2, only the *blocks* — a query asks for.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.hashing import HashFamily
from repro.exceptions import IndexFormatError, InvalidParameterError
from repro.index.codec import (
    BLOCK_POSTINGS,
    block_byte_sizes,
    check_codec,
    decode_rows,
    decode_texts,
    encode_lists,
)
from repro.index.inverted import (
    IOStats,
    POSTING_BYTES,
    POSTING_DTYPE,
    as_pairs,
    concat_postings,
    posting_rows,
    range_indices,
    row_postings,
)
from repro.index.sidecar import (
    SIDECAR_FILE as _DIR_SIDECAR_FILE,
    read_sidecar,
    write_sidecar,
)
from repro.index.zonemap import DEFAULT_STEP, ZoneMap

_FORMAT_VERSION = 1
_FORMAT_VERSION_PACKED = 2
_META_FILE = "index.meta.json"
#: Legacy zipped directory, read but no longer written.
_NPZ_DIR_FILE = "index.dir.npz"
_PAYLOAD_FILE = "index.postings.bin"

#: Lists at least this long get a zone map by default.
DEFAULT_ZONEMAP_MIN_LIST = 256

#: Blocks one codec call decodes at most.  The kernel's temporaries
#: grow with the blocks it is given, so this caps a large vector read's
#: working set; a query's reads stay far below it (one call each).
_DECODE_BLOCKS = 512


class _IndexWriter:
    """Writes inverted lists into the on-disk format, a run at a time.

    Every write path hands over runs of lists through
    :meth:`write_lists`: the in-memory dump (:func:`write_index`) the
    whole index in one call, the out-of-core builder
    (:mod:`repro.index.external`) one partition per call, the merge
    (:mod:`repro.index.merge`) one batch of keys.  A run is encoded in
    one codec call and written with one payload write, and the
    directory is kept as flat arrays, one fragment per run.  Runs may
    come in any order; :meth:`close` sorts the directory by
    ``(func, minhash)`` and gathers every list's blocks into that order
    in one pass.  With ``codec="packed"`` every run is compressed as it
    is written, so the external builder's spill/merge pass streams
    straight into format v2 without ever materialising the raw payload.
    """

    def __init__(
        self,
        directory: str | Path,
        family: HashFamily,
        t: int,
        zonemap_step: int = DEFAULT_STEP,
        zonemap_min_list: int = DEFAULT_ZONEMAP_MIN_LIST,
        codec: str = "raw",
        num_texts: int | None = None,
    ) -> None:
        if zonemap_step <= 0:
            raise InvalidParameterError(
                f"zonemap_step must be positive, got {zonemap_step}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._family = family
        self._t = int(t)
        self._num_texts = None if num_texts is None else int(num_texts)
        self._zonemap_step = int(zonemap_step)
        self._zonemap_min_list = int(zonemap_min_list)
        self._codec = check_codec(codec)
        self._payload = open(self._directory / _PAYLOAD_FILE, "wb")
        self._written = 0
        self._payload_bytes = 0
        # Each directory array's fragments, one per run, in write order.
        self._parts: dict[str, list[np.ndarray]] = {
            name: [] for name in _DIRECTORY_PARTS
        }
        self.bytes_written = 0
        self.io_seconds = 0.0

    def write_lists(
        self,
        funcs: int | np.ndarray,
        minhashes: np.ndarray,
        postings: np.ndarray,
        bounds: np.ndarray,
    ) -> None:
        """Append a run of lists, each sorted by text id.

        List ``i`` belongs to hash function ``funcs[i]`` (an int: the
        whole run's function), has key ``minhashes[i]`` and postings
        ``postings[bounds[i] : bounds[i + 1]]``.
        """
        if postings.dtype != POSTING_DTYPE:
            raise InvalidParameterError("postings must use POSTING_DTYPE")
        bounds = np.asarray(bounds, dtype=np.int64)
        counts = np.diff(bounds)
        keys = np.asarray(minhashes, dtype=np.uint32).reshape(-1)
        funcs = np.broadcast_to(np.asarray(funcs, dtype=np.int64), keys.shape)
        if keys.size != counts.size:
            raise InvalidParameterError(
                f"{keys.size} keys but {counts.size} lists: keys must align"
            )
        if np.any((funcs < 0) | (funcs >= self._family.k)):
            raise InvalidParameterError(
                f"hash function ids must lie in [0, {self._family.k})"
            )
        parts = self._parts
        if self._codec == "packed":
            encoded = encode_lists(postings, bounds)
            data = encoded.data
            parts["blk_first"].append(encoded.first_texts)
            parts["blk_widths"].append(encoded.widths)
            parts["blk_offsets"].append(
                self._payload_bytes + encoded.block_offsets[:-1]
            )
        else:
            data = postings
            parts["starts"].append(self._written + bounds[:-1])
        start = time.perf_counter()
        data.tofile(self._payload)
        self.io_seconds += time.perf_counter() - start
        self._payload_bytes += int(data.nbytes)
        self.bytes_written += int(data.nbytes)
        parts["funcs"].append(funcs)
        parts["keys"].append(keys)
        parts["counts"].append(counts)
        # Every step-th text of every long list, as one strided gather.
        step = self._zonemap_step
        long = counts >= self._zonemap_min_list
        samples = np.where(long, (counts + step - 1) // step, 0)
        local = np.arange(int(samples.sum())) - np.repeat(
            np.cumsum(samples) - samples, samples
        )
        parts["zm_lengths"].append(samples)
        parts["zm_samples"].append(
            postings["text"][np.repeat(bounds[:-1], samples) + local * step]
        )
        self._written += int(postings.size)

    def close(self) -> None:
        """Flush the payload and write the directory + metadata files.

        The metadata file is the commit point: it is written to a temp
        file and atomically renamed into place with ``os.replace``, so
        a crash anywhere before that leaves a directory the reader
        rejects as a partial build instead of silently misreading.
        Payload, sidecar and meta are fsynced before the rename and the
        directory after it, so a caller that commits this index
        elsewhere (an LSM manifest) never adopts unsynced bytes.
        """
        # The lsm package imports this module.
        from repro.index.lsm.manifest import _fsync_directory

        start = time.perf_counter()
        self._payload.flush()
        os.fsync(self._payload.fileno())
        self._payload.close()
        k = self._family.k
        parts = {
            name: _joined(fragments, _DIRECTORY_PARTS[name])
            for name, fragments in self._parts.items()
        }
        # Lists in (func, minhash) order; ties keep write order.
        order = np.lexsort((parts["keys"], parts["funcs"]))
        arrays = {
            "list_edges": np.searchsorted(parts["funcs"][order], np.arange(k + 1)),
            "keys": parts["keys"][order],
            "counts": parts["counts"][order],
        }
        if self._codec == "packed":
            # Every list's blocks, gathered into directory order.
            per_list = (
                parts["counts"].astype(np.int64) + BLOCK_POSTINGS - 1
            ) // BLOCK_POSTINGS
            blocks = range_indices(
                (np.cumsum(per_list) - per_list)[order], per_list[order]
            )
            for name in ("blk_first", "blk_widths", "blk_offsets"):
                arrays[name] = parts[name][blocks]
        else:
            arrays["starts"] = parts["starts"][order]
        # Zone maps: the long lists in directory order, each pointing at
        # its samples, which stay in write order.
        lengths = parts["zm_lengths"].astype(np.int64)
        zoned = order[arrays["counts"] >= self._zonemap_min_list]
        arrays["zm_edges"] = np.searchsorted(parts["funcs"][zoned], np.arange(k + 1))
        arrays["zm_keys"] = parts["keys"][zoned]
        arrays["zm_starts"] = (np.cumsum(lengths) - lengths)[zoned]
        arrays["zm_lengths"] = parts["zm_lengths"][zoned]
        arrays["zm_samples"] = parts["zm_samples"]
        write_sidecar(self._directory / _DIR_SIDECAR_FILE, arrays)
        meta = {
            "format_version": (
                _FORMAT_VERSION_PACKED
                if self._codec == "packed"
                else _FORMAT_VERSION
            ),
            "t": self._t,
            "num_postings": self._written,
            "zonemap_step": self._zonemap_step,
            "zonemap_min_list": self._zonemap_min_list,
            "family": self._family.to_dict(),
            "directory": "flat",
        }
        if self._num_texts is not None:
            meta["num_texts"] = self._num_texts
        if self._codec == "packed":
            meta["codec"] = self._codec
            meta["payload_bytes"] = self._payload_bytes
        meta_path = self._directory / _META_FILE
        temp_path = self._directory / (_META_FILE + ".tmp")
        with open(temp_path, "wb") as handle:
            handle.write(json.dumps(meta).encode())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, meta_path)
        _fsync_directory(self._directory)
        self.io_seconds += time.perf_counter() - start


#: Directory arrays the writer collects, with the dtype and shape of an
#: empty one (an index with no lists).
_DIRECTORY_PARTS = {
    "funcs": np.empty(0, dtype=np.int64),
    "keys": np.empty(0, dtype=np.uint32),
    "counts": np.empty(0, dtype=np.uint32),
    "starts": np.empty(0, dtype=np.int64),
    "blk_first": np.empty(0, dtype=np.uint32),
    "blk_widths": np.empty((0, 4), dtype=np.uint8),
    "blk_offsets": np.empty(0, dtype=np.int64),
    "zm_lengths": np.empty(0, dtype=np.uint32),
    "zm_samples": np.empty(0, dtype=np.uint32),
}


def _joined(fragments: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """Fragments concatenated, in ``empty``'s dtype."""
    if not fragments:
        return empty
    return np.concatenate(fragments).astype(empty.dtype, copy=False)


def write_index(
    index: InvertedIndex,
    directory: str | Path,
    zonemap_step: int = DEFAULT_STEP,
    zonemap_min_list: int = DEFAULT_ZONEMAP_MIN_LIST,
    codec: str = "raw",
    num_texts: int | None = None,
) -> Path:
    """Persist an index (held in memory or opened from disk); returns the path.

    ``num_texts`` records the size of the text-id space in the metadata
    (defaults to the index's own ``num_texts``); readers expose it so
    appenders can resume id assignment without scanning posting lists.
    """
    writer = _IndexWriter(
        directory,
        index.family,
        index.t,
        zonemap_step,
        zonemap_min_list,
        codec,
        num_texts=index.num_texts if num_texts is None else num_texts,
    )
    writer.write_lists(*index.all_lists())
    writer.close()
    return Path(directory)


class InvertedIndex:
    """The inverted-index reader: one flat directory over one payload.

    Every list of all ``k`` hash functions is one directory entry.
    ``keys`` holds ``func << 32 | minhash``, ascending, so every pair of
    a vector read resolves in one ``searchsorted``; ``starts`` holds a
    list's first posting (``raw``) or first block (``packed``) and
    ``counts`` its length.  The payload is :data:`POSTING_DTYPE` records
    (``raw``) or the bit-packed bytes of :mod:`repro.index.codec`
    (``packed``, given ``blocks``: every block's first text id,
    ``(nb, 4)`` column bit widths and payload byte offset, in directory
    order).  ``zone_maps`` — ``(keys, starts, lengths, samples)``, keyed
    like the directory — narrow a long list's point reads to a few
    zones; a list without one is read whole and its texts cut out.
    ``num_texts`` is the size of the text-id space (``None``: unknown).

    :class:`MemoryInvertedIndex` builds these arrays in RAM and
    :class:`DiskInvertedIndex` maps them from an index directory; both
    read through this class.  Every read is one accounted call in
    ``io_stats`` (``decoded_bytes`` counts the posting bytes it
    materialises; see :class:`~repro.index.inverted.IOStats`), so the
    benchmarks can reproduce the paper's I/O-vs-CPU latency split.
    """

    def __init__(
        self,
        family: HashFamily,
        t: int,
        keys: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        payload: np.ndarray,
        *,
        blocks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        zone_maps: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
        zonemap_step: int = DEFAULT_STEP,
        num_texts: int | None = None,
    ) -> None:
        if t < 1:
            raise InvalidParameterError(f"t must be >= 1, got {t}")
        self.family = family
        self.t = int(t)
        self.num_texts = None if num_texts is None else int(num_texts)
        self._codec = "raw" if blocks is None else "packed"
        self._payload = payload
        self._flat_keys = keys
        self._flat_starts = starts
        # Ends in a sentinel 0 that absent pairs (slot -1) read as their length.
        self._flat_counts = np.append(counts.astype(np.int64, copy=False), 0)
        self._num_postings = int(self._flat_counts.sum())
        # Where each function's lists begin in the directory.
        self._list_edges = np.searchsorted(
            keys >> np.uint64(32), np.arange(family.k + 1, dtype=np.uint64)
        )
        if blocks is not None:
            self._flat_blk_first, self._flat_blk_widths, self._flat_blk_offsets = blocks
        # Without zone maps, four empty arrays: ``_zones`` never indexes them.
        self._zm_keys, self._zm_starts, self._zm_lengths, self._zm_samples = (
            zone_maps or (np.empty(0, dtype=np.uint64),) * 4
        )
        self._zonemap_step = int(zonemap_step)
        self.io_stats = IOStats()

    def _func_lists(self, func: int) -> slice:
        """Flat directory slots of one hash function's lists."""
        return slice(int(self._list_edges[func]), int(self._list_edges[func + 1]))

    # -- reader protocol ------------------------------------------------
    def _resolve(self, funcs: np.ndarray, minhashes: np.ndarray) -> np.ndarray:
        """Flat directory slot of every ``(func, minhash)`` pair, ``-1`` if absent."""
        if self._flat_keys.size == 0:
            return np.full(funcs.size, -1, dtype=np.int64)
        wanted = (funcs.astype(np.uint64) << np.uint64(32)) | minhashes.astype(
            np.uint64
        )
        slots = np.minimum(
            np.searchsorted(self._flat_keys, wanted), self._flat_keys.size - 1
        )
        found = (
            (funcs >= 0)
            & (funcs < self.family.k)
            & (minhashes >= 0)
            & (minhashes >> 32 == 0)
            & (self._flat_keys[slots] == wanted)
        )
        return np.where(found, slots, -1)

    def load_list(
        self, func: int | np.ndarray, minhash: int | np.ndarray
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Whole lists; the vector form reads every pair in one call, as
        one ragged batch.

        Raw lists are gathered from the payload (for a disk index, its
        mapping, shared with the page cache and with sibling prefork
        workers); packed lists are decoded together, one codec pass per
        call.
        """
        if not np.ndim(func):
            return self.load_list([func], [minhash])[0]
        slots = self._resolve(*as_pairs(func, minhash))
        owners = np.flatnonzero(slots >= 0)
        counts = self._flat_counts[slots[owners]]
        return self._read_ranges(slots, owners, np.zeros_like(counts), counts)

    def sketch_list_lengths(self, sketch: np.ndarray) -> np.ndarray:
        """Lengths of the k lists named by a query sketch, or by each row
        of a ``(B, k)`` sketch matrix.

        One ``searchsorted`` over the flat directory for the whole
        batch — no payload I/O, no per-function or per-query loop.
        """
        sketch = np.asarray(sketch)
        k = self.family.k
        funcs = np.tile(np.arange(k, dtype=np.int64), sketch.size // k)
        return self._flat_counts[self._resolve(*as_pairs(funcs, sketch))].reshape(
            sketch.shape
        )

    def load_texts_windows(
        self, func: int | np.ndarray, minhash: int | np.ndarray, text_ids: np.ndarray
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Postings of every text in ``text_ids`` within one list.

        A list's zone map narrows every requested text to a posting
        range; a list without one is read whole.  The ranges of all
        pairs are read in one call; for the packed codec they are
        rounded to blocks, whose text ids are decoded first and whose
        other columns are unpacked for the requested texts' rows only.
        Postings come back sorted by text id, as one ragged batch.
        """
        if not np.ndim(func):
            return self.load_texts_windows([func], [minhash], text_ids)[0]
        text_ids = np.unique(np.asarray(text_ids))
        slots = self._resolve(*as_pairs(func, minhash))
        zones = self._zones(slots)
        whole = np.flatnonzero((slots >= 0) & (zones < 0))
        owners = [whole]
        los = [np.zeros_like(whole)]
        his = [self._flat_counts[slots[whole]]]
        for pair in np.flatnonzero(zones >= 0).tolist():
            lo, hi = self._zone(slots[pair], zones[pair]).locate_many(text_ids)
            nonempty = hi > lo
            owners.append(np.full(int(nonempty.sum()), pair, dtype=np.int64))
            los.append(lo[nonempty])
            his.append(hi[nonempty])
        # Ranges grouped by pair, each pair's in ascending order.
        order = np.argsort(np.concatenate(owners), kind="stable")
        ranges = _merge_ranges(
            *(np.concatenate(part)[order] for part in (owners, los, his))
        )
        return self._read_ranges(slots, *ranges, text_ids=text_ids)

    def zone_map(self, func: int, minhash: int) -> ZoneMap | None:
        """The zone map of one list, or ``None`` if the list is short/absent."""
        slots = self._resolve(*as_pairs(func, minhash))
        zone = int(self._zones(slots)[0])
        return None if zone < 0 else self._zone(slots[0], zone)

    def _zones(self, slots: np.ndarray) -> np.ndarray:
        """Zone-map row of every slot's list, ``-1`` for a list without
        one (and for an absent slot)."""
        if self._zm_keys.size == 0:
            return np.full(slots.size, -1, dtype=np.int64)
        keys = self._flat_keys[slots]
        rows = np.minimum(
            np.searchsorted(self._zm_keys, keys), self._zm_keys.size - 1
        )
        return np.where((slots >= 0) & (self._zm_keys[rows] == keys), rows, -1)

    def _zone(self, slot: int, row: int) -> ZoneMap:
        start = int(self._zm_starts[row])
        return ZoneMap(
            sample_texts=self._zm_samples[start : start + int(self._zm_lengths[row])],
            step=self._zonemap_step,
            length=int(self._flat_counts[slot]),
        )

    def _read_ranges(
        self,
        slots: np.ndarray,
        owners: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        text_ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posting ranges of many lists, read as one accounted call.

        ``slots`` holds every pair's flat directory slot; range ``i`` is
        postings ``[lo[i], hi[i])`` of pair ``owners[i]``'s list, grouped
        by pair, disjoint and ascending.  Returns one ragged batch: the
        ranges' postings in pair order and text order (with ``text_ids``,
        sorted and unique, only those of the texts it names) and each
        pair's count.  Raw ranges are one gather from the mapping; packed
        ranges are rounded to blocks (a block two ranges share is read
        once), whose text ids are decoded first; the other columns are
        then decoded for the rows returned only, at most
        :data:`_DECODE_BLOCKS` blocks per codec call.
        """
        if self._codec == "raw":
            begin = time.perf_counter()
            spans = hi - lo
            rows = range_indices(self._flat_starts[slots[owners]] + lo, spans)
            row_owners = np.repeat(owners, spans)
            if text_ids is not None:
                hits = _rows_of_texts(self._payload["text"][rows], text_ids)
                rows, row_owners = rows[hits], row_owners[hits]
            postings = row_postings(np.take(posting_rows(self._payload), rows, axis=0))
            sizes = np.bincount(row_owners, minlength=slots.size)
            elapsed = time.perf_counter() - begin
            nbytes = decoded = int(spans.sum()) * POSTING_BYTES
        else:
            owners, blk_lo, blk_hi = _merge_ranges(
                owners,
                lo // BLOCK_POSTINGS,
                (hi + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS,
            )
            spans = blk_hi - blk_lo
            block_owners = np.repeat(owners, spans)
            block_slots = slots[block_owners]
            local = range_indices(blk_lo, spans)
            blocks = self._flat_starts[block_slots] + local
            counts = np.minimum(
                self._flat_counts[block_slots] - local * BLOCK_POSTINGS,
                BLOCK_POSTINGS,
            )
            widths = self._flat_blk_widths[blocks]
            begin = time.perf_counter()
            # The pair of every row kept, when only some rows are.
            decoded_parts, kept_owners = [], [np.empty(0, dtype=np.int64)]
            for start in range(0, blocks.size, _DECODE_BLOCKS):
                part = slice(start, start + _DECODE_BLOCKS)
                geometry = (
                    self._payload,
                    self._flat_blk_offsets[blocks[part]],
                    counts[part],
                    widths[part],
                )
                texts = decode_texts(*geometry, self._flat_blk_first[blocks[part]])
                if text_ids is None:
                    decoded_parts.append(decode_rows(*geometry, texts))
                    continue
                hits = _rows_of_texts(texts, text_ids)
                decoded_parts.append(decode_rows(*geometry, texts[hits], hits))
                hit_blocks = np.searchsorted(np.cumsum(counts[part]), hits, side="right")
                kept_owners.append(block_owners[part][hit_blocks])
            postings = concat_postings(decoded_parts)
            elapsed = time.perf_counter() - begin
            nbytes = int(block_byte_sizes(counts, widths).sum())
            decoded = postings.size * POSTING_BYTES
            sizes = (
                np.bincount(block_owners, counts, minlength=slots.size).astype(np.int64)
                if text_ids is None
                else np.bincount(np.concatenate(kept_owners), minlength=slots.size)
            )
        if (slots >= 0).any():
            self.io_stats.add(nbytes, elapsed, decoded=decoded)
        return postings, sizes

    # -- introspection ------------------------------------------------
    @property
    def codec(self) -> str:
        """Payload codec: ``raw`` (format v1) or ``packed`` (format v2)."""
        return self._codec

    @property
    def num_postings(self) -> int:
        """Total number of compact windows stored across all ``k`` indexes."""
        return self._num_postings

    @property
    def nbytes(self) -> int:
        """Payload bytes (the paper's index-size metric)."""
        return int(self._payload.nbytes)

    def list_lengths(self, func: int) -> np.ndarray:
        """Lengths of every inverted list of one hash function."""
        return self._flat_counts[self._func_lists(func)]

    def list_keys(self, func: int) -> np.ndarray:
        """Min-hash keys of one function's lists, aligned with
        :meth:`list_lengths` (cache warmup enumerates hot lists here)."""
        keys = self._flat_keys[self._func_lists(func)]
        return (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    def list_blocks(
        self, func: int, minhash: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block-directory rows of one packed list, empty if it is absent.

        Returns each block's first text id, ``(nb, 4)`` column bit
        widths and payload byte offset; validation checks them against
        the decoded list.
        """
        slot = self._resolve(*as_pairs(func, minhash))[0]
        first = int(self._flat_starts[slot]) if slot >= 0 else 0
        count = int(self._flat_counts[slot])
        blocks = slice(first, first + (count + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS)
        return (
            self._flat_blk_first[blocks],
            self._flat_blk_widths[blocks],
            self._flat_blk_offsets[blocks],
        )

    def all_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every list as ``(funcs, keys, postings, bounds)``, in directory order.

        List ``i`` belongs to function ``funcs[i]``, has key ``keys[i]``
        and postings ``postings[bounds[i] : bounds[i + 1]]`` — what
        :func:`write_index` writes.  The postings are one vector read of
        every list (the payload itself when raw lists already lie in
        directory order, as a memory index's do).
        """
        counts = self._flat_counts[:-1]
        bounds = np.concatenate(([0], np.cumsum(counts)))
        if self._codec == "raw" and np.array_equal(self._flat_starts, bounds[:-1]):
            postings = self._payload[: bounds[-1]]
        else:
            slots = np.arange(counts.size)
            postings, _ = self._read_ranges(slots, slots, np.zeros_like(counts), counts)
        return (
            (self._flat_keys >> np.uint64(32)).astype(np.int64),
            (self._flat_keys & np.uint64(0xFFFFFFFF)).astype(np.uint32),
            postings,
            bounds,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(k={self.family.k}, t={self.t}, "
            f"postings={self.num_postings}, codec={self._codec})"
        )


class MemoryInvertedIndex(InvertedIndex):
    """All ``k`` inverted indexes held in memory (paper's medium-scale path).

    The flat directory over a raw payload in RAM, without zone maps.
    Construct via :func:`repro.index.builder.build_memory_index` or
    :meth:`from_postings`.
    """

    @classmethod
    def from_postings(
        cls,
        family: HashFamily,
        t: int,
        per_func_postings: list[tuple[np.ndarray, np.ndarray]],
        num_texts: int | None = None,
    ) -> "MemoryInvertedIndex":
        """Build from per-function ``(minhash_array, posting_array)`` pairs.

        Postings are sorted by ``(minhash, text)`` and grouped into
        inverted lists here; builders only need to emit flat arrays.
        """
        if len(per_func_postings) != family.k:
            raise InvalidParameterError("one posting array per hash function is required")
        keys, rows = [], []
        for func, (minhashes, postings) in enumerate(per_func_postings):
            if postings.dtype != POSTING_DTYPE or minhashes.size != postings.size:
                raise InvalidParameterError(
                    "postings must use POSTING_DTYPE and align with their minhashes"
                )
            order = np.lexsort((postings["text"], minhashes))
            keys.append(
                (np.uint64(func) << np.uint64(32))
                | minhashes[order].astype(np.uint64)
            )
            rows.append(np.take(posting_rows(postings), order, axis=0))
        flat = np.concatenate(keys)
        heads = np.ones(flat.size, dtype=bool)
        heads[1:] = flat[1:] != flat[:-1]
        starts = np.flatnonzero(heads)
        return cls(
            family,
            t,
            flat[starts],
            starts,
            np.diff(np.append(starts, flat.size)),
            row_postings(np.concatenate(rows)),
            num_texts=num_texts,
        )


class DiskInvertedIndex(InvertedIndex):
    """The index of an on-disk directory, memory-mapped.

    Opening checks the metadata, maps the payload — ``raw`` (format v1)
    as posting records, ``packed`` (format v2) as bytes — and the flat
    directory (a legacy per-function one is concatenated into it first);
    the reads are :class:`InvertedIndex`'s.  ``directory_layout`` names
    the directory's layout: ``flat``, or the legacy ``sidecar`` / ``npz``.
    """

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        meta_path = self._directory / _META_FILE
        payload_path = self._directory / _PAYLOAD_FILE
        if not meta_path.exists():
            leftovers = [
                name
                for name in (_PAYLOAD_FILE, _DIR_SIDECAR_FILE)
                if (self._directory / name).exists()
            ]
            if leftovers:
                raise IndexFormatError(
                    f"{self._directory} has {', '.join(leftovers)} but no "
                    f"{_META_FILE} — likely a partial build (the writer "
                    "crashed before the metadata commit point); rebuild the "
                    "index"
                )
            raise IndexFormatError(f"missing {_META_FILE} in {self._directory}")
        # A torn or hand-edited meta is a format error, never a raw
        # JSON, key or type error.
        try:
            meta = json.loads(meta_path.read_text())
            family = HashFamily.from_dict(meta["family"])
            num_postings = int(meta["num_postings"])
            t, zonemap_step = int(meta["t"]), int(meta["zonemap_step"])
            if t < 1 or zonemap_step < 1:
                raise ValueError(f"t={t} and zonemap_step={zonemap_step} must be >= 1")
            num_texts = meta.get("num_texts")
            num_texts = None if num_texts is None else int(num_texts)
            version, codec = meta.get("format_version"), meta.get("codec", "raw")
            if codec == "packed":
                payload_bytes, dtype = int(meta["payload_bytes"]), np.dtype(np.uint8)
            else:
                payload_bytes, dtype = num_postings * POSTING_BYTES, POSTING_DTYPE
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{meta_path} is torn or mistypes a field: {exc!r}"
            ) from exc
        if version not in (_FORMAT_VERSION, _FORMAT_VERSION_PACKED):
            raise IndexFormatError(f"unsupported index format version {version!r}")
        if codec not in ("raw", "packed") or (
            (codec == "packed") != (version == _FORMAT_VERSION_PACKED)
        ):
            raise IndexFormatError(
                f"unsupported codec {codec!r} for format version {version}"
            )
        # Stat the payload exactly once; a vanished or unreadable file
        # surfaces as a format error, not a raw FileNotFoundError.
        try:
            payload_size = payload_path.stat().st_size
        except OSError as exc:
            raise IndexFormatError(
                f"payload file {_PAYLOAD_FILE} is missing or unreadable "
                f"in {self._directory}: {exc}"
            ) from exc
        if payload_size != payload_bytes:
            raise IndexFormatError(
                f"payload has {payload_size} bytes, "
                f"expected {payload_bytes} (truncated or corrupt)"
            )
        if payload_bytes:
            payload = np.memmap(payload_path, dtype=dtype, mode="r")
        else:
            payload = np.empty(0, dtype=dtype)
        if meta.get("directory") == "flat":
            self.directory_layout = "flat"
            arrays = read_sidecar(self._directory / _DIR_SIDECAR_FILE)[0]
        else:
            self.directory_layout, arrays = _legacy_directory(
                self._directory, meta.get("directory"), family.k, codec
            )
        super().__init__(
            family,
            t,
            payload=payload,
            zonemap_step=zonemap_step,
            num_texts=num_texts,
            **_reader_directory(arrays, family.k, codec, num_postings),
        )

    @property
    def directory(self) -> Path:
        """The index directory."""
        return self._directory

    @property
    def directory_nbytes(self) -> int:
        """Bytes of the directory file (the sidecar, or a legacy npz)."""
        name = _NPZ_DIR_FILE if self.directory_layout == "npz" else _DIR_SIDECAR_FILE
        return (self._directory / name).stat().st_size


#: The flat directory's arrays, in groups whose arrays agree in length:
#: one entry per list, per zone map and (packed only) per block.
_ZONE_MAPS = ("zm_keys", "zm_starts", "zm_lengths")
_FLAT_GROUPS = {
    "raw": {"list": ("keys", "counts", "starts"), "zone-map": _ZONE_MAPS},
    "packed": {
        "list": ("keys", "counts"),
        "zone-map": _ZONE_MAPS,
        "block": ("blk_first", "blk_widths", "blk_offsets"),
    },
}


def _reader_directory(
    arrays: dict[str, np.ndarray], k: int, codec: str, num_postings: int
) -> dict:
    """A flat directory as :class:`InvertedIndex` arguments, checked in a
    fixed number of vectorized steps, none per hash function: keys widen
    through their edges (:func:`_widen_keys`), each group's arrays agree
    in length, the counts sum to the meta's postings, and the block
    arrays hold the blocks the counts imply (a packed list's first block
    is the sum of the blocks before it)."""
    groups = _FLAT_GROUPS[codec]
    names = ("list_edges", "zm_edges", "zm_samples", *sum(groups.values(), ()))
    missing = [name for name in names if name not in arrays]
    if missing:
        raise IndexFormatError(f"index directory is missing arrays {missing}")
    for label, members in groups.items():
        if len({len(arrays[name]) for name in members}) > 1:
            raise IndexFormatError(f"{label} arrays {members} differ in length")
    counts = arrays["counts"].astype(np.int64)
    if int(counts.sum()) != num_postings:
        raise IndexFormatError(
            f"directory accounts for {int(counts.sum())} postings, "
            f"metadata says {num_postings}"
        )
    flat = {
        "keys": _widen_keys("list", arrays["list_edges"], arrays["keys"], k),
        "counts": counts,
        "zone_maps": (
            _widen_keys("zone-map", arrays["zm_edges"], arrays["zm_keys"], k),
            arrays["zm_starts"].astype(np.int64, copy=False),
            arrays["zm_lengths"],
            arrays["zm_samples"],
        ),
    }
    if codec == "raw":
        flat["starts"] = arrays["starts"].astype(np.int64, copy=False)
        return flat
    per_list = (counts + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS
    blocks = int(per_list.sum())
    if len(arrays["blk_first"]) != blocks or arrays["blk_widths"].shape[1:] != (4,):
        raise IndexFormatError(
            f"block directory does not hold the {blocks} blocks counts imply"
        )
    flat["starts"] = np.cumsum(per_list) - per_list
    flat["blocks"] = (
        arrays["blk_first"],
        arrays["blk_widths"],
        arrays["blk_offsets"].astype(np.int64, copy=False),
    )
    return flat


def _widen_keys(label: str, edges: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """``uint32`` keys, function ``f``'s at ``edges[f] : edges[f + 1]``,
    as one strictly ascending ``func << 32 | key`` array."""
    sizes = np.diff(edges)
    bounded = edges.shape == (k + 1,) and edges[0] == 0 and edges[-1] == keys.size
    if not bounded or np.any(sizes < 0):
        raise IndexFormatError(f"{label} edges do not bound its {keys.size} keys")
    funcs = np.repeat(np.arange(k, dtype=np.uint64), sizes)
    flat = (funcs << np.uint64(32)) | keys.astype(np.uint64)
    if (flat[1:] <= flat[:-1]).any():
        raise IndexFormatError(f"{label} keys do not strictly ascend")
    return flat


#: Arrays a legacy directory stores once per hash function (``keys_0``,
#: ``keys_1``, ...), besides ``offsets`` (raw) or the block arrays.
_LEGACY_ARRAYS = ("keys", "counts", *_ZONE_MAPS, "zm_samples")


def _legacy_directory(
    directory: Path, container: str | None, k: int, codec: str
) -> tuple[str, dict[str, np.ndarray]]:
    """A per-function directory (read, never written) as flat arrays.

    Returns its layout — ``sidecar`` (format 1 and 2) or ``npz`` — and
    each array's sections concatenated: the keys' per-function lengths
    become the edges and zone-map starts gain their function's sample
    base.  A packed list's byte ``offsets_f`` is not read.
    """
    sidecar = directory / _DIR_SIDECAR_FILE
    if container == "sidecar" or (container is None and sidecar.exists()):
        layout, arrays = "sidecar", read_sidecar(sidecar)[0]
    elif container in (None, "npz"):
        layout = "npz"
        try:
            with np.load(directory / _NPZ_DIR_FILE) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except (OSError, ValueError) as exc:
            raise IndexFormatError(
                f"directory file {_NPZ_DIR_FILE} is missing or corrupt: {exc}"
            ) from exc
    else:
        raise IndexFormatError(f"unsupported directory container {container!r}")
    extra = ("offsets",) if codec == "raw" else _FLAT_GROUPS["packed"]["block"]
    try:
        parts = {
            name: [arrays[f"{name}_{func}"] for func in range(k)]
            for name in _LEGACY_ARRAYS + extra
        }
        if codec == "packed":
            parts["blk_widths"] = [w.reshape(-1, 4) for w in parts["blk_widths"]]
        flat = {name: np.concatenate(sections) for name, sections in parts.items()}
    except (KeyError, ValueError) as exc:
        raise IndexFormatError(f"index directory lacks or misshapes {exc}") from exc
    if codec == "raw":
        flat["starts"] = flat.pop("offsets")
    edges = {
        name: np.cumsum([0] + [len(part) for part in parts[name]])
        for name in ("keys", "zm_keys", "zm_samples")
    }
    flat["list_edges"], flat["zm_edges"] = edges["keys"], edges["zm_keys"]
    flat["zm_starts"] = flat["zm_starts"].astype(np.int64) + np.repeat(
        edges["zm_samples"][:-1], np.diff(edges["zm_keys"])
    )
    return layout, flat


def _rows_of_texts(texts: np.ndarray, text_ids: np.ndarray) -> np.ndarray:
    """Positions of the ``texts`` entries that ``text_ids`` (sorted,
    unique) holds."""
    if text_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    at = np.minimum(np.searchsorted(text_ids, texts), text_ids.size - 1)
    return np.flatnonzero(text_ids[at] == texts)


def _merge_ranges(
    owners: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge each owner's overlapping or touching ``[lo, hi)`` ranges.

    Ranges arrive grouped by owner with ``lo`` and ``hi`` both ascending
    within an owner (the zone ranges of ascending text ids are), so a
    merged range ends where its last member does.
    """
    if lo.size < 2:
        return owners, lo, hi
    head = np.ones(lo.size, dtype=bool)
    head[1:] = (owners[1:] != owners[:-1]) | (lo[1:] > hi[:-1])
    heads = np.flatnonzero(head)
    tails = np.append(heads[1:], lo.size) - 1
    return owners[heads], lo[heads], hi[tails]
