"""Scalar oracles of the index write path: the codec and the writer.

``reference_*`` reimplement the v2 byte format with explicit loops,
bit by bit; the vectorized codec must match them byte for byte.
:class:`OracleIndexWriter` is the writer as a per-list loop: it encodes
each list on its own with :func:`reference_encode_list`, keeps the
directory as Python lists of ints and reorders it list by list at
close.  Patched in for ``repro.index.storage._IndexWriter`` (see
:func:`oracle_writer`), it turns any build path into its oracle: the
same lists in the same order, written by code that shares nothing with
the vector writer but the sidecar container.  With ``dir_format``
``"sidecar"`` or ``"npz"`` it also writes the legacy per-function
directory the package no longer writes, so tests keep the reader's
legacy branch covered.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from repro.index import external, merge, storage
from repro.index.codec import BLOCK_POSTINGS, NUM_COLUMNS, EncodedList, block_counts
from repro.index.inverted import POSTING_BYTES, POSTING_DTYPE
from repro.index.sidecar import write_sidecar

#: The three files a build commits; byte identity covers all of them.
INDEX_FILES = ("index.postings.bin", "index.dir.bin", "index.meta.json")


def index_bytes(directory) -> dict[str, bytes]:
    """Payload, sidecar and meta of one index directory."""
    return {name: (Path(directory) / name).read_bytes() for name in INDEX_FILES}


# ----------------------------------------------------------------------
# Scalar reference codec
# ----------------------------------------------------------------------
def reference_pack_bits(values, width: int) -> np.ndarray:
    """Bit-by-bit scalar ``pack_bits`` — byte-identical output."""
    values = [int(v) for v in values]
    if width == 0 or not values:
        return np.empty(0, dtype=np.uint8)
    out = bytearray((len(values) * width + 7) // 8)
    position = 0
    for value in values:
        for bit in range(width - 1, -1, -1):
            if (value >> bit) & 1:
                out[position >> 3] |= 0x80 >> (position & 7)
            position += 1
    return np.frombuffer(bytes(out), dtype=np.uint8)


def reference_unpack_bits(slab, count: int, width: int) -> np.ndarray:
    """Bit-by-bit scalar unpack of ``count`` ``width``-bit values."""
    raw = bytes(bytearray(np.asarray(slab, dtype=np.uint8)))
    values = []
    position = 0
    for _ in range(count):
        value = 0
        for _ in range(width):
            value = (value << 1) | ((raw[position >> 3] >> (7 - (position & 7))) & 1)
            position += 1
        values.append(value)
    return np.asarray(values, dtype=np.uint32) if values else np.zeros(0, dtype=np.uint32)


def reference_encode_list(postings: np.ndarray) -> EncodedList:
    """Scalar ``encode_list`` — must produce identical bytes."""
    first_texts: list[int] = []
    width_rows: list[list[int]] = []
    chunks: list[np.ndarray] = [np.empty(0, dtype=np.uint8)]
    for start in range(0, int(postings.size), BLOCK_POSTINGS):
        block = postings[start : start + BLOCK_POSTINGS]
        texts = [int(rec["text"]) for rec in block]
        first_texts.append(texts[0])
        columns: list[list[int]] = [[], [], [], []]
        for i, rec in enumerate(block):
            center = int(rec["center"])
            columns[0].append(0 if i == 0 else texts[i] - texts[i - 1])
            columns[1].append(center - int(rec["left"]))
            columns[2].append(center)
            columns[3].append(int(rec["right"]) - center)
        row = [max(col).bit_length() for col in columns]
        width_rows.append(row)
        for col, width in zip(columns, row):
            chunks.append(reference_pack_bits(col, width))
    return EncodedList(
        data=np.concatenate(chunks),
        first_texts=np.asarray(first_texts, dtype=np.uint32),
        widths=np.asarray(width_rows, dtype=np.uint8).reshape(-1, NUM_COLUMNS),
        count=int(postings.size),
    )


def reference_decode_list(encoded: EncodedList) -> np.ndarray:
    """Scalar block decoder — the oracle for ``decode_blocks``."""
    out = np.empty(encoded.count, dtype=POSTING_DTYPE)
    counts = block_counts(encoded.count)
    cursor = 0
    emitted = 0
    raw = encoded.data
    for b in range(encoded.num_blocks):
        n = int(counts[b])
        columns = []
        for col in range(NUM_COLUMNS):
            width = int(encoded.widths[b, col])
            nbytes = (n * width + 7) // 8
            columns.append(
                reference_unpack_bits(raw[cursor : cursor + nbytes], n, width)
                if width
                else np.zeros(n, dtype=np.uint32)
            )
            cursor += nbytes
        text = int(encoded.first_texts[b])
        for i in range(n):
            text += int(columns[0][i])
            center = int(columns[2][i])
            out[emitted] = (
                text,
                center - int(columns[1][i]),
                center,
                center + int(columns[3][i]),
            )
            emitted += 1
    return out


# ----------------------------------------------------------------------
# Per-list oracle writer
# ----------------------------------------------------------------------
class OracleIndexWriter:
    """``_IndexWriter`` as a loop over lists, one scalar encode each.

    ``dir_format="flat"`` (the default) writes the one layout the
    package writes; ``"sidecar"`` and ``"npz"`` write the legacy
    per-function directory (``keys_0``, ``offsets_0``, ...) in the
    sidecar or the zipped archive, which only the reader's legacy branch
    opens.
    """

    def __init__(
        self,
        directory,
        family,
        t,
        zonemap_step=storage.DEFAULT_STEP,
        zonemap_min_list=storage.DEFAULT_ZONEMAP_MIN_LIST,
        codec="raw",
        dir_format="flat",
        num_texts=None,
    ):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._family = family
        self._t = int(t)
        self._num_texts = num_texts
        self._step = int(zonemap_step)
        self._min_list = int(zonemap_min_list)
        self._codec = codec
        self._dir_format = dir_format
        self._payload = open(self._directory / storage._PAYLOAD_FILE, "wb")
        self._written = 0
        self._payload_bytes = 0
        #: One record per list, in write order.
        self._lists = []
        self.bytes_written = 0
        self.io_seconds = 0.0

    def write_lists(self, funcs, minhashes, postings, bounds):
        funcs = np.broadcast_to(funcs, np.shape(minhashes))
        for func, minhash, lo, hi in zip(funcs, minhashes, bounds[:-1], bounds[1:]):
            self.write_list(
                int(func), int(minhash), np.array(postings[int(lo) : int(hi)])
            )

    def write_list(self, func, minhash, postings):
        record = {"func": func, "key": minhash, "count": int(postings.size)}
        if self._codec == "packed":
            encoded = reference_encode_list(postings)
            self._payload.write(encoded.data.tobytes())
            sizes = encoded.block_sizes
            record["blk_first"] = encoded.first_texts
            record["blk_widths"] = encoded.widths
            record["blk_offsets"] = (
                self._payload_bytes + np.concatenate(([0], np.cumsum(sizes)))[:-1]
            )
            record["offset"] = self._payload_bytes
            self._payload_bytes += int(encoded.data.size)
        else:
            self._payload.write(postings.tobytes())
            record["offset"] = self._written
            self._payload_bytes += int(postings.size) * POSTING_BYTES
        self.bytes_written = self._payload_bytes
        record["samples"] = (
            postings["text"][:: self._step].astype(np.uint32)
            if postings.size >= self._min_list
            else None
        )
        self._lists.append(record)
        self._written += int(postings.size)

    def _flat_arrays(self):
        """The flat layout: one section per array across all functions."""
        k = self._family.k
        lists = sorted(self._lists, key=lambda r: (r["func"], r["key"]))
        long = [r for r in self._lists if r["samples"] is not None]
        sample_starts = {}
        position = 0
        for record in long:  # samples stay in write order
            sample_starts[id(record)] = position
            position += record["samples"].size
        zone_mapped = sorted(long, key=lambda r: (r["func"], r["key"]))

        def edges(records):
            return np.asarray(
                [sum(1 for r in records if r["func"] < f) for f in range(k + 1)],
                dtype=np.int64,
            )

        arrays = {
            "list_edges": edges(lists),
            "keys": np.asarray([r["key"] for r in lists], dtype=np.uint32),
            "counts": np.asarray([r["count"] for r in lists], dtype=np.uint32),
        }
        if self._codec == "packed":
            arrays.update(_blocks(lists, np.int64))
        else:
            arrays["starts"] = np.asarray([r["offset"] for r in lists], dtype=np.int64)
        arrays["zm_edges"] = edges(zone_mapped)
        arrays["zm_keys"] = np.asarray([r["key"] for r in zone_mapped], dtype=np.uint32)
        arrays["zm_starts"] = np.asarray(
            [sample_starts[id(r)] for r in zone_mapped], dtype=np.int64
        )
        arrays["zm_lengths"] = np.asarray(
            [r["samples"].size for r in zone_mapped], dtype=np.uint32
        )
        arrays["zm_samples"] = _joined([r["samples"] for r in long], np.uint32)
        return arrays

    def _legacy_arrays(self):
        """The per-function layout: every array once per hash function,
        ``offsets_f`` a posting index (raw) or byte offset (packed)."""
        arrays = {}
        for func in range(self._family.k):
            written = [r for r in self._lists if r["func"] == func]
            lists = sorted(written, key=lambda r: r["key"])
            arrays[f"keys_{func}"] = np.asarray([r["key"] for r in lists], dtype=np.uint32)
            arrays[f"offsets_{func}"] = np.asarray(
                [r["offset"] for r in lists], dtype=np.uint64
            )
            arrays[f"counts_{func}"] = np.asarray(
                [r["count"] for r in lists], dtype=np.uint32
            )
            if self._codec == "packed":
                for name, array in _blocks(lists, np.uint64).items():
                    arrays[f"{name}_{func}"] = array
            long = [r for r in written if r["samples"] is not None]
            starts = np.cumsum([0] + [r["samples"].size for r in long])[:-1]
            order = sorted(range(len(long)), key=lambda i: long[i]["key"])
            arrays[f"zm_keys_{func}"] = np.asarray(
                [long[i]["key"] for i in order], dtype=np.uint32
            )
            arrays[f"zm_starts_{func}"] = np.asarray(
                [starts[i] for i in order], dtype=np.uint64
            )
            arrays[f"zm_lengths_{func}"] = np.asarray(
                [long[i]["samples"].size for i in order], dtype=np.uint32
            )
            arrays[f"zm_samples_{func}"] = _joined([r["samples"] for r in long], np.uint32)
        return arrays

    def close(self):
        self._payload.close()
        if self._dir_format == "flat":
            write_sidecar(self._directory / storage._DIR_SIDECAR_FILE, self._flat_arrays())
        elif self._dir_format == "sidecar":
            write_sidecar(self._directory / storage._DIR_SIDECAR_FILE, self._legacy_arrays())
        else:
            np.savez(self._directory / storage._NPZ_DIR_FILE, **self._legacy_arrays())
        meta = {
            "format_version": 2 if self._codec == "packed" else 1,
            "t": self._t,
            "num_postings": self._written,
            "zonemap_step": self._step,
            "zonemap_min_list": self._min_list,
            "family": self._family.to_dict(),
            "directory": self._dir_format,
        }
        if self._num_texts is not None:
            meta["num_texts"] = int(self._num_texts)
        if self._codec == "packed":
            meta["codec"] = self._codec
            meta["payload_bytes"] = self._payload_bytes
        temp = self._directory / "index.meta.json.tmp"
        temp.write_text(json.dumps(meta))
        os.replace(temp, self._directory / "index.meta.json")


def _joined(parts, dtype, shape=()):
    """``parts`` concatenated in ``dtype``; an empty array of trailing
    ``shape`` when there are none."""
    if not parts:
        return np.empty((0, *shape), dtype=dtype)
    return np.concatenate(parts).astype(dtype)


def _blocks(lists, offset_dtype):
    """The block arrays of ``lists``' blocks, list after list."""
    return {
        "blk_first": _joined([r["blk_first"] for r in lists], np.uint32),
        "blk_widths": _joined([r["blk_widths"] for r in lists], np.uint8, (4,)),
        "blk_offsets": _joined([r["blk_offsets"] for r in lists], offset_dtype),
    }


@contextlib.contextmanager
def oracle_writer(monkeypatch):
    """Route every build path (memory, external, merge, seal) through
    :class:`OracleIndexWriter` for the duration of the block."""
    with monkeypatch.context() as patch:
        for module in (storage, external, merge):
            patch.setattr(module, "_IndexWriter", OracleIndexWriter)
        yield
