"""Scalar oracles of the index write path: the codec and the writer.

``reference_*`` reimplement the v2 byte format with explicit loops,
bit by bit; the vectorized codec must match them byte for byte.
:class:`OracleIndexWriter` is the writer as a per-list loop: it encodes
each list on its own with :func:`reference_encode_list`, keeps the
directory as Python lists of ints and reorders it list by list at
close.  Patched in for ``repro.index.storage._IndexWriter`` (see
:func:`oracle_writer`), it turns any build path into its oracle: the
same lists in the same order, written by code that shares nothing with
the vector writer but the sidecar container.  With ``dir_format="npz"``
it also writes the legacy zipped directory the package no longer
writes, so tests keep the reader's legacy branch covered.
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
    """``_IndexWriter`` as a loop over lists, one scalar encode each."""

    def __init__(
        self,
        directory,
        family,
        t,
        zonemap_step=storage.DEFAULT_STEP,
        zonemap_min_list=storage.DEFAULT_ZONEMAP_MIN_LIST,
        codec="raw",
        dir_format="sidecar",
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
        k = family.k
        self._keys = [[] for _ in range(k)]
        self._offsets = [[] for _ in range(k)]
        self._counts = [[] for _ in range(k)]
        self._zm_keys = [[] for _ in range(k)]
        self._zm_ptr = [[] for _ in range(k)]
        self._zm_samples = [[] for _ in range(k)]
        self._blk_first = [[] for _ in range(k)]
        self._blk_widths = [[] for _ in range(k)]
        self._blk_offsets = [[] for _ in range(k)]
        self.bytes_written = 0
        self.io_seconds = 0.0

    def write_lists(self, funcs, minhashes, postings, bounds):
        funcs = np.broadcast_to(funcs, np.shape(minhashes))
        for func, minhash, lo, hi in zip(funcs, minhashes, bounds[:-1], bounds[1:]):
            self.write_list(
                int(func), int(minhash), np.array(postings[int(lo) : int(hi)])
            )

    def write_list(self, func, minhash, postings):
        if self._codec == "packed":
            encoded = reference_encode_list(postings)
            self._payload.write(encoded.data.tobytes())
            sizes = encoded.block_sizes
            self._blk_first[func].append(encoded.first_texts)
            self._blk_widths[func].append(encoded.widths)
            self._blk_offsets[func].append(
                self._payload_bytes + np.concatenate(([0], np.cumsum(sizes)))[:-1]
            )
            self._offsets[func].append(self._payload_bytes)
            self._payload_bytes += int(encoded.data.size)
        else:
            self._payload.write(postings.tobytes())
            self._offsets[func].append(self._written)
            self._payload_bytes += int(postings.size) * POSTING_BYTES
        self.bytes_written = self._payload_bytes
        self._keys[func].append(minhash)
        self._counts[func].append(int(postings.size))
        if postings.size >= self._min_list:
            self._zm_keys[func].append(minhash)
            self._zm_ptr[func].append(sum(s.size for s in self._zm_samples[func]))
            self._zm_samples[func].append(postings["text"][:: self._step].astype(np.uint32))
        self._written += int(postings.size)

    def close(self):
        self._payload.close()
        arrays = {}
        for func in range(self._family.k):
            keys = np.asarray(self._keys[func], dtype=np.uint32)
            order = np.argsort(keys, kind="stable")
            arrays[f"keys_{func}"] = keys[order]
            arrays[f"offsets_{func}"] = np.asarray(self._offsets[func], dtype=np.uint64)[order]
            arrays[f"counts_{func}"] = np.asarray(self._counts[func], dtype=np.uint32)[order]
            if self._codec == "packed":
                parts = (
                    ("blk_first", self._blk_first[func], np.empty(0, np.uint32)),
                    ("blk_widths", self._blk_widths[func], np.empty((0, 4), np.uint8)),
                    ("blk_offsets", self._blk_offsets[func], np.empty(0, np.uint64)),
                )
                for name, fragments, empty in parts:
                    arrays[f"{name}_{func}"] = (
                        np.concatenate([fragments[i] for i in order]).astype(empty.dtype)
                        if fragments
                        else empty
                    )
            zm_keys = np.asarray(self._zm_keys[func], dtype=np.uint32)
            zm_ptr = np.asarray(self._zm_ptr[func] + [0], dtype=np.uint64)
            samples = (
                np.concatenate(self._zm_samples[func])
                if self._zm_samples[func]
                else np.empty(0, dtype=np.uint32)
            )
            zm_ptr[-1] = samples.size
            zm_order = np.argsort(zm_keys, kind="stable")
            arrays[f"zm_keys_{func}"] = zm_keys[zm_order]
            arrays[f"zm_starts_{func}"] = zm_ptr[:-1][zm_order]
            arrays[f"zm_lengths_{func}"] = (
                np.diff(zm_ptr.astype(np.int64))[zm_order].astype(np.uint32)
            )
            arrays[f"zm_samples_{func}"] = samples
        if self._dir_format == "sidecar":
            write_sidecar(self._directory / storage._DIR_SIDECAR_FILE, arrays)
        else:
            np.savez(self._directory / storage._NPZ_DIR_FILE, **arrays)
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


@contextlib.contextmanager
def oracle_writer(monkeypatch):
    """Route every build path (memory, external, merge, seal) through
    :class:`OracleIndexWriter` for the duration of the block."""
    with monkeypatch.context() as patch:
        for module in (storage, external, merge):
            patch.setattr(module, "_IndexWriter", OracleIndexWriter)
        yield
