"""Out-of-core index construction via hash aggregation (Section 3.4).

For corpora that do not fit in memory (the paper's C4/Pile case) the
build proceeds in two passes over index-sized data:

1. **Spill pass** — stream the corpus in batches of texts; generate the
   compact-window postings of each batch; *partition* them by a hash of
   ``(func, minhash)`` into ``P`` spill files, appending raw records.
2. **Aggregation pass** — load each partition (it holds complete
   inverted lists, since all postings of one ``(func, minhash)`` key
   land in the same partition), sort by ``(func, minhash, text)``,
   and append its lists to the final index file.  The sorted partition
   is every list's postings back to back, so the writer encodes and
   writes it in one call, with no per-list loop.  A partition that
   still exceeds the memory budget is *recursively* re-partitioned
   with a different hash, exactly as the paper's references [52]
   prescribe.

Both passes run sequentially in one process: pass 1 spills each batch
right after generating it, and pass 2 appends the partitions to the
index file in partition order.

The result is byte-compatible with :func:`repro.index.storage.write_index`
output list by list: every inverted list is encoded to the same bytes,
only the order of lists within the payload differs (it follows the
partitions, so ``num_partitions`` and a re-partitioning memory budget
change it; ``batch_texts`` does not).  The directory carries explicit
offsets, so readers cannot tell the difference.
"""

from __future__ import annotations

import logging
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.hashing import HashFamily
from repro.corpus.corpus import infer_vocab_size, iter_corpus_batches
from repro.exceptions import InvalidParameterError
from repro.index.builder import BuildStats, generate_corpus_postings
from repro.index.codec import check_codec
from repro.index.inverted import POSTING_DTYPE
from repro.index.storage import _IndexWriter

logger = logging.getLogger(__name__)

#: Spill record: posting plus its routing key (hash function, min-hash).
SPILL_DTYPE = np.dtype(
    [
        ("func", np.uint32),
        ("minhash", np.uint32),
        ("text", np.uint32),
        ("left", np.uint32),
        ("center", np.uint32),
        ("right", np.uint32),
    ]
)


@dataclass
class ExternalBuildConfig:
    """Tuning knobs of the out-of-core build.

    ``batch_texts`` bounds the texts generated per pass-1 batch;
    ``num_partitions`` spill files split the postings by key, and a
    partition larger than ``memory_budget_bytes`` is re-partitioned up
    to ``max_recursion`` times.  None of the four changes any list's
    bytes, only where the list sits in the payload.
    ``codec="packed"`` stream-compresses every aggregated list into the
    format v2 payload during pass 2 — the raw 16-byte postings only
    ever exist in the bounded spill files.
    """

    batch_texts: int = 256
    num_partitions: int = 16
    memory_budget_bytes: int = 64 * 1024 * 1024
    max_recursion: int = 4
    codec: str = "raw"

    def __post_init__(self) -> None:
        if self.batch_texts <= 0:
            raise InvalidParameterError("batch_texts must be positive")
        if self.num_partitions <= 1:
            raise InvalidParameterError("num_partitions must be > 1")
        if self.memory_budget_bytes < SPILL_DTYPE.itemsize:
            raise InvalidParameterError("memory budget smaller than one record")
        check_codec(self.codec)


def _partition_of(records: np.ndarray, num_partitions: int, salt: int) -> np.ndarray:
    """Partition id of each spill record, keyed by ``(func, minhash)``.

    A multiplicative mix keyed by ``salt`` lets recursive re-partitions
    split a skewed partition differently than the parent pass did.
    """
    key = (
        records["func"].astype(np.uint64) << np.uint64(32)
    ) | records["minhash"].astype(np.uint64)
    with np.errstate(over="ignore"):
        mixed = key * np.uint64(0x9E3779B97F4A7C15 + 2 * salt + 1)
        mixed ^= mixed >> np.uint64(29)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(32)
    return (mixed % np.uint64(num_partitions)).astype(np.int64)


def _spill_batch(
    records: np.ndarray,
    handles: list,
    num_partitions: int,
    salt: int,
) -> int:
    """Append ``records`` to their spill files; returns bytes written."""
    parts = _partition_of(records, num_partitions, salt)
    written = 0
    for pid in range(num_partitions):
        chunk = records[parts == pid]
        if chunk.size:
            chunk.tofile(handles[pid])
            written += chunk.nbytes
    return written


def _flush_partition(
    records: np.ndarray,
    emit: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None],
    config: ExternalBuildConfig,
    workdir: Path,
    depth: int,
) -> None:
    """Sort a partition and emit all its lists in one call.

    After one ``lexsort`` by ``(func, minhash, text)`` every list is a
    contiguous run of the sorted postings, so
    ``emit(funcs, minhashes, postings, bounds)`` receives the whole
    partition: list ``i`` has key ``(funcs[i], minhashes[i])`` and
    postings ``postings[bounds[i] : bounds[i + 1]]``.  The build passes
    the index writer's ``write_lists``.  Recursively re-partitions when
    the data exceeds the memory budget and the recursion limit allows;
    sub-partition spill files are only created for non-empty
    sub-partitions, and the scratch directory is removed even when
    aggregation fails partway.
    """
    if records.nbytes > config.memory_budget_bytes and depth < config.max_recursion:
        logger.debug(
            "partition of %d bytes exceeds budget %d; re-partitioning at depth %d",
            records.nbytes,
            config.memory_budget_bytes,
            depth,
        )
        sub_dir = workdir / f"depth{depth}"
        sub_dir.mkdir(exist_ok=True)
        try:
            parts = _partition_of(records, config.num_partitions, salt=depth + 1)
            paths = []
            for pid in range(config.num_partitions):
                chunk = records[parts == pid]
                if not chunk.size:
                    continue  # skip empty sub-partitions entirely
                path = sub_dir / f"part{pid}.spill"
                chunk.tofile(path)
                paths.append(path)
            del records, parts
            for path in paths:
                sub_records = np.fromfile(path, dtype=SPILL_DTYPE)
                path.unlink()
                _flush_partition(sub_records, emit, config, sub_dir, depth + 1)
        finally:
            shutil.rmtree(sub_dir, ignore_errors=True)
        return

    order = np.lexsort((records["text"], records["minhash"], records["func"]))
    postings = np.empty(order.size, dtype=POSTING_DTYPE)
    for name in ("text", "left", "center", "right"):
        postings[name] = records[name][order]
    funcs = records["func"][order]
    minhashes = records["minhash"][order]
    new_key = np.ones(order.size, dtype=bool)
    new_key[1:] = (funcs[1:] != funcs[:-1]) | (minhashes[1:] != minhashes[:-1])
    starts = np.flatnonzero(new_key)
    emit(funcs[starts], minhashes[starts], postings, np.append(starts, order.size))


def build_external_index(
    corpus,
    family: HashFamily,
    t: int,
    directory: str | Path,
    *,
    vocab_size: int | None = None,
    config: ExternalBuildConfig | None = None,
    stats: BuildStats | None = None,
) -> BuildStats:
    """Build an on-disk index without holding the postings in memory.

    ``corpus`` is streamed through
    :func:`~repro.corpus.corpus.iter_corpus_batches` (sequential I/O on
    :class:`~repro.corpus.store.DiskCorpus`).  Returns build stats with
    per-phase timings (generation, aggregation, I/O) and bytes written
    (spill + final).
    """
    if config is None:
        config = ExternalBuildConfig()
    if t < 1:
        raise InvalidParameterError(f"t must be >= 1, got {t}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spill_dir = directory / "spill"
    spill_dir.mkdir(exist_ok=True)
    if vocab_size is None:
        vocab_size = infer_vocab_size(corpus)
    from repro.index.builder import MAX_VOCAB_TABLE

    vocab_hashes = (
        family.hash_vocabulary(vocab_size) if vocab_size <= MAX_VOCAB_TABLE else None
    )
    if stats is None:
        stats = BuildStats()
    windows_per_func = [0] * family.k

    try:
        # Pass 1: generate postings batch by batch and spill by partition.
        spill_paths = [
            spill_dir / f"part{pid}.spill" for pid in range(config.num_partitions)
        ]
        handles = [open(path, "wb") for path in spill_paths]
        try:
            for batch in iter_corpus_batches(corpus, config.batch_texts):
                begin = time.perf_counter()
                per_func = generate_corpus_postings(batch, family, t, vocab_hashes)
                counts = [int(postings.size) for _, postings in per_func]
                # Spill records are six uint32 columns: func, minhash and
                # the four posting fields.
                batch_records = np.empty(sum(counts), dtype=SPILL_DTYPE)
                columns = batch_records.view(np.uint32).reshape(-1, 6)
                columns[:, 0] = np.repeat(np.arange(family.k), counts)
                columns[:, 1] = np.concatenate([m for m, _ in per_func])
                postings = np.concatenate([p for _, p in per_func])
                columns[:, 2:] = postings.view(np.uint32).reshape(-1, 4)
                stats.generation_seconds += time.perf_counter() - begin
                stats.texts_indexed += len(batch)
                stats.batches += 1
                windows_per_func = [n + c for n, c in zip(windows_per_func, counts)]
                if not batch_records.size:
                    continue
                stats.windows_generated += int(batch_records.size)
                begin = time.perf_counter()
                stats.bytes_written += _spill_batch(
                    batch_records, handles, config.num_partitions, salt=0
                )
                stats.io_seconds += time.perf_counter() - begin
        finally:
            for handle in handles:
                handle.close()

        begin = time.perf_counter()
        nonempty = []
        for path in spill_paths:
            if path.stat().st_size:
                nonempty.append(path)
            else:
                path.unlink()
        stats.io_seconds += time.perf_counter() - begin

        # Pass 2: aggregate each partition into final inverted lists.
        writer = _IndexWriter(directory, family, t, codec=config.codec)
        for path in nonempty:
            begin = time.perf_counter()
            records = np.fromfile(path, dtype=SPILL_DTYPE)
            path.unlink()
            stats.io_seconds += time.perf_counter() - begin
            begin = time.perf_counter()
            writes_before = writer.io_seconds
            _flush_partition(records, writer.write_lists, config, spill_dir, depth=0)
            # The writer's payload writes ran inside this span but count
            # as I/O (added below with the rest of writer.io_seconds), so
            # the phases stay disjoint.
            stats.aggregation_seconds += (
                time.perf_counter() - begin - (writer.io_seconds - writes_before)
            )
        writer.close()
        stats.io_seconds += writer.io_seconds
        stats.bytes_written += writer.bytes_written
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    stats.windows_per_func = windows_per_func
    logger.info(
        "external build complete: %d postings, %d bytes written, "
        "generation %.2fs, aggregation %.2fs, io %.2fs",
        stats.windows_generated,
        stats.bytes_written,
        stats.generation_seconds,
        stats.aggregation_seconds,
        stats.io_seconds,
    )
    return stats
