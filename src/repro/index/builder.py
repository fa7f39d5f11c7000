"""In-memory index construction (paper Section 3.4, Algorithm 1).

For medium-scale corpora that fit in memory, Algorithm 1 loads the
corpus, generates the valid compact windows of every text under each of
the ``k`` hash functions, groups them into inverted lists and (
optionally) writes each index to disk.  The out-of-core variant for
large corpora lives in :mod:`repro.index.external`.

:func:`generate_corpus_postings` is the one window-generation path of
every build (this module, the out-of-core build and the live index's
memtable).  It packs a batch's texts into chunks of about
``_CHUNK_CELLS`` hash cells, hashes each chunk with one table gather
and generates the windows of all its texts under all ``k`` functions in
one :func:`~repro.core.compact_windows.generate_chunk_windows` call.
The corpus is streamed in bounded batches — peak memory holds one batch
of texts plus the growing postings, never a second copy of the corpus.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.compact_windows import chunk_layout, generate_chunk_windows
from repro.core.hashing import HashFamily
from repro.corpus.corpus import Corpus, infer_vocab_size, iter_corpus_batches
from repro.exceptions import InvalidParameterError
from repro.index.inverted import MemoryInvertedIndex, POSTING_BYTES, POSTING_DTYPE
from repro.index.storage import _PAYLOAD_FILE, write_index

logger = logging.getLogger(__name__)

#: Texts per streamed batch when the caller does not choose.
DEFAULT_BATCH_TEXTS = 256


@dataclass
class BuildStats:
    """Timing and size accounting of one index build.

    The paper's Figure 2(i)–(l) splits index time into compact-window
    generation and disk I/O; builders populate both parts, plus the
    in-memory phases around them:

    * ``generation_seconds`` — hashing + compact-window generation;
    * ``merge_seconds`` — sorting/grouping postings into inverted lists;
    * ``aggregation_seconds`` — the out-of-core build's pass-2 partition
      aggregation (sort + group + encode), without the index payload
      writes that run inside it;
    * ``io_seconds`` — spill and index file reads/writes;
    * ``bytes_written`` — bytes the build put on disk: the index
      payload, plus the spill files of the out-of-core build.

    The phases are disjoint, so ``total_seconds`` never exceeds the
    build's wall time.  ``windows_per_func`` counts the postings of
    each hash function.
    """

    windows_generated: int = 0
    generation_seconds: float = 0.0
    merge_seconds: float = 0.0
    aggregation_seconds: float = 0.0
    io_seconds: float = 0.0
    bytes_written: int = 0
    texts_indexed: int = 0
    batches: int = 0
    windows_per_func: list[int] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return (
            self.generation_seconds
            + self.merge_seconds
            + self.aggregation_seconds
            + self.io_seconds
        )

    @property
    def index_bytes(self) -> int:
        """Logical index size (16 bytes per stored window)."""
        return self.windows_generated * POSTING_BYTES


#: Vocabularies past this size are hashed directly instead of through a
#: precomputed table (the table would cost 4 bytes x k x vocab).
MAX_VOCAB_TABLE = 1 << 24


#: Hash-matrix cells (``k`` x tokens) per call of the window kernel.
#: Texts are packed into chunks of about this size, so the kernel's
#: int64 work arrays stay cache-sized and peak memory does not grow
#: with the batch.  A longer text is one chunk on its own.
_CHUNK_CELLS = 1 << 16


def _chunks(texts: list[tuple[int, np.ndarray]], k: int):
    """Split a batch into runs of texts of at most ``_CHUNK_CELLS`` cells."""
    begin, cells = 0, 0
    for end, (_, tokens) in enumerate(texts):
        size = k * (int(tokens.size) + 1)
        if cells and cells + size > _CHUNK_CELLS:
            yield texts[begin:end]
            begin, cells = end, 0
        cells += size
    if begin < len(texts):
        yield texts[begin:]


def generate_corpus_postings(
    texts: list[tuple[int, np.ndarray]],
    family: HashFamily,
    t: int,
    vocab_hashes: np.ndarray | None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate per-function ``(minhash, posting)`` arrays for a batch of texts.

    ``vocab_hashes`` is the ``(k, vocab)`` table from
    :meth:`HashFamily.hash_vocabulary`; pass ``None`` (huge token-id
    spaces) to hash the tokens directly.  The batch is cut into chunks
    of about ``_CHUNK_CELLS`` hash cells; each chunk's texts are laid
    out by :func:`~repro.core.compact_windows.chunk_layout`, hashed with
    one gather and handed to
    :func:`~repro.core.compact_windows.generate_chunk_windows` in one
    call.  Function ``f``'s postings are sorted by ``(text, center)``
    in batch order.
    """
    k = family.k
    per_func: list[tuple[list[np.ndarray], list[np.ndarray]]] = [
        ([], []) for _ in range(k)
    ]
    for chunk in _chunks(texts, k):
        layout = chunk_layout([tokens for _, tokens in chunk]).astype(np.int64)
        if vocab_hashes is not None:
            hash_matrix = vocab_hashes[:, layout]
        else:
            hash_matrix = family.hash_tokens_all(layout)
        lengths = [tokens.size for _, tokens in chunk]
        bounds, minhashes, rows = generate_chunk_windows(hash_matrix, lengths, t)
        text_ids = np.array([text_id for text_id, _ in chunk], dtype=np.uint32)
        rows[:, 0] = text_ids[rows[:, 0]]
        postings = rows.view(POSTING_DTYPE).ravel()
        for func in range(k):
            lo, hi = bounds[func], bounds[func + 1]
            if hi > lo:
                per_func[func][0].append(minhashes[lo:hi])
                per_func[func][1].append(postings[lo:hi])
    return merge_per_func_chunks(per_func)


def merge_per_func_chunks(
    per_func_chunks: list[tuple[list[np.ndarray], list[np.ndarray]]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Concatenate per-batch ``(minhash, posting)`` chunk lists into the
    flat per-function arrays :meth:`MemoryInvertedIndex.from_postings`
    consumes."""
    per_func = []
    for minhash_chunks, posting_chunks in per_func_chunks:
        if minhash_chunks:
            # Joined as uint32 words: a structured concatenate pays a
            # dtype promotion per piece.
            words = np.concatenate([p.view(np.uint32) for p in posting_chunks])
            per_func.append((np.concatenate(minhash_chunks), words.view(POSTING_DTYPE)))
        else:
            per_func.append(
                (np.empty(0, dtype=np.uint32), np.empty(0, dtype=POSTING_DTYPE))
            )
    return per_func


def build_memory_index(
    corpus: Corpus,
    family: HashFamily,
    t: int,
    *,
    vocab_size: int | None = None,
    stats: BuildStats | None = None,
    batch_texts: int = DEFAULT_BATCH_TEXTS,
) -> MemoryInvertedIndex:
    """Algorithm 1: build all ``k`` inverted indexes in memory.

    Parameters
    ----------
    corpus:
        Any :class:`~repro.corpus.corpus.Corpus`; it is streamed once in
        batches of ``batch_texts`` texts, so peak memory never holds a
        second copy of the corpus.
    family:
        The ``k`` hash functions of the index.
    t:
        Length threshold; only windows of width ``>= t`` are stored.
    vocab_size:
        Token-id space size.  Inferred from the corpus when omitted.
    stats:
        Optional accumulator for timing/size accounting.
    batch_texts:
        Texts per streamed batch.
    """
    if t < 1:
        raise InvalidParameterError(f"t must be >= 1, got {t}")
    if vocab_size is None:
        vocab_size = infer_vocab_size(corpus)
    vocab_hashes = (
        family.hash_vocabulary(vocab_size) if vocab_size <= MAX_VOCAB_TABLE else None
    )
    per_func_chunks: list[tuple[list[np.ndarray], list[np.ndarray]]] = [
        ([], []) for _ in range(family.k)
    ]
    texts_indexed = 0
    batches = 0
    begin = time.perf_counter()
    for batch in iter_corpus_batches(corpus, batch_texts):
        per_func = generate_corpus_postings(batch, family, t, vocab_hashes)
        for func, (minhashes, postings) in enumerate(per_func):
            if postings.size:
                per_func_chunks[func][0].append(minhashes)
                per_func_chunks[func][1].append(postings)
        texts_indexed += len(batch)
        batches += 1
    generation_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    index = MemoryInvertedIndex.from_postings(
        family, t, merge_per_func_chunks(per_func_chunks)
    )
    index.num_texts = texts_indexed
    merge_seconds = time.perf_counter() - begin
    logger.info(
        "built in-memory index: %d texts, %d postings, k=%d, t=%d "
        "(generation %.2fs, merge %.2fs)",
        texts_indexed,
        index.num_postings,
        family.k,
        t,
        generation_seconds,
        merge_seconds,
    )
    if stats is not None:
        stats.windows_generated += index.num_postings
        stats.generation_seconds += generation_seconds
        stats.merge_seconds += merge_seconds
        stats.texts_indexed += texts_indexed
        stats.batches += batches
        stats.windows_per_func = [
            int(index.list_lengths(func).sum()) for func in range(family.k)
        ]
    return index


def build_and_write_index(
    corpus: Corpus,
    family: HashFamily,
    t: int,
    directory: str | Path,
    *,
    vocab_size: int | None = None,
    batch_texts: int = DEFAULT_BATCH_TEXTS,
    codec: str = "raw",
) -> BuildStats:
    """Build in memory, then persist to ``directory`` (the Algorithm 1 flow).

    ``codec="packed"`` writes the compressed format v2 payload.
    Returns the build statistics with both the generation and the
    write-back phases timed — the quantities of Figure 2(i)–(l) — and
    ``bytes_written`` set to the size of the payload file written.
    """
    stats = BuildStats()
    index = build_memory_index(
        corpus,
        family,
        t,
        vocab_size=vocab_size,
        stats=stats,
        batch_texts=batch_texts,
    )
    begin = time.perf_counter()
    directory = write_index(index, directory, codec=codec)
    stats.io_seconds += time.perf_counter() - begin
    stats.bytes_written = (directory / _PAYLOAD_FILE).stat().st_size
    return stats
