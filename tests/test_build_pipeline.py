"""Tests for the vectorized, streamed build pipeline.

Covers the window kernel (the one-text wrapper and the chunked batch
path) against the per-function oracles, the equivalence of every build
driver with the sequential reference, the bounded-memory streaming
property, and the out-of-core aggregation fixes (empty sub-partitions,
scratch cleanup on failure).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compact_windows import (
    generate_compact_windows_kwide,
    generate_compact_windows_stack,
)
from repro.core.hashing import HashFamily
from repro.corpus.corpus import (
    InMemoryCorpus,
    corpus_nbytes,
    infer_vocab_size,
    iter_corpus_batches,
)
from repro.corpus.store import DiskCorpus, write_corpus
from repro.exceptions import InvalidParameterError
from repro.index import builder
from repro.index.builder import (
    BuildStats,
    build_memory_index,
    generate_corpus_postings,
)
from repro.index.external import (
    SPILL_DTYPE,
    ExternalBuildConfig,
    _flush_partition,
    build_external_index,
)
from repro.index.codec import BLOCK_POSTINGS
from repro.index.inverted import POSTING_BYTES, POSTING_DTYPE
from repro.index.sidecar import SIDECAR_FILE, read_sidecar
from repro.index.storage import _PAYLOAD_FILE, DiskInvertedIndex, write_index

from index_lists import func_lists
from window_oracle import generate_compact_windows_recursive

hash_matrices = st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=40),
        min_size=k,
        max_size=k,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
).map(lambda rows: np.asarray(rows, dtype=np.uint32))


def indexes_equal(a, b) -> bool:
    if a.family != b.family or a.t != b.t or a.num_postings != b.num_postings:
        return False
    for func in range(a.family.k):
        lists_a = func_lists(a, func)
        lists_b = func_lists(b, func)
        if lists_a.keys() != lists_b.keys():
            return False
        for key in lists_a:
            if not np.array_equal(lists_a[key], lists_b[key]):
                return False
    return True


def payload_lists(directory) -> dict[tuple[int, int], bytes]:
    """Payload bytes of every inverted list, keyed by ``(func, minhash)``.

    Lists are contiguous in the payload, so each one spans from its
    start to the next list's start in file order.
    """
    index = DiskInvertedIndex(directory)
    payload = (directory / _PAYLOAD_FILE).read_bytes()
    keys = [
        (func, int(key))
        for func in range(index.family.k)
        for key in index.list_keys(func)
    ]
    arrays = read_sidecar(directory / SIDECAR_FILE)[0]
    if index.codec == "packed":
        # A packed list starts at its first block, the blocks before it
        # being its predecessors' in directory order.
        blocks = (arrays["counts"].astype(np.int64) + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS
        starts = arrays["blk_offsets"][np.cumsum(blocks) - blocks].astype(np.int64)
    else:
        starts = arrays["starts"] * POSTING_BYTES
    ends = np.empty_like(starts)
    order = np.argsort(starts)
    ends[order] = np.append(starts[order][1:], len(payload))
    return {
        key: payload[start:end] for key, start, end in zip(keys, starts, ends)
    }


class TestKWideGenerator:
    @given(matrix=hash_matrices, t=st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_stack_and_recursive_oracles(self, matrix, t):
        """The one-text wrapper must reproduce, row for row, both the
        monotone-stack generator and the recursive Algorithm-2 oracle —
        including on heavy ties (hash values drawn from [0, 9])."""
        kwide = generate_compact_windows_kwide(matrix, t)
        assert len(kwide) == matrix.shape[0]
        for func in range(matrix.shape[0]):
            stack = generate_compact_windows_stack(matrix[func], t)
            assert np.array_equal(kwide[func], stack)
            oracle = {
                (w.left, w.center, w.right)
                for w in generate_compact_windows_recursive(matrix[func], t)
            }
            got = {
                (int(r["left"]), int(r["center"]), int(r["right"]))
                for r in kwide[func]
            }
            assert got == oracle

    def test_short_rows_yield_empty(self):
        matrix = np.asarray([[1, 2], [3, 4]], dtype=np.uint32)
        out = generate_compact_windows_kwide(matrix, t=5)
        assert len(out) == 2 and all(w.size == 0 for w in out)

    def test_rejects_non_matrix(self):
        with pytest.raises(InvalidParameterError):
            generate_compact_windows_kwide(np.arange(5, dtype=np.uint32), t=2)

    def test_rows_independent(self, rng):
        """A row's windows must not be affected by its neighbours."""
        matrix = rng.integers(0, 50, size=(8, 120)).astype(np.uint32)
        kwide = generate_compact_windows_kwide(matrix, t=4)
        for func in range(8):
            alone = generate_compact_windows_kwide(matrix[func : func + 1], t=4)
            assert np.array_equal(kwide[func], alone[0])


def stack_postings(batch, family, t, vocab_hashes):
    """The per-text, per-function stack loop ``generate_corpus_postings``
    must reproduce: one ``generate_compact_windows_stack`` call per row,
    postings in batch order."""
    per_func = []
    for func in range(family.k):
        minhashes, postings = [], []
        for text_id, tokens in batch:
            if vocab_hashes is not None:
                hashes = vocab_hashes[func][tokens.astype(np.int64)]
            else:
                hashes = family.hash_tokens(tokens, func)
            windows = generate_compact_windows_stack(hashes, t)
            rows = np.empty(windows.size, dtype=POSTING_DTYPE)
            rows["text"] = text_id
            for name in ("left", "center", "right"):
                rows[name] = windows[name]
            minhashes.append(hashes[windows["center"].astype(np.int64)])
            postings.append(rows)
        per_func.append(
            (
                np.concatenate(minhashes or [np.empty(0, np.uint32)]),
                np.concatenate(postings or [np.empty(0, POSTING_DTYPE)]),
            )
        )
    return per_func


def assert_matches_stack(batch, family, t, vocab_hashes):
    got = generate_corpus_postings(batch, family, t, vocab_hashes)
    expected = stack_postings(batch, family, t, vocab_hashes)
    assert len(got) == family.k
    for (minhashes, postings), (want_minhashes, want_postings) in zip(got, expected):
        assert minhashes.dtype == np.uint32 and postings.dtype == POSTING_DTYPE
        assert np.array_equal(minhashes, want_minhashes)
        assert np.array_equal(postings, want_postings)


def as_batch(texts, first_id=0):
    """``(text_id, tokens)`` pairs with non-contiguous ids."""
    return [
        (first_id + 3 * i, np.asarray(tokens, dtype=np.uint32))
        for i, tokens in enumerate(texts)
    ]


batches = st.lists(
    st.lists(st.integers(0, 4), max_size=30), min_size=0, max_size=8
)


class TestChunkedGeneration:
    """``generate_corpus_postings`` (one kernel call per chunk of texts)
    equals the per-text stack loop, chunk boundaries included."""

    @given(
        texts=batches,
        k=st.integers(1, 4),
        t=st.integers(1, 12),
        chunk_cells=st.integers(1, 120),
        use_table=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_stack_loop(self, texts, k, t, chunk_cells, use_table):
        """Tokens from [0, 4] tie hashes within and across texts; small
        chunk budgets put chunk boundaries everywhere, including inside
        a single text's budget (a text is never split)."""
        family = HashFamily(k=k, seed=5)
        vocab_hashes = family.hash_vocabulary(5) if use_table else None
        with mock.patch.object(builder, "_CHUNK_CELLS", chunk_cells):
            assert_matches_stack(as_batch(texts), family, t, vocab_hashes)

    @pytest.mark.parametrize(
        "texts, t",
        [
            ([[], [1, 2, 3], [], []], 2),  # empty texts
            ([[4], [2], [4, 4]], 1),  # length-1 texts, t = 1
            ([[1, 2, 3], [3, 2], [0, 1, 2, 3, 4]], 4),  # shorter than t
            ([[2] * 40, [2] * 7], 5),  # all-equal hashes
            ([[3, 1, 2, 2], [2, 2, 1, 3]], 2),  # ties across a boundary
            ([[0, 1, 2, 3] * 5], 1),  # t = 1: every cell is a center
            ([[0, 1, 2], [4, 3]], 50),  # t > n for every text
        ],
    )
    @pytest.mark.parametrize("use_table", [True, False])
    def test_edge_batches(self, texts, t, use_table):
        family = HashFamily(k=3, seed=2)
        vocab_hashes = family.hash_vocabulary(5) if use_table else None
        assert_matches_stack(as_batch(texts, first_id=11), family, t, vocab_hashes)

    def test_text_longer_than_chunk_budget(self, rng):
        """A text past the budget is one chunk of its own, and its
        neighbours still share chunks."""
        family = HashFamily(k=32, seed=4)
        vocab_hashes = family.hash_vocabulary(300)
        texts = [rng.integers(0, 300, size=n) for n in (40, 6_000, 25, 60)]
        assert family.k * texts[1].size > 2 * builder._CHUNK_CELLS
        assert_matches_stack(as_batch(texts), family, 25, vocab_hashes)

    def test_texts_straddle_chunk_boundaries(self, rng):
        """Many texts whose lengths do not divide the budget, so chunk
        boundaries fall at arbitrary texts."""
        family = HashFamily(k=32, seed=4)
        vocab_hashes = family.hash_vocabulary(50)
        texts = [
            rng.integers(0, 50, size=int(rng.integers(0, 700))) for _ in range(40)
        ]
        cells = family.k * sum(text.size + 1 for text in texts)
        assert cells > 4 * builder._CHUNK_CELLS
        assert_matches_stack(as_batch(texts), family, 25, vocab_hashes)

    def test_generation_peak_bounded_by_chunk_budget(self, rng):
        """Peak allocation of one batch's generation is its output plus a
        working set fixed by ``_CHUNK_CELLS``: a batch many times the
        budget never holds the int64 keys of the whole batch."""
        family = HashFamily(k=32, seed=4)
        vocab_hashes = family.hash_vocabulary(4096)
        batch = as_batch(
            [rng.integers(0, 4096, size=300) for _ in range(300)]
        )
        cells = family.k * sum(tokens.size for _, tokens in batch)
        assert cells > 20 * builder._CHUNK_CELLS
        tracemalloc.start()
        tracemalloc.reset_peak()
        per_func = generate_corpus_postings(batch, family, 25, vocab_hashes)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        output = sum(m.nbytes + p.nbytes for m, p in per_func)
        # The output exists twice while the per-chunk parts are joined.
        bound = 2 * output + 64 * builder._CHUNK_CELLS
        assert peak < bound, f"peak {peak} bytes vs bound {bound} bytes"


class TestBuildEquivalence:
    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(41)
        texts = [
            rng.integers(0, 300, size=rng.integers(5, 200)).astype(np.uint32)
            for _ in range(60)
        ]
        texts.append(np.empty(0, dtype=np.uint32))  # empty text edge case
        return InMemoryCorpus(texts)

    @pytest.fixture(scope="class")
    def reference(self, corpus):
        return build_memory_index(corpus, HashFamily(k=4, seed=11), 10)

    def test_batch_size_invariant(self, corpus, reference):
        """Streaming in any batch size yields the identical index."""
        family = HashFamily(k=4, seed=11)
        for batch_texts in (1, 7, 1000):
            index = build_memory_index(corpus, family, 10, batch_texts=batch_texts)
            assert indexes_equal(reference, index)

    def test_external_variants_byte_identical(self, corpus, reference, tmp_path):
        """Every list the external build writes is byte-identical to the
        one ``write_index`` writes for the memory build, for both codecs,
        at any ``batch_texts`` and under a re-partitioning memory budget;
        the payload file is identical across ``batch_texts``."""
        family = HashFamily(k=4, seed=11)
        for codec in ("raw", "packed"):
            expected = payload_lists(
                write_index(reference, tmp_path / f"memory_{codec}", codec=codec)
            )
            payloads = []
            for name, config in (
                ("b1", ExternalBuildConfig(batch_texts=1, codec=codec)),
                ("b9", ExternalBuildConfig(batch_texts=9, codec=codec)),
                ("b1000", ExternalBuildConfig(batch_texts=1000, codec=codec)),
                (
                    "recursive",
                    ExternalBuildConfig(
                        batch_texts=9, memory_budget_bytes=256, codec=codec
                    ),
                ),
            ):
                directory = tmp_path / f"{name}_{codec}"
                build_external_index(corpus, family, 10, directory, config=config)
                assert payload_lists(directory) == expected, (codec, name)
                payloads.append((directory / _PAYLOAD_FILE).read_bytes())
            assert payloads[0] == payloads[1] == payloads[2], codec

    def test_stats_phases_populated(self, corpus, tmp_path):
        family = HashFamily(k=4, seed=11)
        mem_stats = BuildStats()
        build_memory_index(corpus, family, 10, batch_texts=16, stats=mem_stats)
        assert mem_stats.texts_indexed == len(corpus)
        assert mem_stats.batches == 4
        assert mem_stats.generation_seconds > 0
        assert mem_stats.merge_seconds > 0
        ext_stats = build_external_index(
            corpus,
            family,
            10,
            tmp_path / "stats",
            config=ExternalBuildConfig(batch_texts=16),
        )
        assert ext_stats.texts_indexed == len(corpus)
        assert ext_stats.batches == 4
        assert ext_stats.aggregation_seconds > 0
        assert ext_stats.io_seconds > 0
        assert len(ext_stats.windows_per_func) == family.k
        assert sum(ext_stats.windows_per_func) == ext_stats.windows_generated
        assert ext_stats.windows_per_func == mem_stats.windows_per_func


class TestBoundedMemory:
    def test_streaming_peak_below_corpus_size(self, tmp_path):
        """The streamed build must never materialize the corpus: peak
        allocations during the build stay below one corpus copy (the
        index itself is small at this t, so a non-streaming build that
        holds the tokens of every batch at once would blow through the
        bound)."""
        rng = np.random.default_rng(7)
        directory = write_corpus(
            (rng.integers(0, 200, size=2000).astype(np.uint32) for _ in range(256)),
            tmp_path / "corpus",
        )
        corpus = DiskCorpus(directory)
        total_bytes = corpus_nbytes(corpus)  # 2 MiB of tokens
        family = HashFamily(k=2, seed=1)
        tracemalloc.start()
        tracemalloc.reset_peak()
        build_memory_index(corpus, family, 200, batch_texts=8)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < total_bytes, (
            f"peak {peak} bytes vs corpus {total_bytes} bytes: "
            "build is not streaming"
        )


class TestCorpusHelpers:
    def test_infer_vocab_size_uses_corpus_stat(self):
        class Tracked(InMemoryCorpus):
            calls = 0

            def vocabulary_size(self) -> int:
                Tracked.calls += 1
                return super().vocabulary_size()

        corpus = Tracked([np.asarray([3, 9, 1], dtype=np.uint32)])
        assert infer_vocab_size(corpus) == 10
        assert Tracked.calls == 1

    def test_infer_vocab_size_scan_fallback(self):
        class Bare:
            def __init__(self, texts):
                self._texts = texts

            def __len__(self):
                return len(self._texts)

            def __getitem__(self, i):
                return self._texts[i]

            def __iter__(self):
                return iter(self._texts)

            @property
            def total_tokens(self):
                return sum(t.size for t in self._texts)

        corpus = Bare([np.asarray([5, 2], dtype=np.uint32)])
        assert infer_vocab_size(corpus) == 6
        assert infer_vocab_size(Bare([])) == 1

    def test_iter_corpus_batches_fallback(self):
        class Bare:
            def __len__(self):
                return 5

            def __getitem__(self, i):
                return np.asarray([i], dtype=np.uint32)

            def __iter__(self):
                return (self[i] for i in range(5))

            @property
            def total_tokens(self):
                return 5

        batches = list(iter_corpus_batches(Bare(), 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert batches[2][0][0] == 4
        with pytest.raises(InvalidParameterError):
            list(iter_corpus_batches(Bare(), 0))

    def test_disk_corpus_vocab_cached(self, tmp_path):
        directory = write_corpus(
            [np.asarray([7, 3], dtype=np.uint32)], tmp_path / "c"
        )
        corpus = DiskCorpus(directory)
        assert corpus.vocabulary_size() == 8
        assert corpus._vocab_size == 8  # second call hits the cache
        assert infer_vocab_size(corpus) == 8


class TestFlushPartitionFixes:
    def _records(self, n: int, num_keys: int) -> np.ndarray:
        rng = np.random.default_rng(3)
        records = np.zeros(n, dtype=SPILL_DTYPE)
        records["func"] = 0
        records["minhash"] = rng.integers(0, num_keys, size=n)
        records["text"] = rng.integers(0, 50, size=n)
        return records

    def test_recursion_with_skewed_keys(self, tmp_path):
        """One dominant key leaves most sub-partitions empty; the flush
        must still emit every group exactly once."""
        records = self._records(400, num_keys=2)
        config = ExternalBuildConfig(
            num_partitions=8, memory_budget_bytes=256, max_recursion=3
        )
        emitted = []
        _flush_partition(
            records,
            lambda funcs, minhashes, postings, bounds: emitted.extend(
                zip(minhashes.tolist(), np.diff(bounds).tolist())
            ),
            config,
            tmp_path,
            depth=0,
        )
        assert sum(size for _, size in emitted) == 400
        assert sorted(minhash for minhash, _ in emitted) == [0, 1]
        assert not list(tmp_path.glob("depth*"))

    def test_scratch_cleaned_on_emit_failure(self, tmp_path):
        records = self._records(400, num_keys=64)
        config = ExternalBuildConfig(
            num_partitions=4, memory_budget_bytes=256, max_recursion=3
        )

        def failing_emit(funcs, minhashes, postings, bounds):
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            _flush_partition(records, failing_emit, config, tmp_path, depth=0)
        assert not list(tmp_path.glob("depth*"))
